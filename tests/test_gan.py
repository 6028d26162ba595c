import copy
import os
import re
import threading
import warnings

import numpy as np
import pytest

from ganfolio import autodiff as ad
from ganfolio import gan
from ganfolio.autodiff import Tensor
from ganfolio.errors import NumericFault, ValidationError
from ganfolio.gan import (TrainConfig, build_bundle, load_bundle, propose_mean, save_bundle,
                          simulate_paths, train, train_proposer, window_stats)
from ganfolio.marketdata import WindowSample, extract_window
from ganfolio.networks import (AdamUpdate, AdamWorkers, LayerSpec, MlpNetwork, build_network,
                               forward, load_networks, sample_dropout_masks, save_networks)
from ganfolio.normalization import fit_standard, make_hybrid_stats, normalize

from conftest import TINY, adam_state, make_frame, reduce_hybrid_to_plain, sinusoid_frame
import oracles
from oracles import critic_loss, generator_loss, gradient_penalty, mean_proposer, per_draw_paths


def forward_rows(monkeypatch, bundle, test_frame, n_draws):
    """The input row count of each network forward made by one simulate_paths
    call, as {role: [rows, ...]} in call order; a 1-D input counts one row."""
    calls = {}

    def counting(net, x):
        calls.setdefault(net.role, []).append(1 if np.ndim(x) == 1 else len(x))
        return forward(net, x)

    monkeypatch.setattr(gan, "forward", counting)
    simulate_paths(bundle, test_frame, n_draws=n_draws, seed=0)
    return calls


def write_with_config_keys(path, bundle, **keys):
    """Save ``bundle`` with extra keys in its config metadata, as older versions did."""
    save_bundle(path, bundle)
    components, meta = load_networks(path)
    meta["config"].update(keys)
    save_networks(path, components, meta)


def params_of(bundle):
    nets = [bundle.conditioner, bundle.simulator, bundle.discriminator]
    if bundle.decoder is not None:
        nets.append(bundle.decoder)
    return [p for net in nets for p in net.parameters()]


def normalized_window(frame, config, start=1):
    window = extract_window(frame, start, config.h, config.f)
    stats = fit_standard(window.historical)
    full = normalize(window.full, stats)
    return WindowSample(full=full, historical=full[:, :config.h])


class TestTrainConfig:
    def test_defaults_follow_protocol(self):
        config = TrainConfig()
        assert (config.h, config.f, config.m) == (40, 20, 100)
        assert config.w == 60
        assert config.epochs == 1000
        assert (config.lambda1, config.lambda2) == (10.0, 3.0)
        assert (config.lr, config.beta1, config.beta2) == (2e-5, 0.5, 0.999)

    def test_eavesdrop_needs_flag(self):
        with pytest.raises(ValidationError, match="allow_forward_bias"):
            TrainConfig(model_kind="cgan", regime="eavesdrop")
        config = TrainConfig(model_kind="cgan", regime="eavesdrop", allow_forward_bias=True)
        assert config.resolved_regime == "eavesdrop"

    def test_hybrid_regime_rules(self):
        assert TrainConfig(model_kind="hybrid_cgan").resolved_regime == "hybrid"
        with pytest.raises(ValidationError):
            TrainConfig(model_kind="hybrid_cgan", regime="standard")
        with pytest.raises(ValidationError):
            TrainConfig(model_kind="cgan", regime="hybrid")

    def test_output_scale_defaults(self):
        # the simulator role decides the x100 scale
        def simulator_layers(kind):
            config = TrainConfig(model_kind=kind, **TINY)
            proposer = mean_proposer(2, **TINY) if config.is_hybrid else None
            return build_bundle(config, ("A", "B"), proposer=proposer).simulator.layers

        for kind in ("cgan", "acgan"):
            assert all(spec.kind != "scale" for spec in simulator_layers(kind))
        for kind in ("hybrid_cgan", "hybrid_acgan"):
            assert simulator_layers(kind)[-1] == LayerSpec("scale", param=100.0)


class TestGradientPenalty:
    def test_linear_discriminator_analytic_value(self):
        # D(x) = sum(x): gradient is all-ones, penalty (sqrt(d) - 1)^2 exactly
        net = MlpNetwork("discriminator", build_network("discriminator", *([2, 8, 4, 6])).layers)
        d = 2 * 12
        linear = _sum_discriminator(d)
        rng = np.random.default_rng(0)
        real = rng.standard_normal((2, 12))
        fake = rng.standard_normal((2, 12))
        penalty = gradient_penalty(linear, real, fake, eps=0.37, mode="infer")
        assert penalty.item() == pytest.approx((np.sqrt(d) - 1.0) ** 2, abs=1e-12)

    def test_constant_discriminator_penalty_one(self):
        constant = _sum_discriminator(8, weight_scale=0.0)
        real = np.ones((2, 4))
        fake = np.zeros((2, 4))
        penalty = gradient_penalty(constant, real, fake, eps=0.5, mode="infer")
        assert penalty.item() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        net = _sum_discriminator(8)
        with pytest.raises(ValidationError):
            gradient_penalty(net, np.ones((2, 4)), np.ones((2, 5)), eps=0.5)

    # the last-layer bias genuinely drops out of the pure penalty term
    @pytest.mark.filterwarnings("ignore:input Tensor")
    def test_penalty_gradient_matches_fdiff(self, tiny_cgan):
        config = tiny_cgan.config
        rng = np.random.default_rng(1)
        real = rng.standard_normal((2, config.w)) * 0.3
        fake = rng.standard_normal((2, config.w)) * 0.3
        disc = tiny_cgan.discriminator
        masks = sample_dropout_masks(disc, rng)

        def f(params):
            return gradient_penalty(disc, real, fake, eps=0.4, params=params,
                                    mode="train", dropout_masks={"interpolate": masks}.get("interpolate"))

        leaves = [Tensor(p, requires_grad=True) for p in disc.parameters()]
        err = ad.finite_difference_check(f, leaves, step=1e-5, coords_per_param=5,
                                         rng=np.random.default_rng(2))
        assert err < 1e-4


def _sum_discriminator(input_width, weight_scale=1.0):
    """Single affine layer discriminator computing weight_scale * sum(x) + 7."""
    from ganfolio.networks import LayerSpec

    net = MlpNetwork("discriminator", [LayerSpec("affine", in_dim=input_width, out_dim=1)])
    net.set_parameters([np.full((1, input_width), weight_scale), np.array([7.0])])
    return net


class TestLosses:
    def test_lambda1_zero_linear_discriminator_reduces_to_difference(self, tiny_frame):
        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, lambda1=0.0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        bundle.discriminator = _sum_discriminator(2 * config.w)
        window = normalized_window(tiny_frame, config)
        fake = window.full + 0.1
        loss = critic_loss(bundle, window, fake, eps=0.5, mode="infer")
        expected = (fake.sum() + 7.0) - (window.full.sum() + 7.0)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_identical_real_fake_zero_difference_loss(self, tiny_frame):
        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, lambda1=0.0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        bundle.discriminator = _sum_discriminator(2 * config.w)
        window = normalized_window(tiny_frame, config)
        loss = critic_loss(bundle, window, window.full.copy(), eps=0.5, mode="infer")
        assert loss.item() == 0.0

    def test_generator_loss_gradients_match_fdiff(self, tiny_frame):
        config = TrainConfig(model_kind="acgan", epochs=1, seed=0, lambda2=3.0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        window = normalized_window(tiny_frame, config)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(config.m)
        masks = {"conditioner": sample_dropout_masks(bundle.conditioner, rng),
                 "discriminator": sample_dropout_masks(bundle.discriminator, rng),
                 "decoder": sample_dropout_masks(bundle.decoder, rng)}
        cond_n = len(bundle.conditioner.parameters())
        sim_n = len(bundle.simulator.parameters())

        def f(params):
            split = {"conditioner": params[:cond_n],
                     "simulator": params[cond_n:cond_n + sim_n],
                     "decoder": params[cond_n + sim_n:]}
            loss, _ = generator_loss(bundle, window, z, params=split, mode="train", masks=masks)
            return loss

        leaves = ([Tensor(p, requires_grad=True) for p in bundle.conditioner.parameters()]
                  + [Tensor(p, requires_grad=True) for p in bundle.simulator.parameters()]
                  + [Tensor(p, requires_grad=True) for p in bundle.decoder.parameters()])
        err = ad.finite_difference_check(f, leaves, step=1e-5, coords_per_param=3,
                                         rng=np.random.default_rng(4))
        assert err < 1e-4

    def test_perfect_autoencoder_zero_ap(self, tiny_frame):
        config = TrainConfig(model_kind="acgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        window = normalized_window(tiny_frame, config)
        hist_flat = window.historical.ravel()

        # swap in a decoder that reproduces the history exactly
        bundle_decoder = bundle.decoder
        original_forward = oracles.tape_forward
        try:
            def patched(net, x, **kwargs):
                if net is bundle_decoder:
                    return Tensor(hist_flat)
                return original_forward(net, x, **kwargs)

            oracles.tape_forward = patched
            _, ap = generator_loss(bundle, window, np.zeros(config.m), mode="infer")
        finally:
            oracles.tape_forward = original_forward
        assert ap.item() == 0.0


class TestSteps:
    def test_critic_step_touches_only_discriminator(self, tiny_frame):
        from ganfolio.gan import critic_step

        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        window = normalized_window(tiny_frame, config)
        before = {name: [p.copy() for p in net.parameters()]
                  for name, net in (("conditioner", bundle.conditioner),
                                    ("simulator", bundle.simulator),
                                    ("discriminator", bundle.discriminator))}
        rngs = {"conditioner": np.random.default_rng(0), "simulator": np.random.default_rng(1),
                "discriminator": np.random.default_rng(2), "eps": np.random.default_rng(3)}
        optim = {"discriminator": adam_state(bundle.discriminator.parameters(), config)}
        with AdamWorkers() as workers:
            critic_step(bundle, window, np.zeros(config.m), rngs, optim, workers)
        assert all(np.array_equal(p, q) for p, q in
                   zip(before["conditioner"], bundle.conditioner.parameters()))
        assert all(np.array_equal(p, q) for p, q in
                   zip(before["simulator"], bundle.simulator.parameters()))
        assert not all(np.array_equal(p, q) for p, q in
                       zip(before["discriminator"], bundle.discriminator.parameters()))

    def test_generator_step_leaves_discriminator(self, tiny_frame):
        from ganfolio.gan import generator_step

        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        window = normalized_window(tiny_frame, config)
        disc_before = [p.copy() for p in bundle.discriminator.parameters()]
        rngs = {"conditioner": np.random.default_rng(0), "simulator": np.random.default_rng(1),
                "discriminator": np.random.default_rng(2)}
        optim = {"conditioner": adam_state(bundle.conditioner.parameters(), config),
                 "simulator": adam_state(bundle.simulator.parameters(), config)}
        with AdamWorkers() as workers:
            generator_step(bundle, window, np.zeros(config.m), rngs, optim, workers)
        assert all(np.array_equal(p, q)
                   for p, q in zip(disc_before, bundle.discriminator.parameters()))

    @pytest.mark.parametrize("step", ["generator_step", "critic_step"])
    def test_a_step_returns_with_every_block_of_its_updates_done(self, tiny_frame, monkeypatch,
                                                                 step):
        # one pool thread, held inside the first block it takes until a timer releases it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        run_block = AdamUpdate.run_block

        def hold_the_pool_thread(update, *args):
            if threading.current_thread() is not threading.main_thread():
                release.wait()
            return run_block(update, *args)

        monkeypatch.setattr(AdamUpdate, "run_block", hold_the_pool_thread)
        updates = []

        class Recorded(AdamWorkers):
            def submit(self, *args, **kwargs):
                updates.append(super().submit(*args, **kwargs))
                return updates[-1]

        config = TrainConfig(model_kind="acgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        rngs = {name: np.random.default_rng(i) for i, name in
                enumerate(("conditioner", "simulator", "discriminator", "decoder", "eps"))}
        optim = {name: adam_state(net.parameters(), config)
                 for name, net in gan._trainable_nets(bundle).items()}
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with Recorded() as workers:
                getattr(gan, step)(bundle, normalized_window(tiny_frame, config),
                                   np.zeros(config.m), rngs, optim, workers)
                done = [block.done() and not block.cancelled()
                        for update in updates for block in update.blocks]
        finally:
            release.set()
            timer.cancel()
        assert len(updates) == (3 if step == "generator_step" else 1) and all(done)


class TestProposer:
    def test_requires_hybrid_kind(self, tiny_frame):
        with pytest.raises(ValidationError, match="hybrid"):
            train_proposer(tiny_frame, TrainConfig(model_kind="cgan", epochs=1, **TINY))

    def test_constant_prices_learns_mean(self):
        prices = np.stack([np.full(40, 50.0), np.full(40, 20.0)])
        frame = make_frame(prices)
        config = TrainConfig(model_kind="hybrid_cgan", h=8, f=4, m=6, epochs=40,
                             lr=1e-3, seed=0)
        proposer, mse = train_proposer(frame, config)
        # constant series: whole-window mean equals historical mean everywhere
        mu = np.array([50.0, 20.0])
        proposed = propose_mean(proposer, prices[:, :8], mu)
        assert mse < 1.0
        assert np.abs(proposed - mu).max() < 1.5

    def test_propose_mean_deterministic(self, tiny_frame):
        config = TrainConfig(model_kind="hybrid_cgan", h=8, f=4, m=6, epochs=2, seed=0)
        proposer, _ = train_proposer(tiny_frame, config)
        hist = tiny_frame.prices[:, :8]
        mu = hist.mean(axis=1)
        assert np.array_equal(propose_mean(proposer, hist, mu),
                              propose_mean(proposer, hist, mu))

    def test_linear_drift_beats_copy_baseline(self):
        # prices a + b*t: whole-window mean exceeds historical mean by b*f/2
        b = 0.05
        days = 60
        t = np.arange(days)
        frame = make_frame(np.stack([2.0 + b * t, 4.0 + b * t]))
        config = TrainConfig(model_kind="hybrid_cgan", h=8, f=4, m=6, epochs=150,
                             lr=1e-3, seed=1)
        _, mse = train_proposer(frame, config)
        baseline = (b * config.f / 2.0) ** 2
        assert mse < 0.25 * baseline


class TestTrain:
    def test_one_window_one_epoch_accounting(self):
        frame = sinusoid_frame(2, days=12, seed=1)  # exactly one window for w=12
        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, **TINY)
        bundle = train(frame, config)
        assert len(bundle.training_log) == 1
        assert bundle.trained

    def test_insufficient_data(self):
        frame = sinusoid_frame(2, days=10, seed=1)
        with pytest.raises(ValidationError, match="need at least"):
            train(frame, TrainConfig(model_kind="cgan", epochs=1, seed=0, **TINY))

    def test_bit_identical_retrain(self, tiny_frame, tiny_cgan):
        again = train(tiny_frame, tiny_cgan.config)
        for p, q in zip(params_of(tiny_cgan), params_of(again)):
            assert np.array_equal(p, q)
        for a, b in zip(tiny_cgan.training_log, again.training_log):
            assert (a.epoch, a.critic_loss, a.generator_loss) == (b.epoch, b.critic_loss, b.generator_loss)
            assert np.array_equal([a.ap_loss, a.proposer_mse],
                                  [b.ap_loss, b.proposer_mse], equal_nan=True)

    def test_losses_finite_and_logged(self, tiny_cgan):
        for entry in tiny_cgan.training_log:
            assert np.isfinite(entry.critic_loss)
            assert np.isfinite(entry.generator_loss)
            assert np.isnan(entry.ap_loss)  # cgan has no AP term
            assert np.isnan(entry.proposer_mse)

    def test_acgan_lambda2_zero_matches_cgan(self, tiny_frame, tiny_cgan):
        config = TrainConfig(model_kind="acgan", lambda2=0.0, epochs=2, seed=11, **TINY)
        acgan = train(tiny_frame, config)
        for p, q in zip([*tiny_cgan.conditioner.parameters(),
                         *tiny_cgan.simulator.parameters(),
                         *tiny_cgan.discriminator.parameters()],
                        [*acgan.conditioner.parameters(),
                         *acgan.simulator.parameters(),
                         *acgan.discriminator.parameters()]):
            assert np.array_equal(p, q)

    def test_hybrid_copy_mu_matches_plain(self, tiny_frame, tiny_cgan, monkeypatch):
        reduce_hybrid_to_plain(monkeypatch)
        config = TrainConfig(model_kind="hybrid_cgan", epochs=2, seed=11, **TINY)
        hybrid = train(tiny_frame, config)
        for p, q in zip([*tiny_cgan.conditioner.parameters(),
                         *tiny_cgan.simulator.parameters(),
                         *tiny_cgan.discriminator.parameters()],
                        [*hybrid.conditioner.parameters(),
                         *hybrid.simulator.parameters(),
                         *hybrid.discriminator.parameters()]):
            assert np.array_equal(p, q)

    def test_divergence_names_epoch_window_role_and_layer(self, tiny_frame):
        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, lr=1e300, **TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(NumericFault) as caught:
                train(tiny_frame, config)
        assert re.fullmatch(r"training diverged at epoch 1, window start \d+: conditioner: "
                            r"layer \d+ \(affine \d+->\d+\) produced a non-finite value",
                            str(caught.value))

    def test_proposer_divergence_names_epoch_and_window(self, tiny_frame):
        config = TrainConfig(model_kind="hybrid_cgan", epochs=1, seed=0, lr=1e300, **TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFault, match=r"proposer training diverged at epoch 1, "
                                                   r"window start \d+: proposer: layer \d+"):
                train(tiny_frame, config)

    def test_proposer_loss_overflow_names_epoch_and_window(self, tiny_frame):
        # at lr 1e100 the proposer's output stays finite and its squared error overflows
        config = TrainConfig(model_kind="hybrid_cgan", epochs=1, seed=0, lr=1e100, **TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFault, match=r"proposer training diverged at epoch 1, "
                                                   r"window start \d+: proposer MSE is not "
                                                   r"finite \(inf\)"):
                train_proposer(tiny_frame, config)

    def test_adam_overflow_names_epoch_window_role_and_index(self, tiny_frame, monkeypatch):
        # a finite gradient above about 1.3e154 overflows its square in Adam
        config = TrainConfig(model_kind="hybrid_acgan", epochs=2, seed=0, lr=1e8, **TINY)
        updates = []

        class Recorded(AdamWorkers):
            def submit(self, *args, **kwargs):
                updates.append(super().submit(*args, **kwargs))
                return updates[-1]

        monkeypatch.setattr("ganfolio.gan.AdamWorkers", Recorded)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFault) as caught:
                train(tiny_frame, config)
        assert re.fullmatch(r"(proposer )?training diverged at epoch \d+, window start \d+: "
                            r"\w+: adam_step: gradient at index \d+ \(shape \([\d, ]+\)\) "
                            r"overflows the second moment", str(caught.value))
        # the fault leaves no thread running and no block lost, pending or skipped
        assert threading.active_count() == threads
        assert updates and all(block.done() and not block.cancelled()
                               for update in updates for block in update.blocks)

    def test_copy_mu_stats_equal_standard(self, tiny_frame):
        config = TrainConfig(model_kind="hybrid_cgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers,
                              proposer=mean_proposer(tiny_frame.n_assets, **TINY))
        window = extract_window(tiny_frame, 1, config.h, config.f)
        hybrid_stats = window_stats(bundle, window)
        standard = fit_standard(window.historical)
        assert np.array_equal(hybrid_stats.center, standard.center)
        assert np.array_equal(hybrid_stats.scale, standard.scale)


class TestHybridNetworkTraining:
    @pytest.fixture(scope="class", params=["hybrid_cgan", "hybrid_acgan"])
    def hybrid(self, request, tiny_frame):
        return train(tiny_frame, TrainConfig(model_kind=request.param, epochs=1, seed=5, **TINY))

    def test_trains_with_its_proposer(self, hybrid):
        assert hybrid.trained and hybrid.proposer is not None
        assert np.isfinite(hybrid.proposer_mse)
        assert hybrid.training_log[0].proposer_mse == hybrid.proposer_mse

    def test_roundtrip_keeps_proposer_bit_for_bit(self, hybrid, tmp_path):
        save_bundle(tmp_path / "h.gfa", hybrid)
        loaded = load_bundle(tmp_path / "h.gfa")
        assert loaded.proposer.role == hybrid.proposer.role
        assert loaded.proposer.layers == hybrid.proposer.layers
        assert [p.tobytes() for p in loaded.proposer.parameters()] == \
            [p.tobytes() for p in hybrid.proposer.parameters()]
        assert loaded.proposer_mse == hybrid.proposer_mse

    def test_simulated_values_inside_scaled_tanh_range(self, hybrid, tiny_frame):
        test = make_frame(tiny_frame.prices[:, :20])
        paths = simulate_paths(hybrid, test, n_draws=5, seed=2)
        h, f = hybrid.config.h, hybrid.config.f
        for start in (9, 13, 17):
            hist = test.prices[:, start - 1 - h:start - 1]
            base = fit_standard(hist)
            stats = make_hybrid_stats(base.scale, propose_mean(hybrid.proposer, hist, base.center))
            renorm = normalize(paths[:, :, start - 1:start - 1 + f], stats)
            assert np.all(np.abs(renorm) < 100.0)

    def test_single_draw_matches_per_draw_reference(self, hybrid, tiny_frame):
        test = make_frame(tiny_frame.prices[:, :20])
        got = simulate_paths(hybrid, test, n_draws=1, seed=2)
        want = per_draw_paths(hybrid, test.prices, n_draws=1, seed=2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_proposer_per_block_others_stacked(self, hybrid, tiny_frame, monkeypatch):
        test = make_frame(tiny_frame.prices[:, :20])  # blocks start at days 9, 13, 17
        calls = forward_rows(monkeypatch, hybrid, test, n_draws=50)
        assert calls == {hybrid.proposer.role: [1, 1, 1], hybrid.conditioner.role: [3],
                         hybrid.simulator.role: [75, 75]}


class TestSimulatePaths:
    def test_prefix_copied_bit_exact(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        paths = simulate_paths(tiny_cgan, test, n_draws=2, seed=3)
        assert paths.shape == (2, 2, 20)
        for k in range(2):
            assert np.array_equal(paths[k][:, :8], test.prices[:, :8])

    def test_draws_differ_beyond_prefix(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        paths = simulate_paths(tiny_cgan, test, n_draws=2, seed=3)
        assert not np.array_equal(paths[0][:, 8:], paths[1][:, 8:])

    def test_generated_block_ignores_later_columns(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        perturbed_prices = test.prices.copy()
        perturbed_prices[:, 12:] *= 1.5  # beyond the first block's conditioning data
        perturbed = make_frame(perturbed_prices)
        a = simulate_paths(tiny_cgan, test, n_draws=1, seed=9)[0]
        b = simulate_paths(tiny_cgan, perturbed, n_draws=1, seed=9)[0]
        # first generated block (days 9..12) depends only on days 1..8
        assert np.array_equal(a[:, 8:12], b[:, 8:12])

    def test_untrained_bundle_rejected(self, tiny_frame):
        config = TrainConfig(model_kind="cgan", epochs=1, seed=0, **TINY)
        bundle = build_bundle(config, tiny_frame.tickers)
        test = make_frame(tiny_frame.prices[:, :20])
        with pytest.raises(ValidationError, match="not trained"):
            simulate_paths(bundle, test, n_draws=1, seed=0)

    def test_divisibility_propagates(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :18])  # (18-8) % 4 != 0
        with pytest.raises(ValidationError, match="truncate"):
            simulate_paths(tiny_cgan, test, n_draws=1, seed=0)

    def test_same_inputs_byte_identical_paths(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        a = simulate_paths(tiny_cgan, test, n_draws=5, seed=4)
        b = simulate_paths(tiny_cgan, test, n_draws=5, seed=4)
        assert a.tobytes() == b.tobytes()

    def test_draw_agrees_across_n_draws(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        few = simulate_paths(tiny_cgan, test, n_draws=7, seed=4)
        many = simulate_paths(tiny_cgan, test, n_draws=100, seed=4)
        assert np.abs(many[:7] - few).max() <= 1e-12 * np.abs(few).max()

    def test_single_draw_matches_per_draw_reference(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        got = simulate_paths(tiny_cgan, test, n_draws=1, seed=4)
        want = per_draw_paths(tiny_cgan, test.prices, n_draws=1, seed=4)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_draws", [1, 9, 42, 43, 100])
    def test_one_conditioner_forward_and_chunked_simulator_forwards(self, tiny_frame, tiny_cgan,
                                                                    monkeypatch, n_draws):
        test = make_frame(tiny_frame.prices[:, :20])  # blocks start at days 9, 13, 17
        calls = forward_rows(monkeypatch, tiny_cgan, test, n_draws)
        assert calls.keys() == {"conditioner", "simulator"}
        assert calls["conditioner"] == [3]
        # the fewest chunks of at most 128 rows, balanced to within one row
        sizes, rows = calls["simulator"], 3 * n_draws
        assert gan.SIMULATOR_CHUNK_ROWS == 128
        assert sum(sizes) == rows and len(sizes) == -(-rows // 128)
        assert max(sizes) <= 128 and max(sizes) - min(sizes) <= 1

    def test_fault_names_the_first_faulting_block(self, tiny_frame, tiny_cgan):
        # A simulator weight w on the first latent entry overflows the first
        # affine layer exactly for the entries above DBL_MAX / w in magnitude.
        # Pick a seed whose largest such entry lies in the middle block, well
        # clear of the other two blocks' entries, and w between them, so only
        # the block from test day 13 overflows.  At 43 draws the 129 rows make
        # two simulator chunks, which run on the pool when two CPUs are usable.
        def first_entries(seed, n_draws):  # (draws, blocks), keyed like the library's streams
            return np.abs([np.random.default_rng([seed, 6, 0, j]).standard_normal((3, 6))[:, 0]
                           for j in range(n_draws)])
        layer = tiny_cgan.simulator.layers[0]
        test = make_frame(tiny_frame.prices[:, :20])
        for n_draws in (2, 43):
            seed, entries = next((seed, entries) for seed in range(1000)
                                 if (entries := first_entries(seed, n_draws))[:, 1].max()
                                 > 1.5 * max(entries[:, [0, 2]].max(), 1.0))
            middle, others = entries[:, 1].max(), max(entries[:, [0, 2]].max(), 1.0)
            bundle = copy.deepcopy(tiny_cgan)
            bundle.simulator.weights[0][0, 0] = np.finfo(np.float64).max / np.sqrt(middle * others)
            with pytest.raises(NumericFault) as raised:
                simulate_paths(bundle, test, n_draws=n_draws, seed=seed)
            assert str(raised.value) == (
                f"simulating the block from test day 13 ({test.dates[12]}): simulator: layer 0 "
                f"(affine {layer.in_dim}->{layer.out_dim}) produced a non-finite value"), n_draws

    def test_nonhybrid_normalized_output_strictly_inside_unit(self, tiny_frame, tiny_cgan):
        test = make_frame(tiny_frame.prices[:, :20])
        paths = simulate_paths(tiny_cgan, test, n_draws=3, seed=5)
        config = tiny_cgan.config
        for path in paths:
            for start in (9, 13, 17):
                hist = test.prices[:, start - 1 - config.h:start - 1]
                stats = fit_standard(hist)
                renorm = normalize(path[:, start - 1:start - 1 + config.f], stats)
                assert np.all(np.abs(renorm) < 1.0)


@pytest.fixture(scope="module")
def regime_bundles(tiny_frame, tiny_cgan):
    """A toy trained bundle per normalization regime."""
    config = dict(epochs=1, seed=5, **TINY)
    return {"standard": tiny_cgan,
            "hybrid": train(tiny_frame, TrainConfig(model_kind="hybrid_cgan", **config)),
            "eavesdrop": train(tiny_frame, TrainConfig(model_kind="cgan", regime="eavesdrop",
                                                       allow_forward_bias=True, **config))}


def blocks_before_and_after_scaling(bundle, test):
    """Each generated block's values before and after scaling the test prices
    from that block's first day onward; yields (start, before, after)."""
    f = bundle.config.f
    before = simulate_paths(bundle, test, n_draws=3, seed=9)
    for start in (9, 13, 17):
        prices = test.prices.copy()
        prices[:, start - 1:] *= 1.5
        after = simulate_paths(bundle, make_frame(prices), n_draws=3, seed=9)
        block = slice(start - 1, start - 1 + f)
        yield start, before[:, :, block], after[:, :, block]


class TestSimulationLookAhead:
    @pytest.mark.parametrize("regime", ["standard", "hybrid"])
    def test_block_ignores_its_own_and_later_days(self, regime_bundles, tiny_frame, regime):
        test = make_frame(tiny_frame.prices[:, :20])
        for start, before, after in blocks_before_and_after_scaling(regime_bundles[regime], test):
            assert np.array_equal(before, after), start

    def test_eavesdrop_block_reads_its_own_days(self, regime_bundles, tiny_frame):
        # the perturbation does reach a block whose normalization looks ahead
        test = make_frame(tiny_frame.prices[:, :20])
        for start, before, after in blocks_before_and_after_scaling(regime_bundles["eavesdrop"],
                                                                     test):
            assert not np.array_equal(before, after), start


class TestEavesdropSimulation:
    def test_single_draw_matches_per_draw_reference(self, regime_bundles, tiny_frame):
        bundle = regime_bundles["eavesdrop"]
        test = make_frame(tiny_frame.prices[:, :20])
        got = simulate_paths(bundle, test, n_draws=1, seed=4)
        want = per_draw_paths(bundle, test.prices, n_draws=1, seed=4)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBundlePersistence:
    def test_roundtrip_and_same_paths(self, tiny_frame, tiny_cgan, tmp_path):
        save_bundle(tmp_path / "b.gfa", tiny_cgan)
        loaded = load_bundle(tmp_path / "b.gfa")
        assert loaded.config == tiny_cgan.config
        assert loaded.tickers == tiny_cgan.tickers
        test = make_frame(tiny_frame.prices[:, :20])
        assert np.array_equal(simulate_paths(tiny_cgan, test, 2, seed=0),
                              simulate_paths(loaded, test, 2, seed=0))

    def test_archive_holds_exactly_the_bundles_networks(self, regime_bundles, tmp_path):
        hybrid = regime_bundles["hybrid"]
        assert list(hybrid.networks()) == ["conditioner", "simulator", "discriminator",
                                           "proposer"]
        save_bundle(tmp_path / "h.gfa", hybrid)
        components, _ = load_networks(tmp_path / "h.gfa")
        assert sorted(components) == sorted(hybrid.networks())

    @pytest.mark.parametrize("name", ["conditioner", "simulator", "discriminator"])
    def test_archive_missing_a_network_rejected(self, tiny_cgan, tmp_path, name):
        save_bundle(tmp_path / "b.gfa", tiny_cgan)
        components, meta = load_networks(tmp_path / "b.gfa")
        del components[name]
        save_networks(tmp_path / "b.gfa", components, meta)
        with pytest.raises(ValidationError, match=name):
            load_bundle(tmp_path / "b.gfa")

    def test_byte_identical_archives(self, tiny_cgan, tmp_path):
        save_bundle(tmp_path / "a.gfa", tiny_cgan)
        save_bundle(tmp_path / "b.gfa", tiny_cgan)
        assert (tmp_path / "a.gfa").read_bytes() == (tmp_path / "b.gfa").read_bytes()

    def test_archive_with_retired_knobs_at_one_loads(self, tiny_frame, tiny_cgan, tmp_path):
        path = tmp_path / "old.gfa"
        write_with_config_keys(path, tiny_cgan, batch_windows=1, critic_steps_per_gen=1)
        loaded = load_bundle(path)
        assert loaded.config == tiny_cgan.config
        test = make_frame(tiny_frame.prices[:, :20])
        assert np.array_equal(simulate_paths(tiny_cgan, test, 2, seed=0),
                              simulate_paths(loaded, test, 2, seed=0))

    @pytest.mark.parametrize("key", ["batch_windows", "critic_steps_per_gen"])
    def test_archive_with_retired_knob_above_one_rejected(self, tiny_cgan, tmp_path, key):
        path = tmp_path / "old.gfa"
        write_with_config_keys(path, tiny_cgan, **{key: 4})
        with pytest.raises(ValidationError, match=f"{key} other than 1"):
            load_bundle(path)

    def test_damaged_archives_raise_validation_error(self, tiny_cgan, tmp_path):
        save_bundle(tmp_path / "good.gfa", tiny_cgan)
        raw = (tmp_path / "good.gfa").read_bytes()
        data_start = 16 + int.from_bytes(raw[8:16], "little")
        rng = np.random.default_rng(21)
        cases = [raw[:k] for k in rng.integers(0, data_start + 64, 30)]
        cases += [raw[:k] for k in rng.integers(data_start, len(raw), 10)]
        for k in np.concatenate([rng.integers(0, data_start, 120), rng.integers(0, len(raw), 20)]):
            damaged = bytearray(raw)
            damaged[k] ^= int(rng.integers(1, 256))
            cases.append(bytes(damaged))
        loaded = 0
        for data in cases:  # any exception but ValidationError fails the test
            (tmp_path / "bad.gfa").write_bytes(data)
            try:
                load_bundle(tmp_path / "bad.gfa")
                loaded += 1
            except ValidationError:
                pass
        assert 0 < loaded < len(cases)
