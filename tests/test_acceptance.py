"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.  Budgeted criteria assert their own wall-clock limits.
"""

import time

import numpy as np
import pytest

from ganfolio import autodiff as ad
from ganfolio.autodiff import Tensor, finite_difference_check, gradient
from ganfolio.backtest import (REBALANCE_SETTINGS, WeightSchedule, markowitz_schedule,
                               portfolio_value_series, run_experiment, strategy_from_paths)
from ganfolio.config import RunConfig
from ganfolio.gan import TrainConfig, build_bundle, simulate_paths, train, train_proposer
from ganfolio.marketdata import (extract_window, inference_index_set, training_index_set)
from ganfolio.networks import (LayerSpec, MlpNetwork, build_network, init_parameters,
                               sample_dropout_masks)
from ganfolio.normalization import (denormalize, fit_eavesdrop, fit_standard,
                                    make_hybrid_stats, normalize)
from ganfolio.portfolio import MomentEstimate, max_sharpe_weights

from conftest import make_frame, reduce_hybrid_to_plain
from oracles import (critic_loss, generator_loss, gradient_penalty, grid_max_sharpe,
                     mean_proposer, oracle_sharpe, random_psd_instance, tape_forward)

TOY = dict(h=8, f=4, m=6)


def report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def drift_sinusoid(days, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days, dtype=np.float64)
    a = 12.0 + 0.05 * t + 1.5 * np.sin(t / 2.0) + 0.05 * rng.standard_normal(days)
    b = 25.0 + 0.03 * t + 2.0 * np.cos(t / 3.0) + 0.05 * rng.standard_normal(days)
    return make_frame(np.abs(np.stack([a, b])) + 1.0)


def normalized_window_of(frame, config, bundle, start=1):
    from ganfolio.gan import window_stats, _normalized_window

    window = extract_window(frame, start, config.h, config.f)
    return _normalized_window(window, window_stats(bundle, window), config.h)


class TestGradientCorrectness:
    def test_all_roles_all_losses_match_finite_differences(self):
        start = time.monotonic()
        frame = drift_sinusoid(26, seed=1)
        fd_rng = np.random.default_rng(99)
        worst = {}

        for kind in ("cgan", "acgan", "hybrid_cgan", "hybrid_acgan"):
            config = TrainConfig(model_kind=kind, epochs=1, seed=4, **TOY)
            proposer = mean_proposer(frame.n_assets, **TOY) if config.is_hybrid else None
            bundle = build_bundle(config, frame.tickers, proposer=proposer)
            window = normalized_window_of(frame, config, bundle)
            rng = np.random.default_rng(7)
            z = rng.standard_normal(config.m)
            masks = {name: sample_dropout_masks(net, rng) for name, net in
                     (("conditioner", bundle.conditioner),
                      ("discriminator", bundle.discriminator))}
            if bundle.decoder is not None:
                masks["decoder"] = sample_dropout_masks(bundle.decoder, rng)

            # generator-side loss (covers conditioner/encoder, simulator,
            # hybrid simulator, and decoder through the AP term)
            gen_nets = {"conditioner": bundle.conditioner, "simulator": bundle.simulator}
            if bundle.decoder is not None:
                gen_nets["decoder"] = bundle.decoder
            sizes = {name: len(net.parameters()) for name, net in gen_nets.items()}

            def gen_f(params, _sizes=sizes, _bundle=bundle, _window=window, _z=z, _masks=masks):
                split, cursor = {}, 0
                for name, count in _sizes.items():
                    split[name] = params[cursor:cursor + count]
                    cursor += count
                loss, _ = generator_loss(_bundle, _window, _z, params=split,
                                         mode="train", masks=_masks)
                return loss

            leaves = [Tensor(p, requires_grad=True)
                      for net in gen_nets.values() for p in net.parameters()]
            worst[f"{kind}:generator"] = finite_difference_check(
                gen_f, leaves, step=(1e-5, 1e-4), coords_per_param=4, rng=fd_rng)

            # critic loss including the gradient penalty (double backprop)
            fake = window.full + 0.1 * rng.standard_normal(window.full.shape)
            critic_masks = {"real": sample_dropout_masks(bundle.discriminator, rng),
                            "fake": sample_dropout_masks(bundle.discriminator, rng),
                            "interpolate": sample_dropout_masks(bundle.discriminator, rng)}

            def critic_f(params, _bundle=bundle, _window=window, _fake=fake,
                         _masks=critic_masks):
                return critic_loss(_bundle, _window, _fake, eps=0.43, params=params,
                                   mode="train", masks=_masks)

            d_leaves = [Tensor(p, requires_grad=True)
                        for p in bundle.discriminator.parameters()]
            worst[f"{kind}:critic"] = finite_difference_check(
                critic_f, d_leaves, step=(1e-5, 1e-4), coords_per_param=4, rng=fd_rng)

        # proposer role via its MSE training loss
        proposer = init_parameters(build_network("proposer", 2, TOY["h"], TOY["f"], TOY["m"]),
                                   np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(proposer.input_width)
        target = rng.standard_normal(2)
        p_masks = sample_dropout_masks(proposer, rng)

        def proposer_f(params):
            out = tape_forward(proposer, x, mode="train", params=params, dropout_masks=p_masks)
            return ad.mse(out, Tensor(target))

        p_leaves = [Tensor(p, requires_grad=True) for p in proposer.parameters()]
        worst["proposer:mse"] = finite_difference_check(proposer_f, p_leaves, step=(1e-5, 1e-4),
                                                        coords_per_param=4, rng=fd_rng)

        elapsed = time.monotonic() - start
        for name, err in worst.items():
            assert err < 1e-4, f"{name}: max relative error {err}"
        assert elapsed < 60.0, f"gradient correctness took {elapsed:.1f}s (budget 60s)"
        report(f"gradient correctness: {len(worst)} losses, worst rel err "
               f"{max(worst.values()):.2e}, {elapsed:.1f}s")


class TestDoubleBackpropPenalty:
    def test_analytic_sum_discriminator(self):
        d = 2 * 12
        linear = MlpNetwork("discriminator", [LayerSpec("affine", in_dim=d, out_dim=1)])
        linear.set_parameters([np.ones((1, d)), np.array([3.0])])
        rng = np.random.default_rng(0)
        real = rng.standard_normal((2, 12))
        fake = rng.standard_normal((2, 12))
        penalty = gradient_penalty(linear, real, fake, eps=0.61, mode="infer")
        expected = (np.sqrt(d) - 1.0) ** 2
        assert abs(penalty.item() - expected) < 1e-12

        constant = MlpNetwork("discriminator", [LayerSpec("affine", in_dim=d, out_dim=1)])
        constant.set_parameters([np.zeros((1, d)), np.array([5.0])])
        assert abs(gradient_penalty(constant, real, fake, 0.5, mode="infer").item() - 1.0) < 1e-12

        report("double backprop: analytic (sqrt(d)-1)^2 within 1e-12")

    # the hidden bias genuinely drops out of the pure penalty term
    @pytest.mark.filterwarnings("ignore:input Tensor")
    def test_random_two_layer_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w1 = Tensor(rng.standard_normal((9, 8)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.standard_normal(9) * 0.1, requires_grad=True)
        w2 = Tensor(rng.standard_normal((1, 9)) * 0.5, requires_grad=True)
        xv = rng.standard_normal(8)

        def f(params):
            weight1, bias1, weight2 = params
            x = Tensor(xv, requires_grad=True)
            hidden = ad.leaky_relu(ad.add(ad.matmul(x, ad.transpose(weight1)), bias1), 0.2)
            score = ad.sum_(ad.matmul(hidden, ad.transpose(weight2)))
            (gx,) = gradient(score, [x], create_graph=True)
            return ad.square(ad.add_scalar(ad.l2_norm(gx), -1.0))

        err = finite_difference_check(f, [w1, b1, w2], step=1e-5)
        assert err < 1e-4
        report(f"double backprop: random 2-layer rel err {err:.2e} < 1e-4")


class TestNormalizationAcceptance:
    def test_round_trip_10000_windows_three_regimes(self):
        rng = np.random.default_rng(2)
        h, w = 8, 12
        x = 1.0 + rng.random((10_000, w)) * 200.0
        worst = 0.0
        standard = fit_standard(x[:, :h])
        eavesdrop = fit_eavesdrop(x, h=h)
        hybrid = make_hybrid_stats(standard.scale,
                                   standard.center + rng.standard_normal(10_000))
        for stats in (standard, eavesdrop, hybrid):
            back = denormalize(normalize(x, stats), stats)
            worst = max(worst, float(np.max(np.abs(back - x) / np.abs(x))))
        assert worst < 1e-10
        report(f"normalization round trip: 10000 windows x 3 regimes, worst {worst:.2e}")

    def test_hybrid_with_copied_center_bit_comparable_to_standard(self):
        rng = np.random.default_rng(3)
        x = 1.0 + rng.random((500, 12)) * 50.0
        standard = fit_standard(x[:, :8])
        hybrid = make_hybrid_stats(standard.scale, standard.center)
        assert np.array_equal(normalize(x, hybrid), normalize(x, standard))
        assert np.array_equal(denormalize(normalize(x, hybrid), hybrid),
                              denormalize(normalize(x, standard), standard))
        report("normalization: hybrid with copied center bit-comparable to standard")


class TestMaxSharpeAcceptance:
    def test_200_random_instances_beat_grid_oracle(self):
        rng = np.random.default_rng(4)
        plan = [(2, 100), (3, 60), (4, 40)]
        worst_gap = np.inf
        for n, cases in plan:
            for _ in range(cases):
                mu, cov = random_psd_instance(rng, n)
                m = MomentEstimate(mu, cov)
                v = max_sharpe_weights(m)
                grid_sr, _ = grid_max_sharpe(mu, cov, step=0.001)
                sr = oracle_sharpe(v, mu, cov)
                gap = sr - grid_sr
                worst_gap = min(worst_gap, gap)
                assert gap >= -1e-3, f"N={n}: solver {sr} vs grid {grid_sr}"
        report(f"max-Sharpe solver: 200 instances, worst margin over grid {worst_gap:+.2e}")

    def test_closed_form_tangency(self):
        m = MomentEstimate(np.array([0.1, 0.2]), np.diag([0.04, 0.04]))
        v = max_sharpe_weights(m)
        assert np.abs(v - [1 / 3, 2 / 3]).max() < 1e-4
        report("max-Sharpe solver: two-asset tangency (1/3, 2/3) within 1e-4")

    def test_argmax_invariance_under_covariance_scaling(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            mu, cov = random_psd_instance(rng, n)
            v1 = max_sharpe_weights(MomentEstimate(mu, cov))
            v2 = max_sharpe_weights(MomentEstimate(mu, 13.0 * cov))
            assert np.abs(v1 - v2).max() < 1e-6
        report("max-Sharpe solver: argmax invariant to covariance scaling")


@pytest.fixture(scope="module")
def toy_bundle():
    frame = drift_sinusoid(26, seed=6)
    return frame, train(frame, TrainConfig(model_kind="cgan", epochs=2, seed=8, **TOY))


class TestAlgorithmAccounting:
    def test_index_set_sizes(self):
        for day_count, w in [(100, 60), (60, 60), (321, 17)]:
            assert training_index_set(day_count, w).size == day_count - w + 1
        for day_count, h, f in [(800, 40, 20), (64, 8, 4), (60, 40, 20)]:
            s2 = inference_index_set(day_count, h, f)
            assert s2.size == (day_count - h) // f
            assert np.all(np.diff(s2) == f)
        report("algorithm accounting: |S1| = D-w+1 and |S2| = (K-h)/f")

    def test_prefix_copy_bit_exact(self, toy_bundle):
        frame, bundle = toy_bundle
        test_frame = make_frame(frame.prices[:, :24])
        paths = simulate_paths(bundle, test_frame, n_draws=4, seed=12)
        for path in paths:
            assert np.array_equal(path[:, :TOY["h"]], test_frame.prices[:, :TOY["h"]])
        report("algorithm accounting: emitted prefix equals observed first h columns bit-exactly")

    def test_block_invariant_to_later_columns(self, toy_bundle):
        frame, bundle = toy_bundle
        test_frame = make_frame(frame.prices[:, :24])
        perturbed_prices = test_frame.prices.copy()
        h, f = TOY["h"], TOY["f"]
        block_start = h + 1  # generated block covers days 9..12, conditioned on 1..8
        perturbed_prices[:, block_start + f - 1:] *= 1.9
        perturbed = make_frame(perturbed_prices)
        a = simulate_paths(bundle, test_frame, n_draws=2, seed=13)
        b = simulate_paths(bundle, perturbed, n_draws=2, seed=13)
        assert np.array_equal(a[:, :, block_start - 1:block_start - 1 + f],
                              b[:, :, block_start - 1:block_start - 1 + f])
        report("algorithm accounting: generated block invariant to perturbations beyond its history")


class TestReductions:
    def test_acgan_lambda2_zero_and_hybrid_copy_mu_match_cgan(self, monkeypatch):
        frame = drift_sinusoid(26, seed=7)
        base = train(frame, TrainConfig(model_kind="cgan", epochs=2, seed=21, **TOY))
        acgan = train(frame, TrainConfig(model_kind="acgan", lambda2=0.0, epochs=2,
                                         seed=21, **TOY))
        reduce_hybrid_to_plain(monkeypatch)
        hybrid = train(frame, TrainConfig(model_kind="hybrid_cgan", epochs=2, seed=21, **TOY))
        shared = lambda b: [*b.conditioner.parameters(), *b.simulator.parameters(),
                            *b.discriminator.parameters()]
        for p, q in zip(shared(base), shared(acgan)):
            assert np.array_equal(p, q)
        for p, q in zip(shared(base), shared(hybrid)):
            assert np.array_equal(p, q)
        report("reductions: acgan(lambda2=0) and hybrid(copy-mean) match cgan bit-identically")


class TestProposerLearning:
    def test_linear_drift_beats_copy_baseline(self):
        start = time.monotonic()
        b = 0.05
        t = np.arange(160, dtype=np.float64)
        frame = make_frame(np.stack([2.0 + b * t, 4.0 + b * t]))
        config = TrainConfig(model_kind="hybrid_cgan", h=40, f=20, m=6,
                             epochs=150, lr=1e-3, seed=31)
        _, mse = train_proposer(frame, config)
        elapsed = time.monotonic() - start
        baseline = (b * config.f / 2.0) ** 2
        assert mse < 0.25 * baseline, f"MSE {mse} vs budget {0.25 * baseline}"
        assert elapsed < 300.0, f"proposer training took {elapsed:.0f}s (budget 300s)"
        report(f"proposer learning: val MSE {mse:.4f} < {0.25 * baseline:.4f} "
               f"(copy baseline {baseline:.4f}), {elapsed:.0f}s")


class TestEndToEndSmoke:
    def test_pipeline_completes_with_clean_invariants(self):
        start = time.monotonic()
        frame = drift_sinusoid(40, seed=9)
        train_frame = make_frame(frame.prices[:, :20], tickers=frame.tickers)
        test_frame = make_frame(frame.prices[:, 20:], tickers=frame.tickers)
        config = TrainConfig(model_kind="cgan", h=8, f=4, m=6, epochs=200, seed=17)
        bundle = train(train_frame, config)

        for entry in bundle.training_log:
            assert np.isfinite(entry.critic_loss) and np.isfinite(entry.generator_loss)

        result = run_experiment(bundle, test_frame, eta=4, n_draws=50, seed=3)
        assert np.isfinite(result.draw_scatter).all()
        assert np.abs(result.schedule.weights.sum(axis=1) - 1.0).max() < 1e-12
        assert (result.value_series > 0).all()

        # non-hybrid generated values stay strictly inside tanh range after
        # re-normalizing each emitted block with its own window stats
        paths = simulate_paths(bundle, test_frame, n_draws=5, seed=23)
        for path in paths:
            for block_start in inference_index_set(test_frame.day_count, 8, 4):
                hist = test_frame.prices[:, block_start - 9:block_start - 1]
                stats = fit_standard(hist)
                renorm = normalize(path[:, block_start - 1:block_start + 3], stats)
                assert np.all(np.abs(renorm) < 1.0)

        markowitz = run_experiment("markowitz", test_frame, eta=4, h=8)
        assert (markowitz.value_series > 0).all()

        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"smoke took {elapsed:.0f}s (budget 600s)"
        report(f"end-to-end smoke: T=200 run, 50 draws, simplex/range/finiteness "
               f"invariants hold, markowitz alongside, {elapsed:.0f}s")


class TestBacktestOracles:
    def test_buy_and_hold_doubling_exact(self):
        prices = np.stack([np.array([64.0, 64.0, 96.0, 128.0]), np.full(4, 5.0)])
        frame = make_frame(prices)
        values, _ = portfolio_value_series(WeightSchedule((2,), np.array([[1.0, 0.0]])), frame)
        assert values[-1] == 2.0
        report("backtest oracle: buy-and-hold doubling asset ends at exactly 2.0")

    def test_frictionless_self_consistency_random_schedules(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            prices = 10.0 * np.exp(np.cumsum(rng.standard_normal((3, 25)) * 0.03, axis=1))
            frame = make_frame(prices)
            coarse = WeightSchedule((1, 13, 25)[:2], rng.dirichlet(np.ones(3), size=2))
            values, _ = portfolio_value_series(coarse, frame)
            # insert a mid-block rebalance at the implied (drifted) weights
            mid = 7
            growth = prices[:, mid - 1] / prices[:, 0]
            implied = coarse.weights[0] * growth
            implied /= implied.sum()
            refined = WeightSchedule((1, 7, 13), np.vstack([coarse.weights[0], implied,
                                                            coarse.weights[1]]))
            refined_values, _ = portfolio_value_series(refined, frame)
            assert np.allclose(values, refined_values, rtol=1e-12)
        report("backtest oracle: rebalancing to implied weights leaves the value series unchanged")

    def test_no_forward_bias_markowitz_and_gan(self):
        frame = drift_sinusoid(26, seed=11)
        bundle = train(frame, TrainConfig(model_kind="cgan", epochs=1, seed=41, **TOY))
        test_frame = make_frame(frame.prices[:, :24])

        marko = markowitz_schedule(test_frame, eta=4, h=8)
        for i, t in enumerate(marko.rebalance_indices):
            perturbed_prices = test_frame.prices.copy()
            perturbed_prices[:, t - 1:] *= 1.6
            marko2 = markowitz_schedule(make_frame(perturbed_prices), eta=4, h=8)
            assert np.array_equal(marko.weights[i], marko2.weights[i])

        paths = simulate_paths(bundle, test_frame, 2, seed=5)
        schedules = strategy_from_paths(paths, test_frame, eta=4, h=8, f=4)
        perturbed_prices = test_frame.prices.copy()
        perturbed_prices[:, 12:] *= 1.6  # second rebalance day is 13
        perturbed = make_frame(perturbed_prices)
        paths2 = simulate_paths(bundle, perturbed, 2, seed=5)
        schedules2 = strategy_from_paths(paths2, perturbed, eta=4, h=8, f=4)
        for s1, s2 in zip(schedules, schedules2):
            assert np.array_equal(s1.weights[0], s2.weights[0])
        report("backtest oracle: no-forward-bias perturbation test passes "
               "(markowitz and per-draw schedules)")


class TestProtocolConstants:
    def test_defaults_match_protocol(self):
        t = TrainConfig()
        assert (t.h, t.f, t.w, t.m) == (40, 20, 60, 100)
        assert t.epochs == 1000
        assert (t.lambda1, t.lambda2) == (10.0, 3.0)
        assert (t.lr, t.beta1, t.beta2) == (2e-5, 0.5, 0.999)

        r = RunConfig()
        assert (r.h, r.f, r.m) == (40, 20, 100)
        assert r.epochs == 1000 and r.n_draws == 1000
        assert (r.lambda1, r.lambda2) == (10.0, 3.0)
        assert (r.lr, r.beta1, r.beta2) == (2e-5, 0.5, 0.999)
        assert r.r_f == 0.0
        assert sorted(REBALANCE_SETTINGS.values()) == [10, 15, 20]
        assert REBALANCE_SETTINGS == {"defensive": 10, "balanced": 15, "aggressive": 20}
        assert r.eta in REBALANCE_SETTINGS.values()
        report("protocol constants: h=40 f=20 w=60 m=100 T=1000 lambda1=10 lambda2=3 "
               "lr=2e-5 beta1=0.5 beta2=0.999 r_f=0 eta in {10,15,20} n_draws=1000")
