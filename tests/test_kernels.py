"""The hand-written training kernels against the autodiff tape they replace.

Every kernel gradient must match the tape's gradient of the same loss with
the same frozen dropout masks within 1e-12 of the largest tape entry, at toy
and at protocol widths.
"""

import copy

import numpy as np
import pytest

from ganfolio import autodiff as ad
from ganfolio.autodiff import Tensor
from ganfolio.errors import ValidationError
from ganfolio.gan import (MODEL_KINDS, TrainConfig, _normalized_window, _rng, _trainable_nets,
                          build_bundle, critic_gradients, critic_step, generator_gradients,
                          generator_step, mse_gradients, window_stats)
from ganfolio.marketdata import extract_window
from ganfolio.networks import (AdamWorkers, LayerSpec, MlpNetwork, build_network,
                               init_parameters, sample_dropout_masks, tangent_forward,
                               train_forward)

from conftest import adam_state, sinusoid_frame
from oracles import (critic_loss, generator_loss, mean_proposer, tape_forward,
                     tape_training_steps)

WIDTHS = {"toy": (2, dict(h=8, f=4, m=6)), "protocol": (5, dict(h=40, f=20, m=100))}
TOL = 1e-12


def assert_close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= TOL * scale, f"{what}: off by more than 1e-12 relative"


def setting(kind, width):
    n_assets, dims = WIDTHS[width]
    frame = sinusoid_frame(n_assets, days=dims["h"] + dims["f"] + 6, seed=3)
    config = TrainConfig(model_kind=kind, epochs=1, seed=4, **dims)
    proposer = mean_proposer(n_assets, **dims) if config.is_hybrid else None
    bundle = build_bundle(config, frame.tickers, proposer=proposer)
    window = extract_window(frame, 2, config.h, config.f)
    return bundle, _normalized_window(window, window_stats(bundle, window), config.h)


def generator_names(bundle):
    return ["conditioner", "simulator"] + (["decoder"] if bundle.decoder is not None else [])


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("kind", MODEL_KINDS)
class TestKernelGradientsMatchTape:
    def test_generator(self, kind, width):
        bundle, window = setting(kind, width)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(bundle.config.m)
        masks = {name: sample_dropout_masks(getattr(bundle, name), rng)
                 for name in generator_names(bundle) + ["discriminator"]}
        leaves = {name: [Tensor(p, requires_grad=True) for p in getattr(bundle, name).parameters()]
                  for name in generator_names(bundle)}
        loss, ap = generator_loss(bundle, window, z, params=leaves, mode="train", masks=masks)
        tape = ad.gradient(loss, [t for name in leaves for t in leaves[name]])

        row_masks = {name: [m[None] for m in ms] for name, ms in masks.items()}
        k_loss, k_ap, k_grads = generator_gradients(bundle, window, z, row_masks)
        kernel = [g for name in leaves for g in k_grads[name]]
        assert abs(k_loss - loss.item()) <= TOL * abs(loss.item())
        if ap is None:
            assert np.isnan(k_ap)
        else:
            assert abs(k_ap - ap.item()) <= TOL * abs(ap.item())
        assert len(kernel) == len(tape)
        for i, (got, want) in enumerate(zip(kernel, tape)):
            assert_close(got, want.values, f"generator gradient {i}")

    def test_critic(self, kind, width):
        bundle, window = setting(kind, width)
        rng = np.random.default_rng(8)
        fake = window.full + 0.1 * rng.standard_normal(window.full.shape)
        masks = {row: sample_dropout_masks(bundle.discriminator, rng)
                 for row in ("real", "fake", "interpolate")}
        leaves = [Tensor(p, requires_grad=True) for p in bundle.discriminator.parameters()]
        loss = critic_loss(bundle, window, fake, 0.43, params=leaves, mode="train", masks=masks)
        tape = ad.gradient(loss, leaves)

        stacked = [np.stack(rows) for rows in zip(masks["real"], masks["fake"],
                                                   masks["interpolate"])]
        k_loss, _, kernel = critic_gradients(bundle.discriminator, window.full, fake, 0.43,
                                             bundle.config.lambda1, stacked)
        assert abs(k_loss - loss.item()) <= TOL * abs(loss.item())
        for i, (got, want) in enumerate(zip(kernel, tape)):
            assert_close(got, want.values, f"critic gradient {i}")


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_proposer_mse_gradients_match_tape(width):
    n_assets, dims = WIDTHS[width]
    proposer = init_parameters(build_network("proposer", n_assets, dims["h"], dims["f"],
                                             dims["m"]), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal(proposer.input_width)
    target = rng.standard_normal(n_assets)
    masks = sample_dropout_masks(proposer, rng)
    leaves = [Tensor(p, requires_grad=True) for p in proposer.parameters()]
    loss = ad.mse(tape_forward(proposer, x, mode="train", params=leaves, dropout_masks=masks),
                  Tensor(target))
    tape = ad.gradient(loss, leaves)
    k_loss, kernel = mse_gradients(proposer, x, target, [m[None] for m in masks])
    assert abs(k_loss - loss.item()) <= TOL * loss.item()
    for i, (got, want) in enumerate(zip(kernel, tape)):
        assert_close(got, want.values, f"proposer gradient {i}")


class TestPenaltyKernel:
    def linear(self, d, weight):
        net = MlpNetwork("discriminator", [LayerSpec("affine", in_dim=d, out_dim=1)])
        net.set_parameters([np.full((1, d), weight), np.array([3.0])])
        return net

    def test_analytic_sum_discriminator(self):
        # D(x) = sum(x) + 3: grad_x D is all ones, so the penalty is (sqrt(d)-1)^2,
        # and d penalty / dW = 2 (sqrt(d)-1)/sqrt(d) per weight, with no bias term
        d, lambda1 = 24, 10.0
        rng = np.random.default_rng(0)
        real, fake = rng.standard_normal(d), rng.standard_normal(d)
        loss, penalty, (grad_w, grad_b) = critic_gradients(self.linear(d, 1.0), real, fake,
                                                           0.61, lambda1, [])
        root = np.sqrt(d)
        assert abs(penalty - (root - 1.0) ** 2) < 1e-12
        assert abs(loss - (fake.sum() - real.sum() + lambda1 * (root - 1.0) ** 2)) < 1e-12
        want_w = fake - real + lambda1 * 2.0 * (root - 1.0) / root
        assert np.abs(grad_w[0] - want_w).max() < 1e-12
        assert grad_b.tolist() == [0.0]

    def test_tanh_stack_rejected(self):
        net = build_network("simulator", 2, 8, 4, 6)
        _, cache = train_forward(net, np.zeros((1, net.input_width)), [])
        with pytest.raises(ValidationError, match="piecewise-linear"):
            tangent_forward(net, cache, 0, np.ones(net.input_width))


def fresh_training_state(bundle):
    """(networks, dropout and eps streams, Adam states) as train() sets them up."""
    nets = _trainable_nets(bundle)
    rngs = {name: _rng(4, "dropout", name)
            for name in ("conditioner", "simulator", "discriminator", "decoder")}
    rngs["eps"] = _rng(4, "eps")
    optim = {name: adam_state(net.parameters(), bundle.config) for name, net in nets.items()}
    return nets, rngs, optim


@pytest.mark.parametrize("kind", ["cgan", "acgan"])
def test_a_written_network_is_not_read_again(kind):
    """After ``written(name)`` the pass reads neither that network's
    parameters nor its gradients, so its update may run at once."""
    runs = []
    for poison in (False, True):
        bundle, window = setting(kind, "toy")
        rng = np.random.default_rng(7)
        z = rng.standard_normal(bundle.config.m)
        masks = {name: sample_dropout_masks(getattr(bundle, name), rng, 1)
                 for name in generator_names(bundle) + ["discriminator"]}
        copies = {}

        def written(name):
            net = getattr(bundle, name)
            copies[name] = net.grad.copy()
            if poison:
                net.flat[...] = np.nan
                net.grad[...] = np.nan

        loss, ap, _ = generator_gradients(bundle, window, z, masks, written)
        runs.append([np.float64(loss).tobytes(), np.float64(ap).tobytes()]
                    + [copies[name].tobytes() for name in generator_names(bundle)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_steps_match_tape_step(kind):
    """The steps draw every dropout mask and eps in the tape's order."""
    bundle, window = setting(kind, "toy")
    reference = copy.deepcopy(bundle)
    z = np.random.default_rng(9).standard_normal(bundle.config.m)

    nets, rngs, optim = fresh_training_state(bundle)
    with AdamWorkers() as workers:
        gen_loss, _ = generator_step(bundle, window, z, rngs, optim, workers)
        crit_loss = critic_step(bundle, window, z, rngs, optim, workers)
    tape_nets, tape_rngs, tape_optim = fresh_training_state(reference)
    tape_gen, tape_crit = tape_training_steps(reference, window, z, tape_rngs, tape_optim)

    assert abs(gen_loss - tape_gen) <= TOL * abs(tape_gen)
    assert abs(crit_loss - tape_crit) <= TOL * abs(tape_crit)
    for name, net in nets.items():
        for i, (got, want) in enumerate(zip(net.parameters(), tape_nets[name].parameters())):
            assert_close(got, want, f"{name} parameter {i} after one step")
