import numpy as np
import pytest

from ganfolio.autodiff import Tensor
from ganfolio.errors import NumericFault, ValidationError
from ganfolio.networks import (ROLES, AdamState, adam_step, build_network, forward,
                               init_parameters, load_networks, sample_dropout_masks,
                               save_networks)

from oracles import tape_forward

N, H, F, M = 2, 8, 4, 6


def built(role, **kwargs):
    net = build_network(role, N, H, F, M, **kwargs)
    return init_parameters(net, np.random.default_rng(0))


def affine_param_count(dims):
    return sum(i * o + o for i, o in dims)


class TestBuildNetwork:
    def test_conditioner_widths(self):
        net = build_network("conditioner", 10, 40, 20, 100)
        assert net.input_width == 400 and net.output_width == 16

    def test_simulator_widths(self):
        net = build_network("simulator", 10, 40, 20, 100)
        assert net.input_width == 116 and net.output_width == 200

    def test_parameter_counts_hand_computed(self):
        expected = {
            "conditioner": affine_param_count([(N * H, 512), (512, 512), (512, 16)]),
            "decoder": affine_param_count([(16, 512), (512, 512), (512, N * H)]),
            "simulator": affine_param_count([(M + 16, 128), (128, 256), (256, 512),
                                             (512, 1024), (1024, N * F)]),
            "discriminator": affine_param_count([(N * (H + F), 512), (512, 512),
                                                 (512, 512), (512, 1)]),
            "proposer": affine_param_count([(N * (H + 1), 512), (512, 512), (512, N)]),
        }
        for role, count in expected.items():
            assert build_network(role, N, H, F, M).n_parameters() == count
        assert (build_network("hybrid_simulator", N, H, F, M).n_parameters()
                == expected["simulator"])

    def test_unknown_role(self):
        with pytest.raises(ValidationError, match="unknown network role"):
            build_network("oracle", N, H, F, M)

    def test_hybrid_zero_preactivation_outputs_zero(self):
        net = build_network("hybrid_simulator", N, H, F, M)  # zero parameters
        out = forward(net, np.zeros(M + 16))
        assert np.array_equal(out, np.zeros(N * F))


class TestForward:
    def test_simulator_range(self):
        net = built("simulator")
        out = forward(net, np.random.default_rng(1).standard_normal(M + 16) * 10)
        assert np.all(np.abs(out) < 1.0)

    def test_hybrid_simulator_range(self):
        net = built("hybrid_simulator")
        out = forward(net, np.random.default_rng(1).standard_normal(M + 16) * 10)
        assert np.all(np.abs(out) <= 100.0)
        assert np.any(np.abs(out) > 1.0) or np.all(out == 0)

    def test_infer_deterministic(self):
        net = built("discriminator")
        x = np.random.default_rng(2).standard_normal(net.input_width)
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_train_mode_needs_rng_or_masks(self):
        net = built("conditioner")
        x = np.zeros(net.input_width)
        with pytest.raises(ValidationError, match="rng or dropout_masks"):
            tape_forward(net, x, mode="train")

    def test_frozen_masks_reproduce(self):
        net = built("conditioner")
        x = np.random.default_rng(3).standard_normal(net.input_width)
        masks = sample_dropout_masks(net, np.random.default_rng(4))
        a = tape_forward(net, x, mode="train", dropout_masks=masks)
        b = tape_forward(net, x, mode="train", dropout_masks=masks)
        assert np.array_equal(a.values, b.values)

    def test_width_mismatch(self):
        net = built("conditioner")
        with pytest.raises(ValidationError, match="width"):
            forward(net, np.zeros(net.input_width + 1))

    @pytest.mark.parametrize("role", ROLES)
    def test_matches_tape_reference_bit_for_bit(self, role):
        net = build_network(role, 5, 40, 20, 100)
        init_parameters(net, np.random.default_rng(11))
        x = np.random.default_rng(12).standard_normal((100, net.input_width))
        for rows in (x[0], x[:1], x):
            out = forward(net, rows)
            assert type(out) is np.ndarray
            assert np.array_equal(out, tape_forward(net, rows).values)
        assert np.array_equal(forward(net, x[0]), forward(net, x[:1])[0])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_names_role_and_layer(self):
        # 1e308 times an input entry of 2 overflows inside the first affine layer
        net = built("simulator")
        net.weights[0][0, 0] = 1e308
        x = np.zeros((3, net.input_width))
        x[1, 0] = 2.0
        with pytest.raises(NumericFault, match=r"^simulator: layer 0 \(affine 22->128\) "
                                               r"produced a non-finite value$"):
            forward(net, x)


class TestInitParameters:
    def test_deterministic_per_seed(self):
        a = init_parameters(build_network("simulator", N, H, F, M), np.random.default_rng(9))
        b = init_parameters(build_network("simulator", N, H, F, M), np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters()))

    def test_biases_zero_and_weights_bounded(self):
        net = built("discriminator")
        for bias in net.biases:
            assert np.array_equal(bias, np.zeros_like(bias))
        for spec, weight in zip((s for s in net.layers if s.kind == "affine"), net.weights):
            assert np.abs(weight).max() <= 1.0 / np.sqrt(spec.in_dim)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = [np.ones((3, 2)), np.zeros(3)]
        state = AdamState.for_parameters(params)
        new_params, state = adam_step(params, [np.zeros((3, 2)), np.zeros(3)], state)
        assert state.step_count == 1
        assert all(np.array_equal(p, q) for p, q in zip(params, new_params))

    def test_first_step_magnitude_is_lr(self):
        # bias-corrected first step is lr * g/(|g| + eps') regardless of |g|
        for g0 in (0.5, 200.0):
            params = [np.array([1.0])]
            state = AdamState.for_parameters(params, lr=1e-3)
            (new,), _ = adam_step(params, [np.array([g0])], state)
            assert abs(params[0][0] - new[0]) == pytest.approx(1e-3, rel=1e-6)

    def test_beta1_zero_is_rmsprop_like(self):
        # with beta1 = 0 the first moment equals the raw gradient
        params = [np.array([1.0])]
        state = AdamState.for_parameters(params, lr=1e-3, beta1=0.0)
        g = np.array([0.7])
        (new,), state = adam_step(params, [g], state)
        v_hat = (1 - state.beta2) * 0.49 / (1 - state.beta2)
        expected = 1.0 - 1e-3 * 0.7 / (np.sqrt(v_hat) + state.epsilon)
        assert new[0] == pytest.approx(expected, rel=1e-12)

    def test_hand_evaluated_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
        params = [np.array([2.0])]
        state = AdamState.for_parameters(params, lr=lr, beta1=b1, beta2=b2, epsilon=eps)
        theta, m, v = 2.0, 0.0, 0.0
        current = params
        for t, g in enumerate([0.3, -0.2, 0.9], start=1):
            current, state = adam_step(current, [np.array([g])], state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert current[0][0] == pytest.approx(theta, rel=1e-12)

    def test_non_finite_gradient_aborts(self):
        params = [np.ones(2)]
        state = AdamState.for_parameters(params)
        with pytest.raises(NumericFault, match="index 0"):
            adam_step(params, [np.array([1.0, np.nan])], state)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_second_moment_aborts(self):
        params = [np.zeros(2), np.zeros(3)]
        state = AdamState.for_parameters(params)
        with pytest.raises(NumericFault, match=r"index 1 \(shape \(3,\)\) overflows"):
            adam_step(params, [np.ones(2), np.array([1e155, 1.0, -1.0])], state)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        params = [rng.standard_normal((4, 4))]
        grads = [rng.standard_normal((4, 4))]
        s1 = AdamState.for_parameters(params)
        s2 = AdamState.for_parameters(params)
        (a,), _ = adam_step(params, grads, s1)
        (b,), _ = adam_step(params, grads, s2)
        assert np.array_equal(a, b)


class TestArchive:
    def test_roundtrip_bit_exact(self, tmp_path):
        nets = {"conditioner": built("conditioner"), "simulator": built("simulator")}
        meta = {"seed": 3, "note": "roundtrip"}
        save_networks(tmp_path / "a.gfa", nets, meta)
        loaded, loaded_meta = load_networks(tmp_path / "a.gfa")
        assert loaded_meta == meta
        for name, net in nets.items():
            for p, q in zip(net.parameters(), loaded[name].parameters()):
                assert np.array_equal(p, q)

    def test_byte_identical_rewrites(self, tmp_path):
        nets = {"discriminator": built("discriminator")}
        save_networks(tmp_path / "a.gfa", nets, {"seed": 1})
        save_networks(tmp_path / "b.gfa", nets, {"seed": 1})
        assert (tmp_path / "a.gfa").read_bytes() == (tmp_path / "b.gfa").read_bytes()

    def test_not_an_archive(self, tmp_path):
        (tmp_path / "junk.gfa").write_bytes(b"junk")
        with pytest.raises(ValidationError, match="not a ganfolio archive"):
            load_networks(tmp_path / "junk.gfa")


class TestForwardGradients:
    @pytest.mark.parametrize("role", ["conditioner", "decoder", "simulator",
                                      "hybrid_simulator", "discriminator", "proposer"])
    def test_fdiff_through_each_stack(self, role):
        from ganfolio import autodiff as ad

        net = built(role)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(net.input_width)
        masks = sample_dropout_masks(net, rng)

        def f(params):
            out = tape_forward(net, x, mode="train", params=params, dropout_masks=masks)
            return ad.mean(ad.square(out))

        leaves = [Tensor(p, requires_grad=True) for p in net.parameters()]
        err = ad.finite_difference_check(f, leaves, step=1e-5, coords_per_param=6,
                                         rng=np.random.default_rng(7))
        assert err < 1e-5, f"{role}: {err}"
