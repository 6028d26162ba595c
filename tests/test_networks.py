import math
import os
import sys
import threading

import numpy as np
import pytest

from ganfolio import networks
from ganfolio.autodiff import Tensor
from ganfolio.errors import NumericFault, ValidationError
from ganfolio.networks import (ADAM_BLOCK, ADAM_EPSILON, ROLES, AdamState, AdamUpdate,
                               AdamWorkers, adam_step, build_network, forward, init_parameters,
                               load_networks, sample_dropout_masks, save_networks)

from conftest import adam_state
from oracles import tape_forward

N, H, F, M = 2, 8, 4, 6


def built(role, **kwargs):
    net = build_network(role, N, H, F, M, **kwargs)
    return init_parameters(net, np.random.default_rng(0))


def output_width(net):
    return net.biases[-1].size


def parameter_count(net):
    return sum(p.size for p in net.parameters())


def affine_param_count(dims):
    return sum(i * o + o for i, o in dims)


class TestBuildNetwork:
    def test_conditioner_widths(self):
        net = build_network("conditioner", 10, 40, 20, 100)
        assert net.input_width == 400 and output_width(net) == 16

    def test_simulator_widths(self):
        net = build_network("simulator", 10, 40, 20, 100)
        assert net.input_width == 116 and output_width(net) == 200

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
            assert parameter_count(build_network(role, N, H, F, M)) == count
        assert (parameter_count(build_network("hybrid_simulator", N, H, F, M))
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


def adam(params, grads, state):
    """adam_step on one flat buffer holding ``params``; returns the updated
    arrays and leaves ``params`` as they were."""
    flat = np.concatenate([np.ravel(p) for p in params])
    with AdamWorkers() as workers:
        adam_step(flat, np.concatenate([np.ravel(g) for g in grads]), state, workers)
    parts = np.split(flat, np.cumsum([np.size(p) for p in params])[:-1])
    return [part.reshape(np.shape(p)) for part, p in zip(parts, params)]


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = [np.ones((3, 2)), np.zeros(3)]
        state = adam_state(params)
        new_params = adam(params, [np.zeros((3, 2)), np.zeros(3)], state)
        assert state.step_count == 1
        assert all(np.array_equal(p, q) for p, q in zip(params, new_params))

    def test_first_step_magnitude_is_lr(self):
        # bias-corrected first step is lr * g/(|g| + eps') regardless of |g|
        for g0 in (0.5, 200.0):
            params = [np.array([1.0])]
            state = adam_state(params, lr=1e-3)
            (new,) = adam(params, [np.array([g0])], state)
            assert abs(params[0][0] - new[0]) == pytest.approx(1e-3, rel=1e-6)

    def test_beta1_zero_is_rmsprop_like(self):
        # with beta1 = 0 the first moment equals the raw gradient
        params = [np.array([1.0])]
        state = adam_state(params, lr=1e-3, beta1=0.0)
        g = np.array([0.7])
        (new,) = adam(params, [g], state)
        v_hat = (1 - state.beta2) * 0.49 / (1 - state.beta2)
        expected = 1.0 - 1e-3 * 0.7 / (np.sqrt(v_hat) + ADAM_EPSILON)
        assert new[0] == pytest.approx(expected, rel=1e-12)

    def test_hand_evaluated_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
        params = [np.array([2.0])]
        state = AdamState.for_parameters(params, lr=lr, beta1=b1, beta2=b2)
        theta, m, v = 2.0, 0.0, 0.0
        current = params
        for t, g in enumerate([0.3, -0.2, 0.9], start=1):
            current = adam(current, [np.array([g])], state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert current[0][0] == pytest.approx(theta, rel=1e-12)

    def test_unit_bias_corrections_match_scalar_recurrence_bit_for_bit(self):
        # at beta 0.5 both corrections round to exactly 1.0 from step 54 on,
        # where the update skips its divisions by them
        lr, b1, b2, eps = 0.01, 0.5, 0.5, 1e-8
        rng = np.random.default_rng(11)
        start = rng.standard_normal(5)
        state = AdamState.for_parameters([start], lr=lr, beta1=b1, beta2=b2)
        current = [start]
        theta, m, v = [float(x) for x in start], [0.0] * 5, [0.0] * 5
        for t in range(1, 61):
            g = rng.standard_normal(5) * 10.0 ** rng.integers(-3, 3, 5)
            current = adam(current, [g], state)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, gi in enumerate(g.tolist()):
                m[i] = m[i] * b1 + gi * (1.0 - b1)
                v[i] = v[i] * b2 + gi * gi * (1.0 - b2)
                theta[i] -= m[i] / c1 / (math.sqrt(v[i] / c2) + eps) * lr
            assert current[0].tolist() == theta, t
        assert 1.0 - b1 ** 54 == 1.0 and 1.0 - b1 ** 53 != 1.0

    def test_non_finite_gradient_aborts(self):
        params = [np.ones(2)]
        state = adam_state(params)
        with pytest.raises(NumericFault, match="index 0"):
            adam(params, [np.array([1.0, np.nan])], state)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_second_moment_aborts(self):
        params = [np.zeros(2), np.zeros(3)]
        state = adam_state(params)
        with pytest.raises(NumericFault, match=r"index 1 \(shape \(3,\)\) overflows"):
            adam(params, [np.ones(2), np.array([1e155, 1.0, -1.0])], state)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        params = [rng.standard_normal((4, 4))]
        grads = [rng.standard_normal((4, 4))]
        s1 = adam_state(params)
        s2 = adam_state(params)
        (a,) = adam(params, grads, s1)
        (b,) = adam(params, grads, s2)
        assert np.array_equal(a, b)

    def test_chunked_update_matches_scalar_recurrence_bit_for_bit(self):
        # the flat buffer spans two chunks, and the boundary falls inside array 1
        lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
        rng = np.random.default_rng(8)
        params = [rng.standard_normal(3), rng.standard_normal((2, ADAM_BLOCK // 2 + 1)),
                  rng.standard_normal((4, 5))]
        state = AdamState.for_parameters(params, lr=lr, beta1=b1, beta2=b2)
        current = params
        theta = np.concatenate([p.ravel() for p in params]).tolist()
        m, v = [0.0] * len(theta), [0.0] * len(theta)
        assert len(theta) > ADAM_BLOCK
        for t in range(1, 4):
            grads = [rng.standard_normal(p.shape) for p in params]
            current = adam(current, grads, state)
            c1, c2 = 1 - b1 ** t, 1 - b2 ** t
            # the recurrence of test_hand_evaluated_recurrence in adam_step's operation order
            for k, g in enumerate(np.concatenate([g.ravel() for g in grads]).tolist()):
                m[k] = m[k] * b1 + g * (1 - b1)
                v[k] = v[k] * b2 + g * g * (1 - b2)
                theta[k] -= m[k] / c1 / (math.sqrt(v[k] / c2) + eps) * lr
            assert np.concatenate([p.ravel() for p in current]).tolist() == theta

    def test_lowest_faulty_index_is_named_whatever_the_chunk(self):
        params = [np.zeros(3), np.zeros(ADAM_BLOCK), np.zeros(ADAM_BLOCK)]
        grads = [np.ones(3), np.ones(ADAM_BLOCK), np.ones(ADAM_BLOCK)]
        grads[1][-1], grads[2][0], grads[2][-1] = 1e155, np.inf, 1e155
        with pytest.raises(NumericFault, match=rf"^adam_step: non-finite gradient at index 2 "
                                               rf"\(shape \({ADAM_BLOCK},\)\)$"):
            adam(params, grads, adam_state(params))
        grads[2][0] = 1.0
        with pytest.raises(NumericFault, match=rf"^adam_step: gradient at index 1 "
                                               rf"\(shape \({ADAM_BLOCK},\)\) overflows"):
            adam(params, grads, adam_state(params))

    @pytest.mark.filterwarnings("error")
    def test_waiting_on_an_update_raises_only_its_own_fault(self):
        # the first update spans two blocks and overflows in the second
        first = [np.zeros(3), np.zeros(ADAM_BLOCK)]
        grads = np.ones(3 + ADAM_BLOCK)
        grads[-1] = 1e155
        second = np.zeros(5)
        with AdamWorkers() as workers:
            faulty = workers.submit(np.zeros(3 + ADAM_BLOCK), grads, adam_state(first),
                                    "simulator")
            clean = workers.submit(second, np.ones(5), adam_state([second]), "conditioner")
            workers.wait(clean)
            assert np.all(second < 0.0)
            with pytest.raises(NumericFault, match=rf"^simulator: adam_step: gradient at index 1 "
                                                   rf"\(shape \({ADAM_BLOCK},\)\) overflows"):
                workers.wait(faulty)

    def test_eight_threads_match_one_under_fast_switching(self, monkeypatch):
        # a lost or repeated block would change some element's bits or leave a block pending
        rng = np.random.default_rng(3)
        sizes = (5, ADAM_BLOCK + 7, 3 * ADAM_BLOCK)
        grads = [rng.standard_normal(size) for size in sizes]

        def train(cpus, out):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            params = [np.zeros(size) for size in sizes]
            states = [adam_state([p]) for p in params]
            updates = []
            with AdamWorkers() as workers:
                for _ in range(20):
                    for p, g, state in zip(params, grads, states):
                        updates.append(workers.submit(p, g, state))
                    workers.wait()
            out.extend(params)
            out.append(all(block.done() and not block.cancelled()
                           for update in updates for block in update.blocks))

        one, eight = [], []
        train(1, one)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=train, args=(8, eight), daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert one[-1] and eight[-1]
        assert all(np.array_equal(a, b) for a, b in zip(one[:-1], eight[:-1]))

    def test_the_waiter_makes_progress_while_every_pool_thread_is_busy(self, monkeypatch):
        # two usable CPUs give one pool thread, held inside the block of update A
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        held, release = threading.Event(), threading.Event()
        run_block = AdamUpdate.run_block

        def hold_off_the_main_thread(update, *args):
            if threading.current_thread() is not threading.main_thread():
                held.set()
                release.wait()
            return run_block(update, *args)

        monkeypatch.setattr(AdamUpdate, "run_block", hold_off_the_main_thread)
        a, b = np.zeros(5), np.zeros(5)
        timeout = threading.Timer(30.0, release.set)  # a stuck waiter fails, not hangs
        timeout.start()
        try:
            with AdamWorkers() as workers:
                first = workers.submit(a, np.ones(5), adam_state([a]))
                assert held.wait(timeout=30.0)
                workers.wait(workers.submit(b, np.ones(5), adam_state([b])))
                assert not release.is_set()  # B was applied while A was still held
                assert np.all(b < 0.0) and np.all(a == 0.0)
                release.set()
                workers.wait(first)
                assert np.all(a < 0.0)
        finally:
            release.set()
            timeout.cancel()

    @pytest.mark.filterwarnings("error")
    def test_an_exception_in_a_block_reaches_the_waiter(self):
        # lr * 1 subtracted from -1e308 overflows in every block, as a RuntimeWarning error
        params = np.full(3 * ADAM_BLOCK, -1e308)
        state = adam_state([params], lr=1e308)
        with pytest.raises(RuntimeWarning, match="overflow"):
            with AdamWorkers() as workers:
                adam_step(params, np.ones(params.size), state, workers)


class TestWorkerPool:
    def test_map_keeps_item_order_and_raises_the_first_failure(self, monkeypatch):
        # a pool of 3 threads; items 2 and 4 fail, item 2's error is raised
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        done = []

        def square(item):
            done.append(item)
            if item in (2, 4):
                raise ValueError(f"item {item}")
            return item * item

        threads = threading.active_count()
        with AdamWorkers() as workers:
            assert workers.map(lambda item: item * item, range(9)) == [i * i for i in range(9)]
            with pytest.raises(ValueError, match="^item 2$"):
                workers.map(square, range(9))
            assert sorted(done) == list(range(9))  # every call ran before the raise
        assert threading.active_count() == threads

    def test_one_item_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = threading.active_count()
        with AdamWorkers() as workers:
            assert workers.map(lambda item: threading.current_thread(), [0]) == \
                [threading.current_thread()]
            assert threading.active_count() == threads

    def test_openblas_runs_one_thread_inside_and_the_count_is_restored(self):
        threads = networks._openblas_threads()
        if threads is None:
            pytest.skip("numpy does not use its bundled OpenBLAS here")
        get, set_ = threads
        before = get()
        set_(2)
        try:
            with AdamWorkers():
                assert get() == 1
                with AdamWorkers():
                    assert get() == 1
                assert get() == 1  # the inner block does not restore the outer's count
            assert get() == 2
        finally:
            set_(before)


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

    @pytest.mark.parametrize("old, new, message", [
        (b'"tanh"', b'"tanX"', "unknown layer kind 'tanX'"),
        (b'["affine",128,256', b'["affine",129,256',
         "simulator: affine chain broken, 128 -> 129"),
        (b'"shape":[128]', b'"shape":[127]', "simulator: parameter shape mismatch at affine 0"),
        (b'"nbytes":1024,', b'"nbytes":1025,',
         "array 1 of simulator does not fit the archive or its shape [128]"),
        (b'"version":1', b'"version":2', "unsupported archive version 2"),
    ], ids=["layer_kind", "affine_chain", "shape", "nbytes", "version"])
    def test_header_errors_name_the_archive_once(self, tmp_path, old, new, message):
        save_networks(tmp_path / "a.gfa", {"simulator": built("simulator")}, {})
        raw = (tmp_path / "a.gfa").read_bytes()
        assert raw.count(old) == 1 and len(old) == len(new)
        (tmp_path / "bad.gfa").write_bytes(raw.replace(old, new))
        with pytest.raises(ValidationError) as caught:
            load_networks(tmp_path / "bad.gfa")
        assert str(caught.value) == f"{tmp_path / 'bad.gfa'}: {message}"


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
