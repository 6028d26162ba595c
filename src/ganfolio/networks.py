"""MLP construction for the six network roles, Adam, and persistence.

Layer stacks (N assets, historical length h, future length f, latent dim m;
LR = leaky-relu slope, DP = dropout rate):

* conditioner / encoder:  N*h -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4) -> 16
* decoder:                16 -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4) -> N*h
* simulator:              m+16 -> 128 -> 256 -> 512 -> 1024 (all LR(0.2))
                          -> N*f tanh
* hybrid_simulator:       the simulator stack followed by a x100 output
                          scale layer, HYBRID_OUTPUT_SCALE (the proposed-
                          center regime shifts targets outside tanh range)
* discriminator:          N*(h+f) -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4)
                          -> 512 LR(0.2) -> 1
* proposer:               N*(h+1) -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4)
                          -> N  (one surrogate mean per asset)

Weights initialize uniform in (-1/sqrt(fan_in), +1/sqrt(fan_in)), biases to
zero.  In train mode dropout applies a frozen mask drawn by
:func:`sample_dropout_masks`; at inference it is the identity.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericFault, ValidationError, opened

ROLES = ("conditioner", "encoder", "decoder", "simulator", "hybrid_simulator",
         "discriminator", "proposer")

LEAKY_SLOPE = 0.2
DROPOUT_RATE = 0.4
CODE_WIDTH = 16
HYBRID_OUTPUT_SCALE = 100.0

ARCHIVE_MAGIC = b"GFARCH1\n"
ARCHIVE_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int = 0
    out_dim: int = 0
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("affine", "leaky_relu", "tanh", "dropout", "scale"):
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.kind == "affine" and (self.in_dim <= 0 or self.out_dim <= 0):
            raise ValidationError(f"affine layer needs positive dims, got {self}")
        if self.kind == "dropout" and not 0.0 <= self.param < 1.0:
            raise ValidationError(f"dropout rate must be in [0,1), got {self.param}")
        if self.kind == "scale" and (not np.isfinite(self.param) or self.param == 0.0):
            raise ValidationError(f"scale factor must be finite and nonzero, got {self.param}")


class MlpNetwork:
    """A layer stack plus its affine parameters, ordered [W0, b0, W1, b1, ...].

    The parameters live in one contiguous float64 buffer, ``flat``;
    ``weights[i]`` and ``biases[i]`` are views into it, so writing a view
    writes the buffer and Adam updates every parameter in place.
    """

    def __init__(self, role: str, layers: list[LayerSpec]):
        self.role = role
        self.layers = list(layers)
        self.shapes: list[tuple[int, ...]] = []
        previous_out = None
        for spec in self.layers:
            if spec.kind != "affine":
                continue
            if previous_out is not None and spec.in_dim != previous_out:
                raise ValidationError(
                    f"{role}: affine chain broken, {previous_out} -> {spec.in_dim}")
            previous_out = spec.out_dim
            self.shapes.extend(((spec.out_dim, spec.in_dim), (spec.out_dim,)))
        self.flat = np.zeros(sum(math.prod(shape) for shape in self.shapes))
        views = _views(self.flat, self.shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        self.grad: np.ndarray | None = None
        self._gradient_views: list[np.ndarray] = []

    def __deepcopy__(self, memo) -> "MlpNetwork":
        # a copy's weight and bias views must share the copy's own buffer
        clone = MlpNetwork(self.role, self.layers)
        clone.flat[...] = self.flat
        return clone

    @property
    def input_width(self) -> int:
        return self.layers[0].in_dim

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def gradients(self) -> list[np.ndarray]:
        """Views, in :meth:`parameters` order, into the flat gradient buffer
        ``grad`` that the training kernels write; allocated on first use."""
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._gradient_views = _views(self.grad, self.shapes)
        return self._gradient_views

    def check_shapes(self, shapes) -> None:
        """Raise ValidationError unless ``shapes`` are this network's parameter shapes."""
        shapes = [tuple(shape) for shape in shapes]
        if len(shapes) != len(self.shapes):
            raise ValidationError(
                f"{self.role}: expected {len(self.shapes)} parameter arrays, got {len(shapes)}")
        for i, (shape, want) in enumerate(zip(shapes, self.shapes)):
            if shape != want:
                raise ValidationError(f"{self.role}: parameter shape mismatch at affine {i // 2}")

    def set_parameters(self, params) -> None:
        params = list(params)
        self.check_shapes(np.shape(p) for p in params)
        for view, p in zip(self.parameters(), params):
            view[...] = p


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


def _affine(i, o):
    return LayerSpec("affine", in_dim=i, out_dim=o)


def _leaky():
    return LayerSpec("leaky_relu", param=LEAKY_SLOPE)


def build_network(role: str, n_assets: int, h: int, f: int, m: int) -> MlpNetwork:
    """Build the layer stack for one role."""
    if min(n_assets, h, f, m) <= 0:
        raise ValidationError(f"dimensions must be positive, got N={n_assets} h={h} f={f} m={m}")
    drop = LayerSpec("dropout", param=DROPOUT_RATE)
    if role in ("conditioner", "encoder"):
        layers = [_affine(n_assets * h, 512), _leaky(),
                  _affine(512, 512), _leaky(), drop,
                  _affine(512, CODE_WIDTH)]
    elif role == "decoder":
        layers = [_affine(CODE_WIDTH, 512), _leaky(),
                  _affine(512, 512), _leaky(), drop,
                  _affine(512, n_assets * h)]
    elif role in ("simulator", "hybrid_simulator"):
        layers = [_affine(m + CODE_WIDTH, 128), _leaky(),
                  _affine(128, 256), _leaky(),
                  _affine(256, 512), _leaky(),
                  _affine(512, 1024), _leaky(),
                  _affine(1024, n_assets * f), LayerSpec("tanh")]
        if role == "hybrid_simulator":
            layers.append(LayerSpec("scale", param=HYBRID_OUTPUT_SCALE))
    elif role == "discriminator":
        layers = [_affine(n_assets * (h + f), 512), _leaky(),
                  _affine(512, 512), _leaky(), drop,
                  _affine(512, 512), _leaky(),
                  _affine(512, 1)]
    elif role == "proposer":
        layers = [_affine(n_assets * (h + 1), 512), _leaky(),
                  _affine(512, 512), _leaky(), drop,
                  _affine(512, n_assets)]
    else:
        raise ValidationError(f"unknown network role {role!r}; expected one of {ROLES}")
    return MlpNetwork(role, layers)


def init_parameters(net: MlpNetwork, rng: np.random.Generator) -> MlpNetwork:
    """Uniform fan-in weight init, zero biases; deterministic per rng state."""
    for i, spec in enumerate(s for s in net.layers if s.kind == "affine"):
        bound = 1.0 / np.sqrt(spec.in_dim)
        net.weights[i][...] = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        net.biases[i][...] = 0.0
    return net


def sample_dropout_masks(net: MlpNetwork, rng: np.random.Generator,
                         batch: int | None = None) -> list[np.ndarray]:
    """Pre-sample one 0/1 keep-mask per dropout layer (frozen-mask forward)."""
    masks = []
    width = None
    for spec in net.layers:
        if spec.kind == "affine":
            width = spec.out_dim
        elif spec.kind == "dropout":
            shape = (width,) if batch is None else (batch, width)
            masks.append((rng.random(shape) >= spec.param).astype(np.float64))
    return masks


# ---------------------------------------------------------------------------
# forward passes and training kernels
# ---------------------------------------------------------------------------
#
# Plain numpy passes over the rows of an input.  Inference and training run
# one layer loop; inference passes no dropout masks, so dropout is the
# identity.  A train-mode forward keeps each affine layer's input and each
# elementwise layer's local derivative; the backward pass returns
# d(loss)/d(affine output) for every affine layer, from which weight
# gradients are one gemm each.  Only the network output and the input of a
# tanh layer (which would hide an overflow) are checked for finiteness; the
# layer at fault is located only once a check fails.

@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # the input rows of each affine layer
    local: list  # per layer: its local derivative, or None for an affine layer


def _with_params(net: MlpNetwork):
    """Yield (layer spec, (W, b) for an affine layer else None) in stack order."""
    params = iter(zip(net.weights, net.biases))
    for spec in net.layers:
        yield spec, (next(params) if spec.kind == "affine" else None)


def _layer(spec: LayerSpec, wb, x: np.ndarray, masks):
    """One layer: (output, local derivative, or None for affine).

    ``masks`` iterates over the frozen dropout masks, or is None at
    inference, where dropout is the identity.
    """
    if wb is not None:
        return x @ wb[0].T + wb[1], None
    if spec.kind == "tanh":
        out = np.tanh(x)
        return out, 1.0 - out * out
    if spec.kind == "leaky_relu":
        local = np.where(x > 0.0, 1.0, spec.param)
    elif spec.kind == "dropout":
        if masks is None:
            return x, 1.0
        local = next(masks) / (1.0 - spec.param)
    else:  # scale
        local = spec.param
    return x * local, local


def _non_finite(net: MlpNetwork, x: np.ndarray, masks) -> NumericFault:
    """Rerun the forward layer by layer and name the first non-finite output."""
    out, masks = x, None if masks is None else iter(masks)
    with np.errstate(all="ignore"):
        for i, (spec, wb) in enumerate(_with_params(net)):
            out = _layer(spec, wb, out, masks)[0]
            if not np.isfinite(out).all():
                kind = (f"affine {spec.in_dim}->{spec.out_dim}" if wb is not None
                        else spec.kind)
                return NumericFault(f"{net.role}: layer {i} ({kind}) produced a "
                                    f"non-finite value")
    return NumericFault(f"{net.role}: non-finite input")


def _run(net: MlpNetwork, x: np.ndarray, masks, cache: ForwardCache | None) -> np.ndarray:
    """The layer loop of both forwards; fills ``cache`` when one is given."""
    out, mask_iter = x, None if masks is None else iter(masks)
    with np.errstate(all="ignore"):
        for spec, wb in _with_params(net):
            if spec.kind == "tanh" and not np.isfinite(out).all():
                raise _non_finite(net, x, masks)
            if cache is not None and wb is not None:
                cache.inputs.append(out)
            out, local = _layer(spec, wb, out, mask_iter)
            if cache is not None:
                cache.local.append(local)
    if not np.isfinite(out).all():
        raise _non_finite(net, x, masks)
    return out


def forward(net: MlpNetwork, x) -> np.ndarray:
    """Inference forward of one input vector or the rows of a 2-D input.

    Dropout is the identity.  Raises NumericFault naming the role and layer
    when the output or a pre-tanh value is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_width:
        raise ValidationError(f"{net.role}: input shape {x.shape}, expected width "
                              f"{net.input_width}")
    return _run(net, x, None, None)


def train_forward(net: MlpNetwork, x: np.ndarray, masks) -> tuple[np.ndarray, ForwardCache]:
    """Train-mode forward of the rows of ``x`` with frozen dropout masks.

    ``masks`` holds one (rows, width) 0/1 array per dropout layer, as drawn by
    :func:`sample_dropout_masks`.  Returns the output rows and the cache that
    :func:`backward` and :func:`tangent_forward` read.  Raises NumericFault
    naming the role and layer when the output or a pre-tanh value is not finite.
    """
    if x.ndim != 2 or x.shape[1] != net.input_width:
        raise ValidationError(f"{net.role}: input shape {x.shape}, expected (rows, "
                              f"{net.input_width})")
    cache = ForwardCache([], [])
    return _run(net, x, masks, cache), cache


def backward(net: MlpNetwork, cache: ForwardCache, grad: np.ndarray,
             need_input: bool = False) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Reverse pass of :func:`train_forward` for output-row gradients ``grad``.

    Returns (deltas, input gradient): ``deltas[k]`` is d(loss)/d(output of
    affine layer k), row by row; the input gradient is None unless asked for.
    """
    deltas = [None] * len(net.weights)
    k = len(net.weights)
    with np.errstate(all="ignore"):
        for spec, local in zip(reversed(net.layers), reversed(cache.local)):
            if spec.kind != "affine":
                grad = grad * local
                continue
            k -= 1
            deltas[k] = grad
            if k == 0 and not need_input:
                return deltas, None
            grad = grad @ net.weights[k]
    return deltas, grad


def parameter_gradients(deltas, inputs, out: list[np.ndarray]) -> list[np.ndarray]:
    """Write [dW0, db0, dW1, db1, ...], summed over rows, from :func:`backward`'s
    deltas into ``out`` (a network's :meth:`~MlpNetwork.gradients`); returns ``out``."""
    for k, (delta, x) in enumerate(zip(deltas, inputs)):
        np.matmul(delta.T, x, out=out[2 * k])
        delta.sum(axis=0, out=out[2 * k + 1])
    return out


def tangent_forward(net: MlpNetwork, cache: ForwardCache, row: int,
                    direction: np.ndarray) -> list[np.ndarray]:
    """Pearlmutter's R-op: push ``direction`` through the Jacobian at ``row``.

    Returns the tangent input of every affine layer, shape (1, width).  For a
    piecewise-linear stack the Jacobian does not depend on the parameters
    through its local derivatives, so d/dtheta of direction . grad_x D(x) has
    weight gradient delta_k^T t_k (delta_k from :func:`backward` at the same
    row) and no bias gradient.  A tanh layer would add a curvature term, so it
    is rejected.
    """
    tangents = []
    t = direction.reshape(1, -1)
    with np.errstate(all="ignore"):
        for (spec, wb), local in zip(_with_params(net), cache.local):
            if wb is not None:
                tangents.append(t)
                t = t @ wb[0].T
            elif spec.kind == "tanh":
                raise ValidationError(f"{net.role}: the penalty kernel needs a "
                                      f"piecewise-linear stack, found tanh")
            else:
                t = t * (local[row] if np.ndim(local) else local)
    return tangents


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one flat parameter buffer.

    ``shapes`` lists the parameter arrays the buffer holds, in order, so that
    a fault can name the array it occurred in.
    """

    lr: float
    beta1: float
    beta2: float
    shapes: list[tuple[int, ...]]
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_parameters(cls, params, lr: float, beta1: float, beta2: float) -> "AdamState":
        shapes = [np.shape(p) for p in params]
        size = sum(math.prod(shape) for shape in shapes)
        return cls(lr=lr, beta1=beta1, beta2=beta2, shapes=shapes,
                   first_moment=np.zeros(size), second_moment=np.zeros(size))


# Adam updates fixed blocks of the flat buffers, one block per task.  Every
# element sees the same operations in the same order whatever thread runs its
# block, so the update is bit-identical for any CPU affinity.
ADAM_BLOCK = 1 << 16

ADAM_EPSILON = 1e-8


class AdamUpdate:
    """One submitted Adam step of a flat buffer: its operands, its step's bias
    corrections, and one future per block that resolves to the block's fault."""

    def __init__(self, params: np.ndarray, grads: np.ndarray, state: AdamState,
                 name: str | None):
        self.params, self.grads, self.state, self.name = params, grads, state, name
        self.c1 = 1.0 - state.beta1 ** state.step_count
        self.c2 = 1.0 - state.beta2 ** state.step_count
        self.blocks: list[Future] = []

    def run_block(self, lo: int, rows: np.ndarray, finite: np.ndarray):
        """Update the block at ``lo`` with a thread's scratch; return
        (0 non-finite or 1 overflow, lowest index at fault), or None."""
        state = self.state
        hi = min(lo + ADAM_BLOCK, self.params.size)
        b1, b2 = state.beta1, state.beta2
        p, g = self.params[lo:hi], self.grads[lo:hi]
        m, v = state.first_moment[lo:hi], state.second_moment[lo:hi]
        s1, s2 = rows[0, :hi - lo], rows[1, :hi - lo]
        finite = np.isfinite(g, out=finite[:hi - lo])
        if not finite.all():
            return 0, lo + int(np.argmin(finite))
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        try:
            # errstate is per thread, so each block sets its own
            with np.errstate(over="raise"):
                v *= b2
                np.multiply(g, g, out=s1)
                s1 *= 1.0 - b2
                v += s1
        except FloatingPointError:
            return 1, lo + int(np.argmin(np.isfinite(s1) & np.isfinite(v)))
        # a bias correction of exactly 1.0 divides nothing: x / 1.0 == x bit for bit
        if self.c2 == 1.0:
            np.sqrt(v, out=s1)
        else:
            np.divide(v, self.c2, out=s1)
            np.sqrt(s1, out=s1)
        s1 += ADAM_EPSILON
        if self.c1 == 1.0:
            np.divide(m, s1, out=s2)
        else:
            np.divide(m, self.c1, out=s2)
            s2 /= s1
        s2 *= state.lr
        p -= s2
        return None

    def fault(self) -> NumericFault | None:
        """The fault at the lowest parameter array, a non-finite gradient
        before an overflow, or None, once every block is done.  Raises the
        exception a block raised instead, if one did."""
        faults = [fault for block in self.blocks if (fault := block.result()) is not None]
        if not faults:
            return None
        overflow, offset = min(faults)
        shapes = self.state.shapes
        i = int(np.searchsorted(np.cumsum([math.prod(shape) for shape in shapes]), offset,
                                side="right"))
        if overflow:
            message = (f"adam_step: gradient at index {i} (shape {shapes[i]}) "
                       f"overflows the second moment")
        else:
            message = f"adam_step: non-finite gradient at index {i} (shape {shapes[i]})"
        return NumericFault(message if self.name is None else f"{self.name}: {message}")


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None under another BLAS.  numpy's wheels ship it as
    ``libscipy_openblas64_`` in ``numpy.libs`` (Linux, Windows) or in
    ``numpy/.dylibs`` (macOS); loading it again finds the copy numpy uses."""
    package = Path(np.__file__).parent
    for path in (*package.parent.glob("numpy.libs/libscipy_openblas64_*"),
                 *package.glob(".dylibs/libscipy_openblas64_*")):
        try:
            library = ctypes.CDLL(str(path))
            get = library.scipy_openblas_get_num_threads64_
            set_ = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Holds numpy's bundled OpenBLAS at one thread while any holder is inside.

    The thread count belongs to the process, so the holders are counted: the
    first in saves the count and sets 1, the last out restores it.  Under
    another BLAS this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def __enter__(self) -> None:
        with self._lock:
            threads = _openblas_threads()
            if self._holders == 0 and threads is not None:
                self._saved = threads[0]()
                threads[1](1)
            self._holders += 1

    def __exit__(self, *_) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._saved is not None:
                _openblas_threads()[1](self._saved)
                self._saved = None


_ONE_BLAS_THREAD = _OneBlasThread()


class AdamWorkers:
    """The program's thread pool: Adam blocks and other independent calls.

    :meth:`submit` gives each block of one Adam step its own future;
    :meth:`map` spreads calls such as simulator chunks.  A pool of one thread
    per usable CPU beyond the first runs them; a caller in :meth:`wait` or
    :meth:`map` runs every one no pool thread has started (one whose
    ``cancel()`` succeeds) and then waits for the rest, so the waiter still
    makes progress while every pool thread is busy.  On one CPU there is no
    pool, and everything runs in the caller as it is submitted.  Each thread
    keeps its own block-sized scratch rows.  The workers keep no update
    between calls: whoever submits one waits for it.  Use it as a context
    manager: inside, numpy's bundled OpenBLAS runs one thread, so the pool's
    threads do not contend with its own and results do not depend on its
    thread count; leaving shuts the pool down, which lets every queued block
    finish, and restores the caller's BLAS thread count.
    """

    def __init__(self):
        self._local = threading.local()
        # sched_getaffinity is Linux-only; elsewhere every CPU counts as usable
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(cpus - 1) if cpus > 1 else None

    def submit(self, params: np.ndarray, grads: np.ndarray, state: AdamState,
               name: str | None = None) -> AdamUpdate:
        """Submit one Adam step of the flat buffer ``params`` along ``grads``.

        The buffers must not be touched until the step is waited for; with no
        pool it is applied before this returns.  A fault's message starts with
        ``name`` when one is given, and only :meth:`wait` raises it.
        """
        size = state.first_moment.size
        if params.shape != (size,) or grads.shape != (size,):
            raise ValidationError(f"adam_step: parameter {params.shape}, gradient "
                                  f"{grads.shape} and state ({size},) buffers do not fit")
        state.step_count += 1
        update = AdamUpdate(params, grads, state, name)
        update.blocks = [self._pool.submit(self._run, update, lo) if self._pool
                         else _done(functools.partial(self._run, update, lo))
                         for lo in range(0, size, ADAM_BLOCK)]
        return update

    def wait(self, *updates: AdamUpdate) -> None:
        """Settle ``updates`` together, so the waiter helps across all of
        them.  Then raise the exception or NumericFault of the first of them,
        in argument order, whose blocks raised or found one."""
        self._settle([(update.blocks, i, functools.partial(self._run, update, i * ADAM_BLOCK))
                      for update in updates for i in range(len(update.blocks))])
        for update in updates:
            fault = update.fault()
            if fault is not None:
                raise fault

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, with the calls spread over the pool.

        One item, or no pool, runs in the caller and starts no thread.  Once
        every call is done, raises the exception of the first call, in item
        order, that raised one.
        """
        items = list(items)
        if self._pool is None or len(items) < 2:
            return [fn(item) for item in items]
        futures = [self._pool.submit(fn, item) for item in items]
        self._settle([(futures, i, functools.partial(fn, item))
                      for i, item in enumerate(items)])
        return [future.result() for future in futures]

    @staticmethod
    def _settle(calls) -> None:
        """Run here every call that no pool thread has started, in place of its
        cancelled future, then wait for the others.  A call ``(futures, i, fn)``
        is the work ``fn()`` of ``futures[i]``."""
        for futures, i, fn in calls:
            if futures[i].cancel():
                futures[i] = _done(fn)
        futures_wait([futures[i] for futures, i, _ in calls])

    def _run(self, update: AdamUpdate, lo: int):
        local = self._local
        if not hasattr(local, "rows"):
            local.rows = np.empty((2, ADAM_BLOCK))
            local.finite = np.empty(ADAM_BLOCK, dtype=bool)
        return update.run_block(lo, local.rows, local.finite)

    def __enter__(self) -> "AdamWorkers":
        _ONE_BLAS_THREAD.__enter__()
        return self

    def __exit__(self, *_) -> None:
        try:
            if self._pool is not None:
                self._pool.shutdown()
        finally:
            _ONE_BLAS_THREAD.__exit__()


def _done(fn) -> Future:
    """A done future holding what ``fn()`` returned or raised."""
    future = Future()
    try:
        future.set_result(fn())
    except BaseException as err:  # raised again by the future's reader
        future.set_exception(err)
    return future


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              workers: AdamWorkers, name: str | None = None) -> None:
    """One Adam update of the flat buffer ``params``, in place: submit it, then wait.

    Raises NumericFault on a non-finite gradient, or on a gradient whose
    square overflows (any entry above about 1.3e154), naming the lowest
    parameter array at fault, after ``name`` when one is given; a non-finite
    gradient is named before an overflow.  After a fault the buffer and the
    moments are partly updated.
    """
    workers.wait(workers.submit(params, grads, state, name))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_networks(path, components: dict[str, MlpNetwork], meta: dict) -> None:
    """Write named networks plus metadata to a flat binary archive.

    Layout (documented in docs/formats.md): magic, 8-byte little-endian
    header length, a sorted-key JSON header describing layers and array
    offsets, then contiguous little-endian float64 array data.  The encoding
    is fully deterministic, so identical contents give identical bytes.
    """
    header_entries = []
    blobs = []
    offset = 0
    for name in sorted(components):
        net = components[name]
        arrays = []
        for i, p in enumerate(net.parameters()):
            data = np.ascontiguousarray(p, dtype="<f8").tobytes()
            arrays.append({"index": i, "shape": list(p.shape), "offset": offset,
                           "nbytes": len(data)})
            blobs.append(data)
            offset += len(data)
        header_entries.append({
            "name": name,
            "role": net.role,
            "layers": [[s.kind, s.in_dim, s.out_dim, s.param] for s in net.layers],
            "arrays": arrays,
        })
    header = json.dumps({"version": ARCHIVE_VERSION, "meta": meta,
                         "components": header_entries},
                        sort_keys=True, separators=(",", ":")).encode()
    with Path(path).open("wb") as handle:
        handle.write(ARCHIVE_MAGIC)
        handle.write(len(header).to_bytes(8, "little"))
        handle.write(header)
        for blob in blobs:
            handle.write(blob)


def load_networks(path) -> tuple[dict[str, MlpNetwork], dict]:
    """Read an archive written by :func:`save_networks` (bit-exact round trip).

    A damaged archive raises ValidationError naming the archive.  The format
    has no checksum, so damage inside the array data loads as different numbers.
    """
    path = Path(path)
    # each array is read straight into its view of the network's flat buffer
    with opened(path, "archive", binary=True) as handle:
        size = os.fstat(handle.fileno()).st_size
        cursor = len(ARCHIVE_MAGIC) + 8
        lead = handle.read(cursor)
        if lead[:len(ARCHIVE_MAGIC)] != ARCHIVE_MAGIC:
            raise ValidationError(f"{path}: not a ganfolio archive")
        data_start = cursor + int.from_bytes(lead[len(ARCHIVE_MAGIC):], "little")
        if len(lead) < cursor or data_start > size:
            raise ValidationError(f"{path}: archive truncated inside its header")
        try:
            header = json.loads(handle.read(data_start - cursor).decode("utf-8"))
            if header.get("version") != ARCHIVE_VERSION:
                raise ValidationError(f"unsupported archive version {header.get('version')}")
            components = {}
            for entry in header["components"]:
                layers = [LayerSpec(kind, int(i), int(o), float(p))
                          for kind, i, o, p in entry["layers"]]
                net = MlpNetwork(entry["role"], layers)
                net.check_shapes(spec["shape"] for spec in entry["arrays"])
                for spec, view in zip(entry["arrays"], net.parameters()):
                    start, nbytes, shape = (data_start + spec["offset"], spec["nbytes"],
                                            spec["shape"])
                    if nbytes != 8 * math.prod(shape) or not data_start <= start <= size - nbytes:
                        raise ValidationError(f"array {spec['index']} of {entry['name']} "
                                              f"does not fit the archive or its shape {shape}")
                    handle.seek(start)
                    handle.readinto(view.data.cast("B"))
                if sys.byteorder == "big":  # the archive stores little-endian float64
                    net.flat.byteswap(inplace=True)
                components[entry["name"]] = net
            return components, header["meta"]
        except ValidationError as err:  # from a check here or from LayerSpec and MlpNetwork
            raise ValidationError(f"{path}: {err}") from None
        except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as err:
            raise ValidationError(f"{path}: damaged archive header ({err!r})") from None
