"""Reverse-mode automatic differentiation over dense float64 arrays.

This is the reference engine, and no library path imports it: training and
inference run the hand-written numpy passes of :mod:`ganfolio.networks`.  The
tests define the network forward and the training losses
(``generator_loss``, ``critic_loss``, ``gradient_penalty``) on this tape in
``tests/oracles.py``, check the kernels against them, and check the tape
against finite differences.  The module stays in the package because the
benchmark's trace table (``perfbench/tracing.py``) names
``ganfolio.autodiff.gradient``, and ``demos/03_autodiff_double_backprop.py``
walks through it.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array and,
when gradients are being tracked, remembers the parent tensors it was computed
from together with a vector-Jacobian closure.  Every vjp closure is written in
terms of the same primitives, so the backward pass builds an ordinary graph.
Calling :func:`gradient` with ``create_graph=True`` therefore yields gradients
that can be differentiated again -- which is exactly what the critic's
gradient-penalty term needs.

Conventions:

* everything is 64-bit floating point;
* every operation verifies its result is finite and raises
  :class:`~ganfolio.errors.NumericFault` otherwise;
* the leaky-relu derivative at exactly 0 is the negative-side slope;
* dropout uses inverted scaling (kept units multiplied by ``1/(1-rate)``)
  and is applied with an explicit, frozen mask.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np

from .errors import NumericFault, ValidationError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(values: np.ndarray, op: str) -> None:
    if not np.isfinite(values).all():
        raise NumericFault(f"{op} produced a non-finite value (shape {values.shape})")


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        _check_finite(self.values, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @classmethod
    def _make(cls, values: np.ndarray, requires_grad: bool) -> "Tensor":
        """Internal fast constructor; the caller vouches for finiteness."""
        out = cls.__new__(cls)
        out.values = values
        out.requires_grad = requires_grad
        out._parents = ()
        out._vjp = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar.  Python scalars go through the *_scalar primitives so
    # they never enter the graph as tensors.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return subtract(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(scalar_multiply(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return multiply(self, other)
        return scalar_multiply(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return divide(self, other)
        return scalar_multiply(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scalar_multiply(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp,
          check: bool = True) -> Tensor:
    """Create the result tensor of a primitive, recording it when tracked.

    Pure data-movement primitives (reshape, slice, concatenate, ...) pass
    ``check=False``: they cannot create non-finite values from the already
    checked inputs, and several of them return views rather than copies.
    """
    values = np.asarray(values, dtype=np.float64)
    if check:
        _check_finite(values, op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor._make(values, True)
        out._parents = parents
        out._vjp = vjp
        return out
    return Tensor._make(values, False)


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _node(a.values + b.values, "add", (a, b), lambda g: (g, g))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("subtract", a, b)
    return _node(a.values - b.values, "subtract", (a, b),
                 lambda g: (g, scalar_multiply(g, -1.0)))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("multiply", a, b)
    return _node(a.values * b.values, "multiply", (a, b),
                 lambda g: (multiply(g, b) if a.requires_grad else None,
                            multiply(g, a) if b.requires_grad else None))


def divide(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("divide", a, b)

    def vjp(g):
        da = divide(g, b) if a.requires_grad else None
        db = None
        if b.requires_grad:
            db = scalar_multiply(divide(multiply(g, a), square(b)), -1.0)
        return da, db

    # numpy's divide-by-zero warning is redundant: the finiteness check below
    # turns any inf/nan into a NumericFault
    with np.errstate(divide="ignore", invalid="ignore"):
        values = a.values / b.values
    return _node(values, "divide", (a, b), vjp)


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.values * c, "scalar_multiply", (a,),
                 lambda g: (scalar_multiply(g, c),))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _node(a.values + float(c), "add_scalar", (a,), lambda g: (g,))


def square(a: Tensor) -> Tensor:
    return _node(a.values * a.values, "square", (a,),
                 lambda g: (scalar_multiply(multiply(g, a), 2.0),))


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        values = np.sqrt(a.values)
    out = _node(values, "sqrt", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: (divide(g, scalar_multiply(out, 2.0)),)
    return out


def tanh(a: Tensor) -> Tensor:
    out = _node(np.tanh(a.values), "tanh", (a,), None)
    if out.requires_grad:
        # d tanh = 1 - tanh^2, written with primitives so it stays differentiable
        out._vjp = lambda g: (multiply(g, add_scalar(scalar_multiply(square(out), -1.0), 1.0)),)
    return out


def leaky_relu(a: Tensor, p: float = 0.2) -> Tensor:
    slope = np.where(a.values > 0.0, 1.0, float(p))
    return _node(a.values * slope, "leaky_relu", (a,),
                 lambda g: (multiply(g, Tensor(slope)),))


def dropout(a: Tensor, rate: float, mask: np.ndarray) -> Tensor:
    """Apply a frozen 0/1 mask with inverted scaling.

    The mask is sampled by the caller; with a fixed mask this is a plain
    linear scaling, which keeps replay and gradient checks deterministic.
    """
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate must be in [0,1), got {rate}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.shape:
        raise ValidationError(f"dropout: mask shape {mask.shape} vs input {a.shape}")
    return multiply(a, Tensor(mask / (1.0 - rate)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ValidationError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValidationError(f"matmul: shape mismatch {a.shape} @ {b.shape}")

    def vjp(g):
        da = db = None
        if a.ndim == 2 and b.ndim == 2:
            if a.requires_grad:
                da = matmul(g, transpose(b))
            if b.requires_grad:
                db = matmul(transpose(a), g)
        elif a.ndim == 1 and b.ndim == 2:
            if a.requires_grad:
                da = matmul(b, g)
            if b.requires_grad:
                db = matmul(reshape(a, (a.size, 1)), reshape(g, (1, g.size)))
        else:  # a 2-D, b 1-D
            if a.requires_grad:
                da = matmul(reshape(g, (g.size, 1)), reshape(b, (1, b.size)))
            if b.requires_grad:
                db = matmul(transpose(a), g)
        return da, db

    return _node(a.values @ b.values, "matmul", (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for a single sample (1-D x) or a batch (rows of 2-D x)."""
    y = matmul(x, transpose(w))
    if y.ndim == b.ndim:
        return add(y, b)
    return add(y, expand(reshape(b, (1, b.size)), y.shape))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ValidationError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _node(a.values.T, "transpose", (a,), lambda g: (transpose(g),), check=False)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape
    return _node(a.values.reshape(shape), "reshape", (a,),
                 lambda g: (reshape(g, old),), check=False)


def concatenate(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValidationError("concatenate needs at least one tensor")
    values = np.concatenate([p.values for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def vjp(g):
        return tuple(
            slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1])) if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _node(values, "concatenate", tuple(parts), vjp, check=False)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    dim = a.shape[axis]
    if not (0 <= start <= stop <= dim):
        raise ValidationError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    return _node(a.values[tuple(index)], "slice_axis", (a,),
                 lambda g: (pad_axis(g, axis, start, dim - stop),), check=False)


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    dim = a.shape[axis]
    return _node(np.pad(a.values, widths), "pad_axis", (a,),
                 lambda g: (slice_axis(g, axis, before, before + dim),), check=False)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast ``a`` to ``shape``; the vjp sums over the broadcast axes."""
    shape = tuple(int(s) for s in shape)
    values = np.broadcast_to(a.values, shape)
    old = a.shape

    def vjp(g):
        r = g
        while r.ndim > len(old):
            r = sum_(r, axis=0)
        for i, d in enumerate(old):
            if d == 1 and r.shape[i] != 1:
                r = sum_(r, axis=i, keepdims=True)
        return (reshape(r, old) if r.shape != old else r,)

    return _node(values, "expand", (a,), vjp, check=False)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    values = a.values.sum(axis=axis, keepdims=keepdims)
    old = a.shape

    def vjp(g):
        if axis is None:
            kd_shape = (1,) * len(old)
        else:
            kd_shape = tuple(1 if i == axis else d for i, d in enumerate(old))
        return (expand(reshape(g, kd_shape), old),)

    return _node(values, "sum", (a,), vjp)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return scalar_multiply(sum_(a, axis=axis), 1.0 / count)


def l2_norm(a: Tensor, axis: int | None = None) -> Tensor:
    """Euclidean norm over all entries, or per slice along ``axis``."""
    return sqrt(sum_(square(a), axis=axis))


def mse(a: Tensor, b: Tensor) -> Tensor:
    return mean(square(subtract(a, b)))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

class Tape:
    """Linearized record of the graph reachable from one output tensor.

    Nodes are appended in topological order (parents before children) and the
    list is never mutated afterwards; the backward pass only reads it.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []

    @classmethod
    def from_output(cls, output: Tensor) -> "Tape":
        tape = cls()
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                tape.nodes.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        return tape


def gradient(output: Tensor, inputs, create_graph: bool = False) -> list[Tensor]:
    """Return d(output)/d(input) for each input tensor.

    ``output`` must be a scalar (size-1) tensor.  With ``create_graph=True``
    the returned gradients are themselves recorded nodes and can be
    differentiated again (double backprop).  Inputs that the output does not
    depend on get a zero gradient and a warning.
    """
    if output.size != 1:
        raise ValidationError(f"gradient needs a scalar output, got shape {output.shape}")
    inputs = list(inputs)
    tape = Tape.from_output(output)
    grads: dict[int, Tensor] = {id(output): Tensor(np.ones_like(output.values))}
    context = contextlib.nullcontext() if create_graph else no_grad()
    with context:
        for node in reversed(tape.nodes):
            g = grads.get(id(node))
            if g is None or node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                held = grads.get(id(parent))
                grads[id(parent)] = pg if held is None else add(held, pg)
    results = []
    for t in inputs:
        g = grads.get(id(t))
        if g is None:
            warnings.warn(f"input {t!r} unreachable from the output; returning a zero gradient",
                          stacklevel=2)
            g = Tensor(np.zeros_like(t.values))
        results.append(g)
    return results


def finite_difference_check(f, params, step=1e-5,
                            coords_per_param: int | None = None,
                            rng: np.random.Generator | None = None) -> float:
    """Compare tape gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (freeze any dropout masks before calling).
    ``coords_per_param`` limits the check to a seeded random subset of
    coordinates per parameter tensor; ``None`` checks every coordinate.
    ``step`` may be a sequence, in which case each coordinate scores against
    the best-agreeing step (multi-scale differencing: small steps suffer
    float roundoff, large steps suffer curvature and activation kinks).
    Returns the maximum relative error with denominator ``max(|a|,|b|,1e-8)``.
    """
    params = list(params)
    steps = (float(step),) if np.isscalar(step) else tuple(float(s) for s in step)
    analytic = [g.values for g in gradient(f(params), params)]

    # f may itself contain a gradient() call (double backprop), so it cannot
    # be evaluated under no_grad(), and perturbed replacements must keep the
    # original tensors' requires_grad flags.
    def evaluate(current):
        return float(f(current).values)

    def replacement(original, values):
        return Tensor(values, requires_grad=original.requires_grad)

    worst = 0.0
    rng = rng or np.random.default_rng(0)
    for k, p in enumerate(params):
        flat = p.values.ravel()
        if coords_per_param is None or coords_per_param >= flat.size:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=coords_per_param, replace=False)
        for j in coords:
            j = int(j)
            ad = float(analytic[k].ravel()[j])
            err = np.inf
            for h in steps:
                bumped = flat.copy()
                bumped[j] += h
                plus = evaluate(params[:k] + [replacement(p, bumped.reshape(p.shape))]
                                + params[k + 1:])
                bumped[j] -= 2.0 * h
                minus = evaluate(params[:k] + [replacement(p, bumped.reshape(p.shape))]
                                 + params[k + 1:])
                fd = (plus - minus) / (2.0 * h)
                err = min(err, abs(fd - ad) / max(abs(fd), abs(ad), 1e-8))
            worst = max(worst, err)
    return worst
