"""MLP construction for the six network roles, Adam, and persistence.

Layer stacks (N assets, historical length h, future length f, latent dim m;
LR = leaky-relu slope, DP = dropout rate):

* conditioner / encoder:  N*h -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4) -> 16
* decoder:                16 -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4) -> N*h
* simulator:              m+16 -> 128 -> 256 -> 512 -> 1024 (all LR(0.2))
                          -> N*f tanh
* hybrid_simulator:       the simulator stack followed by a fixed x100 output
                          scaling (the proposed-center regime shifts targets
                          outside tanh range)
* discriminator:          N*(h+f) -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4)
                          -> 512 LR(0.2) -> 1
* proposer:               N*(h+1) -> 512 LR(0.2) -> 512 LR(0.2) -> DP(0.4)
                          -> N  (one surrogate mean per asset)

Weights initialize uniform in (-1/sqrt(fan_in), +1/sqrt(fan_in)), biases to
zero.  In train mode dropout applies a frozen mask drawn by
:func:`sample_dropout_masks`; at inference it is the identity.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericFault, ValidationError

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
    kind: str  # affine | leaky_relu | tanh | dropout | scale
    in_dim: int = 0
    out_dim: int = 0
    param: float = 0.0

    def __post_init__(self):
        if self.kind == "affine" and (self.in_dim <= 0 or self.out_dim <= 0):
            raise ValidationError(f"affine layer needs positive dims, got {self}")
        if self.kind == "dropout" and not 0.0 <= self.param < 1.0:
            raise ValidationError(f"dropout rate must be in [0,1), got {self.param}")
        if self.kind == "scale" and (not np.isfinite(self.param) or self.param == 0.0):
            raise ValidationError(f"scale factor must be finite and nonzero, got {self.param}")


class MlpNetwork:
    """A layer stack plus its affine parameters, ordered [W0, b0, W1, b1, ...]."""

    def __init__(self, role: str, layers: list[LayerSpec]):
        self.role = role
        self.layers = list(layers)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        previous_out = None
        for spec in self.layers:
            if spec.kind != "affine":
                continue
            if previous_out is not None and spec.in_dim != previous_out:
                raise ValidationError(
                    f"{role}: affine chain broken, {previous_out} -> {spec.in_dim}")
            previous_out = spec.out_dim
            self.weights.append(np.zeros((spec.out_dim, spec.in_dim)))
            self.biases.append(np.zeros(spec.out_dim))

    @property
    def input_width(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_width(self) -> int:
        for spec in reversed(self.layers):
            if spec.kind == "affine":
                return spec.out_dim
        raise ValidationError(f"{self.role}: no affine layer")

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def set_parameters(self, params) -> None:
        params = list(params)
        if len(params) != 2 * len(self.weights):
            raise ValidationError(
                f"{self.role}: expected {2 * len(self.weights)} parameter arrays, got {len(params)}")
        for i in range(len(self.weights)):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValidationError(f"{self.role}: parameter shape mismatch at affine {i}")
            self.weights[i] = np.asarray(w, dtype=np.float64)
            self.biases[i] = np.asarray(b, dtype=np.float64)

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _affine(i, o):
    return LayerSpec("affine", in_dim=i, out_dim=o)


def _leaky():
    return LayerSpec("leaky_relu", param=LEAKY_SLOPE)


def build_network(role: str, n_assets: int, h: int, f: int, m: int,
                  output_scale: float | None = None) -> MlpNetwork:
    """Build the layer stack for one role.

    ``output_scale`` only applies to simulator roles; it defaults to 1 for
    ``simulator`` and to 100 for ``hybrid_simulator``.
    """
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
        if output_scale is None:
            output_scale = HYBRID_OUTPUT_SCALE if role == "hybrid_simulator" else 1.0
        if output_scale != 1.0:
            layers.append(LayerSpec("scale", param=float(output_scale)))
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
        net.weights[i] = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        net.biases[i] = np.zeros(spec.out_dim)
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


def parameter_gradients(deltas, inputs) -> list[np.ndarray]:
    """[dW0, db0, dW1, db1, ...] summed over rows, from :func:`backward`'s deltas."""
    grads = []
    for delta, x in zip(deltas, inputs):
        grads.extend((delta.T @ x, delta.sum(axis=0)))
    return grads


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
    """Bias-corrected Adam accumulators for one parameter list."""

    lr: float = 2e-5
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_parameters(cls, params, lr: float = 2e-5, beta1: float = 0.5,
                       beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon,
                   first_moment=[np.zeros_like(p) for p in params],
                   second_moment=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update; raises NumericFault on a non-finite gradient, or on a
    gradient whose square overflows (any entry above about 1.3e154)."""
    params = list(params)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValidationError("adam_step: parameter/gradient/state length mismatch")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValidationError(f"adam_step: shape mismatch at index {i}: {p.shape} vs {g.shape}")
        if not np.isfinite(g).all():
            raise NumericFault(f"adam_step: non-finite gradient at index {i} (shape {g.shape})")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    updated = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        try:
            with np.errstate(over="raise"):
                v *= state.beta2
                v += (1.0 - state.beta2) * (g * g)
        except FloatingPointError:
            raise NumericFault(f"adam_step: gradient at index {i} (shape {g.shape}) "
                               f"overflows the second moment") from None
        denom = np.sqrt(v / c2)
        denom += state.epsilon
        step = m / c1
        step /= denom
        step *= state.lr
        updated.append(p - step)
    return updated, state


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

    A damaged archive raises ValidationError.  The format has no checksum, so
    damage inside the array data loads as different numbers.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"archive not found: {path}")
    # each array is read straight into its own buffer: no whole-file copy
    with path.open("rb") as handle:
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
                raise ValidationError(
                    f"{path}: unsupported archive version {header.get('version')}")
            components = {}
            for entry in header["components"]:
                layers = [LayerSpec(kind, int(i), int(o), float(p))
                          for kind, i, o, p in entry["layers"]]
                net = MlpNetwork(entry["role"], layers)
                params = []
                for spec in entry["arrays"]:
                    start, nbytes, shape = (data_start + spec["offset"], spec["nbytes"],
                                            spec["shape"])
                    if nbytes != 8 * math.prod(shape) or not data_start <= start <= size - nbytes:
                        raise ValidationError(f"{path}: array {spec['index']} of "
                                              f"{entry['name']} does not fit the archive or "
                                              f"its shape {shape}")
                    arr = np.empty(shape, dtype="<f8")
                    handle.seek(start)
                    handle.readinto(arr.data.cast("B"))
                    params.append(arr.astype(np.float64, copy=False))
                net.set_parameters(params)
                components[entry["name"]] = net
            return components, header["meta"]
        except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as err:
            raise ValidationError(f"{path}: damaged archive header ({err!r})") from None
