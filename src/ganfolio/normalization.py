"""Per-window, per-asset price normalization and its inverse.

Three regimes share one mechanical form, (p - center) / scale, and differ
only in where the center comes from:

* ``standard``  - center is the mean of the historical segment;
* ``eavesdrop`` - center is the mean of the whole window, future included
  (a forward-biased diagnostic: ``TrainConfig`` refuses it unless
  ``allow_forward_bias`` is set, and ``ganfolio simulate`` and ``backtest``
  refuse an eavesdrop bundle without ``--allow-forward-bias``);
* ``hybrid``    - center is a surrogate mean proposed by a trained network.

The scale is always 3x the population standard deviation of the historical
segment, floored to avoid division by zero on constant segments.  Values are
intentionally not clipped: 3-sigma scaling lands typical prices near [-1, 1]
but clipping would destroy the exact round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# scale = max(3*sigma, SCALE_FLOOR * max(1, |center|)); keeps constant
# segments invertible.
SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class NormStats:
    """Per-asset center and scale for one window; never reuse across windows."""

    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", scale)
        if center.shape != scale.shape:
            raise ValidationError(f"center shape {center.shape} vs scale shape {scale.shape}")
        if not np.isfinite(center).all():
            raise ValidationError("normalization center is not finite for asset index(es) "
                                  f"{np.flatnonzero(~np.isfinite(center)).tolist()}")
        if not (np.isfinite(scale) & (scale > 0)).all():
            raise ValidationError("normalization scale must be positive and finite")


def _floored_scale(sigma: np.ndarray, center: np.ndarray) -> np.ndarray:
    return np.maximum(3.0 * sigma, SCALE_FLOOR * np.maximum(1.0, np.abs(center)))


def fit_standard(historical) -> NormStats:
    """Center on the historical mean, scale by 3x its population sigma."""
    x = np.asarray(historical, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValidationError(f"need at least 2 historical values, got {x.shape[-1]}")
    center = x.mean(axis=-1)
    scale = _floored_scale(x.std(axis=-1), center)
    return NormStats(center=center, scale=scale)


def fit_eavesdrop(full, h: int) -> NormStats:
    """Center on the whole-window mean (future included), historical scale.

    Uses data that is unknowable at decision time: a diagnostic, not a
    tradable strategy.
    """
    x = np.asarray(full, dtype=np.float64)
    w = x.shape[-1]
    if w < 2:
        raise ValidationError(f"need at least 2 values in the window, got {w}")
    if not 2 <= h <= w:
        raise ValidationError(f"historical length {h} incompatible with window {w}")
    base = fit_standard(x[..., :h])
    return NormStats(center=x.mean(axis=-1), scale=base.scale)


def make_hybrid_stats(historical_scale, proposed_center) -> NormStats:
    """Stats with a proposed surrogate center and the historical 3-sigma scale."""
    return NormStats(center=proposed_center, scale=historical_scale)


def normalize(series, stats: NormStats) -> np.ndarray:
    """(p - center) / scale along the last axis."""
    x = np.asarray(series, dtype=np.float64)
    return (x - stats.center[..., None]) / stats.scale[..., None]


def denormalize(series, stats: NormStats) -> np.ndarray:
    """Exact inverse of :func:`normalize` for the same stats."""
    x = np.asarray(series, dtype=np.float64)
    return x * stats.scale[..., None] + stats.center[..., None]
