"""Portfolio moments and long-only max-Sharpe allocation.

Maximizing (v'r - r_f) / sqrt(v'Sv) over {v >= 0, sum(v) = 1} is the convex
program y = argmin_{y >= 0} y'Sy/2 - c'y with c = r - r_f and v = y/sum(y):
on the ray t*v the objective bottoms out at -SR(v)^2/2 (Cornuejols & Tutuncu,
Optimization Methods in Finance).  If no asset beats r_f the solver falls back
to the minimum-variance point, the same program with c = 1.  Lawson and
Hanson's active-set method (1974) solves it exactly in finitely many steps.
Ties: S = 0 gives uniform weights over the assets with the largest c.  A
singular S != 0 (only hand-built moments; estimate_moments' ridge makes S
positive definite) gives the minimum-norm solution of S_PP y_P = c_P over the
zero-gradient assets P if it is nonnegative: identical assets share equally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# diagonal loading keeps per-draw covariance estimates (few observations,
# many assets) positive definite
COVARIANCE_RIDGE = 1e-4


@dataclass(frozen=True)
class MomentEstimate:
    """Per-asset mean returns and regularized covariance."""

    mean_returns: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.mean_returns, dtype=np.float64)
        c = np.asarray(self.covariance, dtype=np.float64)
        object.__setattr__(self, "mean_returns", r)
        object.__setattr__(self, "covariance", c)
        if c.shape != (r.size, r.size):
            raise ValidationError(f"covariance shape {c.shape} vs {r.size} assets")
        if not (np.isfinite(r).all() and np.isfinite(c).all()):
            raise ValidationError("moment estimate contains non-finite values")
        # an indefinite covariance makes the allocation program unbounded below
        tol = 1e-12 * max(1.0, float(np.trace(c)))
        if np.abs(c - c.T).max(initial=0.0) > tol:
            raise ValidationError("covariance is not symmetric")
        try:  # succeeds exactly when the smallest eigenvalue exceeds -tol
            np.linalg.cholesky(c + tol * np.eye(r.size))
        except np.linalg.LinAlgError:
            raise ValidationError(f"covariance is not positive semidefinite (smallest "
                                  f"eigenvalue {np.linalg.eigvalsh(c)[0]:.3g})") from None

    @property
    def n_assets(self) -> int:
        return self.mean_returns.size


def estimate_moments(returns, ridge: float = COVARIANCE_RIDGE) -> MomentEstimate:
    """Row means and sample covariance with diagonal loading.

    The loading term is ``ridge * trace(S)/N`` added to the diagonal, so it
    scales with the data and vanishes for identically-zero returns.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 2:
        raise ValidationError(f"returns must be an N x T matrix, got shape {returns.shape}")
    n, t = returns.shape
    if t < 2:
        raise ValidationError(f"need at least 2 return observations, got {t}")
    mean = returns.mean(axis=1)
    centered = returns - mean[:, None]
    cov = centered @ centered.T / (t - 1)
    cov = (cov + cov.T) / 2.0
    cov = cov + ridge * (np.trace(cov) / n) * np.eye(n)
    return MomentEstimate(mean_returns=mean, covariance=cov)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _long_only_qp(cov: np.ndarray, c: np.ndarray) -> np.ndarray:
    """y/sum(y) for the y >= 0 minimizing y'Sy/2 - c'y, some c > 0 (Lawson-Hanson).

    The objective falls at every outer step, so no free set repeats; testing
    its computed value keeps rounding from cycling.
    """
    n = c.size
    if not cov.any():
        return (c == c.max()) / np.count_nonzero(c == c.max())
    y, free, value = np.zeros(n), np.zeros(n, dtype=bool), np.inf
    while True:
        grad = c - cov @ y
        noise = 4 * n * np.finfo(np.float64).eps * (np.abs(c) + np.abs(cov) @ y)
        eligible = ~free & (grad > noise)  # gradients within rounding count as zero
        if not eligible.any():
            break
        trial, active = y.copy(), free.copy()
        active[np.argmax(np.where(eligible, grad, -np.inf))] = True
        while True:  # solve on the free set, stepping back while an entry is negative
            z = np.zeros(n)
            try:
                z[active] = np.linalg.solve(cov[np.ix_(active, active)], c[active])
            except np.linalg.LinAlgError:  # some mix of these assets gains at zero variance
                raise ValidationError("singular covariance: the allocation is unbounded") from None
            blocking = active & (z < 0)
            if not blocking.any():
                break
            ratios = trial[blocking] / (trial[blocking] - z[blocking])
            trial += ratios.min() * (z - trial)
            trial[np.flatnonzero(blocking)[np.argmin(ratios)]] = 0.0
            active &= trial > 0
        if not -0.5 * float(c @ z) < value:  # the optimum on a face is -c'z/2
            break
        y, free, value = z, active & (z > 0), -0.5 * float(c @ z)

    # tie rule: the minimum-norm solution over every asset with zero gradient
    ties = free | (np.abs(grad) <= noise)
    if (ties > free).any():
        spread = np.zeros(n)
        spread[ties] = np.linalg.lstsq(cov[np.ix_(ties, ties)], c[ties], rcond=None)[0]
        y = spread if (spread >= 0).all() else y
    return y / y.sum()


def min_variance_weights(moments: MomentEstimate) -> np.ndarray:
    """Long-only minimum-variance point of the simplex (fallback objective)."""
    return _long_only_qp(moments.covariance, np.ones(moments.n_assets))


def max_sharpe_weights(moments: MomentEstimate, r_f: float = 0.0) -> np.ndarray:
    """Long-only max-Sharpe weights: nonnegative, summing to 1 within 1e-10."""
    excess = moments.mean_returns - r_f
    if not np.any(excess > 0):
        return min_variance_weights(moments)
    return _long_only_qp(moments.covariance, excess)

