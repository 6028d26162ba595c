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
    """Per-asset mean returns (..., N) and regularized covariances (..., N, N).

    A stack of estimates is checked once; a failing check names the index of
    the first member that fails it.
    """

    mean_returns: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.mean_returns, dtype=np.float64)
        c = np.asarray(self.covariance, dtype=np.float64)
        object.__setattr__(self, "mean_returns", r)
        object.__setattr__(self, "covariance", c)
        if r.ndim == 0 or c.shape != r.shape + r.shape[-1:]:
            raise ValidationError(f"covariance shape {c.shape} vs mean returns shape {r.shape}")
        finite = np.isfinite(r).all(axis=-1) & np.isfinite(c).all(axis=(-2, -1))
        if not finite.all():
            raise ValidationError(f"{_member(~finite)}moment estimate contains non-finite values")
        # an indefinite covariance makes the allocation program unbounded below
        tol = 1e-12 * np.maximum(1.0, np.trace(c, axis1=-2, axis2=-1))
        asymmetric = np.abs(c - np.swapaxes(c, -1, -2)).max(axis=(-2, -1), initial=0.0) > tol
        if asymmetric.any():
            raise ValidationError(f"{_member(asymmetric)}covariance is not symmetric")
        shifted = c + tol[..., None, None] * np.eye(r.shape[-1])
        try:  # succeeds exactly when every smallest eigenvalue exceeds -tol
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            indefinite = np.reshape([not _factors(s) for s in shifted.reshape(-1, *c.shape[-2:])],
                                    tol.shape)
            smallest = np.linalg.eigvalsh(c[indefinite][0])[0]
            raise ValidationError(f"{_member(indefinite)}covariance is not positive semidefinite "
                                  f"(smallest eigenvalue {smallest:.3g})") from None


def _member(failed: np.ndarray) -> str:
    """Message prefix naming the first failing member of a stack; empty for one estimate."""
    if failed.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.unravel_index(np.argmax(failed), failed.shape))
    return f"member {index[0] if len(index) == 1 else index}: "


def _factors(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def estimate_moments(returns, ridge: float = COVARIANCE_RIDGE) -> MomentEstimate:
    """Row means and sample covariance with diagonal loading, of each N x T member.

    ``returns`` is one N x T matrix or a stack (..., N, T) of them.  The
    loading term is ``ridge * trace(S)/N`` added to the diagonal, so it
    scales with the data and vanishes for identically-zero returns.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim < 2:
        raise ValidationError(f"returns must be an N x T matrix or a stack of them, "
                              f"got shape {returns.shape}")
    n, t = returns.shape[-2:]
    if t < 2:
        raise ValidationError(f"need at least 2 return observations, got {t}")
    mean = returns.mean(axis=-1)
    centered = returns - mean[..., None]
    cov = centered @ np.swapaxes(centered, -1, -2) / (t - 1)
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    cov = cov + ridge * (np.trace(cov, axis1=-2, axis2=-1)[..., None, None] / n) * np.eye(n)
    return MomentEstimate(mean_returns=mean, covariance=cov)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum(x) = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


# Stacked products go through matmul, which runs each member's product through
# the same BLAS call as the 2-D expression; einsum sums in another order.
def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return (matrices @ vectors[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _long_only_qp(cov: np.ndarray, c: np.ndarray) -> np.ndarray:
    """y/sum(y) for the y >= 0 minimizing y'Sy/2 - c'y, for each member of a stack.

    Lawson-Hanson on every member in lockstep, each with some c > 0.  The
    objective falls at every outer step, so no free set repeats; testing its
    computed value keeps rounding from cycling.  A member leaves the loop
    when it is optimal, and every stacked operation rounds as it does on a
    single member, so a member's result does not depend on the others.
    """
    shape, n = c.shape, c.shape[-1]
    cov, c = cov.reshape(-1, n, n), c.reshape(-1, n)
    weights = np.empty(c.shape)
    zero = ~cov.any(axis=(1, 2))
    top = c[zero] == c[zero].max(axis=1, keepdims=True)
    weights[zero] = top / top.sum(axis=1, keepdims=True)
    cov, c = cov[~zero], c[~zero]

    k, noise_scale = c.shape[0], 4 * n * np.finfo(np.float64).eps
    abs_cov, abs_c = np.abs(cov), np.abs(c)
    y, free, value = np.zeros((k, n)), np.zeros((k, n), dtype=bool), np.full(k, np.inf)
    grad, noise = np.empty((k, n)), np.empty((k, n))
    run = np.arange(k)  # members not yet optimal
    while True:
        yr = y[run]
        grad[run] = g = c[run] - _matvec(cov[run], yr)
        noise[run] = tol = noise_scale * (abs_c[run] + _matvec(abs_cov[run], yr))
        eligible = ~free[run] & (g > tol)  # gradients within rounding count as zero
        stepping = eligible.any(axis=1)
        if not stepping.any():
            break
        run, g, eligible, yr = run[stepping], g[stepping], eligible[stepping], yr[stepping]
        active = free[run]
        active[np.arange(run.size), np.argmax(np.where(eligible, g, -np.inf), axis=1)] = True
        cr = c[run]
        z = _step_back(cov[run], cr, yr, active)
        face = -0.5 * _dot(cr, z)  # the optimum on a face is -c'z/2
        better = face < value[run]
        run, z, active = run[better], z[better], active[better]
        y[run], free[run], value[run] = z, active & (z > 0), face[better]

    # tie rule: the minimum-norm solution over every asset with zero gradient
    ties = free | (np.abs(grad) <= noise)
    for i in np.flatnonzero((ties > free).any(axis=1)):
        spread = np.zeros(n)
        spread[ties[i]] = np.linalg.lstsq(cov[i][np.ix_(ties[i], ties[i])], c[i][ties[i]],
                                          rcond=None)[0]
        y[i] = spread if (spread >= 0).all() else y[i]
    weights[~zero] = y / y.sum(axis=1, keepdims=True)
    return weights.reshape(shape)


def _step_back(cov: np.ndarray, c: np.ndarray, trial: np.ndarray,
               active: np.ndarray) -> np.ndarray:
    """Solve on each member's free set, stepping back from ``trial`` while an entry is negative.

    Shrinks ``active`` in place to the final free sets and returns the solutions.
    """
    z, back = _solve_free(cov, c, active), np.arange(c.shape[0])
    while True:
        blocking = active[back] & (z[back] < 0)
        stepping = blocking.any(axis=1)
        if not stepping.any():
            return z
        back, blocking = back[stepping], blocking[stepping]
        t, zb = trial[back], z[back]
        ratios = np.divide(t, t - zb, out=np.full(t.shape, np.inf), where=blocking)
        t += ratios.min(axis=1, keepdims=True) * (zb - t)
        t[np.arange(back.size), np.argmin(ratios, axis=1)] = 0.0
        trial[back] = t
        active[back] &= t > 0
        z[back] = _solve_free(cov[back], c[back], active[back])


def _solve_free(cov: np.ndarray, c: np.ndarray, free: np.ndarray) -> np.ndarray:
    """z with z_P = inv(S_PP) c_P on each member's free set P and 0 elsewhere.

    Members whose free sets have the same size share one stacked solve, each
    on its own submatrix with P in increasing order.
    """
    z = np.zeros(c.shape)
    sizes = free.sum(axis=1)
    order = np.argsort(~free, axis=1, kind="stable")  # each free set first, in order
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)[:, None]
        p = order[rows[:, 0], :size]
        try:
            z[rows, p] = np.linalg.solve(cov[rows[..., None], p[..., None], p[:, None]],
                                         c[rows, p][..., None])[..., 0]
        except np.linalg.LinAlgError:  # some mix of these assets gains at zero variance
            raise ValidationError("singular covariance: the allocation is unbounded") from None
    return z


def min_variance_weights(moments: MomentEstimate) -> np.ndarray:
    """Long-only minimum-variance point of the simplex (fallback objective), per member."""
    return _long_only_qp(moments.covariance, np.ones(moments.mean_returns.shape))


def max_sharpe_weights(moments: MomentEstimate, r_f: float = 0.0) -> np.ndarray:
    """Long-only max-Sharpe weights of each member: nonnegative, summing to 1 within 1e-10.

    ``r_f`` is per period, in the unit of the mean returns.  A member with
    no mean return above ``r_f`` takes its minimum-variance
    point (c = 1 in the same program), solved in the same batch.
    """
    excess = moments.mean_returns - r_f
    fallback = ~(excess > 0).any(axis=-1, keepdims=True)
    return _long_only_qp(moments.covariance, np.where(fallback, 1.0, excess))
