"""Self-test of the exact allocation oracle in checks.py.

On random small instances the support-enumeration optimum must be feasible
and at least as good as every point of a dense simplex grid, for both the
max-Sharpe and the min-variance branch.  Since its weights are feasible, no
feasible point can beat it, so this pins it to the true optimum up to the
grid's resolution.
"""

from __future__ import annotations

import itertools

import numpy as np

import checks

GRID_STEPS = {2: 400, 3: 60, 4: 24}


def simplex_grid(n: int, steps: int) -> np.ndarray:
    points = [c for c in itertools.product(range(steps + 1), repeat=n - 1) if sum(c) <= steps]
    grid = np.array([list(c) + [steps - sum(c)] for c in points], dtype=np.float64)
    return grid / steps


def exact_solver_against_grid(instances: int = 24, seed: int = 20220807) -> None:
    rng = np.random.default_rng(seed)
    for case in range(instances):
        n = 2 + case % 3
        returns = rng.normal(0.0, 0.01, (n, 30)) + rng.normal(0.0, 0.002, (n, 1))
        if case % 4 == 3:
            returns -= np.abs(returns.mean(axis=1, keepdims=True)) + 1e-3  # no positive mean
        mean, cov = returns.mean(axis=1), np.cov(returns)
        maximize, best, w = checks.exact_allocation(mean, cov)
        checks.require(maximize == bool((mean > 0).any()), f"case {case}: wrong branch")
        checks.require((w >= 0).all() and abs(w.sum() - 1.0) < 1e-12,
                       f"case {case}: exact weights off the simplex")
        grid = simplex_grid(n, GRID_STEPS[n])
        variances = np.einsum("ij,jk,ik->i", grid, cov, grid)
        if maximize:
            grid_best = float(np.max(grid @ mean / np.sqrt(variances)))
            checks.require(best >= grid_best - 1e-12 * abs(grid_best),
                           f"case {case}: grid Sharpe {grid_best} beats exact {best}")
        else:
            grid_best = float(np.min(variances))
            checks.require(best <= grid_best * (1 + 1e-12),
                           f"case {case}: grid variance {grid_best} beats exact {best}")


if __name__ == "__main__":
    exact_solver_against_grid()
    print("exact solver agrees with the simplex grid")
