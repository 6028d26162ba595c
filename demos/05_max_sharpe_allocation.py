"""Long-only maximum-Sharpe allocation, cross-checked against a grid search.

Shows the closed-form two-asset tangency case, the behavior on a dominant
asset, the minimum-norm tie rule on identical assets, and the min-variance
fallback when nothing beats the risk-free rate.

Run: python3 demos/05_max_sharpe_allocation.py
"""

import itertools

import numpy as np

from ganfolio import MomentEstimate, max_sharpe_weights


def sharpe_ratio(v, moments, r_f=0.0):
    """(v'r - r_f) / sqrt(v'Sv)"""
    return (v @ moments.mean_returns - r_f) / np.sqrt(v @ moments.covariance @ v)


def show(title, moments, r_f=0.0):
    v = max_sharpe_weights(moments, r_f)
    print(f"{title:46s} weights {np.round(v, 4)}  SR {sharpe_ratio(v, moments, r_f):+.4f}")
    return v


# 1. closed-form check: uncorrelated equal variances -> weights ~ means
m = MomentEstimate(np.array([0.1, 0.2]), np.diag([0.04, 0.04]))
v = show("tangency, r = (0.1, 0.2), equal variances:", m)
assert np.abs(v - [1 / 3, 2 / 3]).max() < 1e-4

# 2. a dominant asset takes everything
m = MomentEstimate(np.array([0.15, -0.02]), np.diag([0.02, 0.06]))
show("dominant first asset:", m)

# 3. exchangeable assets tie (singular covariance); the solver returns the
#    minimum-norm optimum, which shares weight equally
m = MomentEstimate(np.array([0.1, 0.1, 0.1]), np.full((3, 3), 0.05))
show("identical assets (tie-break):", m)

# 4. nothing beats the risk-free rate -> min-variance fallback
m = MomentEstimate(np.array([-0.05, -0.01]), np.diag([0.09, 0.01]))
show("all assets below r_f (min-variance fallback):", m)

# 5. agreement with an exhaustive coarse grid on a random 3-asset instance
rng = np.random.default_rng(12)
a = rng.standard_normal((3, 3)) * 0.1
m = MomentEstimate(rng.random(3) * 0.08, a @ a.T + 0.01 * np.eye(3))
v = max_sharpe_weights(m)
steps = 200
grid_best = max(
    sharpe_ratio(np.array([i, j, steps - i - j]) / steps, m)
    for i, j in itertools.product(range(steps + 1), repeat=2) if i + j <= steps
)
print(f"solver SR {sharpe_ratio(v, m):.6f} vs exhaustive 0.005-grid best {grid_best:.6f}")
assert sharpe_ratio(v, m) >= grid_best - 1e-3
