"""Compare the three normalization regimes on one window.

The standard regime centers each asset on its historical mean; eavesdropping
centers on the (unknowable in practice) whole-window mean; the hybrid regime
centers on whatever surrogate mean a proposer supplies.  All three share the
historical 3-sigma scale and invert exactly.

Run: python3 demos/02_normalization_regimes.py
"""

import numpy as np

from ganfolio import (denormalize, fit_eavesdrop, fit_standard, make_hybrid_stats,
                      normalize)

rng = np.random.default_rng(7)
h, f = 40, 20
t = np.arange(h + f, dtype=np.float64)

# a drifting asset: the future keeps climbing away from the historical mean
price = 100.0 + 0.3 * t + rng.standard_normal(h + f)
window = price[None, :]  # (1 asset, w days)

standard = fit_standard(window[:, :h])
eavesdrop = fit_eavesdrop(window, h=h)
print(f"historical mean     : {standard.center[0]:10.4f}")
print(f"whole-window mean   : {eavesdrop.center[0]:10.4f}  (eavesdropping peeks ahead)")
print(f"shared 3-sigma scale: {standard.scale[0]:10.4f}")

for name, stats in (("standard", standard), ("eavesdrop", eavesdrop)):
    z = normalize(window, stats)
    print(f"{name:9s}: normalized future block mean {z[0, h:].mean():+.3f} "
          f"(near zero means the center anticipated the drift)")

# a hybrid proposer that slightly anticipates the drift
proposed = standard.center + 0.3 * f / 2.0
hybrid = make_hybrid_stats(standard.scale, proposed)
z = normalize(window, hybrid)
print(f"hybrid   : normalized future block mean {z[0, h:].mean():+.3f}")

# every regime inverts exactly
for stats in (standard, eavesdrop, hybrid):
    back = denormalize(normalize(window, stats), stats)
    assert np.max(np.abs(back - window) / window) < 1e-10
print("round trip exact for all three regimes")
