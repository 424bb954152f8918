#!/usr/bin/env python3
"""Every risk method on one frozen encounter, side by side.

A two-mode position prediction sits diagonally ahead of the ego vehicle.
The exact collision probability is computed twice (imhof's integral along
the footprint's edge and a moment-matched series), estimated once by Monte
Carlo, and bounded four ways.  The point of the table: the exact methods
agree to a few 1e-4, the bounds never undershoot, and tighter relaxations
cost more.
"""

import math
import time

import numpy as np

from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.engine import marginal_risk
from trajrisk.frames import EgoPose, Ellipsoid

mix = Gaussian2DMixture(
    (
        Gaussian2D([2.2, 0.3], [[0.4, 0.1], [0.1, 0.3]]),
        Gaussian2D([3.0, -0.5], [[0.5, -0.05], [-0.05, 0.2]]),
    ),
    (0.6, 0.4),
)
pose = EgoPose(0.5, 0.0, math.pi / 6)
footprint = Ellipsoid(np.diag([1 / 1.5**2, 1 / 1.0**2]))

print(__doc__)
print(f"ego pose: x={pose.x}, y={pose.y}, yaw={math.degrees(pose.theta):.0f} deg")
print("agent modes:", ", ".join(f"{w:.1f} @ ({c.mean[0]:.1f}, {c.mean[1]:.1f})"
                                for w, c in zip(mix.weights, mix.components)))
print()
print(f"{'method':22s} {'risk':>12s} {'upper bound?':>13s} {'time':>10s}")
print("-" * 62)

for method in ("imhof", "ltz", "mc", "chebyshev-quad", "chebyshev-halfspace",
               "sos-d2", "sos-d4", "sos-d6"):
    kwargs = {"mc_samples": 10**6} if method == "mc" else {}
    t0 = time.perf_counter()
    r = marginal_risk(mix, pose, footprint, method, **kwargs)
    dt = time.perf_counter() - t0
    flag = "yes" if r.is_upper_bound else "no"
    print(f"{method:22s} {r.mixed:12.6f} {flag:>13s} {1e3 * dt:8.1f}ms")

exact = marginal_risk(mix, pose, footprint, "imhof", tol=1e-10).mixed
print()
print(f"reference (imhof, tol 1e-10): {exact:.9f}")
print("per-mode split of the reference:")
for w, v in marginal_risk(mix, pose, footprint, "imhof", tol=1e-10).per_mode:
    print(f"  weight {w:.1f}: mode risk {v:.9f}")
