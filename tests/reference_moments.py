"""Reference quadratic-form moments: the dict-based expansions the closed forms replaced.

`chebyshev.quad_form_moments` now takes E[(x'Qx)^k] from one convolution
per k, and `sos.moments_of_g` takes E[(x'Qx - 1)^k] from those by a
binomial shift.  Before, `sos` expanded (x'Qx - 1)^k as a dict-keyed
bivariate polynomial and `chebyshev` contracted the order-4 moments term
by term; both are kept here unchanged so that the tests can compare.
"""

from typing import Dict, List, Tuple

import numpy as np

Poly2 = Dict[Tuple[int, int], float]


def _poly_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def expected_powers(q, table, d: int, shift: float) -> List[float]:
    """E[(x'Qx + shift)^k], k = 0..d, by polynomial expansion term by term."""
    qm = np.asarray(q, dtype=float).reshape(2, 2)
    poly: Poly2 = {
        (2, 0): float(qm[0, 0]),
        (1, 1): float(2.0 * qm[0, 1]),
        (0, 2): float(qm[1, 1]),
        (0, 0): shift,
    }
    moments = [1.0]
    power: Poly2 = {(0, 0): 1.0}
    for _ in range(d):
        power = _poly_mul(power, poly)
        moments.append(sum(coeff * table[key] for key, coeff in power.items()))
    return moments


def quad_form_mean(q, table) -> float:
    """E[x'Qx] from raw second moments."""
    qm = np.asarray(q, dtype=float).reshape(2, 2)
    return float(
        qm[0, 0] * table[(2, 0)]
        + 2.0 * qm[0, 1] * table[(1, 1)]
        + qm[1, 1] * table[(0, 2)]
    )


def quad_form_second_moment(q, table) -> float:
    """E[(x'Qx)^2] as the 16-term contraction with order-4 raw moments."""
    qm = np.asarray(q, dtype=float).reshape(2, 2)
    total = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ell in range(2):
                    n_x = (i, j, k, ell).count(0)
                    total += qm[i, j] * qm[k, ell] * table[(n_x, 4 - n_x)]
    return float(total)
