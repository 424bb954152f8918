"""Risk bounds from a univariate sum-of-squares program.

The quadratic-form bound in :mod:`trajrisk.chebyshev` uses only two
moments of g(x) = Q(x) - 1.  Given more moments of g, a tighter
distributionally-robust bound comes from searching over polynomials that
dominate the indicator of the nonpositive axis:

    minimize   E[p(g)] = sum_k c_k E[g^k]
    subject to p(x) - 1 = s1(x) - x * s2(x),   s1, s2, p all SOS.

The constraint makes p >= 1 on x <= 0, and p being SOS makes p >= 0
everywhere, so E[p(g)] >= P(g <= 0) for every distribution with the
given moments.  Parameterizing p, s1, s2 by Gram matrices turns this
into a small block-diagonal SDP solved by :mod:`trajrisk.sdp`.

The moments of g are a binomial shift of the moments of x'Qx, which
:func:`trajrisk.chebyshev.quad_form_moments` computes from the raw
position moments; the Chebyshev bound reads the same function.

Degrees are even.  At degree 2 the program's optimum is the one-sided
Chebyshev (Cantelli) bound (Vandenberghe, Boyd & Comanor, SIAM Rev. 49,
2007), so :func:`sos_risk_bound` returns that closed form and solves an
SDP only for d >= 4, where the bound is strictly tighter whenever the
higher moments carry information.  :func:`build_sos_program` and
:func:`solve_sdp` still accept degree 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .chebyshev import FormLike, RiskBound, cheb_bound_quadratic, quad_form_moments
from .errors import ValidationError
from .sdp import SdpSolution, solve_dense_sdp

__all__ = [
    "MomentVector",
    "SosProgram",
    "moments_of_g",
    "normalize_moments",
    "build_sos_program",
    "solve_sdp",
    "sos_risk_bound",
]

_HANKEL_TOL = 1e-9


@dataclass(frozen=True)
class MomentVector:
    """Raw moments m_k = E[g^k], k = 0..d, of the collision margin g.

    `scale` records the cumulative normalization applied: the vector
    describes g divided by `scale`.
    """

    d: int
    m: Tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        if self.d < 1 or len(self.m) != self.d + 1:
            raise ValidationError("moment vector must hold m_0..m_d")
        if abs(self.m[0] - 1.0) > 1e-9:
            raise ValidationError(f"zeroth moment must be 1, got {self.m[0]}")
        if not self.scale > 0.0:
            raise ValidationError("scale must be positive")
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))

    def hankel(self) -> np.ndarray:
        """Principal Hankel matrix H_ij = m_{i+j}, i,j = 0..floor(d/2)."""
        half = self.d // 2
        return np.array(
            [[self.m[i + j] for j in range(half + 1)] for i in range(half + 1)]
        )

    def is_consistent(self, tol: float = _HANKEL_TOL) -> bool:
        """Necessary moment-validity check: Hankel PSD within `tol`."""
        h = self.hankel()
        bound = tol * max(1.0, float(np.abs(h).max()))
        return float(np.linalg.eigvalsh(h).min()) >= -bound


def moments_of_g(q: FormLike, x_moments, d: int) -> MomentVector:
    """Moments of g(x) = x'Qx - 1 from raw position moments.

    E[g^k] = sum_j C(k, j) (-1)^(k-j) E[(x'Qx)^j], with E[(x'Qx)^j] from
    :func:`quad_form_moments`, so the result is exact for any distribution
    the table describes (Gaussian, mixture, or propagated).  ``x_moments``
    is a `MomentTable` or one table's array in its layout, holding moments
    up to order 2d.
    """
    if d < 1:
        raise ValidationError("need at least one moment of g")
    eq = quad_form_moments(q, x_moments, d).tolist()
    return MomentVector(d, tuple(
        math.fsum(math.comb(k, j) * (-1) ** (k - j) * eq[j] for j in range(k + 1))
        for k in range(d + 1)
    ))


def normalize_moments(mv: MomentVector) -> MomentVector:
    """Rescale to unit second moment: m_k -> m_k / m_2^{k/2}.

    P(g <= 0) = P(g/c <= 0) for any c > 0, so the bound is unchanged
    while the program's data become O(1) across k, which is what the
    conditioning of the Gram parameterization needs.
    """
    if mv.d < 2:
        raise ValidationError("normalization needs m_2")
    m2 = mv.m[2]
    if not m2 > 0.0:
        raise ValidationError(f"second moment must be positive, got {m2}")
    c = float(np.sqrt(m2))
    scaled = tuple(mv.m[k] / c**k for k in range(mv.d + 1))
    return MomentVector(mv.d, scaled, mv.scale * c)


def _coeff_selector(size: int, k: int) -> np.ndarray:
    """Matrix E with <E, G> = coefficient of x^k of the Gram form of G."""
    e = np.zeros((size, size))
    for i in range(size):
        j = k - i
        if 0 <= j < size:
            e[i, j] = 1.0
    return e


@dataclass(frozen=True)
class SosProgram:
    """SDP data for the degree-d dominating-polynomial search.

    Decision variable is blkdiag(G_p, G_s1, G_s2); the k-th equality
    constraint matches the coefficient of x^k on both sides of
    p(x) - 1 = s1(x) - x*s2(x), and the objective <Hankel(m), G_p>
    equals E[p(g)].
    """

    degree: int
    moments: MomentVector
    block_dims: Tuple[int, int, int]
    c_mat: np.ndarray
    a_mats: Tuple[np.ndarray, ...]
    b: Tuple[float, ...]

    @property
    def dimension(self) -> int:
        return sum(self.block_dims)


@lru_cache(maxsize=None)
def _constraints(d: int):
    """Block sizes, constraint matrices and right-hand side of the degree-d
    program, which depend on d only: built once per degree, read-only."""
    n = d // 2
    dims = (n + 1, n + 1, n)
    total = sum(dims)
    offs = np.cumsum((0,) + dims)
    a_mats = []
    for k in range(d + 1):
        a_k = np.zeros((total, total))
        # coefficient of x^k in p - s1 + x*s2, one Gram block each
        for which, sign, power in ((0, 1.0, k), (1, -1.0, k), (2, 1.0, k - 1)):
            i, j = offs[which], offs[which] + dims[which]
            a_k[i:j, i:j] += sign * _coeff_selector(dims[which], power)
        a_k.flags.writeable = False
        a_mats.append(a_k)
    return dims, tuple(a_mats), (1.0,) + (0.0,) * d


def build_sos_program(mv: MomentVector) -> SosProgram:
    """Assemble the block SDP for an even-degree moment vector.

    Degree d = 2n gives Gram sizes n+1 (p), n+1 (s1, degree d) and
    n (s2, degree d-2), with d+1 coefficient-matching constraints.  Only
    the cost matrix depends on the moments; the constraints are shared by
    every program of the same degree.
    """
    d = mv.d
    if d < 2:
        raise ValidationError("SOS program needs degree >= 2")
    if d % 2 != 0:
        raise ValidationError("only even degrees are supported")
    dims, a_mats, b = _constraints(d)
    total = sum(dims)
    c_mat = np.zeros((total, total))
    c_mat[:dims[0], :dims[0]] = mv.hankel()
    return SosProgram(d, mv, dims, c_mat, a_mats, b)


def solve_sdp(prog: SosProgram, tol: float = 1e-9,
              max_iter: int = 100) -> SdpSolution:
    """Solve an SOS program, screening inconsistent moment input.

    A moment vector whose Hankel matrix is not PSD admits no
    representing distribution; the program's objective is then unbounded
    below, so it is reported as "infeasible" without iterating.
    """
    if not prog.moments.is_consistent():
        dim = prog.dimension
        zero = np.zeros((dim, dim))
        return SdpSolution(
            primal_objective=float("nan"), dual_objective=float("nan"),
            x=zero, y=np.zeros(len(prog.b)), s=zero, status="infeasible",
            duality_gap=float("nan"), primal_residual=float("nan"),
            dual_residual=float("nan"), iterations=0,
        )
    return solve_dense_sdp(prog.c_mat, prog.a_mats, prog.b,
                           tol=tol, max_iter=max_iter)


def sos_risk_bound(q: FormLike, x_moments, d: int,
                   tol: float = 1e-9) -> RiskBound:
    """Degree-d SOS upper bound on P(Q(x) <= 1) from raw moments.

    Degree 2 is the program's closed-form optimum, the Cantelli bound of
    :func:`cheb_bound_quadratic`, and nothing is solved.  Higher degrees
    compose moment extraction, normalization, program assembly and the
    interior-point solve; a non-optimal solver status degrades the answer
    to the quadratic Chebyshev bound (still a valid upper bound) and
    records the downgrade in the result's `note`.
    """
    if d == 2:
        return RiskBound(cheb_bound_quadratic(q, x_moments).value, "sos-d2", 4)
    mv = normalize_moments(moments_of_g(q, x_moments, d))
    sol = solve_sdp(build_sos_program(mv), tol=tol)
    if sol.status != "optimal":
        fallback = cheb_bound_quadratic(q, x_moments)
        return RiskBound(
            fallback.value, f"sos-d{d}", fallback.moments_used,
            note=f"sdp status {sol.status}; degraded to chebyshev-quad",
        )
    value = min(max(sol.primal_objective, 0.0), 1.0)
    return RiskBound(value, f"sos-d{d}", 2 * d)
