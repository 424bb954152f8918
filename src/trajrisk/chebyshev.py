"""Moment-based upper bounds on ellipse-entry probability.

Two constructions, both distributionally robust (valid for every
distribution sharing the supplied moments):

* ``cheb_bound_quadratic`` applies the one-tailed Chebyshev (Cantelli)
  inequality directly to the scalar g = Q(x) - 1, which requires raw
  position moments up to order 4.
* ``cheb_bound_halfspace`` circumscribes the ellipse with a tangent
  polytope and takes the best Cantelli bound over the faces, which only
  needs mean and covariance.

Both return 1 (a vacuous but valid bound) when the mean-margin
precondition fails, i.e. when the average case already collides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .distributions import MomentTable
from .errors import ValidationError
from .frames import Ellipsoid

__all__ = [
    "HalfSpace",
    "RiskBound",
    "cheb_one_tailed",
    "quad_form_mean",
    "quad_form_moments",
    "cheb_bound_quadratic",
    "ellipse_to_halfspaces",
    "cheb_bound_halfspace",
]

FormLike = Union[Ellipsoid, np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class HalfSpace:
    """The set {x : a.x + b <= 0}."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(2)
        if not np.linalg.norm(a) > 0.0:
            raise ValidationError("half-space normal must be nonzero")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))

    def margin(self, point) -> float:
        """Signed value a.x + b at `point` (nonpositive inside)."""
        return float(self.a @ np.asarray(point, dtype=float) + self.b)


@dataclass(frozen=True)
class RiskBound:
    """An upper bound on P(Q(x) <= 1) and how it was obtained.

    `note` carries a diagnostic when the value was produced by a
    degraded path (e.g. an SOS solve that fell back to Chebyshev).
    """

    value: float
    method: str
    moments_used: int
    note: Optional[str] = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"bound {self.value} outside [0,1]")


def _form_matrix(q: FormLike) -> np.ndarray:
    mat = q.q if isinstance(q, Ellipsoid) else np.asarray(q, dtype=float)
    return np.asarray(mat, dtype=float).reshape(2, 2)


def cheb_one_tailed(mean_g: float, second_moment_g: float,
                    method: str = "cantelli") -> RiskBound:
    """One-tailed Chebyshev bound on P(g <= 0) from E[g] and E[g^2].

    For E[g] > 0 the bound is (E[g^2] - E[g]^2) / E[g^2], equivalently
    var/(var + mean^2).  For E[g] <= 0 the inequality's precondition
    fails and the vacuous bound 1 is returned: the average case already
    collides, conventionally an unacceptable risk level anyway.
    """
    mean_g = float(mean_g)
    second_moment_g = float(second_moment_g)
    # Jensen: E[g^2] >= E[g]^2.  Allow slack for roundoff in callers
    # that assembled the moments from order-4 sums.
    tol = 1e-12 * max(1.0, mean_g * mean_g)
    if second_moment_g < mean_g * mean_g - tol:
        raise ValidationError(
            f"inconsistent moments: E[g^2]={second_moment_g} < E[g]^2={mean_g**2}"
        )
    if mean_g <= 0.0:
        return RiskBound(1.0, method, 2)
    if second_moment_g <= 0.0:
        # mean_g > 0 forces E[g^2] > 0; only reachable within Jensen slack.
        return RiskBound(0.0, method, 2)
    value = (second_moment_g - mean_g * mean_g) / second_moment_g
    return RiskBound(min(max(value, 0.0), 1.0), method, 2)


def quad_form_mean(q: FormLike, mean, cov) -> float:
    """E[x'Qx] = tr(Q Sigma) + mu'Q mu."""
    qm = _form_matrix(q)
    mu = np.asarray(mean, dtype=float).reshape(2)
    sigma = np.asarray(cov, dtype=float).reshape(2, 2)
    return float(np.trace(qm @ sigma) + mu @ qm @ mu)


def quad_form_moments(q: FormLike, moments: MomentTable, d: int) -> np.ndarray:
    """E[(x'Qx)^k] for k = 0..d from raw moments up to order 2d.

    (x'Qx)^k = y^(2k) (Q11 + 2 Q01 t + Q00 t^2)^k with t = x/y, so the
    coefficient of x^i y^(2k-i) is the t^i coefficient of that power, and
    each E[(x'Qx)^k] is those coefficients dotted with E[x^i y^(2k-i)].
    Exact for any distribution the table describes.
    """
    moments.require_order(2 * d)
    qm = _form_matrix(q)
    base = np.array([qm[1, 1], qm[0, 1] + qm[1, 0], qm[0, 0]])
    coeffs = np.ones(1)
    out = np.ones(d + 1)
    for k in range(1, d + 1):
        coeffs = np.convolve(coeffs, base)
        out[k] = coeffs @ [moments.entries[(i, 2 * k - i)] for i in range(2 * k + 1)]
    return out


def cheb_bound_quadratic(q: FormLike, moments: MomentTable) -> RiskBound:
    """Cantelli bound on P(Q(x) <= 1) from order-4 raw moments.

    Applies :func:`cheb_one_tailed` to g = Q(x) - 1 with
    E[g] = E[Q(x)] - 1 and E[g^2] = E[Q(x)^2] - 2 E[Q(x)] + 1.
    """
    _, eq, eq2 = quad_form_moments(q, moments, 2)
    inner = cheb_one_tailed(eq - 1.0, eq2 - 2.0 * eq + 1.0)
    return RiskBound(inner.value, "chebyshev-quad", 4)


def ellipse_to_halfspaces(q: FormLike, n_h: int) -> list:
    """Circumscribe the unit-level ellipse of Q with n_h tangent lines.

    Tangency points are taken at uniformly spaced parameter angles
    t_k = 2*pi*k/n_h on the ellipse boundary Q^{-1/2}(cos t, sin t).
    At boundary point p the outward gradient is Qp and p'Qp = 1, so the
    face is {x : (Qp).x - 1 <= 0}.  The intersection of the faces
    contains the ellipse (Cauchy-Schwarz in the Q inner product), which
    keeps any polytope-based bound a valid ellipse-event bound.
    """
    if n_h < 3:
        raise ValidationError(f"need at least 3 half-spaces, got {n_h}")
    qm = _form_matrix(q)
    evals, evecs = np.linalg.eigh(qm)
    if evals.min() <= 0.0:
        raise ValidationError("form matrix must be positive definite")
    q_inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    faces = []
    for k in range(n_h):
        t = 2.0 * np.pi * k / n_h
        p = q_inv_sqrt @ np.array([np.cos(t), np.sin(t)])
        faces.append(HalfSpace(qm @ p, -1.0))
    return faces


def cheb_bound_halfspace(halfspaces: Iterable[HalfSpace], mean, cov) -> RiskBound:
    """Best per-face Cantelli bound on polytope entry from mean/covariance.

    Entering the ellipse implies entering every face's half-space
    {a.x + b <= 0}, so P(entry) <= min_i P(a_i.x + b_i <= 0).  Each face
    probability is bounded through the scalar h = a.x + b, whose mean is
    a.mu + b and variance a'Sigma a under any distribution with the given
    first two moments.
    """
    mu = np.asarray(mean, dtype=float).reshape(2)
    sigma = np.asarray(cov, dtype=float).reshape(2, 2)
    best = 1.0
    for face in halfspaces:
        margin = float(face.a @ mu + face.b)
        var = float(face.a @ sigma @ face.a)
        bound = cheb_one_tailed(margin, var + margin * margin)
        if bound.value < best:
            best = bound.value
    return RiskBound(best, "chebyshev-halfspace", 2)
