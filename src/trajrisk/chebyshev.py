"""Moment-based upper bounds on ellipse-entry probability.

Two constructions, both distributionally robust (valid for every
distribution sharing the supplied moments):

* ``quad_bounds`` applies the one-tailed Chebyshev (Cantelli) inequality
  directly to the scalar g = Q(x) - 1 of each row of stacked raw position
  moments up to order 4 (``cheb_bound_quadratic`` is one row).  For
  Gaussian modes the same bound comes from the reduced spectral forms
  (``cheb_bound_spectral``), whose mean and variance of g are closed
  forms, so no moment table is built.
* ``halfspace_bounds`` circumscribes the ellipse with a tangent polytope
  and takes the best Cantelli bound over the faces, which only needs mean
  and covariance.  ``tangent_normals`` gives the faces for a stack of
  headings and ``halfspace_bounds`` evaluates faces x modes as arrays;
  the list-of-``HalfSpace`` functions wrap those kernels.

All return 1 (a vacuous but valid bound) when the mean-margin
precondition fails, i.e. when the average case already collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .distributions import MomentTable, raw_moment_array
from .errors import ValidationError
from .frames import Ellipsoid, form_root
from .qfmvg import SpectralBatch

__all__ = [
    "HalfSpace",
    "RiskBound",
    "one_tailed_bounds",
    "cantelli_bound",
    "quad_form_moments",
    "quad_bounds",
    "cheb_bound_quadratic",
    "cheb_bound_spectral",
    "tangent_normals",
    "ellipse_to_halfspaces",
    "halfspace_bounds",
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
    return np.asarray(q.q if isinstance(q, Ellipsoid) else q, dtype=float)


def one_tailed_bounds(mean_g, second_moment_g) -> np.ndarray:
    """Elementwise one-tailed Chebyshev bound on P(g <= 0) from E[g] and E[g^2].

    For E[g] > 0 the bound is (E[g^2] - E[g]^2) / E[g^2], equivalently
    var/(var + mean^2).  For E[g] <= 0 the inequality's precondition
    fails and the vacuous bound 1 is returned: the average case already
    collides, conventionally an unacceptable risk level anyway.  Moments
    that break Jensen beyond roundoff raise.
    """
    mean_g = np.asarray(mean_g, dtype=float)
    var = np.asarray(second_moment_g, dtype=float) - mean_g * mean_g
    # Jensen: E[g^2] >= E[g]^2.  Allow slack for roundoff in callers
    # that assembled the moments from order-4 sums.
    bad = var < -1e-12 * np.maximum(1.0, mean_g * mean_g)
    if np.any(bad):
        raise ValidationError(
            f"inconsistent moments: Var g = {var[bad].flat[0]} < 0 at E[g] = "
            f"{mean_g[bad].flat[0]}"
        )
    return cantelli_bound(mean_g, var)


def cantelli_bound(mean, var) -> np.ndarray:
    """Elementwise Cantelli bound on P(h <= 0) from E[h] and Var h.

    var / (var + mean^2) where E[h] > 0 and the vacuous 1 elsewhere, as in
    :func:`one_tailed_bounds`.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    second = var + mean * mean
    value = np.divide(var, second, out=np.zeros_like(second), where=second > 0.0)
    return np.where(mean > 0.0, np.clip(value, 0.0, 1.0), 1.0)


@lru_cache(maxsize=None)
def _power_terms(d: int):
    """Terms c^j0 b^j1 a^j2 t^(j1 + 2 j2) of (c + b t + a t^2)^k for k <= d:
    j0, j1, j2, the multinomial coefficients and a 0/1 matrix summing by k."""
    k, j0, j1 = np.array([(k, j0, j1) for k in range(d + 1)
                          for j0 in range(k + 1) for j1 in range(k + 1 - j0)]).T
    mult = np.array([math.comb(n, a) * math.comb(n - a, b) for n, a, b in zip(k, j0, j1)])
    return j0, j1, k - j0 - j1, mult.astype(float), (k[:, None] == np.arange(d + 1)) * 1.0


def quad_form_moments(q: FormLike, moments, d: int) -> np.ndarray:
    """E[(x'Qx)^k] for k = 0..d from raw moments up to order 2d.

    (x'Qx)^k = y^(2k) (c + b t + a t^2)^k with t = x/y, a = Q00,
    b = Q01 + Q10 and c = Q11, so each multinomial term c^j0 b^j1 a^j2 of
    that power multiplies E[x^i y^(2k-i)], i = j1 + 2 j2.  Exact for any
    distribution the moments describe.  ``moments`` is a `MomentTable` or
    stacked tables (..., n+1, n+1) in its layout, ``q`` one form or one per
    table (..., 2, 2); the result is (..., d+1).
    """
    m = raw_moment_array(moments, 2 * d)
    qm = _form_matrix(q)
    j0, j1, j2, mult, by_k = _power_terms(d)
    cba = np.stack([qm[..., 1, 1], qm[..., 0, 1] + qm[..., 1, 0], qm[..., 0, 0]], -1)
    pw = cba[..., None] ** np.arange(d + 1)
    return (mult * pw[..., 0, j0] * pw[..., 1, j1] * pw[..., 2, j2]
            * m[..., j1 + 2 * j2, 2 * j0 + j1]) @ by_k


def quad_bounds(q: FormLike, moments) -> np.ndarray:
    """Cantelli bound on P(Q(x) <= 1) for each table from order-4 raw moments.

    Arguments as in :func:`quad_form_moments`; :func:`one_tailed_bounds`
    on g = Q(x) - 1 with E[g] = E[Q(x)] - 1 and
    E[g^2] = E[Q(x)^2] - 2 E[Q(x)] + 1.
    """
    _, eq, eq2 = np.moveaxis(quad_form_moments(q, moments, 2), -1, 0)
    return one_tailed_bounds(eq - 1.0, eq2 - 2.0 * eq + 1.0)


def cheb_bound_quadratic(q: FormLike, moments: MomentTable) -> RiskBound:
    """Cantelli bound on P(Q(x) <= 1) from order-4 raw moments: one row of
    :func:`quad_bounds`."""
    return RiskBound(float(quad_bounds(q, moments)), "chebyshev-quad", 4)


def cheb_bound_spectral(form: SpectralBatch) -> np.ndarray:
    """Cantelli bound on P(x'Qx <= q) for every Gaussian form of a batch.

    With x'Qx = sum_r lambda_r chi2_1(nc_r) plus the offset folded into q,
    g = x'Qx - q has E[g] = sum lambda (1 + nc) - q and
    Var g = 2 sum lambda^2 (1 + 2 nc): the bound
    :func:`cheb_bound_quadratic` takes from the order-4 raw moments of the
    same Gaussian, without building them.
    """
    lam, nc = form.lambdas, form.noncentralities
    mean = np.sum(lam * (1.0 + nc), axis=1) - form.q
    var = 2.0 * np.sum(lam * lam * (1.0 + 2.0 * nc), axis=1)
    return cantelli_bound(mean, var)


def tangent_normals(q: FormLike, n_h: int, thetas=(0.0,)) -> np.ndarray:
    """Normals of n_h faces tangent to the unit-level ellipse of Q, per heading.

    Returns (T, n_h, 2): row t holds a_k = Q^{1/2} u(t_k + theta_t) with
    u(t) = (cos t, sin t) and t_k = 2*pi*k/n_h.  At the boundary point
    p = Q^{-1/2} u the outward gradient is Qp = Q^{1/2} u and p'Qp = 1, so
    the face is {x : a_k.x - 1 <= 0}.  The intersection of the faces
    contains the ellipse (Cauchy-Schwarz in the Q inner product), which
    keeps any polytope-based bound a valid ellipse-event bound.

    Shifted angles are what a rotated frame sees: the faces of
    ``rotate_form(Q, theta)`` at t_k are R(theta)^T times these faces of Q
    at t_k + theta, so in the ego body frame the polygon at heading theta
    uses the normals of row theta, not Q's theta = 0 polygon rotated.
    """
    if n_h < 3:
        raise ValidationError(f"need at least 3 half-spaces, got {n_h}")
    root = form_root(_form_matrix(q))
    angles = 2.0 * np.pi * np.arange(n_h) / n_h + np.reshape(thetas, (-1, 1))
    return np.stack([np.cos(angles), np.sin(angles)], -1) @ root


def ellipse_to_halfspaces(q: FormLike, n_h: int) -> list:
    """Circumscribe the unit-level ellipse of Q with n_h tangent lines.

    The faces of :func:`tangent_normals` at heading 0, as ``HalfSpace``s.
    """
    return [HalfSpace(a, -1.0) for a in tangent_normals(q, n_h)[0]]


def halfspace_bounds(normals, offsets, means, covs) -> np.ndarray:
    """Best per-face Cantelli bound for each of N mean/covariance pairs.

    ``normals`` (N, F, 2) and ``offsets`` (broadcast to (N, F)) give face
    f of row n as {x : a.x + b <= 0}; ``means`` is (N, 2), ``covs``
    (N, 2, 2).  Entering the ellipse implies entering every face's
    half-space, so P(entry) <= min_f P(a_f.x + b_f <= 0), each bounded
    through the scalar h = a.x + b with mean a.mu + b and variance
    a'Sigma a.  Returns (N,); with no faces the bound is 1.
    """
    margin = np.einsum("nfi,ni->nf", normals, means) + offsets
    var = np.einsum("nfi,nij,nfj->nf", normals, covs, normals)
    return cantelli_bound(margin, var).min(axis=1, initial=1.0)


def cheb_bound_halfspace(halfspaces: Iterable[HalfSpace], mean, cov) -> RiskBound:
    """Best per-face Cantelli bound on polytope entry from mean/covariance.

    One row of :func:`halfspace_bounds`.
    """
    faces = list(halfspaces)
    normals = np.array([face.a for face in faces]).reshape(1, -1, 2)
    offsets = np.array([face.b for face in faces])
    value = halfspace_bounds(
        normals, offsets,
        np.asarray(mean, dtype=float).reshape(1, 2),
        np.asarray(cov, dtype=float).reshape(1, 2, 2),
    )[0]
    return RiskBound(float(value), "chebyshev-halfspace", 2)
