"""Rigid-frame changes for collision geometry.

The collision region is an ellipsoid fixed to the ego vehicle.  A point x
in the global frame has body coordinates R(theta) (x - v), so the
membership test is (R(theta)(x - v))^T Q (R(theta)(x - v)) <= 1.  Two ways
to use that:

* Gaussian position modes move into the body frame (``body_frame``): mean
  R(theta)(mu - v), covariance R Sigma R^T.  Q, its square root and its
  tangent polygon then stay fixed for the whole scenario.
* Moment tables are translated to the ego position instead, and the form
  is rotated: (x - v)^T Q* (x - v) <= 1 with Q* = R(theta)^T Q R(theta)
  (``to_ego_frame``, ``rotate_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import MomentTable
from .errors import ValidationError

__all__ = [
    "Ellipsoid",
    "EgoPose",
    "rotation",
    "rotate_form",
    "form_contains",
    "form_root",
    "body_frame",
    "translate_moments",
    "to_ego_frame",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Ellipsoid:
    """Collision region {x : x^T Q x <= 1} with Q symmetric positive definite."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (2, 2):
            raise ValidationError(f"Q must be 2x2, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValidationError("Q has non-finite entries")
        if abs(q[0, 1] - q[1, 0]) > _SYM_TOL * max(1.0, abs(q[0, 1]), abs(q[1, 0])):
            raise ValidationError("Q must be symmetric within 1e-12")
        q = 0.5 * (q + q.T)
        eigvals = np.linalg.eigvalsh(q)
        if eigvals.min() <= 0.0:
            raise ValidationError(
                f"Q must be positive definite (eigenvalues {eigvals})"
            )
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership test for an (n, 2) array of points."""
        pts = np.asarray(points, dtype=float)
        return form_contains(self.q, pts[..., 0], pts[..., 1])


@dataclass(frozen=True)
class EgoPose:
    """Planned ego position and heading at one timestep."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        for name in ("x", "y", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"ego pose field {name} must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix R(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate_form(ell: Ellipsoid, theta: float) -> Ellipsoid:
    """Quadratic form of the region seen from a frame rotated by theta."""
    r = rotation(theta)
    return Ellipsoid(r.T @ ell.q @ r)


def form_contains(q: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boundary-inclusive membership x'Qx <= 1 for points with coordinates x, y.

    The four terms are added in a fixed order, (x q00 x + x q01 y) + y q10 x
    + y q11 y, each product taken left to right: the order
    ``einsum("...i,ij,...j->...")`` uses for three or more points, so a point
    on the boundary lands on the same side either way.
    """
    acc = x * q[0, 0] * x
    acc += x * q[0, 1] * y
    acc += y * q[1, 0] * x
    acc += y * q[1, 1] * y
    return acc <= 1.0


def form_root(q: np.ndarray) -> np.ndarray:
    """Symmetric square root Q^{1/2} of a symmetric positive definite form."""
    vals, vecs = np.linalg.eigh(q)
    if vals.min() <= 0.0:
        raise ValidationError("form matrix must be positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def body_frame(
    means: np.ndarray, covs: np.ndarray, positions: np.ndarray, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Gaussian modes in the ego body frame.

    Row n of ``means`` (N, 2) and ``covs`` (N, 2, 2) is seen from the pose
    in row n of ``positions`` (N, 2) and ``thetas`` (N,): mean
    R(theta)(mu - v) and covariance R Sigma R^T, with R as in `rotation`.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    r = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    moved = np.einsum("nij,nj->ni", r, means - positions)
    return moved, r @ covs @ r.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _binomial_layout(n: int):
    """Read-only per-order constants of `translate_moments`.

    Returns the lower Pascal matrix C[i, p] = binom(i, p), the exponents
    E[i, p] = max(i - p, 0), and the multi-indices (i, j) with i + j <= n
    as a key list plus matching row and column index arrays.
    """
    idx = range(n + 1)
    pascal = np.array([[math.comb(i, p) for p in idx] for i in idx], dtype=float)
    expo = np.maximum(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)), 0)
    keys = [(i, j) for i in idx for j in range(n + 1 - i)]
    rows, cols = np.array(keys).T
    for arr in (pascal, expo, rows, cols):
        arr.flags.writeable = False
    return pascal, expo, keys, rows, cols


def translate_moments(table: MomentTable, v: np.ndarray, n: int) -> MomentTable:
    """Raw moments of x - v up to order n from raw moments of x.

    Binomial expansion; exact.  The input table must hold at least order n.
    With M[p, q] = E[x^p y^q] the result is Bx M By^T, where
    Bx[i, p] = binom(i, p) (-vx)^(i-p); its entries with i + j <= n read
    only stored moments, because p <= i and q <= j.
    """
    table.require_order(n)
    pascal, expo, keys, rows, cols = _binomial_layout(n)
    powx = np.cumprod([1.0] + [-float(v[0])] * n)
    powy = np.cumprod([1.0] + [-float(v[1])] * n)
    moments = np.zeros((n + 1, n + 1))
    moments[rows, cols] = [table.entries[k] for k in keys]
    moved = (pascal * powx[expo]) @ moments @ (pascal * powy[expo]).T
    return MomentTable(n, dict(zip(keys, moved[rows, cols].tolist())))


def to_ego_frame(
    table: MomentTable, pose: EgoPose, ell: Ellipsoid
) -> tuple[MomentTable, Ellipsoid]:
    """Express agent moments and the collision form in the ego body frame.

    Returns the translated moment table (same order as the input) and the
    rotated quadratic form.  Mixture moment tables may be passed directly:
    translation is linear in the moments, so translating the mixed table
    equals mixing translated component tables.
    """
    moved = translate_moments(table, pose.position, table.max_order)
    return moved, rotate_form(ell, pose.theta)
