"""Rigid-frame changes for collision geometry.

The collision region is an ellipsoid fixed to the ego vehicle.  A point x
in the global frame has body coordinates R(theta) (x - v), so the
membership test is (R(theta)(x - v))^T Q (R(theta)(x - v)) <= 1.  The
evaluators apply it to stacks, one row per (step, mode):

* Gaussian position modes move into the body frame (``body_frame``): mean
  R(theta)(mu - v), covariance R Sigma R^T.  Q, its square root and its
  tangent polygon then stay fixed for the whole scenario.
* Raw-moment tables are translated to the ego positions at once
  (``translate_moments``) and read against the forms R^T Q R (R from
  ``rotation``), or their means and covariances move into the body frame.

``to_ego_frame`` and ``rotate_form`` do this for one table and heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import MomentTable, raw_moment_array
from .errors import ValidationError

__all__ = [
    "Ellipsoid",
    "EgoPose",
    "pose_arrays",
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


def pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    """Positions (T, 2) and headings (T,) of a sequence of `EgoPose`s."""
    return np.array([[p.x, p.y] for p in poses]), np.array([p.theta for p in poses])


def rotation(theta) -> np.ndarray:
    """Counterclockwise rotation matrix R(theta), stacked (..., 2, 2) for an
    array of headings."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


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
    r = rotation(thetas)
    moved = np.einsum("nij,nj->ni", r, means - positions)
    return moved, r @ covs @ r.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _binomial_layout(n: int):
    """Read-only per-order constants of `translate_moments`.

    Returns the lower Pascal matrix C[i, p] = binom(i, p), the exponents
    E[i, p] = max(i - p, 0) and the mask of the indices with i + p <= n.
    """
    idx = np.arange(n + 1)
    pascal = np.array([[math.comb(i, p) for p in idx] for i in idx], dtype=float)
    expo = np.maximum(np.subtract.outer(idx, idx), 0)
    inside = np.add.outer(idx, idx) <= n
    for arr in (pascal, expo, inside):
        arr.flags.writeable = False
    return pascal, expo, inside


def translate_moments(moments, v, n: int) -> np.ndarray:
    """Raw moments of x - v up to order n from raw moments of x.

    Binomial expansion; exact.  ``moments`` is a `MomentTable` or stacked
    tables (..., k, k) in its layout, ``v`` (..., 2) one shift per table.
    With M[p, q] = E[x^p y^q] the result is Bx M By^T in that layout, where
    Bx[i, p] = binom(i, p) (-vx)^(i-p); its entries with i + j <= n read
    only moments of order at most n, because p <= i and q <= j.
    """
    m = raw_moment_array(moments, n)
    pascal, expo, inside = _binomial_layout(n)
    powers = np.repeat(-np.asarray(v, dtype=float)[..., None], n + 1, axis=-1)
    powers[..., 0] = 1.0
    shift = pascal * np.cumprod(powers, axis=-1)[..., expo]  # Bx, By on axis -3
    moved = shift[..., 0, :, :] @ m @ np.swapaxes(shift[..., 1, :, :], -1, -2)
    return np.where(inside, moved, 0.0)


def to_ego_frame(
    table: MomentTable, pose: EgoPose, ell: Ellipsoid
) -> tuple[MomentTable, Ellipsoid]:
    """One moment table translated to the ego position (same order) and the
    form rotated to the ego heading.  Translation is linear in the moments,
    so a mixture's table may be passed directly."""
    moved = translate_moments(table, pose.position, table.max_order)
    return MomentTable(table.max_order, moved), rotate_form(ell, pose.theta)
