"""Per-step marginal risks and their assembly into trajectory risk.

A marginal is the collision probability (or an upper bound on it) for one
agent at one timestep, evaluated per mixture mode in the ego body frame and
mixed by the mode weights.  Position-form predictions are evaluated a whole
agent at a time: `stack_modes` puts every (step, mode) Gaussian into
arrays in the ego body frame, and `position_marginals` runs imhof, ltz,
chebyshev-quad or chebyshev-halfspace once over that stack (the
``POSITION_BATCH`` methods); `marginal_risk` on one Gaussian mixture is a
stack of one step.  SOS bounds and Monte Carlo evaluate mode by mode, as
do propagated moment tables.  Trajectory risk composes marginals with the
independent-across-time product form, or with per-mode survival products
when a single mode persists across the horizon.  Multi-agent totals are
combined with a union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple, Union

import numpy as np

from .chebyshev import (
    cheb_bound_halfspace,
    cheb_bound_quadratic,
    cheb_bound_spectral,
    ellipse_to_halfspaces,
    halfspace_bounds,
    tangent_normals,
)
from .distributions import (
    Gaussian2DMixture,
    MomentTable,
    gaussian2d_raw_moments,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, body_frame, to_ego_frame
from .mc import mc_position_risk, sampling_args
from .qfmvg import SpectralBatch, imhof_cdf, ltz_cdf, spectral_reduce_batch
from .sos import sos_risk_bound

__all__ = [
    "METHODS",
    "BOUND_METHODS",
    "MOMENT_ORDER",
    "POSITION_BATCH",
    "MAX_FORM_SCALE",
    "ModeStack",
    "MarginalRisk",
    "TrajectoryRisk",
    "stack_modes",
    "position_marginals",
    "marginal_risk",
    "trajectory_risk",
    "multi_agent_bound",
]

# Order of the raw position moments each bound method reads; sos-dN
# reads the moments of g up to degree N, i.e. position moments of order 2N.
MOMENT_ORDER = {
    "chebyshev-halfspace": 2,
    "chebyshev-quad": 4,
    "sos-d2": 4,
    "sos-d4": 8,
    "sos-d6": 12,
}
BOUND_METHODS = frozenset(MOMENT_ORDER)
METHODS = frozenset({"imhof", "ltz", "mc"}) | BOUND_METHODS

# Methods evaluated over a whole position agent's mode stack at once.
POSITION_BATCH = frozenset({"imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace"})

# Largest body-frame E[x'Qx] of a mode the evaluators accept.  ltz raises
# the cumulants of the form to the sixth power (c2^3 <= 8 E[x'Qx]^6), which
# stays finite below this; scenario loading rejects larger modes.
MAX_FORM_SCALE = 1e50

_MIX_TOL = 1e-12
_MODE_STRIDE = 1000003  # mc keys each mode's stream as seed * stride + mode

# Prediction forms accepted by marginal_risk: a position-space Gaussian
# mixture, or propagated moment tables (single table = one implicit mode).
StepPrediction = Union[
    Gaussian2DMixture, MomentTable, Sequence[Tuple[float, MomentTable]]
]


@dataclass(frozen=True)
class MarginalRisk:
    """One agent-step risk: per-mode values and their weighted mixture."""

    t: int
    per_mode: Tuple[Tuple[float, float], ...]
    mixed: float
    method: str
    is_upper_bound: bool

    def __post_init__(self):
        ref = math.fsum(w * v for w, v in self.per_mode)
        if abs(ref - self.mixed) > _MIX_TOL:
            raise ValidationError(
                f"mixed value {self.mixed} is not the weighted mode average {ref}"
            )
        if not -_MIX_TOL <= self.mixed <= 1.0 + _MIX_TOL:
            raise ValidationError(f"mixed value {self.mixed} outside [0, 1]")


@dataclass(frozen=True)
class TrajectoryRisk:
    """Whole-horizon risk for one agent."""

    horizon: int
    marginals: Tuple[MarginalRisk, ...]
    total: float

    def __post_init__(self):
        if self.horizon != len(self.marginals):
            raise ValidationError("horizon does not match the marginal count")
        if not 0.0 <= self.total <= 1.0:
            raise ValidationError(f"total risk {self.total} outside [0, 1]")


@dataclass(frozen=True)
class ModeStack:
    """Every (step, mode) Gaussian of one position prediction, in arrays.

    Rows are the modes of step ``step[n]`` (0-based, nondecreasing) in
    order, moved into that step's ego body frame: ``means`` (N, 2), ``covs``
    (N, 2, 2), with its mixture weight in ``weights``.  ``thetas`` holds
    the ego heading of each step and ``q`` the footprint form, which stays
    fixed because the agent moves instead of the footprint.  The spectral
    reduction is computed on first use and shared by every method that
    reads it.
    """

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray
    step: np.ndarray
    thetas: np.ndarray
    q: np.ndarray

    @cached_property
    def spectral(self) -> SpectralBatch:
        return spectral_reduce_batch(self.q, self.means, self.covs)

    def form_scale(self) -> np.ndarray:
        """E[x'Qx] of every mode in the body frame: tr(Q Sigma) + mu'Q mu."""
        return np.einsum("ij,nji->n", self.q, self.covs) + np.einsum(
            "ni,ij,nj->n", self.means, self.q, self.means
        )


def stack_modes(
    steps: Sequence[Gaussian2DMixture], poses: Sequence[EgoPose], q: Ellipsoid
) -> ModeStack:
    """Stack the modes of per-step mixtures, each in its pose's body frame."""
    counts = [len(mix.components) for mix in steps]
    step = np.repeat(np.arange(len(counts)), counts)
    comps = [c for mix in steps for c in mix.components]
    pose_xy = np.array([[p.x, p.y] for p in poses])
    thetas = np.array([p.theta for p in poses])
    means, covs = body_frame(
        np.array([c.mean for c in comps]),
        np.array([c.cov for c in comps]),
        pose_xy[step],
        thetas[step],
    )
    return ModeStack(
        means=means,
        covs=covs,
        weights=np.array([w for mix in steps for w in mix.weights]),
        step=step,
        thetas=thetas,
        q=q.q,
    )


def _mode_risks(stack: ModeStack, method: str, tol: float, n_halfspaces: int) -> np.ndarray:
    if method == "chebyshev-halfspace":
        normals = tangent_normals(stack.q, n_halfspaces, stack.thetas)
        return halfspace_bounds(normals[stack.step], -1.0, stack.means, stack.covs)
    if method == "chebyshev-quad":
        return cheb_bound_spectral(stack.spectral)
    if method == "imhof":
        return imhof_cdf(stack.spectral, tol=tol).probabilities
    return ltz_cdf(stack.spectral).probabilities


def position_marginals(
    stack: ModeStack,
    method: str,
    tol: float = 1e-8,
    n_halfspaces: int = 12,
    first_t: int = 1,
) -> List[MarginalRisk]:
    """Marginals of every step of a mode stack for one `POSITION_BATCH` method.

    The step with index s gets ``t = first_t + s``.
    """
    if method not in POSITION_BATCH:
        raise ValidationError(
            f"method {method!r} is not evaluated on mode stacks; "
            f"choose from {sorted(POSITION_BATCH)}"
        )
    values = _mode_risks(stack, method, tol, n_halfspaces).tolist()
    weights = stack.weights.tolist()
    bounds = np.searchsorted(stack.step, np.arange(len(stack.thetas) + 1))
    marginals = []
    for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        per_mode = tuple(zip(weights[lo:hi], values[lo:hi]))
        marginals.append(
            MarginalRisk(
                t=first_t + s,
                per_mode=per_mode,
                mixed=math.fsum(w * v for w, v in per_mode),
                method=method,
                is_upper_bound=method in BOUND_METHODS,
            )
        )
    return marginals


def _table_mode_risk(
    table: MomentTable,
    pose: EgoPose,
    q: Ellipsoid,
    method: str,
    n_halfspaces: int,
) -> float:
    if method in ("imhof", "ltz", "mc"):
        raise ValidationError(
            f"method {method!r} needs Gaussian position predictions, "
            "not propagated moment tables"
        )
    ego_table, q_ego = to_ego_frame(table, pose, q)
    if method == "chebyshev-halfspace":
        faces = ellipse_to_halfspaces(q_ego.q, n_halfspaces)
        return cheb_bound_halfspace(
            faces, ego_table.mean(), ego_table.covariance()
        ).value
    if method == "chebyshev-quad":
        return cheb_bound_quadratic(q_ego.q, ego_table).value
    return sos_risk_bound(q_ego.q, ego_table, MOMENT_ORDER[method] // 2).value


def _as_weighted_tables(
    pred: StepPrediction,
) -> List[Tuple[float, MomentTable]]:
    if isinstance(pred, MomentTable):
        return [(1.0, pred)]
    return [(float(w), t) for w, t in pred]


def marginal_risk(
    step_prediction: StepPrediction,
    ego_pose: EgoPose,
    q: Ellipsoid,
    method: str,
    t: int = 0,
    tol: float = 1e-8,
    n_halfspaces: int = 12,
    mc_samples: int = 10**5,
    seed: int = 0,
) -> MarginalRisk:
    """Risk of one agent step under the selected method.

    Position-form predictions support every method; moment-table
    predictions support the bound methods only (there is no density to
    integrate or sample).  `tol` applies to imhof, `n_halfspaces` to the
    half-space bound, `mc_samples`/`seed` to the mc method.  A mixture
    under a `POSITION_BATCH` method is a one-step mode stack evaluated by
    `position_marginals`; SOS and mc go mode by mode.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if isinstance(step_prediction, Gaussian2DMixture) and method in POSITION_BATCH:
        stack = stack_modes([step_prediction], [ego_pose], q)
        return position_marginals(stack, method, tol, n_halfspaces, first_t=t)[0]
    if method == "mc":
        mc_samples, seed = sampling_args(mc_samples, seed, _MODE_STRIDE)
    per_mode: List[Tuple[float, float]] = []
    if isinstance(step_prediction, Gaussian2DMixture):
        mix = step_prediction
        for m, (w, comp) in enumerate(zip(mix.weights, mix.components)):
            if method == "mc":
                single = Gaussian2DMixture([comp], [1.0])
                est, _ = mc_position_risk(
                    [single], [ego_pose], q, mc_samples, seed * _MODE_STRIDE + m
                )
                val = est[0].probability
            else:
                table = gaussian2d_raw_moments(comp, MOMENT_ORDER[method])
                val = _table_mode_risk(table, ego_pose, q, method, n_halfspaces)
            per_mode.append((float(w), val))
    else:
        for w, table in _as_weighted_tables(step_prediction):
            val = _table_mode_risk(table, ego_pose, q, method, n_halfspaces)
            per_mode.append((w, val))
    mixed = math.fsum(w * v for w, v in per_mode)
    return MarginalRisk(
        t=t,
        per_mode=tuple(per_mode),
        mixed=mixed,
        method=method,
        is_upper_bound=method in BOUND_METHODS,
    )


def trajectory_risk(
    marginals: Sequence[MarginalRisk],
    mode_persistence: bool = False,
) -> TrajectoryRisk:
    """Fold per-step marginals into a whole-horizon risk.

    Default: steps independent, total = 1 - prod(1 - mixed_t).  With mode
    persistence the mode is constant over the horizon, so per-mode survival
    products are formed first and mixed afterwards; this requires the same
    mode weights at every step.
    """
    if not marginals:
        raise ValidationError("cannot assess an empty horizon")
    if not mode_persistence:
        survival = 1.0
        for m in marginals:
            survival *= 1.0 - min(1.0, max(0.0, m.mixed))
        total = 1.0 - survival
    else:
        weights = [w for w, _ in marginals[0].per_mode]
        for m in marginals[1:]:
            if len(m.per_mode) != len(weights) or any(
                abs(w - w0) > 1e-9 for (w, _), w0 in zip(m.per_mode, weights)
            ):
                raise ValidationError(
                    "mode persistence needs identical mode weights at every step"
                )
        total = 0.0
        for i, w in enumerate(weights):
            survival = 1.0
            for m in marginals:
                survival *= 1.0 - min(1.0, max(0.0, m.per_mode[i][1]))
            total += w * (1.0 - survival)
        total = min(1.0, total)
    return TrajectoryRisk(
        horizon=len(marginals), marginals=tuple(marginals), total=total
    )


def multi_agent_bound(per_agent: Sequence[TrajectoryRisk]) -> float:
    """Union bound over agents: min(1, sum of per-agent totals)."""
    return min(1.0, math.fsum(t.total for t in per_agent))
