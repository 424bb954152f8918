"""Per-step marginal risks and their assembly into trajectory risk.

A marginal is the collision probability (or an upper bound on it) for one
agent at one timestep, evaluated per mixture mode in the ego body frame and
mixed by the mode weights.  Trajectory risk composes marginals with the
independent-across-time product form, or with per-mode survival products
when a single mode persists across the horizon.  Multi-agent totals are
combined with a union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .chebyshev import (
    cheb_bound_halfspace,
    cheb_bound_quadratic,
    ellipse_to_halfspaces,
)
from .distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    MomentTable,
    gaussian2d_raw_moments,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, rotate_form, to_ego_frame
from .mc import mc_position_risk
from .qfmvg import imhof_cdf, ltz_cdf, spectral_reduce
from .sos import sos_risk_bound

__all__ = [
    "METHODS",
    "BOUND_METHODS",
    "MOMENT_ORDER",
    "MarginalRisk",
    "TrajectoryRisk",
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

_MIX_TOL = 1e-12

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


def _gaussian_mode_risk(
    g: Gaussian2D,
    pose: EgoPose,
    q: Ellipsoid,
    method: str,
    tol: float,
    n_halfspaces: int,
) -> float:
    if method not in ("imhof", "ltz", "chebyshev-halfspace"):
        table = gaussian2d_raw_moments(g, MOMENT_ORDER[method])
        return _table_mode_risk(table, pose, q, method, n_halfspaces)
    mean = g.mean - pose.position
    q_rot = rotate_form(q, pose.theta)
    if method == "chebyshev-halfspace":
        faces = ellipse_to_halfspaces(q_rot.q, n_halfspaces)
        return cheb_bound_halfspace(faces, mean, g.cov).value
    form = spectral_reduce(q_rot.q, mean, g.cov)
    if method == "imhof":
        return imhof_cdf(form, tol=tol).probability
    return ltz_cdf(form).probability


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
    half-space bound, `mc_samples`/`seed` to the mc method.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    per_mode: List[Tuple[float, float]] = []
    if isinstance(step_prediction, Gaussian2DMixture):
        mix = step_prediction
        if method == "mc":
            for m, (w, comp) in enumerate(zip(mix.weights, mix.components)):
                single = Gaussian2DMixture([comp], [1.0])
                est, _ = mc_position_risk(
                    [single], [ego_pose], q, mc_samples, seed * 1000003 + m
                )
                per_mode.append((float(w), est[0].probability))
        else:
            for w, comp in zip(mix.weights, mix.components):
                val = _gaussian_mode_risk(comp, ego_pose, q, method, tol, n_halfspaces)
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
