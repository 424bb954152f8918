"""Per-step marginal risks and their assembly into trajectory risk.

A marginal is the collision probability (or an upper bound on it) for one
agent at one timestep, evaluated per mixture mode in the ego body frame and
mixed by the mode weights.  Evaluation runs over stacks of (step, mode)
rows.  `position_marginals` runs imhof, ltz, chebyshev-quad, sos-d2 or
chebyshev-halfspace (``POSITION_BATCH``) over the Gaussian modes that
`stack_modes` puts in the ego body frame; `table_marginals` runs the bound
methods over stacked raw-moment tables, propagated for a control-form agent
or, under sos-d4 and sos-d6, those of Gaussian modes.  sos-d2 is Cantelli's
bound, which is the degree-2 SOS program's optimum, so every route computes
it as chebyshev-quad; only sos-d4 and sos-d6 solve an SDP, one per row.
`marginal_risk` on one mixture, table or weighted list of tables is a stack
of one step; only Monte Carlo goes mode by mode.  Trajectory risk composes
marginals with the independent-across-time product form, or with per-mode
survival products when a single mode persists across the horizon.
Multi-agent totals are combined with a union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple, Union

import numpy as np

from .chebyshev import cheb_bound_spectral, halfspace_bounds, quad_bounds, tangent_normals
from .distributions import (
    Gaussian2DMixture,
    MomentTable,
    _check_weights,
    gaussian2d_moment_stack,
    raw_moment_array,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, body_frame, rotation, translate_moments
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
    "table_marginals",
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
POSITION_BATCH = frozenset(
    {"imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace", "sos-d2"}
)

# Methods whose value is Cantelli's bound on g = Q(x) - 1.  The degree-2
# SOS program's optimum is that bound (Vandenberghe, Boyd & Comanor, SIAM
# Rev. 49, 2007), so sos-d2 is computed as chebyshev-quad, not solved.
_CANTELLI = frozenset({"chebyshev-quad", "sos-d2"})

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
    if method in _CANTELLI:
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
    values = _mode_risks(stack, method, tol, n_halfspaces)
    n_steps = len(stack.thetas)
    return _stack_marginals(values, stack.weights, stack.step, n_steps, method, first_t)


def _stack_marginals(values, weights, step, n_steps: int, method: str, first_t: int):
    """Mix per-row values into one marginal per step of a stack."""
    values, weights = np.asarray(values).tolist(), np.asarray(weights).tolist()
    bounds = np.searchsorted(step, np.arange(n_steps + 1))
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


def table_marginals(
    moments: np.ndarray, weights: Sequence[float], step: np.ndarray,
    poses: Sequence[EgoPose], q: Ellipsoid, method: str,
    n_halfspaces: int = 12, first_t: int = 1,
) -> List[MarginalRisk]:
    """Marginals of stacked raw-moment tables for one bound method.

    Row n of ``moments`` (N, k+1, k+1), global frame, is a mode of step
    ``step[n]`` (nondecreasing) with weight ``weights[n]``; step s has ego
    pose ``poses[s]`` and gets ``t = first_t + s``.  chebyshev-halfspace
    reads body-frame means and covariances against Q's faces at each
    heading, as on a `ModeStack`; chebyshev-quad and sos-d2 take Cantelli's
    bound from the stacked moments of the forms R^T Q R, and sos-d4/d6
    solve one SOS program per row on them.
    """
    if method not in BOUND_METHODS:
        raise ValidationError(
            f"method {method!r} needs Gaussian position predictions, "
            "not propagated moment tables"
        )
    order = MOMENT_ORDER[method]
    pose_xy = np.array([[p.x, p.y] for p in poses])
    thetas = np.array([p.theta for p in poses])
    moved = translate_moments(moments, pose_xy[step], order)
    if method == "chebyshev-halfspace":
        mean = moved[:, [1, 0], [0, 1]]
        cov = moved[:, [[2, 1], [1, 0]], [[0, 1], [1, 2]]] - mean[:, :, None] * mean[:, None]
        means, covs = body_frame(mean, cov, np.zeros_like(mean), thetas[step])
        normals = tangent_normals(q.q, n_halfspaces, thetas)
        values = halfspace_bounds(normals[step], -1.0, means, covs)
    else:
        r = rotation(thetas)[step]
        forms = r.transpose(0, 2, 1) @ q.q @ r
        if method in _CANTELLI:
            values = quad_bounds(forms, moved)
        else:
            values = np.array([
                sos_risk_bound(form, m, order // 2).value for form, m in zip(forms, moved)
            ])
    return _stack_marginals(values, weights, step, len(poses), method, first_t)


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
    half-space bound, `mc_samples`/`seed` to the mc method.  All but mc
    evaluate a stack of one step (`position_marginals`, `table_marginals`).
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if isinstance(step_prediction, Gaussian2DMixture):
        mix = step_prediction
        if method in POSITION_BATCH:
            stack = stack_modes([mix], [ego_pose], q)
            return position_marginals(stack, method, tol, n_halfspaces, first_t=t)[0]
        if method == "mc":
            mc_samples, seed = sampling_args(mc_samples, seed, _MODE_STRIDE)
            values = [
                mc_position_risk([Gaussian2DMixture([comp], [1.0])], [ego_pose], q,
                                 mc_samples, seed * _MODE_STRIDE + m)[0][0].probability
                for m, comp in enumerate(mix.components)
            ]
            return _stack_marginals(values, mix.weights, [0] * len(values), 1, method, t)[0]
        weights = mix.weights
        moments = gaussian2d_moment_stack(mix.components, MOMENT_ORDER[method])
    else:
        single = isinstance(step_prediction, MomentTable)
        pairs = [(1.0, step_prediction)] if single else list(step_prediction)
        weights = _check_weights([w for w, _ in pairs], "weighted moment tables")
        order = min(table.max_order for _, table in pairs)
        moments = np.stack([raw_moment_array(table, order) for _, table in pairs])
    return table_marginals(
        moments, weights, [0] * len(weights), [ego_pose], q, method,
        n_halfspaces, first_t=t,
    )[0]


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
