"""Per-step risks of agent modes and their composition into trajectory risk.

Evaluation runs over stacks of (agent, step, mode) rows and returns one
risk per row.  `position_risks` runs every analytic method over a
`ModeStack` of Gaussian modes (the stack of a scenario's position agents,
or `stack_modes` of one agent's mixtures): imhof, ltz, chebyshev-quad,
sos-d2 and chebyshev-halfspace read the modes in the ego body frame,
sos-d4 and sos-d6 their raw-moment tables.  `table_risks` runs the bound
methods over stacked raw-moment tables, those of Gaussian modes and those
propagated for control-form agents.  sos-d2 is Cantelli's bound, which is
the degree-2 SOS program's optimum, so every route computes it as
chebyshev-quad; only sos-d4 and sos-d6 solve an SDP, one per row.  Every
kernel is row-wise, so a row's risk does not depend on the rows stacked
with it.  `compose_agents` turns the row risks of every agent into
per-step mixtures and trajectory totals on arrays, with one `bincount`
bin per (agent, step): the independent-across-time product form, or
per-mode survival products for an agent whose single mode persists across
the horizon; `compose` is its one-agent case.  Multi-agent totals are
combined with a union bound.  `marginal_risk` on one mixture, table or
weighted list of tables is a stack of one step (only Monte Carlo goes mode
by mode), and `trajectory_risk` composes checked `MarginalRisk` objects;
the assessment driver goes from row risks to report row arrays without
either object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .chebyshev import cheb_bound_spectral, halfspace_bounds, quad_bounds, tangent_normals
from .distributions import (
    Gaussian2DMixture,
    MomentTable,
    _check_weights,
    gaussian2d_moment_stack,
    mixture_modes,
    raw_moment_array,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, body_frame, pose_arrays, rotation, translate_moments
from .mc import mc_position_risk, sampling_args
from .qfmvg import SpectralBatch, imhof_cdf, ltz_cdf, spectral_reduce_batch
from .sos import sos_risk_bound

__all__ = [
    "METHODS",
    "BOUND_METHODS",
    "MOMENT_ORDER",
    "MAX_FORM_SCALE",
    "ModeStack",
    "MarginalRisk",
    "TrajectoryRisk",
    "stack_modes",
    "position_risks",
    "table_risks",
    "persistence_break",
    "persistence_breaks",
    "compose",
    "compose_agents",
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
    """Every (step, mode) Gaussian of one or more position predictions, in
    arrays.

    Row n is a mode of agent ``agent[n]`` at step ``step[n]`` (0-based),
    in the global frame: ``means`` (N, 2), ``covs`` (N, 2, 2), with its
    mixture weight in ``weights``.  Rows run agent by agent, each agent's
    step by step.  Every agent shares the ego trajectory: ``xy`` (T, 2) and
    ``thetas`` (T,) hold the ego position and heading of each step and
    ``q`` the footprint form.  ``body`` is the modes moved into their
    step's ego body frame, where Q stays fixed because the agent moves
    instead of the footprint; it and the spectral reduction are computed on
    first use and shared by every method that reads them.
    """

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray
    step: np.ndarray
    agent: np.ndarray
    xy: np.ndarray
    thetas: np.ndarray
    q: np.ndarray

    @cached_property
    def body(self) -> Tuple[np.ndarray, np.ndarray]:
        return body_frame(self.means, self.covs, self.xy[self.step], self.thetas[self.step])

    @cached_property
    def spectral(self) -> SpectralBatch:
        return spectral_reduce_batch(self.q, *self.body)

    def form_scale(self) -> np.ndarray:
        """E[x'Qx] of every mode in the body frame: tr(Q Sigma) + mu'Q mu."""
        means, covs = self.body
        return np.einsum("ij,nji->n", self.q, covs) + np.einsum(
            "ni,ij,nj->n", means, self.q, means
        )


def stack_modes(
    steps: Sequence[Gaussian2DMixture], poses: Sequence[EgoPose], q: Ellipsoid
) -> ModeStack:
    """Stack the modes of one agent's per-step mixtures with the pose of each
    step; the modes pass the stacked check of `mixture_modes`, as a loaded
    agent's do."""
    weights, means, covs, step = mixture_modes(steps)
    return ModeStack(means, covs, weights, step, np.zeros_like(step), *pose_arrays(poses), q.q)


def position_risks(
    stack: ModeStack, method: str, tol: float = 1e-8, n_halfspaces: int = 12
) -> np.ndarray:
    """Risk of every (step, mode) row of a mode stack, shape (N,), for one
    analytic method.

    chebyshev-halfspace reads the body-frame modes against Q's tangent
    faces; imhof, ltz, chebyshev-quad and sos-d2 read their spectral
    reduction; sos-d4 and sos-d6 read the modes' raw-moment tables in the
    global frame through `table_risks`.
    """
    if method not in METHODS or method == "mc":
        raise ValidationError(
            f"method {method!r} is not evaluated on mode stacks; "
            f"choose from {sorted(METHODS - {'mc'})}"
        )
    if method == "chebyshev-halfspace":
        normals = tangent_normals(stack.q, n_halfspaces, stack.thetas)
        return halfspace_bounds(normals[stack.step], -1.0, *stack.body)
    if method in _CANTELLI:
        return cheb_bound_spectral(stack.spectral)
    if method == "imhof":
        return imhof_cdf(stack.spectral, tol=tol).probabilities
    if method == "ltz":
        return ltz_cdf(stack.spectral).probabilities
    moments = gaussian2d_moment_stack(stack.means, stack.covs, MOMENT_ORDER[method])
    return table_risks(moments, stack.step, stack.xy, stack.thetas, stack.q, method)


def table_risks(
    moments: np.ndarray, step: np.ndarray, xy: np.ndarray, thetas: np.ndarray,
    q: np.ndarray, method: str, n_halfspaces: int = 12,
) -> np.ndarray:
    """Risk of every row of stacked raw-moment tables for one bound method.

    Row n of ``moments`` (N, k+1, k+1), global frame, belongs to step
    ``step[n]``, whose ego position and heading are ``xy[step[n]]`` and
    ``thetas[step[n]]``; ``q`` is the footprint form.  Only the moments up
    to the order the method reads are used, so tables of a higher order
    may be passed.  chebyshev-halfspace reads body-frame means and
    covariances against Q's faces at each heading, as on a `ModeStack`;
    chebyshev-quad and sos-d2 take Cantelli's bound from the stacked
    moments of the forms R^T Q R, and sos-d4/d6 solve one SOS program per
    row on them.
    """
    if method not in BOUND_METHODS:
        raise ValidationError(
            f"method {method!r} needs Gaussian position predictions, "
            "not propagated moment tables"
        )
    order = MOMENT_ORDER[method]
    moved = translate_moments(moments, xy[step], order)
    if method == "chebyshev-halfspace":
        mean = moved[:, [1, 0], [0, 1]]
        cov = moved[:, [[2, 1], [1, 0]], [[0, 1], [1, 2]]] - mean[:, :, None] * mean[:, None]
        means, covs = body_frame(mean, cov, np.zeros_like(mean), thetas[step])
        normals = tangent_normals(q, n_halfspaces, thetas)
        return halfspace_bounds(normals[step], -1.0, means, covs)
    r = rotation(thetas)[step]
    forms = r.transpose(0, 2, 1) @ q @ r
    if method in _CANTELLI:
        return quad_bounds(forms, moved)
    return np.array([
        sos_risk_bound(form, m, order // 2).value for form, m in zip(forms, moved)
    ])


def persistence_breaks(
    weights: np.ndarray, step: np.ndarray, agent: np.ndarray, n_agents: int, n_steps: int
) -> np.ndarray:
    """First step of each agent whose modes differ from its step 0's, or -1.

    Row n is a mode of agent ``agent[n]`` at step ``step[n]``; rows run
    agent by agent and step by step.  Mode persistence needs every step to
    carry as many modes as step 0, with weights within 1e-9 of step 0's.
    An agent without rows reads -1.
    """
    key = agent * n_steps + step
    counts = np.bincount(key, minlength=n_agents * n_steps)
    first = np.cumsum(counts) - counts
    grid = counts.reshape(n_agents, n_steps)
    same = counts[key] == counts[agent * n_steps]
    mode = np.arange(len(key)) - first[key]
    at_zero = np.where(same, first[agent * n_steps] + mode, np.arange(len(key)))
    moved = np.abs(weights - weights[at_zero]) > 1e-9
    moved_at = np.bincount(key, moved, n_agents * n_steps).reshape(grid.shape) > 0
    bad = (grid != grid[:, :1]) | moved_at
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def persistence_break(weights: np.ndarray, step: np.ndarray) -> Optional[int]:
    """First step of one agent whose modes differ from step 0's, or None;
    see `persistence_breaks`."""
    t = int(persistence_breaks(weights, step, np.zeros_like(step), 1, int(step[-1]) + 1)[0])
    return None if t < 0 else t


def compose_agents(
    values: np.ndarray, weights: np.ndarray, step: np.ndarray, agent: np.ndarray,
    n_agents: int, n_steps: int, persistent: Sequence[int] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step mixtures (n_agents, n_steps) and trajectory totals
    (n_agents,) of stacked row risks.

    Row n is a mode of agent ``agent[n]`` at step ``step[n]`` with risk
    ``values[n]`` and weight ``weights[n]``; ``persistent`` lists the
    agents whose mode is drawn once for the horizon.  Each
    (agent, step) mixture is one `bincount` bin, ``agent * n_steps +
    step``, so it sums its rows in their order, as a one-agent call would.
    Steps independent: total = 1 - prod_t (1 - mixed_t).  A persistent
    agent's modes are each folded into a survival product over the steps
    and mixed by step 0's weights; its rows must then be K modes per step,
    step by step, with the same weights at every step (see
    `persistence_breaks`).  Values are clipped to [0, 1] before they enter
    a product, and the mixtures to [0, 1].
    """
    sums = np.bincount(agent * n_steps + step, weights * values, n_agents * n_steps)
    mixed = np.minimum(np.maximum(sums, 0.0), 1.0).reshape(n_agents, n_steps)
    totals = 1.0 - np.prod(1.0 - mixed, axis=1)
    for a in persistent:
        rows = agent == a
        per_mode = np.reshape(values[rows], (n_steps, -1))
        survival = np.prod(1.0 - np.clip(per_mode, 0.0, 1.0), axis=0)
        totals[a] = min(1.0, float(weights[rows][:per_mode.shape[1]] @ (1.0 - survival)))
    return mixed, totals


def compose(
    values: np.ndarray, weights: np.ndarray, step: np.ndarray, n_steps: int,
    mode_persistence: bool = False,
) -> Tuple[np.ndarray, float]:
    """Per-step mixtures (n_steps,) and trajectory total of one agent's
    stacked row risks; `compose_agents` with a single agent."""
    mixed, totals = compose_agents(values, weights, step, np.zeros_like(step), 1, n_steps,
                                   (0,) if mode_persistence else ())
    return mixed[0], float(totals[0])


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
    evaluate a stack of one step (`position_risks`, `table_risks`), and
    every method's modes are mixed by `compose`.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if isinstance(step_prediction, Gaussian2DMixture):
        mix = step_prediction
        weights = mix.weights
        if method == "mc":
            mc_samples, seed = sampling_args(mc_samples, seed, _MODE_STRIDE)
            values = [
                mc_position_risk([Gaussian2DMixture([comp], [1.0])], [ego_pose], q,
                                 mc_samples, seed * _MODE_STRIDE + m)[0][0].probability
                for m, comp in enumerate(mix.components)
            ]
        else:
            values = position_risks(stack_modes([mix], [ego_pose], q), method, tol, n_halfspaces)
    else:
        single = isinstance(step_prediction, MomentTable)
        pairs = [(1.0, step_prediction)] if single else list(step_prediction)
        weights = _check_weights([w for w, _ in pairs], "weighted moment tables")
        order = min(table.max_order for _, table in pairs)
        moments = np.stack([raw_moment_array(table, order) for _, table in pairs])
        values = table_risks(moments, np.zeros(len(weights), int), ego_pose.position[None],
                             np.array([ego_pose.theta]), q.q, method, n_halfspaces)
    values = np.asarray(values, dtype=float)
    mixed, _ = compose(values, np.asarray(weights), np.zeros(len(values), int), 1)
    return MarginalRisk(
        t=t,
        per_mode=tuple(zip(weights, values.tolist())),
        mixed=float(mixed[0]),
        method=method,
        is_upper_bound=method in BOUND_METHODS,
    )


def trajectory_risk(
    marginals: Sequence[MarginalRisk],
    mode_persistence: bool = False,
) -> TrajectoryRisk:
    """Fold per-step marginals into a whole-horizon risk with `compose`.

    Default: steps independent, total = 1 - prod(1 - mixed_t).  With mode
    persistence the mode is constant over the horizon, so per-mode survival
    products are formed first and mixed afterwards; this requires the same
    mode weights at every step.
    """
    if not marginals:
        raise ValidationError("cannot assess an empty horizon")
    rows = np.array([wv for m in marginals for wv in m.per_mode], dtype=float)
    weights, values = rows.reshape(-1, 2).T
    step = np.repeat(np.arange(len(marginals)), [len(m.per_mode) for m in marginals])
    if mode_persistence and persistence_break(weights, step) is not None:
        raise ValidationError("mode persistence needs identical mode weights at every step")
    _, total = compose(values, weights, step, len(marginals), mode_persistence)
    return TrajectoryRisk(horizon=len(marginals), marginals=tuple(marginals), total=total)


def multi_agent_bound(per_agent: Sequence[TrajectoryRisk]) -> float:
    """Union bound over agents: min(1, sum of per-agent totals)."""
    return min(1.0, math.fsum(t.total for t in per_agent))
