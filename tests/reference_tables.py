"""The per-step moment-table route, kept as the differential-test oracle.

Before the stacked table path, a control-form agent was propagated into one
`MomentState` dict per step, repacked into one validated dict-backed
`MomentTable` per step, and every (step, mode) table was then evaluated on
its own by the engine's `_table_mode_risk`:

* ``to_ego_frame``: the table translated to the ego position
  (``translate_moments``, a new table) and the form rotated to the ego
  heading (``rotate_form``, a validated ``Ellipsoid``);
* chebyshev-halfspace: ``ellipse_to_halfspaces`` on the rotated form, then
  ``cheb_bound_halfspace`` on the table's mean and covariance;
* chebyshev-quad: ``cheb_bound_quadratic`` through ``quad_form_moments``;
* sos-dN: ``sos_risk_bound`` on the translated table and rotated form.

Gaussian modes under sos-dN took the same route from
``gaussian2d_raw_moments``, and the marginals of every agent were composed
step by step (``trajectory_risk``; `reference_position` composes with it
too).  The functions below are that code with most docstrings dropped;
what the package still ships unchanged (``rotate_form``,
``ellipse_to_halfspaces``, ``cheb_bound_halfspace``, the SOS program and
its solver, the closure) is imported.  ``agent_rows`` is new: it is the old
``_analytic_agent_rows`` for one agent.

The propagation section also keeps the array route that replaced the dict
route and preceded the batched one: the compiled plan, the one-agent
``DubinsBaseMoments`` and ``propagate``/``dubins_position_tables`` (here
``array_propagate``/``array_position_tables``), bit for bit.  Both
propagation routes run on those copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from trajrisk.chebyshev import RiskBound, cheb_bound_halfspace, ellipse_to_halfspaces
from reference_propagation import trig_moment_from_char_fn
from trajrisk.distributions import MAX_MOMENT_ORDER, Gaussian2D, Gaussian2DMixture, ScalarMixture
from trajrisk.engine import MOMENT_ORDER, MarginalRisk, TrajectoryRisk
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid, rotate_form
from trajrisk.scenario import PositionAgent
from trajrisk.sos import MomentVector, build_sos_program, normalize_moments, solve_sdp
from trajrisk.treering import (
    ONE,
    MomentDynamics,
    MultiIndex,
    _cached_dynamics,
)


class MomentTable:
    """Raw moments E[x^a y^b] for all multi-indices with a + b <= max_order.

    The table is complete by construction: every index up to ``max_order`` is
    present, and lookups beyond the stored order raise instead of silently
    truncating.
    """

    __slots__ = ("max_order", "entries")

    def __init__(self, max_order: int, entries: Mapping[tuple[int, int], float]):
        store: dict[tuple[int, int], float] = {}
        for a in range(max_order + 1):
            for b in range(max_order + 1 - a):
                try:
                    store[(a, b)] = float(entries[(a, b)])
                except KeyError:
                    raise ValidationError(
                        f"moment table missing index {(a, b)} at max_order {max_order}"
                    ) from None
        if abs(store[(0, 0)] - 1.0) > 1e-9:
            raise ValidationError(
                f"zeroth moment must be 1, got {store[(0, 0)]!r}"
            )
        if max_order >= 2:
            for pure in ((2, 0), (0, 2)):
                lo = store[(pure[0] // 2, pure[1] // 2)] ** 2
                if store[pure] < lo - 1e-9 * max(1.0, abs(lo)):
                    raise ValidationError(
                        f"second moment at {pure} violates Jensen: "
                        f"{store[pure]} < {lo}"
                    )
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "entries", MappingProxyType(store))

    def __setattr__(self, name, value):
        raise AttributeError("MomentTable is immutable")

    def __getitem__(self, index: tuple[int, int]) -> float:
        a, b = index
        if a < 0 or b < 0:
            raise ValidationError(f"invalid moment index {index}")
        if a + b > self.max_order:
            raise ValidationError(
                f"moment {index} requested but table only holds order "
                f"{self.max_order}"
            )
        return self.entries[(a, b)]

    def require_order(self, n: int) -> None:
        if self.max_order < n:
            raise ValidationError(
                f"operation needs moments up to order {n}, table holds "
                f"{self.max_order}"
            )

    def mean(self) -> np.ndarray:
        self.require_order(1)
        return np.array([self.entries[(1, 0)], self.entries[(0, 1)]])

    def covariance(self) -> np.ndarray:
        self.require_order(2)
        mx, my = self.entries[(1, 0)], self.entries[(0, 1)]
        return np.array(
            [
                [self.entries[(2, 0)] - mx * mx, self.entries[(1, 1)] - mx * my],
                [self.entries[(1, 1)] - mx * my, self.entries[(0, 2)] - my * my],
            ]
        )


def _gaussian2d_fill(g: Gaussian2D, max_order: int) -> dict[tuple[int, int], float]:
    """Raw moments of a bivariate Gaussian by the integration-by-parts
    recursion E[x_i f(x)] = mu_i E[f] + sum_j Sigma_ij E[d f / d x_j]."""
    mx, my = float(g.mean[0]), float(g.mean[1])
    sxx, sxy, syy = float(g.cov[0, 0]), float(g.cov[0, 1]), float(g.cov[1, 1])
    t: dict[tuple[int, int], float] = {(0, 0): 1.0}
    for order in range(1, max_order + 1):
        for a in range(order, -1, -1):
            b = order - a
            if a >= 1:
                val = mx * t[(a - 1, b)]
                if a >= 2:
                    val += sxx * (a - 1) * t[(a - 2, b)]
                if b >= 1:
                    val += sxy * b * t[(a - 1, b - 1)]
            else:
                val = my * t[(0, b - 1)]
                if b >= 2:
                    val += syy * (b - 1) * t[(0, b - 2)]
            t[(a, b)] = val
    return t


def gaussian2d_raw_moments(g: Gaussian2D, max_order: int) -> MomentTable:
    """Complete raw-moment table of a bivariate Gaussian up to ``max_order``."""
    return MomentTable(max_order, _gaussian2d_fill(g, max_order))


# -- frames --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binomial_layout(n: int):
    idx = range(n + 1)
    pascal = np.array([[math.comb(i, p) for p in idx] for i in idx], dtype=float)
    expo = np.maximum(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)), 0)
    keys = [(i, j) for i in idx for j in range(n + 1 - i)]
    rows, cols = np.array(keys).T
    for arr in (pascal, expo, rows, cols):
        arr.flags.writeable = False
    return pascal, expo, keys, rows, cols


def translate_moments(table: MomentTable, v: np.ndarray, n: int) -> MomentTable:
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
    moved = translate_moments(table, pose.position, table.max_order)
    return moved, rotate_form(ell, pose.theta)


# -- bounds --------------------------------------------------------------------


def quad_form_moments(q, moments: MomentTable, d: int) -> np.ndarray:
    moments.require_order(2 * d)
    qm = np.asarray(q, dtype=float).reshape(2, 2)
    base = np.array([qm[1, 1], qm[0, 1] + qm[1, 0], qm[0, 0]])
    coeffs = np.ones(1)
    out = np.ones(d + 1)
    for k in range(1, d + 1):
        coeffs = np.convolve(coeffs, base)
        out[k] = coeffs @ [moments.entries[(i, 2 * k - i)] for i in range(2 * k + 1)]
    return out


def cheb_one_tailed(mean_g: float, second_moment_g: float,
                    method: str = "cantelli") -> RiskBound:
    mean_g = float(mean_g)
    second_moment_g = float(second_moment_g)
    tol = 1e-12 * max(1.0, mean_g * mean_g)
    if second_moment_g < mean_g * mean_g - tol:
        raise ValidationError(
            f"inconsistent moments: E[g^2]={second_moment_g} < E[g]^2={mean_g**2}"
        )
    if mean_g <= 0.0:
        return RiskBound(1.0, method, 2)
    if second_moment_g <= 0.0:
        return RiskBound(0.0, method, 2)
    value = (second_moment_g - mean_g * mean_g) / second_moment_g
    return RiskBound(min(max(value, 0.0), 1.0), method, 2)


def cheb_bound_quadratic(q, moments: MomentTable) -> RiskBound:
    _, eq, eq2 = quad_form_moments(q, moments, 2)
    inner = cheb_one_tailed(eq - 1.0, eq2 - 2.0 * eq + 1.0)
    return RiskBound(inner.value, "chebyshev-quad", 4)


def moments_of_g(q, x_moments: MomentTable, d: int) -> MomentVector:
    if d < 1:
        raise ValidationError("need at least one moment of g")
    eq = quad_form_moments(q, x_moments, d).tolist()
    return MomentVector(d, tuple(
        math.fsum(math.comb(k, j) * (-1) ** (k - j) * eq[j] for j in range(k + 1))
        for k in range(d + 1)
    ))


def sos_risk_bound(q, x_moments: MomentTable, d: int, tol: float = 1e-9) -> RiskBound:
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


# -- engine ----------------------------------------------------------------------


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


def marginal_risk(step_prediction, ego_pose, q, method, t=0, n_halfspaces=12) -> MarginalRisk:
    """The old `marginal_risk` for bound methods on mixtures, tables and table lists."""
    per_mode: List[Tuple[float, float]] = []
    if isinstance(step_prediction, Gaussian2DMixture):
        mix = step_prediction
        for w, comp in zip(mix.weights, mix.components):
            table = gaussian2d_raw_moments(comp, MOMENT_ORDER[method])
            per_mode.append((float(w), _table_mode_risk(table, ego_pose, q, method, n_halfspaces)))
    else:
        pairs = [(1.0, step_prediction)] if isinstance(step_prediction, MomentTable) else [
            (float(w), table) for w, table in step_prediction
        ]
        for w, table in pairs:
            per_mode.append((w, _table_mode_risk(table, ego_pose, q, method, n_halfspaces)))
    return MarginalRisk(
        t=t,
        per_mode=tuple(per_mode),
        mixed=math.fsum(w * v for w, v in per_mode),
        method=method,
        is_upper_bound=True,
    )


def trajectory_risk(marginals, mode_persistence=False) -> TrajectoryRisk:
    """The engine's per-step composition before it moved onto arrays."""
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


# -- propagation -------------------------------------------------------------------
#
# The array route before agents were batched: the plan as it was compiled
# (one (terms, width) gather reduced by ``prod(axis=1)``), one
# ``DubinsBaseMoments`` per agent filled to degree max(8, 2 order), and
# ``propagate``/``dubins_position_tables`` as they shipped.  The copies keep
# their code; ``plan_of`` stands for ``dyn.plan`` and the array functions
# carry an ``array_`` prefix next to the older per-step dict route below.


@dataclass(frozen=True, eq=False)
class PropagationPlan:
    tracked: Tuple[MultiIndex, ...]
    base: Tuple[MultiIndex, ...]
    factors: np.ndarray
    coeff: np.ndarray
    target: np.ndarray
    even: np.ndarray

    @staticmethod
    def compile(expressions, var_order: Sequence[str]) -> "PropagationPlan":
        tracked = tuple(expr.target for expr in expressions)
        index = {sym: i for i, sym in enumerate(tracked)}
        base_syms = {f for expr in expressions for _, fs in expr.terms for f in fs}
        base = tuple(sorted(base_syms - set(index), key=lambda f: f.grlex_key(var_order)))
        index.update((sym, len(tracked) + j) for j, sym in enumerate(base))
        one = len(index)
        rows = [(i, coeff, factors)
                for i, expr in enumerate(expressions) for coeff, factors in expr.terms]
        width = max([len(factors) for _, _, factors in rows] + [1])
        gather = np.full((len(rows), width), one, dtype=np.intp)
        for r, (_, _, factors) in enumerate(rows):
            gather[r, :len(factors)] = [index[f] for f in factors]
        return PropagationPlan(
            tracked=tracked,
            base=base,
            factors=gather,
            coeff=np.array([coeff for _, coeff, _ in rows], dtype=float),
            target=np.array([i for i, _, _ in rows], dtype=np.intp),
            even=np.array([all(e % 2 == 0 for _, e in sym.exponents) for sym in tracked]),
        )


_PLANS: dict = {}  # id(dyn) -> (dyn, plan); holding dyn keeps its id unique


def plan_of(dyn: MomentDynamics) -> PropagationPlan:
    if id(dyn) not in _PLANS:
        _PLANS[id(dyn)] = dyn, PropagationPlan.compile(dyn.expressions, dyn.system.all_vars)
    return _PLANS[id(dyn)][1]


def _mixture_arrays(steps: Sequence[ScalarMixture]) -> Tuple[np.ndarray, ...]:
    width = max((len(mix.weights) for mix in steps), default=1)
    w, mu, var = (np.zeros((len(steps), width)) for _ in range(3))
    for t, mix in enumerate(steps):
        k = len(mix.weights)
        w[t, :k] = mix.weights
        mu[t, :k] = [c.mean for c in mix.components]
        var[t, :k] = [c.variance for c in mix.components]
    return w, mu, var


class DubinsBaseMoments:
    def __init__(
        self,
        initial_state: Tuple[float, float, float, float],
        w_v_steps: Sequence[ScalarMixture],
        w_theta_steps: Sequence[ScalarMixture],
        max_degree: int = 8,
    ):
        if len(w_v_steps) != len(w_theta_steps):
            raise ValidationError("speed and heading noise horizons differ")
        if max_degree > MAX_MOMENT_ORDER:
            raise ValidationError(
                f"max_degree {max_degree} exceeds cap {MAX_MOMENT_ORDER}"
            )
        self.x0, self.y0, self.v0, self.theta0 = map(float, initial_state)
        self.w_v_steps = list(w_v_steps)
        self.w_theta_steps = list(w_theta_steps)
        self.max_degree = max_degree
        self.horizon = len(w_v_steps)

    @cached_property
    def _noise_raw(self) -> np.ndarray:
        w, mu, var = _mixture_arrays(self.w_v_steps)
        comp = np.ones((self.max_degree + 1,) + w.shape)
        for k in range(1, self.max_degree + 1):
            comp[k] = mu * comp[k - 1]
            if k >= 2:
                comp[k] += (k - 1) * var * comp[k - 2]
        return (comp * w).sum(axis=2).T

    @cached_property
    def _speed_raw(self) -> np.ndarray:
        ks = np.arange(self.max_degree + 1)
        k, j = np.tril_indices(len(ks))
        binom = np.array([math.comb(a, b) for a, b in zip(k, j)], dtype=float)
        conv = binom * self._noise_raw[:, k - j]
        rows = np.empty((self.horizon + 1, len(ks)))
        rows[0] = self.v0 ** ks
        for t in range(self.horizon):
            rows[t + 1] = np.bincount(k, conv[t] * rows[t, j], len(ks))
        return rows

    @cached_property
    def _noise_cf(self) -> np.ndarray:
        freqs = np.arange(-self.max_degree, self.max_degree + 1)
        w, mu, var = (a[:, :, None] for a in _mixture_arrays(self.w_theta_steps))
        return (w * np.exp(1j * mu * freqs - 0.5 * var * freqs**2)).sum(axis=1)

    @cached_property
    def _heading_cf(self) -> np.ndarray:
        freqs = np.arange(-self.max_degree, self.max_degree + 1)
        phi0 = np.exp(1j * self.theta0 * freqs)
        return np.vstack([phi0, phi0 * np.cumprod(self._noise_cf, axis=0)])

    def _trig(self, cf: np.ndarray, m: int, n: int) -> np.ndarray:
        if m + n > self.max_degree:
            raise ValidationError(f"trig moment degree {m + n} above cap")
        return trig_moment_from_char_fn(
            lambda freq: cf[:, freq + self.max_degree], m, n
        )

    def moments(self, symbols: Sequence[MultiIndex], n_times: int) -> np.ndarray:
        out = np.empty((n_times, len(symbols)))
        for j, xi in enumerate(symbols):
            sup = xi.support
            if sup <= {"v", "c", "s"}:
                if n_times > self.horizon + 1:
                    raise ValidationError(
                        f"no time-{n_times - 1} state in a horizon of {self.horizon}"
                    )
            elif n_times > self.horizon:
                raise ValidationError(
                    f"no step-{n_times - 1} noise in a horizon of {self.horizon}"
                )
            if sup <= {"v"} or sup <= {"w_v"}:
                k = xi.get("v") + xi.get("w_v")
                if k > self.max_degree:
                    raise ValidationError(f"speed moment degree {k} above cap")
                table = self._speed_raw if sup <= {"v"} else self._noise_raw
                out[:, j] = table[:n_times, k]
            elif sup <= {"c", "s"}:
                out[:, j] = self._trig(self._heading_cf[:n_times], xi.get("c"), xi.get("s"))
            elif sup <= {"c_w", "s_w"}:
                out[:, j] = self._trig(self._noise_cf[:n_times], xi.get("c_w"), xi.get("s_w"))
            else:
                raise ValidationError(f"no provider for moment over {sorted(sup)}")
        return out

    def initial_moments(self, tracked: Sequence[MultiIndex]) -> np.ndarray:
        state = {"x": self.x0, "y": self.y0, "v": self.v0,
                 "c": math.cos(self.theta0), "s": math.sin(self.theta0)}
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array([math.prod(np.float64(state[var]) ** e for var, e in mi.exponents)
                             for mi in tracked])


def array_propagate(
    dyn: MomentDynamics,
    init: np.ndarray,
    base_moments: DubinsBaseMoments,
    horizon: int,
) -> np.ndarray:
    plan = plan_of(dyn)
    n, n_base = len(plan.tracked), len(plan.base)
    init = np.asarray(init, dtype=float)
    if init.shape != (n,):
        raise ValidationError(
            f"initial state has {init.size} moments but the closure tracks {n}"
        )
    states = np.empty((horizon + 1, n))
    states[0] = init
    with np.errstate(over="ignore", invalid="ignore"):
        base = base_moments.moments(plan.base, horizon)
        ext = np.ones(n + n_base + 1)  # [state | base | 1.0]
        for t in range(horizon):
            ext[:n] = states[t]
            ext[n:n + n_base] = base[t]
            terms = plan.coeff * ext[plan.factors].prod(axis=1)
            states[t + 1] = np.bincount(plan.target, weights=terms, minlength=n)
    bad = ~np.isfinite(states) | (plan.even & (states < -1e-9))
    if bad.any():
        t, j = np.argwhere(bad)[0]
        where = "initial_state" if t == 0 else f"steps[{t - 1}]"
        what = "is negative" if np.isfinite(states[t, j]) else "is not finite"
        raise ValidationError(
            f"{where}: propagated moment E[{plan.tracked[j].render(dyn.system.all_vars)}] "
            f"= {states[t, j]:.3g} {what}"
        )
    return states


def array_position_tables(
    initial_state: Tuple[float, float, float, float],
    w_v_steps: Sequence[ScalarMixture],
    w_theta_steps: Sequence[ScalarMixture],
    order: int = 2,
) -> np.ndarray:
    dyn = _cached_dynamics(order)
    base = DubinsBaseMoments(
        initial_state, w_v_steps, w_theta_steps,
        max_degree=max(8, 2 * order),
    )
    tracked = plan_of(dyn).tracked
    states = array_propagate(dyn, base.initial_moments(tracked), base, len(w_v_steps))
    keys = [(a, deg - a) for deg in range(1, order + 1) for a in range(deg + 1)]
    cols = [tracked.index(MultiIndex.of(x=a, y=b)) for a, b in keys]
    px, py = np.array(keys).T
    tables = np.zeros((len(states), order + 1, order + 1))
    tables[:, 0, 0] = 1.0
    tables[:, px, py] = states[:, cols]
    tables.flags.writeable = False
    return tables


# The per-step dict route, older still: one ``MomentState`` per step and one
# dict-backed ``MomentTable`` per table.


class MomentState(dict):
    """Mapping from tracked multi-index to its moment value at one time."""

    def __init__(self, values: Mapping[MultiIndex, float]):
        super().__init__(values)
        if ONE in self and abs(self[ONE] - 1.0) > 1e-9:
            raise ValidationError("zeroth moment must be 1")
        for mi, val in self.items():
            if val < -1e-9 and all(e % 2 == 0 for _, e in mi.exponents):
                raise ValidationError(f"even moment E[{mi.exponents}] negative: {val}")


def initial_moments(base: DubinsBaseMoments, tracked: Iterable[MultiIndex]) -> MomentState:
    """Deterministic initial values of the tracked moments."""
    state = {
        "x": base.x0,
        "y": base.y0,
        "v": base.v0,
        "c": math.cos(base.theta0),
        "s": math.sin(base.theta0),
    }
    values = {}
    for mi in tracked:
        val = 1.0
        for var, exp in mi.exponents:
            val *= state[var] ** exp
        values[mi] = val
    return MomentState(values)


def propagate(
    dyn: MomentDynamics,
    init: MomentState,
    base_moments: DubinsBaseMoments,
    horizon: int,
) -> List[MomentState]:
    missing = dyn.tracked - set(init)
    if missing:
        raise ValidationError(f"initial state missing {len(missing)} tracked moments")
    plan = plan_of(dyn)
    n, n_base = len(plan.tracked), len(plan.base)
    base = base_moments.moments(plan.base, horizon)
    ext = np.ones(n + n_base + 1)  # [state | base | 1.0]
    cur = np.array([init[sym] for sym in plan.tracked])
    states = [init]
    for t in range(horizon):
        ext[:n] = cur
        ext[n:n + n_base] = base[t]
        terms = plan.coeff * ext[plan.factors].prod(axis=1)
        cur = np.bincount(plan.target, weights=terms, minlength=n)
        states.append(MomentState(dict(zip(plan.tracked, cur.tolist()))))
    return states


def dubins_position_tables(
    initial_state: Tuple[float, float, float, float],
    w_v_steps: Sequence[ScalarMixture],
    w_theta_steps: Sequence[ScalarMixture],
    order: int = 2,
) -> List[MomentTable]:
    dyn = _cached_dynamics(order)
    base = DubinsBaseMoments(
        initial_state, w_v_steps, w_theta_steps,
        max_degree=max(8, 2 * order),
    )
    init = initial_moments(base, dyn.tracked)
    states = propagate(dyn, init, base, len(w_v_steps))
    keys = [(a, deg - a) for deg in range(1, order + 1) for a in range(deg + 1)]
    symbols = [MultiIndex.of(x=a, y=b) for a, b in keys]
    tables = []
    for state in states:
        entries = {(0, 0): 1.0}
        entries.update(zip(keys, (state[sym] for sym in symbols)))
        tables.append(MomentTable(order, entries))
    return tables


# -- scenario ----------------------------------------------------------------------


def agent_rows(agent, sc, method, n_halfspaces=12) -> Tuple[List[float], float]:
    """Per-step mixed values and the trajectory total of one agent under a
    bound method, as ``_analytic_agent_rows`` computed them step by step."""
    if isinstance(agent, PositionAgent):
        marginals = [
            marginal_risk(mix, pose, sc.ellipsoid, method, t + 1, n_halfspaces)
            for t, (mix, pose) in enumerate(zip(agent.steps, sc.ego_trajectory))
        ]
        traj = trajectory_risk(marginals, mode_persistence=agent.mode_persistence)
    else:
        tables = dubins_position_tables(
            agent.initial_state,
            [s[0] for s in agent.steps],
            [s[1] for s in agent.steps],
            order=MOMENT_ORDER[method],
        )
        marginals = [
            marginal_risk(table, pose, sc.ellipsoid, method, t + 1, n_halfspaces)
            for t, (table, pose) in enumerate(zip(tables[1:], sc.ego_trajectory))
        ]
        traj = trajectory_risk(marginals)
    return [m.mixed for m in marginals], traj.total
