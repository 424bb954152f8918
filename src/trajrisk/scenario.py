"""Scenario files, assessment drivers, and risk reports.

A scenario is a UTF-8 JSON document: a planned ego trajectory, the collision
ellipsoid, and one prediction per surrounding agent, either as per-step
position mixtures or as control mixtures driving a unicycle rollout.
Loading validates every invariant with messages that name the offending
agent/step path.  Reports serialize to JSON (nested) or CSV (one row per
agent x step x method).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .distributions import (
    Gaussian2DMixture,
    ScalarComponent,
    ScalarMixture,
    gaussian2d_stack,
)
from .engine import (
    BOUND_METHODS,
    MAX_FORM_SCALE,
    METHODS,
    MOMENT_ORDER,
    ModeStack,
    compose,
    persistence_break,
    position_risks,
    stack_modes,
    table_risks,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid
from .mc import mc_control_risk, mc_position_risk, sampling_args
from .treering import PropagationError, dubins_position_tables

__all__ = [
    "PositionAgent",
    "ControlAgent",
    "Scenario",
    "RiskReport",
    "load_scenario",
    "write_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "run_assess",
    "run_oracle",
]

_WEIGHT_SUM_TOL = 1e-9
_AGENT_STRIDE = 7919  # mc keys each agent's streams as seed * stride + agent


@dataclass(frozen=True)
class PositionAgent:
    """Per-step position mixtures for one agent."""

    steps: Tuple[Gaussian2DMixture, ...]
    mode_persistence: bool = False

    form = "gmm_position"


@dataclass(frozen=True)
class ControlAgent:
    """Initial state plus per-step (speed, heading) control mixtures."""

    initial_state: Tuple[float, float, float, float]
    steps: Tuple[Tuple[ScalarMixture, ScalarMixture], ...]

    form = "gmm_control"


Agent = Union[PositionAgent, ControlAgent]


def _check_form_scale(stack: ModeStack, where: str) -> None:
    """Reject modes whose body-frame form is too large to evaluate."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = stack.form_scale()
    bad = np.flatnonzero(~(scale <= MAX_FORM_SCALE))
    if bad.size:
        n = bad[0]
        t = stack.step[n]
        raise ValidationError(
            f"{where}.steps[{t}].modes[{n - np.searchsorted(stack.step, t)}]: ego-frame form "
            f"overflows (E[x'Qx] = {scale[n]:.3g} exceeds {MAX_FORM_SCALE:.0e})"
        )


def _check_persistence(stack: ModeStack, where: str) -> None:
    """Reject a mode-persistent agent whose mode weights change over time."""
    t = persistence_break(stack.weights, stack.step)
    if t is not None:
        raise ValidationError(
            f"{where}.steps[{t}]: mode persistence needs identical mode weights at every step"
        )


@dataclass(frozen=True)
class Scenario:
    """Ego trajectory, footprint and agents, checked together.

    ``mode_stacks`` maps each position agent's index to its modes in the
    ego body frame (`engine.ModeStack`), built and checked once here and
    shared by every assessment of the scenario.  A mode-persistent agent
    must carry the same mode weights at every step.
    """

    ego_trajectory: Tuple[EgoPose, ...]
    ellipsoid: Ellipsoid
    agents: Tuple[Agent, ...]
    mode_stacks: Dict[int, ModeStack] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ego_trajectory:
            raise ValidationError("ego_trajectory must have at least one pose")
        horizon = len(self.ego_trajectory)
        stacks = {}
        for i, agent in enumerate(self.agents):
            if len(agent.steps) != horizon:
                raise ValidationError(
                    f"agents[{i}]: horizon {len(agent.steps)} does not match "
                    f"ego trajectory length {horizon}"
                )
            if isinstance(agent, PositionAgent):
                stacks[i] = stack_modes(agent.steps, self.ego_trajectory, self.ellipsoid)
                _check_form_scale(stacks[i], f"agents[{i}]")
                if agent.mode_persistence:
                    _check_persistence(stacks[i], f"agents[{i}]")
        object.__setattr__(self, "mode_stacks", stacks)

    @property
    def horizon(self) -> int:
        return len(self.ego_trajectory)


# ---------------------------------------------------------------------------
# parsing


def _expect(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return obj[key]


def _list(obj: dict, key: str, where: str) -> list:
    """Required key `key` of `obj`, which must hold a list."""
    value = _expect(obj, key, where)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"{where}.{key}: expected a list, got {type(value).__name__}"
        )
    return value


def _number(obj: dict, key: str, where: str) -> float:
    value = _expect(obj, key, where)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.{key}: expected a number, got {value!r:.40}") from None


def _numbers(obj: dict, key: str, where: str) -> np.ndarray:
    value = _expect(obj, key, where)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.{key}: expected numbers, got {value!r:.40}") from None


def _weights(modes: Sequence[dict], where: str) -> List[float]:
    w = [_number(m, "weight", f"{where}[{k}]") for k, m in enumerate(modes)]
    if not all(math.isfinite(x) for x in w):
        raise ValidationError(f"{where}: non-finite mode weight")
    if any(x < 0 for x in w):
        raise ValidationError(f"{where}: negative mode weight")
    s = math.fsum(w)
    if abs(s - 1.0) > _WEIGHT_SUM_TOL:
        raise ValidationError(f"{where}: mode weights sum to {s!r}, expected 1")
    return [x / s for x in w]


def _position_agent(obj: dict, where: str) -> PositionAgent:
    steps_raw = _list(obj, "steps", where)
    if not steps_raw:
        raise ValidationError(f"{where}: empty step list")
    weights, means, covs, paths = [], [], [], []
    for t, step in enumerate(steps_raw):
        here = f"{where}.steps[{t}]"
        modes = _list(step, "modes", here)
        if not modes:
            raise ValidationError(f"{here}: empty mode list")
        weights.append(_weights(modes, f"{here}.modes"))
        for k, mode in enumerate(modes):
            mwhere = f"{here}.modes[{k}]"
            means.append(_numbers(mode, "mean", mwhere))
            covs.append(_numbers(mode, "cov", mwhere))
            paths.append(mwhere)
    persistent = obj.get("mode_persistence", False)
    if not isinstance(persistent, bool):
        raise ValidationError(
            f"{where}.mode_persistence: expected a boolean, got {persistent!r:.40}"
        )
    comps = iter(gaussian2d_stack(means, covs, paths.__getitem__))
    return PositionAgent(
        steps=tuple(Gaussian2DMixture([next(comps) for _ in w], w) for w in weights),
        mode_persistence=persistent,
    )


def _scalar_mixture(modes: Sequence[dict], where: str) -> ScalarMixture:
    if not modes:
        raise ValidationError(f"{where}: empty mode list")
    weights = _weights(modes, where)
    comps = []
    for k, mode in enumerate(modes):
        here = f"{where}[{k}]"
        var = _number(mode, "var", here)
        if var < 0:
            raise ValidationError(f"{here}: negative variance {var}")
        mean = _number(mode, "mean", here)
        try:
            comps.append(ScalarComponent(mean, var))
        except ValidationError as e:
            raise ValidationError(f"{here}: {e}") from None
    return ScalarMixture(tuple(comps), tuple(weights))


def _control_agent(obj: dict, where: str) -> ControlAgent:
    init = _expect(obj, "initial_state", where)
    try:
        state = tuple(
            float(_expect(init, k, f"{where}.initial_state")) for k in ("x", "y", "v", "theta")
        )
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.initial_state: fields must be numbers") from None
    if not all(math.isfinite(s) for s in state):
        raise ValidationError(f"{where}.initial_state: fields must be finite")
    steps_raw = _list(obj, "steps", where)
    if not steps_raw:
        raise ValidationError(f"{where}: empty step list")
    steps = []
    for t, step in enumerate(steps_raw):
        here = f"{where}.steps[{t}]"
        steps.append(
            (
                _scalar_mixture(_list(step, "w_v_modes", here), f"{here}.w_v_modes"),
                _scalar_mixture(_list(step, "w_theta_modes", here), f"{here}.w_theta_modes"),
            )
        )
    return ControlAgent(initial_state=state, steps=tuple(steps))


def scenario_from_dict(obj: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    ego_raw = _list(obj, "ego_trajectory", "scenario")
    poses = []
    for t, pose in enumerate(ego_raw):
        where = f"ego_trajectory[{t}]"
        x, y, theta = (_number(pose, k, where) for k in ("x", "y", "theta"))
        try:
            poses.append(EgoPose(x, y, theta))
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
    q_raw = _numbers(_expect(obj, "ellipsoid", "scenario"), "q", "ellipsoid")
    try:
        ell = Ellipsoid(q_raw)
    except ValidationError as e:
        raise ValidationError(f"ellipsoid.q: {e}") from None
    agents_raw = _list(obj, "agents", "scenario")
    if not agents_raw:
        raise ValidationError("scenario.agents: empty agent list")
    agents: List[Agent] = []
    for i, a in enumerate(agents_raw):
        where = f"agents[{i}]"
        form = _expect(a, "form", where)
        if form == "gmm_position":
            agents.append(_position_agent(a, where))
        elif form == "gmm_control":
            agents.append(_control_agent(a, where))
        else:
            raise ValidationError(f"{where}: unknown form {form!r}")
    return Scenario(tuple(poses), ell, tuple(agents))


def scenario_to_dict(sc: Scenario) -> dict:
    agents = []
    for agent in sc.agents:
        if isinstance(agent, PositionAgent):
            steps = []
            for mix in agent.steps:
                steps.append(
                    {
                        "modes": [
                            {
                                "weight": w,
                                "mean": list(c.mean),
                                "cov": [list(row) for row in c.cov],
                            }
                            for w, c in zip(mix.weights, mix.components)
                        ]
                    }
                )
            agents.append(
                {
                    "form": "gmm_position",
                    "mode_persistence": agent.mode_persistence,
                    "steps": steps,
                }
            )
        else:
            x, y, v, theta = agent.initial_state
            steps = []
            for w_v, w_th in agent.steps:
                steps.append(
                    {
                        "w_v_modes": [
                            {"weight": w, "mean": c.mean, "var": c.variance}
                            for w, c in zip(w_v.weights, w_v.components)
                        ],
                        "w_theta_modes": [
                            {"weight": w, "mean": c.mean, "var": c.variance}
                            for w, c in zip(w_th.weights, w_th.components)
                        ],
                    }
                )
            agents.append(
                {
                    "form": "gmm_control",
                    "initial_state": {"x": x, "y": y, "v": v, "theta": theta},
                    "steps": steps,
                }
            )
    return {
        "ego_trajectory": [
            {"x": p.x, "y": p.y, "theta": p.theta} for p in sc.ego_trajectory
        ],
        "ellipsoid": {"q": [list(row) for row in sc.ellipsoid.q]},
        "agents": agents,
    }


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    try:
        return scenario_from_dict(obj)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def write_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportRow:
    agent: int
    t: Union[int, str]
    method: str
    value: float
    is_upper_bound: bool
    std_error: Optional[float] = None
    ci95: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"report value {self.value} outside [0, 1]")


@dataclass
class RiskReport:
    horizon: int
    methods: Tuple[str, ...]
    rows: List[ReportRow]
    totals: List[ReportRow]
    union_bound: Dict[str, float]
    timings_ms: Dict[str, float]
    mc_samples: Optional[int] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        def row(r: ReportRow) -> dict:
            d = {
                "agent": r.agent,
                "t": r.t,
                "method": r.method,
                "value": r.value,
                "is_upper_bound": r.is_upper_bound,
            }
            if r.std_error is not None:
                d["std_error"] = r.std_error
            if r.ci95 is not None:
                d["ci95"] = list(r.ci95)
            return d

        out = {
            "horizon": self.horizon,
            "methods": list(self.methods),
            "per_step": [row(r) for r in self.rows],
            "totals": [row(r) for r in self.totals],
            "multi_agent_bound": dict(self.union_bound),
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }
        if self.mc_samples is not None:
            out["mc_samples"] = self.mc_samples
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["agent", "t", "method", "value", "is_upper_bound", "std_error"])
        for r in list(self.rows) + list(self.totals):
            writer.writerow(
                [
                    r.agent,
                    r.t,
                    r.method,
                    repr(r.value),
                    r.is_upper_bound,
                    "" if r.std_error is None else repr(r.std_error),
                ]
            )
        return buf.getvalue()

    def write(self, path: str, format: str = "json") -> None:
        text = self.to_json() if format == "json" else self.to_csv()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# assessment drivers

def _required_order(method: str) -> int:
    """Order of the moment tables a control-form agent propagates for `method`."""
    if method not in MOMENT_ORDER:
        raise ValidationError(
            f"method {method!r} needs Gaussian position predictions, "
            "not a control-form agent"
        )
    order = MOMENT_ORDER[method]
    if order > 4:
        raise ValidationError(
            f"method {method!r} needs position moments of order {order}; "
            "control-form propagation provides orders 2 and 4 only"
        )
    return order


def _mc_agent_rows(
    agent: Agent,
    agent_ix: int,
    sc: Scenario,
    mc_samples: int,
    seed: int,
) -> Tuple[List[ReportRow], ReportRow]:
    agent_seed = seed * _AGENT_STRIDE + agent_ix
    if isinstance(agent, PositionAgent):
        per_step, traj = mc_position_risk(
            agent.steps,
            sc.ego_trajectory,
            sc.ellipsoid,
            mc_samples,
            agent_seed,
            mode_persistence=agent.mode_persistence,
        )
    else:
        per_step, traj = mc_control_risk(
            agent.steps,
            agent.initial_state,
            sc.ego_trajectory,
            sc.ellipsoid,
            mc_samples,
            agent_seed,
        )
    rows = [
        ReportRow(agent_ix, t + 1, "mc", est.probability, False, est.std_error, est.ci95)
        for t, est in enumerate(per_step)
    ]
    total = ReportRow(
        agent_ix, "total", "mc", traj.probability, False, traj.std_error, traj.ci95
    )
    return rows, total


def _analytic_agent_rows(
    agent: Agent,
    agent_ix: int,
    sc: Scenario,
    method: str,
    tol: float,
    n_halfspaces: int,
    control_tables: Callable[[int], np.ndarray],
    ego: Tuple[np.ndarray, np.ndarray],
) -> Tuple[List[ReportRow], ReportRow]:
    """Per-step and total rows of one analytic method for one agent.

    Position-form agents are evaluated on the scenario's mode stack.
    Control-form agents read their propagated tables from
    ``control_tables(agent_ix)`` against the ego positions and headings
    ``ego``.
    """
    if isinstance(agent, PositionAgent):
        stack = sc.mode_stacks[agent_ix]
        weights, step, persistent = stack.weights, stack.step, agent.mode_persistence
        values = position_risks(stack, method, tol, n_halfspaces)
    else:
        weights, step, persistent = np.ones(sc.horizon), np.arange(sc.horizon), False
        values = table_risks(
            control_tables(agent_ix)[1:], step, *ego, sc.ellipsoid.q, method, n_halfspaces
        )
    mixed, total = compose(values, weights, step, sc.horizon, persistent)
    bound = method in BOUND_METHODS
    rows = [
        ReportRow(agent_ix, t, method, v, bound) for t, v in enumerate(mixed.tolist(), 1)
    ]
    return rows, ReportRow(agent_ix, "total", method, total, bound)


def run_assess(
    scenario: Scenario,
    methods: Sequence[str],
    mc_samples: int = 10**5,
    seed: int = 0,
    tol: float = 1e-8,
    n_halfspaces: int = 12,
) -> RiskReport:
    """Evaluate every requested method on every agent of a scenario.

    Deterministic for a fixed seed.  Timing per method is accumulated wall
    time across agents and steps.  The moment tables of all control-form
    agents are propagated together, once, at the highest order any
    requested method needs, and charged to the first method reading them;
    a method needing a lower order reads only the moments it uses.
    """
    if not methods:
        raise ValidationError("no methods requested")
    methods = list(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValidationError(
            f"unknown methods {unknown}; choose from {sorted(METHODS)}"
        )
    if "mc" in methods:
        # checked before per-agent seeds are derived, so 1.5 cannot alias 1
        mc_samples, seed = sampling_args(mc_samples, seed, _AGENT_STRIDE)
    rows: List[ReportRow] = []
    totals: List[ReportRow] = []
    union: Dict[str, float] = {}
    timings: Dict[str, float] = {}
    tables: Dict[int, np.ndarray] = {}
    ego = (np.array([[p.x, p.y] for p in scenario.ego_trajectory]),
           np.array([p.theta for p in scenario.ego_trajectory]))

    def control_tables(i: int) -> np.ndarray:
        if not tables:
            order = max(_required_order(m) for m in methods if m != "mc")
            ix = [j for j, a in enumerate(scenario.agents) if isinstance(a, ControlAgent)]
            agents = [scenario.agents[j] for j in ix]
            try:
                stacked = dubins_position_tables(
                    [a.initial_state for a in agents],
                    [[w_v for w_v, _ in a.steps] for a in agents],
                    [[w_theta for _, w_theta in a.steps] for a in agents],
                    order=order,
                )
            except PropagationError as e:
                raise ValidationError(f"agents[{ix[e.agent]}].{e}") from None
            tables.update(zip(ix, stacked))
        return tables[i]

    for method in methods:
        t0 = time.perf_counter()
        agent_trajs: List[float] = []
        for i, agent in enumerate(scenario.agents):
            if method == "mc":
                step_rows, total = _mc_agent_rows(agent, i, scenario, mc_samples, seed)
            else:
                step_rows, total = _analytic_agent_rows(
                    agent, i, scenario, method, tol, n_halfspaces, control_tables, ego
                )
            rows.extend(step_rows)
            totals.append(total)
            agent_trajs.append(total.value)
        union[method] = min(1.0, math.fsum(agent_trajs))
        timings[method] = (time.perf_counter() - t0) * 1e3
    return RiskReport(
        horizon=scenario.horizon,
        methods=tuple(methods),
        rows=rows,
        totals=totals,
        union_bound=union,
        timings_ms=timings,
        mc_samples=mc_samples if "mc" in methods else None,
        seed=seed if "mc" in methods else None,
    )


def run_oracle(scenario: Scenario, mc_samples: int = 10**6, seed: int = 0) -> RiskReport:
    """Monte Carlo only; the reference a bound run is judged against."""
    return run_assess(scenario, ["mc"], mc_samples=mc_samples, seed=seed)
