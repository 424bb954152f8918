"""Scenario files, assessment drivers, and risk reports.

A scenario is a UTF-8 JSON document: a planned ego trajectory, the collision
ellipsoid, and one prediction per surrounding agent, either as per-step
position mixtures or as control mixtures driving a unicycle rollout.
Loading validates every invariant with messages that name the offending
agent/step path, and gathers each agent's position modes or control noise
components into arrays as it goes; the position agents' arrays then form
one stack for the scenario, which every analytic method evaluates once,
and TreeRing propagates the control agents' arrays together.  Reports
keep one row array per (method, agent) and serialize to JSON (nested) or
CSV (one row per agent x step x method) straight from them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .distributions import (
    ControlAgent,
    Gaussian2DMixture,
    _check_gaussians,
    _unchecked,
    mixture_modes,
    mode_mixtures,
)
from .engine import (
    BOUND_METHODS,
    MAX_FORM_SCALE,
    METHODS,
    MOMENT_ORDER,
    ModeStack,
    compose_agents,
    persistence_breaks,
    position_risks,
    table_risks,
)
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, pose_arrays
from .mc import mc_control_risk, mc_position_risk, sampling_args
from .treering import PropagationError, agent_tables

__all__ = [
    "PositionAgent",
    "ControlAgent",
    "Scenario",
    "ReportRow",
    "RowBlock",
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


@dataclass(frozen=True, init=False, eq=False)
class PositionAgent:
    """Per-step position mixtures for one agent, held as mode arrays.

    Row n of ``weights`` (N,), ``means`` (N, 2) and ``covs`` (N, 2, 2) is a
    mode of step ``step[n]``; steps run from 0 in order and each holds at
    least one mode.  The arrays are read-only and checked: the loader
    checks a whole agent in one stacked pass, and building one from
    per-step `Gaussian2DMixture`s runs the same Gaussian check
    (`distributions.mixture_modes`).  ``steps``, the mixtures themselves,
    is built on first use (Monte Carlo).
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    step: np.ndarray
    mode_persistence: bool

    form = "gmm_position"

    def __init__(self, steps: Sequence[Gaussian2DMixture], mode_persistence: bool = False):
        weights, means, covs, step = mixture_modes(steps)
        self.__dict__.update(weights=weights, means=means, covs=covs, step=step,
                             mode_persistence=mode_persistence)

    @cached_property
    def steps(self) -> Tuple[Gaussian2DMixture, ...]:
        return mode_mixtures(self.weights, self.means, self.covs, self.step)

    @property
    def horizon(self) -> int:
        return int(self.step[-1]) + 1 if len(self.step) else 0


Agent = Union[PositionAgent, ControlAgent]


def _stack_fault(stack: ModeStack, persistent: np.ndarray) -> Optional[str]:
    """The error of the lowest agent of a position stack with a fault.

    An agent's modes fail when a body-frame form is too large to evaluate,
    and a mode-persistent agent (``persistent``, per scenario agent) when
    its mode weights change over time; an agent failing both reports the
    form.
    """
    n_steps = len(stack.thetas)
    faults = []
    with np.errstate(over="ignore", invalid="ignore"):
        scale = stack.form_scale()
    bad = np.flatnonzero(~(scale <= MAX_FORM_SCALE))
    if bad.size:
        n = bad[0]
        key = stack.agent * n_steps + stack.step
        faults.append((stack.agent[n], 0, (
            f"agents[{stack.agent[n]}].steps[{stack.step[n]}]"
            f".modes[{n - np.searchsorted(key, key[n])}]: ego-frame form "
            f"overflows (E[x'Qx] = {scale[n]:.3g} exceeds {MAX_FORM_SCALE:.0e})"
        )))
    if persistent.any():
        breaks = persistence_breaks(stack.weights, stack.step, stack.agent,
                                    len(persistent), n_steps)
        moved = np.flatnonzero(persistent & (breaks >= 0))
        if moved.size:
            a = moved[0]
            faults.append((a, 1, (
                f"agents[{a}].steps[{breaks[a]}]: mode persistence needs identical "
                "mode weights at every step"
            )))
    return min(faults)[2] if faults else None


@dataclass(frozen=True)
class Scenario:
    """Ego trajectory, footprint and at least one agent, checked together.

    ``position_stack`` holds the modes of every position agent in one
    `engine.ModeStack`, rows tagged by agent and sharing the ego poses (None
    without position agents).  It is built from the agents' arrays, checked
    once here and shared by every assessment of the scenario.  A
    mode-persistent agent must carry the same mode weights at every step.
    A scenario with several faulty agents reports the lowest one.
    """

    ego_trajectory: Tuple[EgoPose, ...]
    ellipsoid: Ellipsoid
    agents: Tuple[Agent, ...]
    position_stack: Optional[ModeStack] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.agents:
            raise ValidationError("scenario.agents: empty agent list")
        if not self.ego_trajectory:
            raise ValidationError("ego_trajectory must have at least one pose")
        horizon = len(self.ego_trajectory)
        # agents up to the first with another horizon are stacked and checked
        last = next((i for i, a in enumerate(self.agents) if a.horizon != horizon),
                    len(self.agents))
        position = [(i, a) for i, a in enumerate(self.agents[:last])
                    if isinstance(a, PositionAgent)]
        stack = None
        if position:
            ix, agents = zip(*position)
            stack = ModeStack(
                *(np.concatenate([getattr(a, name) for a in agents])
                  for name in ("means", "covs", "weights", "step")),
                np.repeat(ix, [len(a.step) for a in agents]),
                *pose_arrays(self.ego_trajectory), self.ellipsoid.q,
            )
            persistent = np.zeros(last, dtype=bool)
            persistent[[i for i, a in position if a.mode_persistence]] = True
            fault = _stack_fault(stack, persistent)
            if fault is not None:
                raise ValidationError(fault)
        if last < len(self.agents):
            raise ValidationError(
                f"agents[{last}]: horizon {self.agents[last].horizon} does not match "
                f"ego trajectory length {horizon}"
            )
        object.__setattr__(self, "position_stack", stack)

    @property
    def horizon(self) -> int:
        return len(self.ego_trajectory)


# ---------------------------------------------------------------------------
# parsing
#
# An agent's steps, and the ego poses, are read in one pass that gathers
# their fields into lists, and the lists are converted and checked as
# arrays.  When any of those checks fails, the steps or poses are checked
# again one by one in file order (`_check_position_step`,
# `_check_control_step`, `_check_pose`), so the error names the path a
# field-by-field reading meets first.

_TEXT = (str, bool, np.bool_)
_MODE_KEYS = ("weight", "mean", "cov")
_CONTROL_KEYS = ("w_v_modes", "w_theta_modes")
_POSE_KEYS = ("x", "y", "theta")


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


def _too_large(path: str, value) -> ValidationError:
    """The error for a JSON integer at `path` beyond the float range."""
    return ValidationError(f"{path}: number too large for a float, got {value!r:.40}")


def _number(obj: dict, key: str, where: str) -> float:
    value = _expect(obj, key, where)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.{key}: expected a number, got {value!r:.40}") from None
    except OverflowError:
        raise _too_large(f"{where}.{key}", value) from None


def _numbers(obj: dict, key: str, where: str) -> np.ndarray:
    value = _expect(obj, key, where)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.{key}: expected numbers, got {value!r:.40}") from None
    except OverflowError:
        raise _too_large(f"{where}.{key}", value) from None


def _text_at(value, path: str) -> Optional[str]:
    """The error for the first string or boolean in `value`, a number or
    nested lists of numbers at `path`, or None when it holds neither."""
    if isinstance(value, _TEXT):
        return f"{path}: expected a number, got {value!r:.40}"
    if isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            hit = _text_at(item, f"{path}[{k}]")
            if hit is not None:
                return hit
    return None


def _has_text(leaves) -> bool:
    """Whether any of `leaves` is a string or a boolean."""
    return any(issubclass(kind, _TEXT) for kind in set(map(type, leaves)))


def _check_weights(modes: Sequence[dict], where: str) -> None:
    """Each mode's weight a finite number >= 0, and their `fsum` within 1e-9
    of 1 (a sum beyond the float range reads inf)."""
    w = [_number(m, "weight", f"{where}[{k}]") for k, m in enumerate(modes)]
    if not all(math.isfinite(x) for x in w):
        raise ValidationError(f"{where}: non-finite mode weight")
    if any(x < 0 for x in w):
        raise ValidationError(f"{where}: negative mode weight")
    try:
        s = math.fsum(w)
    except OverflowError:
        s = math.inf
    if abs(s - 1.0) > _WEIGHT_SUM_TOL:
        raise ValidationError(f"{where}: mode weights sum to {s!r}, expected 1")


def _gather(groups: List[list], fields: Callable) -> Optional[tuple]:
    """One tuple per field of `fields` (an ``itemgetter``) over the modes of
    every group; None when there is no mode, or one is not an object or
    lacks a field."""
    modes = list(chain.from_iterable(groups))
    if not modes or not all(map(isinstance, modes, repeat(dict))):
        return None
    try:
        return tuple(zip(*map(fields, modes)))
    except KeyError:
        return None


def _normalized(weights: Sequence, counts: List[int]) -> Optional[np.ndarray]:
    """`weights` over the `fsum` of their group (one step's modes, or one
    speed or heading mixture), the groups ``counts`` long; None when a
    weight is no number, not finite or negative, or a group's sum is off 1
    by more than 1e-9."""
    try:
        values = list(map(float, weights))
        sums, start = [], 0
        for n in counts:
            sums.append(math.fsum(values[start:start + n]))
            start += n
    except (TypeError, ValueError, OverflowError):
        return None
    w, s = np.array(values), np.array(sums)
    if not ((w >= 0.0).all() and np.isfinite(w).all() and (abs(s - 1.0) <= _WEIGHT_SUM_TOL).all()):
        return None
    return w / np.repeat(s, counts)


def _check_position_step(step: dict, where: str) -> None:
    """Every check of one position step, in file order."""
    modes = _list(step, "modes", where)
    if not modes:
        raise ValidationError(f"{where}: empty mode list")
    _check_weights(modes, f"{where}.modes")
    for k, mode in enumerate(modes):
        _numbers(mode, "mean", f"{where}.modes[{k}]")
        _numbers(mode, "cov", f"{where}.modes[{k}]")


def _position_agent(obj: dict, where: str, found: List[str]) -> PositionAgent:
    steps_raw = _list(obj, "steps", where)
    if not steps_raw:
        raise ValidationError(f"{where}: empty step list")
    groups = []
    for step in steps_raw:
        modes = step.get("modes") if isinstance(step, dict) else None
        if not (isinstance(modes, (list, tuple)) and modes):
            break
        groups.append(modes)
    counts = list(map(len, groups))
    fields = _gather(groups, itemgetter(*_MODE_KEYS))
    w = m = None
    if fields is not None:
        weights, means, covs = fields
        w = _normalized(weights, counts)
        try:
            m, c = np.array(means, dtype=float), np.array(covs, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    if len(groups) < len(steps_raw) or w is None or m is None:
        # the first fault in file order raises; failing none, every mean and
        # covariance converts, only not all to one shape
        for t, step in enumerate(steps_raw[:len(groups) + 1]):
            _check_position_step(step, f"{where}.steps[{t}]")
        m, c = means, covs
    persistent = obj.get("mode_persistence", False)
    if not isinstance(persistent, bool):
        raise ValidationError(
            f"{where}.mode_persistence: expected a boolean, got {persistent!r:.40}"
        )
    step = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts

    def path(n: int) -> str:
        return f"{where}.steps[{step[n]}].modes[{n - first[step[n]]}]"

    m, c = _check_gaussians(m, c, path)
    if _has_text(chain(weights, chain.from_iterable(means),
                       chain.from_iterable(chain.from_iterable(covs)))):
        found.extend(filter(None, (
            _text_at(value, f"{path(n)}.{key}")
            for n, mode in enumerate(zip(weights, means, covs))
            for key, value in zip(_MODE_KEYS, mode)
        )))
    w.flags.writeable = step.flags.writeable = False
    return _unchecked(PositionAgent, weights=w, means=m, covs=c, step=step,
                      mode_persistence=persistent)


def _check_control_step(step: dict, where: str) -> None:
    """Every check of one control step, in file order: speed, then heading."""
    for key in _CONTROL_KEYS:
        here = f"{where}.{key}"
        modes = _list(step, key, where)
        if not modes:
            raise ValidationError(f"{here}: empty mode list")
        _check_weights(modes, here)
        for k, mode in enumerate(modes):
            at = f"{here}[{k}]"
            var = _number(mode, "var", at)
            if var < 0:
                raise ValidationError(f"{at}: negative variance {var}")
            if not (math.isfinite(_number(mode, "mean", at)) and math.isfinite(var)):
                raise ValidationError(f"{at}: component mean/variance must be finite")


def _control_agent(obj: dict, where: str, found: List[str]) -> ControlAgent:
    init = _expect(obj, "initial_state", where)
    state = []
    for k in ("x", "y", "v", "theta"):
        try:  # a missing key, a ValidationError, is reported as a ValueError
            value = _expect(init, k, f"{where}.initial_state")
            state.append(float(value))
        except (TypeError, ValueError):
            raise ValidationError(f"{where}.initial_state: fields must be numbers") from None
        except OverflowError:
            raise _too_large(f"{where}.initial_state.{k}", value) from None
    if not all(math.isfinite(s) for s in state):
        raise ValidationError(f"{where}.initial_state: fields must be finite")
    found.extend(filter(None, (_text_at(init[k], f"{where}.initial_state.{k}")
                               for k in ("x", "y", "v", "theta"))))
    steps_raw = _list(obj, "steps", where)
    if not steps_raw:
        raise ValidationError(f"{where}: empty step list")
    groups = []  # the speed and the heading modes of every step
    for step in steps_raw:
        mixtures = [step.get(key) for key in _CONTROL_KEYS] if isinstance(step, dict) else ()
        if not (mixtures and all(isinstance(modes, (list, tuple)) and modes
                                 for modes in mixtures)):
            break
        groups += mixtures
    counts = list(map(len, groups))
    fields = _gather(groups, itemgetter("weight", "mean", "var"))
    valid = False
    if fields is not None:
        weights, means, variances = fields
        w = _normalized(weights, counts)
        try:
            ma, va = np.array(list(map(float, means))), np.array(list(map(float, variances)))
            valid = (w is not None and not (va < 0.0).any()
                     and np.isfinite(ma).all() and np.isfinite(va).all())
        except (TypeError, ValueError, OverflowError):
            pass
    if len(groups) < 2 * len(steps_raw) or not valid:  # the first fault in file order raises
        for t, step in enumerate(steps_raw[:len(groups) // 2 + 1]):
            _check_control_step(step, f"{where}.steps[{t}]")
    if _has_text(chain(weights, means, variances)):
        for t, step in enumerate(steps_raw):
            for key in _CONTROL_KEYS:
                found.extend(filter(None, (
                    _text_at(mode[field], f"{where}.steps[{t}].{key}[{k}].{field}")
                    for k, mode in enumerate(step[key])
                    for field in ("weight", "mean", "var")
                )))
    mixture = np.repeat(np.arange(len(counts)), counts)
    w.flags.writeable = ma.flags.writeable = va.flags.writeable = mixture.flags.writeable = False
    return _unchecked(ControlAgent, initial_state=tuple(state), weights=w, means=ma,
                      variances=va, mixture=mixture)


def _check_pose(pose: dict, where: str) -> None:
    """Every check of one ego pose, in file order."""
    x, y, theta = (_number(pose, k, where) for k in _POSE_KEYS)
    try:
        EgoPose(x, y, theta)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def _ego_poses(raw: list, found: List[str]) -> Tuple[EgoPose, ...]:
    fields = _gather([raw], itemgetter(*_POSE_KEYS))
    valid = False
    if fields is not None:
        try:
            values = [list(map(float, column)) for column in fields]
            valid = np.isfinite(values).all()
        except (TypeError, ValueError, OverflowError):
            pass
    if not valid:  # the first fault in file order raises, unless there is no pose
        for t, pose in enumerate(raw):
            _check_pose(pose, f"ego_trajectory[{t}]")
        return ()
    if _has_text(chain.from_iterable(fields)):
        found.extend(filter(None, (
            _text_at(pose[k], f"ego_trajectory[{t}].{k}")
            for t, pose in enumerate(raw) for k in _POSE_KEYS
        )))
    return tuple(_unchecked(EgoPose, x=x, y=y, theta=theta) for x, y, theta in zip(*values))


def scenario_from_dict(obj: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON.

    Every numeric field must hold a JSON number.  One holding a string or a
    boolean is rejected once every other check has passed, so a document
    with another fault as well reports that fault.
    """
    found: List[str] = []  # errors of numeric fields holding text, in file order
    poses = _ego_poses(_list(obj, "ego_trajectory", "scenario"), found)
    ell_raw = _expect(obj, "ellipsoid", "scenario")
    q_raw = _numbers(ell_raw, "q", "ellipsoid")
    try:
        ell = Ellipsoid(q_raw)
    except ValidationError as e:
        raise ValidationError(f"ellipsoid.q: {e}") from None
    found.extend(filter(None, [_text_at(ell_raw["q"], "ellipsoid.q")]))
    agents_raw = _list(obj, "agents", "scenario")
    agents: List[Agent] = []
    for i, a in enumerate(agents_raw):
        where = f"agents[{i}]"
        form = _expect(a, "form", where)
        if form == "gmm_position":
            agents.append(_position_agent(a, where, found))
        elif form == "gmm_control":
            agents.append(_control_agent(a, where, found))
        else:
            raise ValidationError(f"{where}: unknown form {form!r}")
    scenario = Scenario(tuple(poses), ell, tuple(agents))
    if found:
        raise ValidationError(found[0])
    return scenario


def scenario_to_dict(sc: Scenario) -> dict:
    agents = []
    for agent in sc.agents:
        if isinstance(agent, PositionAgent):
            steps = [{"modes": []} for _ in range(agent.horizon)]
            for t, w, mean, cov in zip(agent.step.tolist(), agent.weights.tolist(),
                                       agent.means.tolist(), agent.covs.tolist()):
                steps[t]["modes"].append({"weight": w, "mean": mean, "cov": cov})
            agents.append(
                {
                    "form": "gmm_position",
                    "mode_persistence": agent.mode_persistence,
                    "steps": steps,
                }
            )
        else:
            x, y, v, theta = agent.initial_state
            steps = [{key: [] for key in _CONTROL_KEYS} for _ in range(agent.horizon)]
            for k, w, mean, var in zip(agent.mixture.tolist(), agent.weights.tolist(),
                                       agent.means.tolist(), agent.variances.tolist()):
                steps[k // 2][_CONTROL_KEYS[k % 2]].append({"weight": w, "mean": mean, "var": var})
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


def _json_floats(values: np.ndarray) -> List[str]:
    """Each float as `json.dumps` writes it: its repr, or NaN / Infinity."""
    floats = values.tolist()
    if np.isfinite(values).all():
        return list(map(float.__repr__, floats))
    return list(map(json.dumps, floats))


def _json_list(items: List[str]) -> str:
    """A top-level key's list of already indented items, laid out as
    `json.dumps(..., indent=2)` does."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_dict(d: dict) -> str:
    """A top-level key's flat mapping, laid out as `json.dumps(..., indent=2)` does."""
    items = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in d.items()]
    return "{\n" + ",\n".join(items) + "\n  }" if items else "{}"


@dataclass(frozen=True, eq=False)
class RowBlock:
    """The report rows of one method on one agent, as arrays.

    ``values`` (T + 1,) holds the risk at steps 1..T and then the
    trajectory total; Monte Carlo blocks add each row's ``std_error``
    (T + 1,) and Wilson ``ci95`` (T + 1, 2).  The values are checked to
    lie in [0, 1] when the block is built.
    """

    agent: int
    method: str
    is_upper_bound: bool
    values: np.ndarray
    std_error: Optional[np.ndarray] = None
    ci95: Optional[np.ndarray] = None

    def __post_init__(self):
        bad = np.flatnonzero(~((self.values >= 0.0) & (self.values <= 1.0)))
        if bad.size:
            raise ValidationError(f"report value {self.values[bad[0]].item()} outside [0, 1]")

    def _ts(self) -> list:
        return [*range(1, len(self.values)), "total"]

    def report_rows(self) -> List[ReportRow]:
        """One `ReportRow` per step, then the total's."""
        n = len(self.values)
        std = [None] * n if self.std_error is None else self.std_error.tolist()
        ci = [None] * n if self.ci95 is None else list(map(tuple, self.ci95.tolist()))
        return [
            _unchecked(ReportRow, agent=self.agent, t=t, method=self.method, value=v,
                       is_upper_bound=self.is_upper_bound, std_error=s, ci95=c)
            for t, v, s, c in zip(self._ts(), self.values.tolist(), std, ci)
        ]

    def json_rows(self) -> List[str]:
        """Each row's object as it stands in the report's ``per_step`` or
        ``totals`` list of `json.dumps(..., indent=2)`."""
        head = f'    {{\n      "agent": {json.dumps(self.agent)},\n      "t": '
        body = f',\n      "method": {json.dumps(self.method)},\n      "value": '
        tail = f',\n      "is_upper_bound": {json.dumps(self.is_upper_bound)}'
        ts = [*map(str, range(1, len(self.values))), '"total"']
        values = _json_floats(self.values)
        if self.std_error is None:
            return [f"{head}{t}{body}{v}{tail}\n    }}" for t, v in zip(ts, values)]
        std = _json_floats(self.std_error)
        ci = _json_floats(self.ci95.ravel())
        return [
            f'{head}{t}{body}{v}{tail},\n      "std_error": {s},\n      "ci95": '
            f'[\n        {lo},\n        {hi}\n      ]\n    }}'
            for t, v, s, lo, hi in zip(ts, values, std, ci[::2], ci[1::2])
        ]

    def csv_rows(self) -> List[str]:
        """Each row's CSV line, without its line end."""
        head = f"{self.agent},"
        body = f",{self.method},"
        tail = f",{self.is_upper_bound},"
        std = [""] * len(self.values) if self.std_error is None else \
            list(map(float.__repr__, self.std_error.tolist()))
        return [
            f"{head}{t}{body}{v!r}{tail}{s}"
            for t, v, s in zip(self._ts(), self.values.tolist(), std)
        ]


_CSV_HEADER = "agent,t,method,value,is_upper_bound,std_error"


@dataclass(eq=False)
class RiskReport:
    """Every (method, agent) block of an assessment, with the union bounds
    and per-method timings.  ``rows`` and ``totals``, one `ReportRow` per
    step and per block, are built from the blocks on first read; the JSON
    and CSV writers read the blocks' arrays directly."""

    horizon: int
    methods: Tuple[str, ...]
    blocks: Tuple[RowBlock, ...]
    union_bound: Dict[str, float]
    timings_ms: Dict[str, float]
    mc_samples: Optional[int] = None
    seed: Optional[int] = None

    @cached_property
    def _block_rows(self) -> List[List[ReportRow]]:
        return [b.report_rows() for b in self.blocks]

    @cached_property
    def rows(self) -> List[ReportRow]:
        return [r for rows in self._block_rows for r in rows[:-1]]

    @cached_property
    def totals(self) -> List[ReportRow]:
        return [rows[-1] for rows in self._block_rows]

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
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, written from the
        blocks' arrays one row template at a time."""
        rows = [b.json_rows() for b in self.blocks]
        parts = [
            f'{{\n  "horizon": {json.dumps(self.horizon)}',
            f'  "methods": {_json_list([f"    {json.dumps(m)}" for m in self.methods])}',
            f'  "per_step": {_json_list([r for block in rows for r in block[:-1]])}',
            f'  "totals": {_json_list([block[-1] for block in rows])}',
            f'  "multi_agent_bound": {_json_dict(self.union_bound)}',
            f'  "timings_ms": {_json_dict({k: round(v, 3) for k, v in self.timings_ms.items()})}',
        ]
        if self.mc_samples is not None:
            parts.append(f'  "mc_samples": {json.dumps(self.mc_samples)}')
        if self.seed is not None:
            parts.append(f'  "seed": {json.dumps(self.seed)}')
        return ",\n".join(parts) + "\n}\n"

    def to_csv(self) -> str:
        """One line per step row, then one per total, from the blocks' arrays."""
        rows = [b.csv_rows() for b in self.blocks]
        lines = [_CSV_HEADER, *(r for block in rows for r in block[:-1]),
                 *(block[-1] for block in rows)]
        return "\n".join(lines) + "\n"

    def write(self, path: str, format: str = "json") -> None:
        if format not in ("json", "csv"):
            raise ValidationError(f"report format must be 'json' or 'csv', got {format!r}")
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


def _mc_block(
    agent: Agent,
    agent_ix: int,
    sc: Scenario,
    mc_samples: int,
    seed: int,
) -> RowBlock:
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
    estimates = [*per_step, traj]
    return RowBlock(
        agent_ix, "mc", False,
        np.array([est.probability for est in estimates]),
        np.array([est.std_error for est in estimates]),
        np.array([est.ci95 for est in estimates]),
    )


def run_assess(
    scenario: Scenario,
    methods: Sequence[str],
    mc_samples: int = 10**5,
    seed: int = 0,
    tol: float = 1e-8,
    n_halfspaces: int = 12,
) -> RiskReport:
    """Evaluate every requested method on every agent of a scenario.

    Deterministic for a fixed seed.  Timing per method is wall time over
    all agents and steps.  Each analytic method runs once per scenario:
    `position_risks` on the scenario's position stack and one `table_risks`
    over the tables of every control-form agent, which are propagated
    together, once, at the highest order any requested method needs, and
    charged to the first method reading them; a method needing a lower
    order reads only the moments it uses.  `compose_agents` folds all
    agents' rows at once.  Monte Carlo samples agent by agent.  The report
    keeps one `RowBlock` per (method, agent).
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
    blocks: List[RowBlock] = []
    union: Dict[str, float] = {}
    timings: Dict[str, float] = {}
    agents, horizon = scenario.agents, scenario.horizon
    stack = scenario.position_stack
    control = [i for i, a in enumerate(agents) if isinstance(a, ControlAgent)]
    ego = pose_arrays(scenario.ego_trajectory)
    control_step = np.tile(np.arange(horizon), len(control))
    # the rows of every analytic method: the position stack's, then one per
    # step of each control agent
    rows = [] if stack is None else [(stack.weights, stack.step, stack.agent)]
    if control:
        rows.append((np.ones(len(control_step)), control_step, np.repeat(control, horizon)))
    weights, step, agent = map(np.concatenate, zip(*rows))
    persistent = [i for i, a in enumerate(agents)
                  if isinstance(a, PositionAgent) and a.mode_persistence]
    tables: List[np.ndarray] = []

    def control_tables() -> np.ndarray:
        if not tables:
            order = max(_required_order(m) for m in methods if m != "mc")
            try:
                stacked = agent_tables([agents[j] for j in control], order)
            except PropagationError as e:
                raise ValidationError(f"agents[{control[e.agent]}].{e}") from None
            tables.append(stacked[:, 1:].reshape(-1, *stacked.shape[2:]))
        return tables[0]

    for method in methods:
        t0 = time.perf_counter()
        if method == "mc":
            method_blocks = [
                _mc_block(a, i, scenario, mc_samples, seed) for i, a in enumerate(agents)
            ]
        else:
            values = []
            if stack is not None:
                values.append(position_risks(stack, method, tol, n_halfspaces))
            if control:
                values.append(table_risks(control_tables(), control_step, *ego,
                                          scenario.ellipsoid.q, method, n_halfspaces))
            mixed, totals = compose_agents(np.concatenate(values), weights, step, agent,
                                           len(agents), horizon, persistent)
            rows = np.concatenate([mixed, totals[:, None]], axis=1)
            bound = method in BOUND_METHODS
            method_blocks = [RowBlock(i, method, bound, rows[i]) for i in range(len(agents))]
        blocks.extend(method_blocks)
        union[method] = min(1.0, math.fsum(b.values[-1] for b in method_blocks))
        timings[method] = (time.perf_counter() - t0) * 1e3
    return RiskReport(
        horizon=scenario.horizon,
        methods=tuple(methods),
        blocks=tuple(blocks),
        union_bound=union,
        timings_ms=timings,
        mc_samples=mc_samples if "mc" in methods else None,
        seed=seed if "mc" in methods else None,
    )


def run_oracle(scenario: Scenario, mc_samples: int = 10**6, seed: int = 0) -> RiskReport:
    """Monte Carlo only; the reference a bound run is judged against."""
    return run_assess(scenario, ["mc"], mc_samples=mc_samples, seed=seed)
