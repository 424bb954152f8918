"""The scenario loader and CSV writer as they were before the array loader.

Differential oracle for `trajrisk.scenario`: the loader walks every step
and mode in file order, converts each field on its own (``float`` and
``np.asarray``), checks each step's weights with ``fsum`` and builds the
per-step `Gaussian2DMixture`s and `ScalarMixture`s; a scenario's mode
stacks, one per position agent, are then collected back from those
objects and checked agent by agent (the former `_check_form_scale` and
`_check_persistence`).  Its Gaussian check is the former per-mode-list
`_check_gaussians`.  It converts JSON strings
and booleans at numeric fields like numbers.  `scenario_from_dict` returns
a `Loaded` (ego poses, footprint, agents, mode stacks) or raises what the
former loader raised; `report_csv` is the former ``RiskReport.to_csv``,
reading the report's rows.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from trajrisk.distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    ScalarComponent,
    ScalarMixture,
)
from trajrisk.engine import MAX_FORM_SCALE, ModeStack, persistence_break
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import ControlAgent

_WEIGHT_SUM_TOL = 1e-9
_SYM_TOL = 1e-12
_PSD_TOL = 1e-12


class RefPositionAgent(NamedTuple):
    steps: Tuple[Gaussian2DMixture, ...]
    mode_persistence: bool


class Loaded(NamedTuple):
    ego_trajectory: Tuple[EgoPose, ...]
    ellipsoid: Ellipsoid
    agents: tuple
    mode_stacks: Dict[int, ModeStack]


def _check_gaussians(means, covs, where):
    ms = [np.asarray(m, dtype=float) for m in means]
    cs = [np.asarray(c, dtype=float) for c in covs]
    mean_shape = np.array([m.shape != (2,) for m in ms], dtype=bool)
    cov_shape = np.array([c.shape != (2, 2) for c in cs], dtype=bool)
    m = np.array([np.zeros(2) if bad else x for bad, x in zip(mean_shape, ms)]).reshape(-1, 2)
    c = np.array([np.zeros((2, 2)) if bad else x for bad, x in zip(cov_shape, cs)]).reshape(-1, 2, 2)
    mean_finite = np.isfinite(m).all(axis=1)
    cov_finite = np.isfinite(c).all(axis=(1, 2))
    c01, c10 = c[:, 0, 1], c[:, 1, 0]
    with np.errstate(invalid="ignore"):
        asym = np.abs(c01 - c10) > _SYM_TOL * np.maximum(1.0, np.maximum(np.abs(c01), np.abs(c10)))
        sym = 0.5 * (c + c.transpose(0, 2, 1))
    eig = np.linalg.eigvalsh(np.where(cov_finite[:, None, None], sym, 0.0))
    not_psd = eig[:, 0] < -_PSD_TOL * np.maximum(1.0, eig[:, 1])
    checks = (
        (mean_shape, lambda n: f"mean must have shape (2,), got {ms[n].shape}"),
        (~mean_finite, lambda n: "mean has non-finite entries"),
        (cov_shape, lambda n: f"covariance must be 2x2, got shape {cs[n].shape}"),
        (~cov_finite, lambda n: "covariance has non-finite entries"),
        (asym, lambda n: "covariance must be symmetric within 1e-12"),
        (not_psd, lambda n: f"covariance is not positive semidefinite (eigenvalues {eig[n]})"),
    )
    bad = np.logical_or.reduce([fails for fails, _ in checks])
    if bad.any():
        n = int(np.argmax(bad))
        message = next(text(n) for fails, text in checks if fails[n])
        raise ValidationError(f"{where(n)}: {message}")
    m.flags.writeable = False
    sym.flags.writeable = False
    out = []
    for mean, cov in zip(m, sym):
        g = object.__new__(Gaussian2D)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "cov", cov)
        out.append(g)
    return tuple(out)


def _expect(obj, key, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return obj[key]


def _list(obj, key, where):
    value = _expect(obj, key, where)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"{where}.{key}: expected a list, got {type(value).__name__}"
        )
    return value


def _number(obj, key, where):
    value = _expect(obj, key, where)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}.{key}: expected a number, got {value!r:.40}") from None


def _numbers(obj, key, where):
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


def _position_agent(obj, where):
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
    comps = iter(_check_gaussians(means, covs, paths.__getitem__))
    return RefPositionAgent(
        steps=tuple(Gaussian2DMixture([next(comps) for _ in w], w) for w in weights),
        mode_persistence=persistent,
    )


def _scalar_mixture(modes, where):
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


def _control_agent(obj, where):
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


def _check_form_scale(stack: ModeStack, where: str) -> None:
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
    t = persistence_break(stack.weights, stack.step)
    if t is not None:
        raise ValidationError(
            f"{where}.steps[{t}]: mode persistence needs identical mode weights at every step"
        )


def stack_modes(steps, poses, q) -> ModeStack:
    comps = [c for mix in steps for c in mix.components]
    return ModeStack(
        means=np.array([c.mean for c in comps]),
        covs=np.array([c.cov for c in comps]),
        weights=np.array([w for mix in steps for w in mix.weights]),
        step=np.repeat(np.arange(len(steps)), [len(mix.components) for mix in steps]),
        agent=np.zeros(sum(len(mix.components) for mix in steps), dtype=int),
        xy=np.array([[p.x, p.y] for p in poses]),
        thetas=np.array([p.theta for p in poses]),
        q=q.q,
    )


def _scenario(poses, ell, agents) -> Loaded:
    if not poses:
        raise ValidationError("ego_trajectory must have at least one pose")
    horizon = len(poses)
    stacks = {}
    for i, agent in enumerate(agents):
        if len(agent.steps) != horizon:
            raise ValidationError(
                f"agents[{i}]: horizon {len(agent.steps)} does not match "
                f"ego trajectory length {horizon}"
            )
        if isinstance(agent, RefPositionAgent):
            stacks[i] = stack_modes(agent.steps, poses, ell)
            _check_form_scale(stacks[i], f"agents[{i}]")
            if agent.mode_persistence:
                _check_persistence(stacks[i], f"agents[{i}]")
    return Loaded(poses, ell, agents, stacks)


def scenario_from_dict(obj) -> Loaded:
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
    agents = []
    for i, a in enumerate(agents_raw):
        where = f"agents[{i}]"
        form = _expect(a, "form", where)
        if form == "gmm_position":
            agents.append(_position_agent(a, where))
        elif form == "gmm_control":
            agents.append(_control_agent(a, where))
        else:
            raise ValidationError(f"{where}: unknown form {form!r}")
    return _scenario(tuple(poses), ell, tuple(agents))


def report_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "t", "method", "value", "is_upper_bound", "std_error"])
    for r in list(report.rows) + list(report.totals):
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
