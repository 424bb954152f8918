"""The four seeded workloads of the trajrisk benchmark.

Every workload draws its inputs from ``trajrisk.synthetic`` with a
generator seeded by (benchmark seed, workload, call index, agent), so the
same seed always yields the same inputs.  ``call`` is the timed operation
and goes through the package's public entry points by module attribute
(``scenario.run_assess``, ``engine.marginal_risk``, ...), so the tracer in
``tracing.py`` sees them when it rebinds those names.  ``check`` runs the
correctness gate and every reference computation; the caller keeps it
outside the timed region.

The gate uses the tolerances of the acceptance criteria in
``tests/test_acceptance.py``: bounds >= imhof - 1e-6 (criterion 3), SOS
ordering and |sos-d2 - chebyshev-quad| <= 1e-3 (criterion 4), control
bounds >= MC - 3 se (criterion 7).  Position-form MC must agree with imhof
within five binomial standard errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from trajrisk import engine, scenario, synthetic
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.frames import EgoPose, Ellipsoid

HORIZON = 30
TINY_HORIZON = 4
ORACLE_SAMPLES = 10**6        # run_oracle's default, fixed here
TINY_ORACLE_SAMPLES = 20_000
REFERENCE_SAMPLES = 20_000    # control-bounds MC reference, untimed
WARMUP_ORACLE_SAMPLES = 10_000

BOUND_TOL = 1e-6              # criterion 3
SOS_QUAD_GAP = 1e-3           # criterion 4
MC_SIGMAS = 3.0               # criterion 7
MC_AGREE_SIGMAS = 5.0


@dataclass
class Outcome:
    """What one call produced, as judged by the gate."""

    agents: int
    evals: int                     # (agent, step, method) risk values
    failures: List[str] = field(default_factory=list)
    slack: List[float] = field(default_factory=list)      # bound - reference
    exact_err: List[float] = field(default_factory=list)  # |ltz - imhof|
    method_ms: Dict[str, float] = field(default_factory=dict)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _by_method(report) -> Dict[str, Dict[tuple, float]]:
    out: Dict[str, Dict[tuple, float]] = {}
    for r in report.rows:
        out.setdefault(r.method, {})[(r.agent, r.t)] = r.value
    return out


def _check_json(report, text: str, failures: List[str]) -> None:
    doc = json.loads(text)
    if [r["value"] for r in doc["per_step"]] != [r.value for r in report.rows]:
        failures.append("to_json per_step values differ from the report rows")


def _bounds_above(bounds, ref, label, failures, slack) -> None:
    """Each bound must sit at or above its reference; `ref` maps key -> (value, tol)."""
    for method, vals in bounds.items():
        for key, v in vals.items():
            r, t = ref[key]
            slack.append(v - r)
            if v < r - t:
                failures.append(f"{method} {key}: {v!r} below {label} {r!r} - {t!r}")


def _gather_agents(make, rng_key, n_agents: int, horizon: int, **kw) -> dict:
    """Scenario with `n_agents`; extra agents share agent 0's ego and footprint."""
    base = make(rng=_rng(*rng_key, 0), n_steps=horizon, **kw)
    for k in range(1, n_agents):
        extra = make(rng=_rng(*rng_key, k), n_steps=horizon, **kw)
        base["agents"].append(extra["agents"][0])
    return base


class Workload:
    name = ""
    key = 0          # workload index mixed into every input seed
    cycle = 1        # calls per repeating unit of input shapes
    min_calls = 1    # calls behind the digest and accuracy figures

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.horizon = TINY_HORIZON if tiny else HORIZON
        if tiny:
            self.min_calls = self.cycle

    def make_input(self, i: int):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def warmup(self, inp) -> None:
        self.call(inp)

    def values(self, out) -> List[float]:
        """Every risk value of a call's output, in report order, for the digest."""
        report, _ = out
        return [r.value for r in report.rows] + [r.value for r in report.totals]

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError


class PositionExact(Workload):
    """Planner's online path: parse, four position-form methods, to_json."""

    name = "position-exact"
    key = 0
    AGENTS = (1, 2, 4, 8)
    METHODS = ("imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace")
    cycle = len(AGENTS)
    min_calls = 2 * len(AGENTS)

    def make_input(self, i: int) -> dict:
        doc = _gather_agents(
            synthetic.crossing_position_scenario,
            (self.seed, self.key, i), self.AGENTS[i % self.cycle], self.horizon,
        )
        # Half the agents are mode-persistent; single-agent calls alternate.
        for k, agent in enumerate(doc["agents"]):
            agent["mode_persistence"] = (k + i // self.cycle) % 2 == 1
        return doc

    def call(self, doc):
        sc = scenario.scenario_from_dict(doc)
        report = scenario.run_assess(sc, list(self.METHODS))
        return report, report.to_json()

    def check(self, doc, out) -> Outcome:
        report, text = out
        res = Outcome(len(doc["agents"]), len(report.rows), method_ms=dict(report.timings_ms))
        _check_json(report, text, res.failures)
        vals = _by_method(report)
        imhof = vals["imhof"]
        ref = {k: (v, BOUND_TOL) for k, v in imhof.items()}
        bounds = {m: vals[m] for m in ("chebyshev-quad", "chebyshev-halfspace")}
        _bounds_above(bounds, ref, "imhof", res.failures, res.slack)
        res.exact_err = [abs(vals["ltz"][k] - v) for k, v in imhof.items()]
        return res


class ControlBounds(Workload):
    """Every bound a control-form agent supports, over propagated moments."""

    name = "control-bounds"
    key = 1
    AGENTS = (1, 2, 4)
    MODES = (2, 3)
    METHODS = ("chebyshev-halfspace", "chebyshev-quad", "sos-d2")
    # Agent and mode counts cycle together; as 3 and 2 are coprime, each
    # whole cycle of 6 calls holds every (agents, modes) pair once, so the
    # mix of costly and cheap calls does not depend on how many cycles fit.
    cycle = len(AGENTS) * len(MODES)
    min_calls = cycle

    def make_input(self, i: int) -> dict:
        return _gather_agents(
            synthetic.crossing_control_scenario,
            (self.seed, self.key, i), self.AGENTS[i % len(self.AGENTS)], self.horizon,
            n_modes=self.MODES[i % len(self.MODES)],
        )

    def call(self, doc):
        sc = scenario.scenario_from_dict(doc)
        report = scenario.run_assess(sc, list(self.METHODS))
        return report, report.to_json()

    def check(self, doc, out) -> Outcome:
        report, text = out
        res = Outcome(len(doc["agents"]), len(report.rows), method_ms=dict(report.timings_ms))
        _check_json(report, text, res.failures)
        vals = _by_method(report)
        oracle = scenario.run_oracle(
            scenario.scenario_from_dict(doc), mc_samples=REFERENCE_SAMPLES, seed=1,
        )
        ref = {(r.agent, r.t): (r.value, MC_SIGMAS * r.std_error) for r in oracle.rows}
        _bounds_above(vals, ref, "mc", res.failures, res.slack)
        for key, v in vals["sos-d2"].items():
            gap = abs(v - vals["chebyshev-quad"][key])
            if gap > SOS_QUAD_GAP:
                res.failures.append(f"sos-d2 {key}: {gap!r} from chebyshev-quad")
        return res


class BoundSweep(Workload):
    """Single-step bounds on random Gaussian instances (criteria 3 and 4)."""

    name = "bound-sweep"
    key = 2
    METHODS = ("chebyshev-quad", "chebyshev-halfspace", "sos-d2", "sos-d4", "sos-d6")
    min_calls = 100

    def make_input(self, i: int):
        q_form, mean, cov = synthetic.random_gaussian_instance(_rng(self.seed, self.key, i))
        mix = Gaussian2DMixture([Gaussian2D(mean, cov)], [1.0])
        return mix, EgoPose(0.0, 0.0, 0.0), Ellipsoid(q_form)

    def call(self, inp):
        mix, pose, ell = inp
        return [engine.marginal_risk(mix, pose, ell, m) for m in self.METHODS]

    def values(self, out) -> List[float]:
        return [m.mixed for m in out]

    def check(self, inp, out) -> Outcome:
        mix, pose, ell = inp
        res = Outcome(1, len(out))
        exact = engine.marginal_risk(mix, pose, ell, "imhof", tol=1e-8).mixed
        vals = {m.method: m.mixed for m in out}
        for method, v in vals.items():
            res.slack.append(v - exact)
            if v < exact - BOUND_TOL:
                res.failures.append(f"{method}: {v!r} below imhof {exact!r}")
        d2, d4, d6 = vals["sos-d2"], vals["sos-d4"], vals["sos-d6"]
        if not d6 <= d4 + 1e-6 <= d2 + 2e-6:
            res.failures.append(f"sos order broken: d2 {d2!r} d4 {d4!r} d6 {d6!r}")
        if abs(d2 - vals["chebyshev-quad"]) > SOS_QUAD_GAP:
            res.failures.append(f"sos-d2 {d2!r} far from chebyshev-quad")
        return res


class McOracle(Workload):
    """run_oracle at its default sample count, alternating position and control."""

    name = "mc-oracle"
    key = 3
    cycle = 2
    min_calls = 2

    @property
    def samples(self) -> int:
        return TINY_ORACLE_SAMPLES if self.tiny else ORACLE_SAMPLES

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, self.key, i)
        if i % 2 == 0:
            doc = synthetic.crossing_position_scenario(rng=rng, n_steps=self.horizon)
            doc["agents"][0]["mode_persistence"] = (i // 2) % 2 == 0
            return doc
        return synthetic.crossing_control_scenario(rng=rng, n_steps=self.horizon)

    def _run(self, doc, samples):
        report = scenario.run_oracle(scenario.scenario_from_dict(doc), mc_samples=samples)
        return report, report.to_json()

    def call(self, doc):
        return self._run(doc, self.samples)

    def warmup(self, doc) -> None:
        # The lazy set-up on this path is imports and first calls; a full
        # 10^6-sample oracle would only add one call's worth of sampling.
        self._run(doc, WARMUP_ORACLE_SAMPLES)

    def check(self, doc, out) -> Outcome:
        report, text = out
        res = Outcome(1, len(report.rows), method_ms=dict(report.timings_ms))
        _check_json(report, text, res.failures)
        sc = scenario.scenario_from_dict(doc)
        mc = {(r.agent, r.t): r for r in list(report.rows) + list(report.totals)}
        if doc["agents"][0]["form"] == "gmm_position":
            exact = scenario.run_assess(sc, ["imhof"], tol=1e-10)
            n = self.samples
            for r in list(exact.rows) + list(exact.totals):
                p = r.value
                tol = MC_AGREE_SIGMAS * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
                est = mc[(r.agent, r.t)].value
                if abs(est - p) > tol:
                    res.failures.append(f"mc {r.t}: {est!r} vs imhof {p!r} (tol {tol:.2e})")
        else:
            bound = scenario.run_assess(sc, ["chebyshev-halfspace"])
            vals = _by_method(bound)
            ref = {k: (r.value, MC_SIGMAS * r.std_error)
                   for k, r in mc.items() if k[1] != "total"}
            _bounds_above(vals, ref, "mc", res.failures, res.slack)
        return res


WORKLOADS = {w.name: w for w in (PositionExact, ControlBounds, BoundSweep, McOracle)}
