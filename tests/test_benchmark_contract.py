"""What the benchmark's position-exact workload relies on, checked in tier-1.

The benchmark's tracer rebinds ``qfmvg.imhof_cdf`` wherever a trajrisk
module imported it, requires at least one call of it on position-exact,
and takes ``max()`` over the ``error_bound`` of every result.  An
assessment calls it once per scenario, on the stack of every position
agent's modes.  It also
requires that nothing in ``sos``, ``sdp``, ``treering`` or ``mc`` runs on
that workload.  These tests wrap the same names the same way on small
crossing scenarios, so a change that breaks the contract fails here
first.  A control-form assessment must still reach the propagation, once
per scenario for all its control agents, and must evaluate its moment
tables as one stack, without the per-step frame and polygon helpers.
sos-d2 is Cantelli's closed form and reaches neither
``sos`` nor ``sdp``; sos-d4 must still reach ``sdp.solve_dense_sdp``, the
function the benchmark requires on its bound-sweep workload, once per
(step, mode) row of the scenario's position stack.  An
assessment composes trajectory risk on arrays and builds no per-step
``MarginalRisk`` or ``TrajectoryRisk``.

The tracer finds what it rebinds with ``getattr`` (``RiskReport.to_json``
through ``vars``), so every name it traces must still resolve.  On the
planner path, from the scenario file to the JSON report, loading and
assessing position agents stays on arrays: no ``Gaussian2D``,
``Gaussian2DMixture`` or ``ReportRow`` is built.
"""

import importlib
import importlib.util
import inspect
import os
import pkgutil

import numpy as np
import pytest

import trajrisk
from trajrisk import distributions, engine, qfmvg
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.engine import marginal_risk
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import ReportRow, RiskReport, run_assess, scenario_from_dict
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

METHODS = ["imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace"]
FORBIDDEN = ("sos", "sdp", "treering", "mc")


def _modules():
    return [trajrisk] + [
        importlib.import_module(f"trajrisk.{m.name}")
        for m in pkgutil.iter_modules(trajrisk.__path__)
    ]


def _rebind(monkeypatch, fn, wrapper):
    """Replace `fn` under every name a trajrisk module holds it by."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, attr, wrapper)


@pytest.fixture
def calls(monkeypatch):
    """Record imhof_cdf results and every call into the forbidden modules."""
    log = {"imhof": [], "forbidden": []}
    imhof = qfmvg.imhof_cdf

    def imhof_wrapper(*args, **kwargs):
        res = imhof(*args, **kwargs)
        log["imhof"].append(res)
        return res

    _rebind(monkeypatch, imhof, imhof_wrapper)
    for name in FORBIDDEN:
        mod = importlib.import_module(f"trajrisk.{name}")
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                def wrapper(*args, _name=f"{name}.{attr}", _fn=fn, **kwargs):
                    log["forbidden"].append(_name)
                    return _fn(*args, **kwargs)

                _rebind(monkeypatch, fn, wrapper)
    return log


@pytest.mark.parametrize("seed", range(6))
def test_imhof_runs_once_per_agent_even_when_every_mode_is_gated(calls, seed):
    # one agent: its one call is the scenario's
    sc = scenario_from_dict(crossing_position_scenario(seed=seed, n_steps=4))
    run_assess(sc, METHODS)
    assert len(calls["imhof"]) == 1
    branches = [b for res in calls["imhof"] for b in res.branches]
    assert len(branches) == 12
    assert set(branches) <= {"exact", "gate-low"}
    for res in calls["imhof"]:
        assert res.error_bound is None or type(res.error_bound) is float
    assert calls["forbidden"] == []


def test_imhof_runs_for_each_of_several_agents(calls):
    # one call covers every agent's rows
    doc = crossing_position_scenario(seed=3, n_steps=4)
    for seed in (4, 5):
        doc["agents"].append(crossing_position_scenario(seed=seed, n_steps=4)["agents"][0])
    sc = scenario_from_dict(doc)
    run_assess(sc, METHODS)
    assert len(calls["imhof"]) == 1
    assert len(calls["imhof"][0].branches) == len(sc.position_stack.step)
    assert max(res.error_bound for res in calls["imhof"]) >= 0.0
    assert calls["forbidden"] == []


def test_the_wrappers_see_forbidden_calls(calls):
    # The guard itself: a control-form agent does reach treering.
    sc = scenario_from_dict(crossing_control_scenario(seed=1, n_steps=3))
    run_assess(sc, ["chebyshev-halfspace"])
    assert "treering.dubins_position_tables" in calls["forbidden"]


PER_STEP = (
    ("frames", "rotate_form"),
    ("frames", "to_ego_frame"),
    ("chebyshev", "ellipse_to_halfspaces"),
)


def test_control_tables_are_evaluated_as_a_stack(monkeypatch):
    log = []
    for mod_name, attr in PER_STEP + (("treering", "dubins_position_tables"),):
        fn = getattr(importlib.import_module(f"trajrisk.{mod_name}"), attr)

        def wrapper(*args, _name=f"{mod_name}.{attr}", _fn=fn, **kwargs):
            log.append(_name)
            return _fn(*args, **kwargs)

        _rebind(monkeypatch, fn, wrapper)
    sc = scenario_from_dict(crossing_control_scenario(seed=2, n_steps=4))
    run_assess(sc, ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"])
    # one propagation, at order 4, and none of the per-step helpers
    assert log == ["treering.dubins_position_tables"]


def test_control_agents_of_a_scenario_propagate_in_one_call(monkeypatch):
    # the benchmark's control-bounds workload requires treering.propagate
    from trajrisk import treering

    log = []
    propagate = treering.propagate

    def counting(*args, **kwargs):
        log.append(args[1].shape)
        return propagate(*args, **kwargs)

    _rebind(monkeypatch, propagate, counting)
    doc = crossing_control_scenario(seed=2, n_steps=4)
    for seed in (3, 4, 5):
        doc["agents"].append(crossing_control_scenario(seed=seed, n_steps=4)["agents"][0])
    sc = scenario_from_dict(doc)
    for _ in range(2):
        run_assess(sc, ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"])
    n_tracked = len(treering._cached_dynamics(4).plan.tracked)
    assert log == [(4, n_tracked)] * 2


def test_sos_d2_on_control_tables_solves_no_program(calls):
    # sos-d2 is Cantelli's closed form, computed as chebyshev-quad
    sc = scenario_from_dict(crossing_control_scenario(seed=2, n_steps=4))
    run_assess(sc, ["chebyshev-quad", "sos-d2"])
    assert "treering.dubins_position_tables" in calls["forbidden"]
    assert "sos.sos_risk_bound" not in calls["forbidden"]
    assert "sdp.solve_dense_sdp" not in calls["forbidden"]


def test_higher_sos_degrees_still_reach_the_solver(calls):
    # the benchmark's bound-sweep requires sdp.solve_dense_sdp to be called
    mix = Gaussian2DMixture([Gaussian2D([2.0, 0.5], [[0.4, 0.1], [0.1, 0.3]])], [1.0])
    args = (mix, EgoPose(0.0, 0.0, 0.0), Ellipsoid(np.eye(2) / 4.0))
    marginal_risk(*args, "sos-d2")
    assert calls["forbidden"] == []
    marginal_risk(*args, "sos-d4")
    assert "sos.sos_risk_bound" in calls["forbidden"]
    assert "sdp.solve_dense_sdp" in calls["forbidden"]


def test_sos_d4_on_a_position_agent_solves_one_program_per_row(calls):
    # a position agent's mode stack serves every analytic method: sos-d4
    # reads the modes' moment tables and solves one program per (step, mode)
    sc = scenario_from_dict(crossing_position_scenario(seed=3, n_steps=4))
    run_assess(sc, ["sos-d4"])
    assert calls["forbidden"].count("sos.sos_risk_bound") == len(sc.position_stack.step) == 12
    assert "sdp.solve_dense_sdp" in calls["forbidden"]


@pytest.mark.parametrize("form", ["position", "persistent", "control"])
def test_assessment_builds_no_marginal_or_trajectory_objects(monkeypatch, form):
    built = []
    for cls in (engine.MarginalRisk, engine.TrajectoryRisk):
        def counting(self, _check=cls.__post_init__):
            built.append(type(self).__name__)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    if form == "control":
        sc = scenario_from_dict(crossing_control_scenario(seed=2, n_steps=4))
        methods = ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"]
    else:
        doc = crossing_position_scenario(seed=3, n_steps=4)
        doc["agents"][0]["mode_persistence"] = form == "persistent"
        sc = scenario_from_dict(doc)
        methods = METHODS + ["sos-d2", "sos-d4"]
    report = run_assess(sc, methods)
    assert len(report.totals) == len(methods) * len(sc.agents)
    assert built == []
    # the public single-step entry point still returns a checked object
    mix = Gaussian2DMixture([Gaussian2D([2.0, 0.5], [[0.4, 0.1], [0.1, 0.3]])], [1.0])
    marginal = marginal_risk(mix, EgoPose(0.0, 0.0, 0.0), Ellipsoid(np.eye(2) / 4.0), "imhof")
    assert isinstance(marginal, engine.MarginalRisk)
    assert built == ["MarginalRisk"]


def _tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    assert "to_json" in vars(RiskReport)
    for mod_name, fn_name in _tracing().TRACED:
        if fn_name == "to_json":
            continue
        assert callable(getattr(importlib.import_module(f"trajrisk.{mod_name}"), fn_name))


def _planner_doc():
    doc = crossing_position_scenario(seed=3, n_steps=4)
    doc["agents"].append(crossing_position_scenario(seed=4, n_steps=4)["agents"][0])
    doc["agents"][1]["mode_persistence"] = True
    return doc


def test_planner_path_builds_no_mode_or_row_objects(monkeypatch):
    built = []
    kinds = (Gaussian2D, Gaussian2DMixture, ReportRow)
    for cls in kinds:
        def counting(self, _check=cls.__post_init__):
            built.append(type(self).__name__)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    unchecked = distributions._unchecked

    def counting_unchecked(cls, **fields):
        if cls in kinds:
            built.append(cls.__name__)
        return unchecked(cls, **fields)

    _rebind(monkeypatch, unchecked, counting_unchecked)
    sc = scenario_from_dict(_planner_doc())
    report = run_assess(sc, METHODS)
    report.to_json()
    assert built == []
    # the counters see the objects built on first read
    assert len(report.rows) == len(METHODS) * 2 * 4 and "ReportRow" in built
    assert len(sc.agents[0].steps) == 4 and "Gaussian2DMixture" in built


def test_planner_path_reaches_no_forbidden_module(calls):
    report = run_assess(scenario_from_dict(_planner_doc()), METHODS)
    report.to_json()
    assert calls["forbidden"] == []
