"""Tests for scenario files, validation paths, and the assessment drivers."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from trajrisk.distributions import Gaussian2D
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import (
    ControlAgent,
    PositionAgent,
    ReportRow,
    Scenario,
    load_scenario,
    run_assess,
    run_oracle,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from trajrisk.synthetic import (
    crossing_control_scenario,
    crossing_position_scenario,
)


def _pose(x, y, theta=0.0):
    return {"x": x, "y": y, "theta": theta}


def _mode(mean, cov=None, weight=1.0):
    return {"weight": weight, "mean": mean, "cov": cov or [[0.25, 0.0], [0.0, 0.25]]}


def _position_dict(n_steps=2, n_modes=1):
    weights = [1.0 / n_modes] * n_modes
    steps = [
        {
            "modes": [
                _mode([2.0 + t, 0.5 * k], weight=w)
                for k, w in enumerate(weights)
            ]
        }
        for t in range(n_steps)
    ]
    return {
        "ego_trajectory": [_pose(0.1 * t, 0.0) for t in range(n_steps)],
        "ellipsoid": {"q": [[0.25, 0.0], [0.0, 1.0]]},
        "agents": [
            {"form": "gmm_position", "mode_persistence": False, "steps": steps}
        ],
    }


def _control_dict(n_steps=3):
    step = {
        "w_v_modes": [
            {"weight": 0.5, "mean": 0.0, "var": 0.0001},
            {"weight": 0.5, "mean": -0.01, "var": 0.0001},
        ],
        "w_theta_modes": [{"weight": 1.0, "mean": 0.0, "var": 0.000025}],
    }
    return {
        "ego_trajectory": [_pose(0.0, 0.2 * t, math.pi / 2) for t in range(n_steps)],
        "ellipsoid": {"q": [[0.25, 0.0], [0.0, 1.0]]},
        "agents": [
            {
                "form": "gmm_control",
                "initial_state": {"x": 4.0, "y": 0.5, "v": 1.0, "theta": math.pi},
                "steps": [step] * n_steps,
            }
        ],
    }


# ---------------------------------------------------------------------------
# serialization


def test_position_round_trip_exact():
    d = _position_dict(n_steps=2, n_modes=2)
    sc = scenario_from_dict(d)
    assert scenario_to_dict(sc) == d
    assert sc.horizon == 2
    assert isinstance(sc.agents[0], PositionAgent)


def test_control_round_trip_exact():
    d = _control_dict()
    sc = scenario_from_dict(d)
    assert scenario_to_dict(sc) == d
    assert isinstance(sc.agents[0], ControlAgent)
    assert sc.agents[0].initial_state == (4.0, 0.5, 1.0, math.pi)


def test_generator_dicts_round_trip_stably():
    # First pass may normalize (drop unknown keys, renormalize weights);
    # after that, serialization must be a fixed point.
    for d in (crossing_position_scenario(seed=3), crossing_control_scenario(seed=3)):
        once = scenario_to_dict(scenario_from_dict(d))
        twice = scenario_to_dict(scenario_from_dict(once))
        assert once == twice


def test_file_round_trip(tmp_path):
    d = _position_dict()
    path = str(tmp_path / "scenario.json")
    write_scenario(scenario_from_dict(d), path)
    assert scenario_to_dict(load_scenario(path)) == d


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ego_trajectory": [\n  {]\n}', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"broken\.json:2"):
        load_scenario(str(path))


def test_load_prefixes_validation_with_path(tmp_path):
    d = _position_dict()
    d["agents"][0]["steps"][0]["modes"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.json: agents\[0\]"):
        load_scenario(str(path))


# ---------------------------------------------------------------------------
# validation messages name the offending path


def test_weight_sum_message_names_step():
    d = _position_dict(n_steps=4)
    d["agents"][0]["steps"][3]["modes"] = [
        _mode([1.0, 0.0], weight=0.7),
        _mode([2.0, 0.0], weight=0.7),
    ]
    with pytest.raises(
        ValidationError,
        match=r"agents\[0\]\.steps\[3\]\.modes: mode weights sum to 1\.4",
    ):
        scenario_from_dict(d)


def test_negative_weight_rejected():
    d = _position_dict()
    d["agents"][0]["steps"][0]["modes"][0]["weight"] = -1.0
    d["agents"][0]["steps"][0]["modes"].append(_mode([0.0, 0.0], weight=2.0))
    with pytest.raises(ValidationError, match="negative mode weight"):
        scenario_from_dict(d)


def test_non_finite_position_weight_names_step():
    d = _position_dict(n_steps=2, n_modes=2)
    d["agents"][0]["steps"][1]["modes"][0]["weight"] = math.nan
    with pytest.raises(
        ValidationError,
        match=r"agents\[0\]\.steps\[1\]\.modes: non-finite mode weight",
    ):
        scenario_from_dict(d)


@pytest.mark.parametrize("key", ["w_v_modes", "w_theta_modes"])
def test_non_finite_control_weight_names_step(key):
    d = _control_dict()
    step = json.loads(json.dumps(d["agents"][0]["steps"][2]))  # steps share one dict
    step[key][0]["weight"] = math.nan
    d["agents"][0]["steps"][2] = step
    with pytest.raises(
        ValidationError,
        match=rf"^agents\[0\]\.steps\[2\]\.{key}: non-finite mode weight",
    ):
        scenario_from_dict(d)


def test_bad_covariance_names_mode():
    d = _position_dict(n_modes=2)
    d["agents"][0]["steps"][0]["modes"][1]["cov"] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(
        ValidationError,
        match=r"agents\[0\]\.steps\[0\]\.modes\[1\]: covariance is not positive semi",
    ):
        scenario_from_dict(d)


@pytest.mark.parametrize(
    "mean,cov",
    [
        ([2.0, 0.5, 1.0], None),                      # mean of the wrong shape
        ([2.0, 0.5], [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0]]),  # cov of the wrong shape
        ([math.nan, 0.5], None),                      # non-finite mean
        ([2.0, 0.5], [[math.inf, 0.0], [0.0, 0.25]]),  # non-finite cov
        ([2.0, 0.5], [[0.25, 0.1], [0.0, 0.25]]),      # asymmetric cov
        ([2.0, 0.5], [[0.25, 0.5], [0.5, 0.25]]),      # cov not PSD
    ],
)
def test_bad_mode_deep_in_the_stack_names_its_path(mean, cov):
    d = _position_dict(n_steps=5, n_modes=3)
    d["agents"][0]["steps"][3]["modes"][2].update(_mode(mean, cov, weight=1.0 / 3))
    with pytest.raises(ValidationError) as alone:
        Gaussian2D(mean, cov or _mode(mean)["cov"])
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert str(err.value) == f"agents[0].steps[3].modes[2]: {alone.value}"


def test_first_bad_mode_is_reported():
    d = _position_dict(n_steps=5, n_modes=3)
    d["agents"][0]["steps"][4]["modes"][0]["cov"] = [[1.0, 2.0], [2.0, 1.0]]
    d["agents"][0]["steps"][1]["modes"][2]["mean"] = [math.inf, 0.0]
    with pytest.raises(
        ValidationError, match=r"^agents\[0\]\.steps\[1\]\.modes\[2\]: mean has non-finite"
    ):
        scenario_from_dict(d)


def test_horizon_mismatch_message():
    d = _position_dict(n_steps=3)
    d["ego_trajectory"] = d["ego_trajectory"][:2]
    with pytest.raises(
        ValidationError,
        match=r"agents\[0\]: horizon 3 does not match ego trajectory length 2",
    ):
        scenario_from_dict(d)


def test_unknown_form_rejected():
    d = _position_dict()
    d["agents"][0]["form"] = "spline"
    with pytest.raises(ValidationError, match=r"agents\[0\]: unknown form 'spline'"):
        scenario_from_dict(d)


def test_missing_key_messages():
    d = _position_dict()
    del d["agents"][0]["steps"][1]["modes"][0]["cov"]
    with pytest.raises(
        ValidationError,
        match=r"agents\[0\]\.steps\[1\]\.modes\[0\]: missing required key 'cov'",
    ):
        scenario_from_dict(d)
    d = _position_dict()
    del d["ego_trajectory"][1]["theta"]
    with pytest.raises(
        ValidationError, match=r"ego_trajectory\[1\]: missing required key 'theta'"
    ):
        scenario_from_dict(d)


def test_bad_ellipsoid_prefixed():
    d = _position_dict()
    d["ellipsoid"]["q"] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValidationError, match=r"ellipsoid\.q: Q must be positive"):
        scenario_from_dict(d)


def test_empty_trajectory_rejected():
    d = _position_dict()
    d["ego_trajectory"] = []
    with pytest.raises(ValidationError, match="at least one pose"):
        scenario_from_dict(d)


@pytest.mark.parametrize(
    "field,path",
    [
        ("mean", r"^agents\[0\]\.steps\[1\]\.modes\[0\]\.mean: expected numbers"),
        ("cov", r"^agents\[0\]\.steps\[1\]\.modes\[0\]\.cov: expected numbers"),
        ("weight", r"^agents\[0\]\.steps\[1\]\.modes\[0\]\.weight: expected a number"),
    ],
)
def test_non_numeric_position_field_names_path(field, path):
    d = _position_dict(n_modes=2)
    mode = d["agents"][0]["steps"][1]["modes"][0]
    mode[field] = {"mean": ["abc", 1.0], "cov": [[0.2, 0.0], ["abc", 0.2]], "weight": "abc"}[field]
    with pytest.raises(ValidationError, match=path):
        scenario_from_dict(d)


@pytest.mark.parametrize(
    "edit,path",
    [
        (lambda d: d["ego_trajectory"][1].update(x="abc"), r"^ego_trajectory\[1\]\.x: expected a number"),
        (lambda d: d["ellipsoid"].update(q=[[1.0, "abc"], [0.0, 1.0]]), r"^ellipsoid\.q: expected numbers"),
    ],
)
def test_non_numeric_pose_and_form_name_path(edit, path):
    d = _position_dict()
    edit(d)
    with pytest.raises(ValidationError, match=path):
        scenario_from_dict(d)


@pytest.mark.parametrize("key", ["w_v_modes", "w_theta_modes"])
def test_non_numeric_control_var_names_path(key):
    d = _control_dict()
    step = json.loads(json.dumps(d["agents"][0]["steps"][2]))  # steps share one dict
    step[key][0]["var"] = "abc"
    d["agents"][0]["steps"][2] = step
    with pytest.raises(
        ValidationError,
        match=rf"^agents\[0\]\.steps\[2\]\.{key}\[0\]\.var: expected a number",
    ):
        scenario_from_dict(d)


@pytest.mark.parametrize("value", ["false", [0], 1, None, {}])
def test_mode_persistence_must_be_a_boolean(value):
    doc = crossing_position_scenario(seed=3, n_steps=4)
    doc["agents"][0]["mode_persistence"] = value
    with pytest.raises(
        ValidationError,
        match=rf"^agents\[0\]\.mode_persistence: expected a boolean, got {re.escape(repr(value))}$",
    ):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [True, False, "missing"])
def test_mode_persistence_accepts_booleans_and_defaults_to_false(value):
    doc = crossing_position_scenario(seed=3, n_steps=4)
    if value == "missing":
        del doc["agents"][0]["mode_persistence"]
    else:
        doc["agents"][0]["mode_persistence"] = value
    assert scenario_from_dict(doc).agents[0].mode_persistence is (value is True)


# (a variance of -inf is caught as negative first)
@pytest.mark.parametrize("field, value", [
    ("var", math.inf), ("var", math.nan),
    ("mean", math.inf), ("mean", -math.inf), ("mean", math.nan),
])
@pytest.mark.parametrize("key", ["w_v_modes", "w_theta_modes"])
def test_non_finite_control_mode_names_path(key, field, value):
    d = _control_dict()
    step = json.loads(json.dumps(d["agents"][0]["steps"][2]))  # steps share one dict
    step[key][0][field] = value
    d["agents"][0]["steps"][2] = step
    with pytest.raises(
        ValidationError,
        match=rf"^agents\[0\]\.steps\[2\]\.{key}\[0\]: component mean/variance must be finite$",
    ):
        scenario_from_dict(d)


def test_agents_must_be_a_list():
    d = _position_dict()
    d["agents"] = {"a": d["agents"][0]}
    with pytest.raises(ValidationError, match=r"^scenario\.agents: expected a list, got dict"):
        scenario_from_dict(d)


def test_empty_agent_list_rejected():
    d = _position_dict()
    d["agents"] = []
    with pytest.raises(ValidationError, match=r"^scenario\.agents: empty agent list"):
        scenario_from_dict(d)


def test_hand_built_scenario_without_agents_rejected():
    # unchecked, run_assess raised a bare ValueError on it for imhof and mc
    ell = Ellipsoid(np.eye(2))
    for poses in ((EgoPose(0.0, 0.0, 0.0),), ()):  # the agents are reported first
        with pytest.raises(ValidationError, match=r"^scenario\.agents: empty agent list"):
            Scenario(poses, ell, ())


@pytest.mark.parametrize("state", [
    (0.0, 0.0, math.nan, 0.0), (math.inf, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5),
    (0.0, 0.0, 0.5, "0"), None,
], ids=["nan-v", "inf-x", "three-fields", "text", "none"])
def test_control_agent_needs_four_finite_state_fields(state):
    # unchecked, mc scored a NaN speed or an infinite x as zero risk at
    # every step, and a three-field state raised a bare ValueError
    steps = scenario_from_dict(_control_dict()).agents[0].steps
    with pytest.raises(ValidationError, match="initial state must be four finite numbers"):
        ControlAgent(state, steps)


def test_overflowing_ego_frame_form_rejected_at_load():
    d = _position_dict(n_steps=3, n_modes=2)
    d["agents"][0]["steps"][1]["modes"][1]["mean"] = [1e300, 0.0]
    with pytest.raises(
        ValidationError,
        match=r"^agents\[0\]\.steps\[1\]\.modes\[1\]: ego-frame form overflows",
    ):
        scenario_from_dict(d)
    # The limit is on E[x'Qx] in the body frame, not on coordinates alone.
    d["agents"][0]["steps"][1]["modes"][1]["mean"] = [1e20, 0.0]
    scenario_from_dict(d)
    d["ellipsoid"]["q"] = [[1e20, 0.0], [0.0, 1.0]]
    with pytest.raises(ValidationError, match="ego-frame form overflows"):
        scenario_from_dict(d)


def _reweight(step):
    for mode, w in zip(step["modes"], (0.5, 0.3, 0.2)):
        mode["weight"] = w


def _drop_mode(step):
    step["modes"] = [dict(m, weight=0.5) for m in step["modes"][:2]]


@pytest.mark.parametrize("edit_step", [_reweight, _drop_mode])
def test_persistent_agent_with_changing_modes_rejected_at_load(monkeypatch, edit_step):
    from trajrisk import scenario

    doc = crossing_position_scenario(seed=3, n_steps=4)
    edit_step(doc["agents"][0]["steps"][2])
    free = scenario_from_dict(doc)
    doc["agents"][0]["mode_persistence"] = True
    message = (r"^agents\[0\]\.steps\[2\]: mode persistence needs identical "
               r"mode weights at every step$")
    # mc used to sample such an agent with its step-0 weights
    sampled = []
    monkeypatch.setattr(scenario, "mc_position_risk", lambda *a, **k: sampled.append(a))
    with pytest.raises(ValidationError, match=message):
        run_assess(scenario_from_dict(doc), ["mc"])
    with pytest.raises(ValidationError, match=message):
        scenario.Scenario(free.ego_trajectory, free.ellipsoid,
                          (PositionAgent(free.agents[0].steps, mode_persistence=True),))
    assert sampled == []


def test_control_field_validation():
    d = _control_dict()
    d["agents"][0]["steps"][0]["w_v_modes"][0]["var"] = -0.1
    with pytest.raises(ValidationError, match="negative variance"):
        scenario_from_dict(d)
    d = _control_dict()
    d["agents"][0]["initial_state"]["v"] = "fast"
    with pytest.raises(
        ValidationError, match=r"agents\[0\]\.initial_state: fields must be numbers"
    ):
        scenario_from_dict(d)
    d = _control_dict()
    d["agents"][0]["initial_state"]["x"] = math.inf
    with pytest.raises(ValidationError, match="must be finite"):
        scenario_from_dict(d)


# ---------------------------------------------------------------------------
# run_assess plumbing


def test_row_and_total_counts():
    sc = scenario_from_dict(crossing_position_scenario(seed=2, n_steps=6))
    methods = ["ltz", "chebyshev-quad", "chebyshev-halfspace"]
    rep = run_assess(sc, methods)
    assert rep.methods == tuple(methods)
    assert len(rep.rows) == len(methods) * len(sc.agents) * sc.horizon
    assert len(rep.totals) == len(methods) * len(sc.agents)
    assert [r.t for r in rep.rows[: sc.horizon]] == list(range(1, sc.horizon + 1))
    assert all(r.t == "total" for r in rep.totals)
    assert set(rep.union_bound) == set(methods)


def test_total_is_product_composition_of_rows():
    sc = scenario_from_dict(crossing_position_scenario(seed=11, n_steps=30))
    rep = run_assess(sc, ["imhof"], tol=1e-10)
    survival = 1.0
    for r in rep.rows:
        survival *= 1.0 - r.value
    assert rep.totals[0].value == pytest.approx(1.0 - survival, abs=1e-14)
    assert rep.union_bound["imhof"] == pytest.approx(rep.totals[0].value, abs=0.0)


def test_union_bound_sums_and_clamps():
    d = _position_dict(n_steps=1)
    # Two agents parked on top of the ego vehicle: certain collision each.
    agent = {
        "form": "gmm_position",
        "mode_persistence": False,
        "steps": [{"modes": [_mode([0.0, 0.0], [[1e-6, 0.0], [0.0, 1e-6]])]}],
    }
    d["ego_trajectory"] = [_pose(0.0, 0.0)]
    d["agents"] = [agent, agent]
    rep = run_assess(scenario_from_dict(d), ["imhof"])
    assert rep.union_bound["imhof"] == 1.0
    assert all(t.value > 0.99 for t in rep.totals)


def test_regression_pin_near_miss_scenario():
    # Frozen from a run cross-checked against Monte Carlo; guards the whole
    # generator -> parser -> engine -> report pipeline.
    sc = scenario_from_dict(crossing_position_scenario(seed=11, n_steps=30))
    rep = run_assess(sc, ["imhof", "chebyshev-quad"], tol=1e-10)
    assert rep.union_bound["imhof"] == pytest.approx(6.9310239655e-5, abs=1e-9)
    assert rep.union_bound["chebyshev-quad"] >= rep.union_bound["imhof"]
    exact = {(r.agent, r.t): r.value for r in rep.rows if r.method == "imhof"}
    for r in rep.rows:
        if r.method == "chebyshev-quad":
            assert r.value >= exact[(r.agent, r.t)] - 1e-9
            assert r.is_upper_bound


def test_control_agent_bound_methods():
    sc = scenario_from_dict(_control_dict(n_steps=3))
    rep = run_assess(sc, ["chebyshev-quad", "chebyshev-halfspace", "sos-d2"])
    assert len(rep.rows) == 9
    for r in rep.rows:
        assert r.is_upper_bound
        assert 0.0 <= r.value <= 1.0


def test_control_tables_propagate_once_per_agent(monkeypatch):
    # every control agent in one propagation per scenario, at the highest
    # order requested; chebyshev-halfspace reads the order-2 block of the
    # order-4 tables and must match its own order-2 run
    from trajrisk import scenario

    doc = crossing_control_scenario(seed=5, n_steps=4)
    doc["agents"].append(crossing_control_scenario(seed=6, n_steps=4)["agents"][0])
    sc = scenario_from_dict(doc)
    calls = []
    original = scenario.dubins_position_tables

    def counting(initial_state, w_v_steps, w_theta_steps, order=2):
        calls.append(([tuple(s) for s in initial_state], order))
        return original(initial_state, w_v_steps, w_theta_steps, order=order)

    monkeypatch.setattr(scenario, "dubins_position_tables", counting)
    methods = ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"]
    combined = run_assess(sc, methods)
    assert calls == [([a.initial_state for a in sc.agents], 4)]

    def fields(rows):
        return [(r.agent, r.t, r.method, r.value, r.is_upper_bound) for r in rows]

    for method in methods:
        alone = run_assess(sc, [method])
        assert fields(r for r in combined.rows if r.method == method) == fields(alone.rows)
        assert fields(r for r in combined.totals if r.method == method) == fields(alone.totals)
        assert combined.union_bound[method] == alone.union_bound[method]


def test_order_two_block_of_order_four_tables_is_the_order_two_propagation():
    # run_assess hands uncut order-4 tables to every bound method, so the
    # order-2 reader (chebyshev-halfspace) must see the order-2 propagation
    from trajrisk.engine import table_risks
    from trajrisk.treering import dubins_position_tables

    idx = np.arange(3)
    inside = np.add.outer(idx, idx) <= 2
    for seed in range(50):
        for n_modes in (2, 3):
            sc = scenario_from_dict(crossing_control_scenario(seed=seed, n_modes=n_modes))
            agent = sc.agents[0]
            args = (agent.initial_state, *zip(*agent.steps))
            order4 = dubins_position_tables(*args, order=4)
            order2 = dubins_position_tables(*args, order=2)
            block = np.where(inside, order4[:, :3, :3], 0.0)
            assert np.array_equal(block, order2), (seed, n_modes)
            step = np.arange(sc.horizon)
            xy = np.array([[p.x, p.y] for p in sc.ego_trajectory])
            thetas = np.array([p.theta for p in sc.ego_trajectory])
            rows = [
                table_risks(tables[1:], step, xy, thetas, sc.ellipsoid.q, "chebyshev-halfspace")
                for tables in (order4, order2)
            ]
            assert np.array_equal(*rows), (seed, n_modes)


@pytest.mark.parametrize("method", ["imhof", "ltz", "chebyshev-quad",
                                    "chebyshev-halfspace", "sos-d2", "sos-d4"])
def test_step_mixture_above_one_by_roundoff_is_clipped(method):
    # every mode is a point mass at the ego position, so each has risk 1;
    # these weights pass the loader but their bincount sum is 1 + 2**-52
    weights = [0.3386942403357683, 0.174346806858947, 0.48695895280528484]
    assert np.bincount([0, 0, 0], weights, 1)[0] > 1.0
    doc = _position_dict(n_steps=2)
    for pose, step in zip(doc["ego_trajectory"], doc["agents"][0]["steps"]):
        step["modes"] = [
            _mode([pose["x"], pose["y"]], [[0.0, 0.0], [0.0, 0.0]], w) for w in weights
        ]
    report = run_assess(scenario_from_dict(doc), [method])
    assert [r.value for r in report.rows + report.totals] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("n_modes", [0, 1, 4, 2.5])
def test_crossing_control_scenario_rejects_unsupported_mode_counts(n_modes):
    with pytest.raises(ValueError, match=r"n_modes must be 2 or 3"):
        crossing_control_scenario(seed=0, n_modes=n_modes)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["initial_state"].update(v=1e200),
        lambda doc: doc["initial_state"].update(v=1e80),
        lambda doc: doc["steps"][0]["w_v_modes"][0].update(var=1e300),
    ],
)
def test_overflowing_control_agent_names_its_path(edit):
    doc = _control_dict()
    doc["agents"].insert(0, _position_dict(n_steps=3)["agents"][0])
    doc["agents"][1]["steps"] = [dict(step, w_v_modes=[dict(m) for m in step["w_v_modes"]])
                                 for step in doc["agents"][1]["steps"]]
    edit(doc["agents"][1])
    sc = scenario_from_dict(doc)
    # v0 = 1e80 and Var w_v = 1e300 overflow only speed moments of degree
    # 4 and up: chebyshev-halfspace reads order-2 moments, which stay finite
    failing = ["chebyshev-quad"]
    if doc["agents"][1]["initial_state"]["v"] > 1e100:
        failing.append("chebyshev-halfspace")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("chebyshev-halfspace", "chebyshev-quad"):
            if method not in failing:
                rows = run_assess(sc, [method]).rows
                assert all(math.isfinite(r.value) for r in rows)
                continue
            with pytest.raises(ValidationError, match=(
                r"^agents\[1\]\.(initial_state|steps\[\d+\]): propagated moment E\[.*\] = "
            )):
                run_assess(sc, [method])


def test_control_agent_rejects_density_methods():
    sc = scenario_from_dict(_control_dict())
    with pytest.raises(ValidationError, match="control-form"):
        run_assess(sc, ["imhof"])
    with pytest.raises(ValidationError, match="order 8"):
        run_assess(sc, ["sos-d4"])


def test_mc_rows_carry_standard_errors():
    sc = scenario_from_dict(_control_dict(n_steps=3))
    rep = run_assess(sc, ["mc", "chebyshev-quad"], mc_samples=5000, seed=1)
    mc_rows = [r for r in rep.rows if r.method == "mc"]
    assert len(mc_rows) == 3
    assert all(r.std_error is not None for r in mc_rows)
    assert all(r.std_error is None for r in rep.rows if r.method != "mc")
    d = rep.to_dict()
    assert d["mc_samples"] == 5000 and d["seed"] == 1
    # every mc row and total carries its Wilson interval; no other row does
    for r in d["per_step"] + d["totals"]:
        if r["method"] == "mc":
            lo, hi = r["ci95"]
            assert lo <= r["value"] <= hi and hi > lo
        else:
            assert "ci95" not in r
    assert rep.to_csv().splitlines()[0] == "agent,t,method,value,is_upper_bound,std_error"


def test_mc_metadata_absent_without_mc():
    sc = scenario_from_dict(_position_dict())
    d = run_assess(sc, ["ltz"]).to_dict()
    assert "mc_samples" not in d and "seed" not in d


def test_mc_report_deterministic():
    # Agent mean sits on the footprint boundary, so the per-step hit rate
    # is near 0.5 and any seed change shows up in the counts.
    d = _position_dict(n_steps=2)
    d["agents"][0]["steps"] = [
        {"modes": [_mode([2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])]} for _ in range(2)
    ]
    sc = scenario_from_dict(d)
    a = run_assess(sc, ["mc"], mc_samples=20000, seed=7)
    b = run_assess(sc, ["mc"], mc_samples=20000, seed=7)
    c = run_assess(sc, ["mc"], mc_samples=20000, seed=8)
    assert a.to_csv() == b.to_csv()
    assert a.to_csv() != c.to_csv()


def test_method_list_sanitized():
    sc = scenario_from_dict(_position_dict())
    rep = run_assess(sc, ["ltz", "ltz"])
    assert rep.methods == ("ltz",)
    with pytest.raises(ValidationError, match="no methods requested"):
        run_assess(sc, [])
    with pytest.raises(ValidationError, match=r"unknown methods \['quadrature'\]"):
        run_assess(sc, ["quadrature"])


def test_run_oracle_is_mc_only():
    sc = scenario_from_dict(_position_dict())
    rep = run_oracle(sc, mc_samples=4000, seed=2)
    assert rep.methods == ("mc",)
    assert rep.mc_samples == 4000 and rep.seed == 2


# ---------------------------------------------------------------------------
# report output formats


def test_csv_shape_and_value_fidelity():
    sc = scenario_from_dict(crossing_position_scenario(seed=2, n_steps=4))
    rep = run_assess(sc, ["ltz", "mc"], mc_samples=3000)
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "agent,t,method,value,is_upper_bound,std_error"
    assert len(lines) == 1 + len(rep.rows) + len(rep.totals)
    # repr round-trip keeps every bit of the value column.
    for line, row in zip(lines[1:], rep.rows):
        assert float(line.split(",")[3]) == row.value


def test_json_report_structure():
    sc = scenario_from_dict(_position_dict())
    rep = run_assess(sc, ["chebyshev-quad"])
    d = json.loads(rep.to_json())
    assert d["horizon"] == 2
    assert d["methods"] == ["chebyshev-quad"]
    assert len(d["per_step"]) == 2 and len(d["totals"]) == 1
    assert d["per_step"][0]["is_upper_bound"] is True
    assert set(d["multi_agent_bound"]) == {"chebyshev-quad"}
    for v in d["timings_ms"].values():
        assert v == round(v, 3)


def test_report_write_formats(tmp_path):
    sc = scenario_from_dict(_position_dict())
    rep = run_assess(sc, ["ltz"])
    jpath, cpath = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
    rep.write(jpath, "json")
    rep.write(cpath, "csv")
    assert json.loads(open(jpath, encoding="utf-8").read()) == rep.to_dict()
    assert open(cpath, encoding="utf-8").read() == rep.to_csv()


def test_report_row_range_check():
    with pytest.raises(ValidationError, match="outside"):
        ReportRow(0, 1, "imhof", 1.2, False)


# ---------------------------------------------------------------------------
# synthetic generators stay inside the schema


@pytest.mark.parametrize("seed", range(5))
def test_generators_validate(seed):
    for maker in (crossing_position_scenario, crossing_control_scenario):
        d = maker(seed=seed, n_steps=8)
        sc = scenario_from_dict(d)
        assert sc.horizon == 8
        eigs = np.linalg.eigvalsh(sc.ellipsoid.q)
        assert eigs.min() > 0.0


def test_generator_rng_stream_reuse():
    rng = np.random.default_rng(9)
    a = crossing_position_scenario(rng=rng, n_steps=4)
    b = crossing_position_scenario(rng=rng, n_steps=4)
    assert a != b  # a shared stream advances
    assert crossing_position_scenario(seed=9, n_steps=4) == crossing_position_scenario(
        seed=9, n_steps=4
    )
