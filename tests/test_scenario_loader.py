"""The array loader against the per-mode loader it replaced.

`reference_scenario` holds the former `scenario_from_dict`, which walked
every mode on its own.  The array loader gathers an agent's modes in one
pass and checks them as arrays, so on every document the two must agree:
what the former loader rejects, the new one rejects with the same error;
what both accept gives bit-identical mode stacks, mixtures and poses (the
scenario's one position stack holds each agent's former stack in its
rows).  The intended differences are two.  A JSON string or boolean at a
numeric field, which the former loader converted, is now rejected, naming
its path.  A number beyond the float range, where the former loader let an
`OverflowError` escape (a JSON integer too large for a float, weights whose
sum overflows `fsum`) or rejected the mode only later as an overflowing
form (finite covariance entries whose symmetrized sum is inf), is rejected
where it stands, naming its path.
"""

import copy
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scenario as ref
from trajrisk.cli import main
from trajrisk.distributions import Gaussian2D
from trajrisk.errors import ValidationError
from trajrisk.scenario import (
    ControlAgent,
    PositionAgent,
    Scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario


def _mixed(seed: int) -> dict:
    doc = crossing_position_scenario(seed=seed, n_steps=3)
    doc["agents"][0]["mode_persistence"] = True
    doc["agents"].append(crossing_control_scenario(seed=seed, n_steps=3, n_modes=3)["agents"][0])
    return doc


BASES = [
    crossing_position_scenario(seed=3, n_steps=3),
    crossing_control_scenario(seed=4, n_steps=3),
    _mixed(5),
]

LEAVES = st.sampled_from([
    "1.5", "abc", "", True, False, None, math.nan, math.inf, -math.inf,
    -1.0, 0.0, 0.5, 2.0, 1e308, -1e308, 3, 10**400, np.float64(0.25), np.float32(0.5),
    [1.0], [], {}, [1.0, 2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]], [["1", 0.0], [0.0, 1.0]],
    [True, 0.0], {"weight": 1.0, "mean": 0.0, "var": 0.1}, "gmm_position", "gmm_control",
])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    """A synthetic document with one to three random edits."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths[1:]))
        parent, key = _get(doc, path[:-1]), path[-1]
        kind = draw(st.sampled_from(["leaf", "leaf", "delete", "duplicate", "copy", "scale",
                                     "retype", "retype", "huge"]))
        value = parent[key]
        if kind == "retype" and isinstance(value, float):
            # the same number, as another JSON or Python type
            parent[key] = draw(st.sampled_from(
                [repr(value), np.float64(value), value == 1.0, int(value) if value.is_integer() else value]
            ))
        elif kind == "delete":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif kind == "copy":
            parent[key] = copy.deepcopy(_get(doc, draw(st.sampled_from(paths))))
        elif kind == "scale" and isinstance(value, float):
            parent[key] *= draw(st.sampled_from([-1.0, 0.5, 1.0 + 1e-10, 1.0 + 1e-8, 1e300]))
        elif kind == "huge" and isinstance(value, list) and len(value) > 1 \
                and all(isinstance(m, dict) and "weight" in m for m in value):
            # weights whose fsum overflows
            for mode in value:
                mode["weight"] = 1e308
        elif kind == "huge" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = draw(st.sampled_from([10**400, -(10**400), 1e308, -1e308]))
        else:
            parent[key] = copy.deepcopy(draw(LEAVES))
    return doc


def _load(loader, doc):
    try:
        return loader(doc), None
    except Exception as e:  # the two loaders must fail alike, whatever the type
        return None, (type(e), str(e))


def _text_fields(doc):
    """Every value at a numeric field of a well-formed document."""
    for pose in doc["ego_trajectory"]:
        yield from (pose[k] for k in ("x", "y", "theta"))
    yield doc["ellipsoid"]["q"]
    for agent in doc["agents"]:
        if agent["form"] == "gmm_position":
            for step in agent["steps"]:
                for mode in step["modes"]:
                    yield from (mode[k] for k in ("weight", "mean", "cov"))
        else:
            yield from agent["initial_state"].values()
            for step in agent["steps"]:
                for key in ("w_v_modes", "w_theta_modes"):
                    for mode in step[key]:
                        yield from (mode[k] for k in ("weight", "mean", "var"))


def _holds_text(value) -> bool:
    if isinstance(value, (str, bool, np.bool_)):
        return True
    return isinstance(value, (list, tuple)) and any(map(_holds_text, value))


def _resolve(doc, path: str):
    for name, index in re.findall(r"(\w+)|\[(\d+)\]", path):
        doc = doc[name] if name else doc[int(index)]
    return doc


def _assert_same_scenario(got: Scenario, want: ref.Loaded) -> None:
    assert got.ego_trajectory == want.ego_trajectory
    assert np.array_equal(got.ellipsoid.q, want.ellipsoid.q)
    assert len(got.agents) == len(want.agents)
    for new, old in zip(got.agents, want.agents):
        if isinstance(old, ControlAgent):
            assert isinstance(new, ControlAgent)
            assert new.initial_state == old.initial_state and new.steps == old.steps
            continue
        assert isinstance(new, PositionAgent)
        assert new.mode_persistence is old.mode_persistence
        assert len(new.steps) == len(old.steps)
        for a, b in zip(new.steps, old.steps):
            assert a.weights == b.weights
            for p, q in zip(a.components, b.components, strict=True):
                assert np.array_equal(p.mean, q.mean) and np.array_equal(p.cov, q.cov)
    stack = got.position_stack
    if not want.mode_stacks:
        assert stack is None
        return
    assert np.unique(stack.agent).tolist() == list(want.mode_stacks)
    assert np.all(np.diff(stack.agent) >= 0)
    for i, old in want.mode_stacks.items():
        rows = stack.agent == i
        for name in ("means", "covs", "weights", "step"):
            assert np.array_equal(getattr(stack, name)[rows], getattr(old, name)), name
        for name in ("xy", "thetas", "q"):
            assert np.array_equal(getattr(stack, name), getattr(old, name)), name


_OVERFLOW = re.compile(
    r"(.+): (number too large for a float, got .+|mode weights sum to inf, expected 1"
    r"|covariance overflows when symmetrized)",
    re.S,
)


def _holds_huge_int(value) -> bool:
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) > sys.float_info.max
    return isinstance(value, (list, tuple)) and any(map(_holds_huge_int, value))


def _assert_overflow_at_its_path(doc, new_error, old_error) -> None:
    """The new loader names a number beyond the float range where the former
    one raised `OverflowError`, or rejected the mode later or elsewhere."""
    kind, message = new_error
    assert kind is ValidationError, message
    path, what = _OVERFLOW.fullmatch(message).groups()
    value = _resolve(doc, path)
    if what.startswith("number"):
        assert _holds_huge_int(value) and old_error[0] is OverflowError, message
    elif what.startswith("mode weights"):
        with pytest.raises(OverflowError):
            math.fsum(float(m["weight"]) for m in value)
        assert old_error[0] is OverflowError, message
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cov = np.asarray(value["cov"], dtype=float)
            assert not np.isfinite(cov + cov.T).all(), message


def _check_against_reference(doc) -> str:
    want, old_error = _load(ref.scenario_from_dict, doc)
    got, new_error = _load(scenario_from_dict, doc)
    if old_error is not None:
        if new_error != old_error:
            _assert_overflow_at_its_path(doc, new_error, old_error)
            return "overflow"
        return "rejected"
    texts = any(map(_holds_text, _text_fields(doc)))
    if new_error is None:
        assert not texts
        _assert_same_scenario(got, want)
        return "accepted"
    # newly rejected: only a string or boolean at a numeric field, by its path
    kind, message = new_error
    assert kind is ValidationError and texts, message
    path = re.fullmatch(r"(.+): expected a number, got .+", message, re.S).group(1)
    assert _holds_text(_resolve(doc, path)), message
    return "text"


@settings(max_examples=600, deadline=None, derandomize=True)
@given(mutated())
def test_array_loader_matches_the_per_mode_loader(doc):
    _check_against_reference(doc)


def test_unmutated_documents_load_identically():
    for doc in BASES + [crossing_position_scenario(seed=s) for s in range(5)]:
        assert _check_against_reference(doc) == "accepted"


@pytest.mark.parametrize("path,value,form", [
    ("agents[0].steps[1].modes[0].mean", ["1", "2"], "position"),
    ("agents[0].steps[1].modes[0].mean", [True, 0], "position"),
    ("agents[0].steps[1].modes[0].cov", [[0.2, "0"], [0.0, 0.2]], "position"),
    ("agents[0].steps[1].modes[0].weight", "0.3", "position"),
    ("ego_trajectory[2].x", True, "position"),
    ("ellipsoid.q", [[0.25, 0.0], [0.0, "1"]], "position"),
    ("agents[0].initial_state.v", "3", "control"),
    ("agents[0].steps[2].w_v_modes[1].var", "0.1", "control"),
    ("agents[0].steps[0].w_theta_modes[0].weight", "0.6", "control"),
    ("agents[0].steps[3].w_theta_modes[0].mean", False, "control"),
])
def test_text_at_a_numeric_field_is_rejected_by_its_path(path, value, form):
    make = crossing_position_scenario if form == "position" else crossing_control_scenario
    doc = make(seed=3, n_steps=4)
    parent_path, _, key = path.rpartition(".")
    _resolve(doc, parent_path)[key] = value
    ref.scenario_from_dict(copy.deepcopy(doc))  # the former loader took it as a number
    leaf = re.escape(path) + r"(\[\d+\])*"
    with pytest.raises(ValidationError, match=rf"^{leaf}: expected a number, got "):
        scenario_from_dict(doc)


def test_any_other_fault_is_reported_before_text():
    doc = crossing_position_scenario(seed=3, n_steps=4)
    doc["ego_trajectory"][0]["x"] = "1.5"
    doc["agents"][0]["steps"][2]["modes"][1]["weight"] = 0.9
    with pytest.raises(ValidationError, match=r"^agents\[0\]\.steps\[2\]\.modes: mode weights sum"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("number", [1, 0.5, np.float64(0.5)])
def test_ints_floats_and_numpy_floats_load(number):
    doc = crossing_position_scenario(seed=3, n_steps=4)
    doc["ego_trajectory"][1]["theta"] = number
    doc["agents"][0]["steps"][0]["modes"][0]["mean"] = [number, number]
    control = crossing_control_scenario(seed=3, n_steps=4)
    control["agents"][0]["initial_state"]["v"] = number
    for d in (doc, control):
        assert _check_against_reference(d) == "accepted"


def test_a_position_agent_built_from_mixtures_equals_the_loaded_one():
    sc = scenario_from_dict(crossing_position_scenario(seed=3, n_steps=4))
    agent = sc.agents[0]
    again = PositionAgent(agent.steps, mode_persistence=True)
    for name in ("weights", "means", "covs", "step"):
        assert np.array_equal(getattr(again, name), getattr(agent, name))
    assert again.mode_persistence is True and again.horizon == 4
    assert not again.means.flags.writeable and not again.covs.flags.writeable


@pytest.mark.parametrize("n_modes", [2, 3])
def test_a_control_agent_built_from_mixtures_equals_the_loaded_one(n_modes):
    # the crossing corpus: the former loader's mixtures through the
    # constructor, against the document through the array loader
    for seed in range(50):
        doc = crossing_control_scenario(seed=seed, n_modes=n_modes)
        raw = doc["agents"][0]
        steps = tuple(
            tuple(ref._scalar_mixture(step[key], key) for key in ("w_v_modes", "w_theta_modes"))
            for step in raw["steps"]
        )
        built = ControlAgent(tuple(raw["initial_state"][k] for k in ("x", "y", "v", "theta")),
                             steps)
        sc = scenario_from_dict(doc)
        loaded = sc.agents[0]
        for name in ("weights", "means", "variances", "mixture"):
            assert np.array_equal(getattr(built, name), getattr(loaded, name)), (seed, name)
            assert not getattr(built, name).flags.writeable
            assert not getattr(loaded, name).flags.writeable
        assert built.initial_state == loaded.initial_state and built.horizon == loaded.horizon
        assert built.steps == steps == loaded.steps
        want = scenario_to_dict(sc)
        assert scenario_to_dict(Scenario(sc.ego_trajectory, sc.ellipsoid, (built,))) == want
        assert scenario_to_dict(scenario_from_dict(want)) == want


def test_mixtures_are_built_on_first_use_and_round_trip():
    doc = _mixed(7)
    sc = scenario_from_dict(doc)
    position, control = sc.agents
    assert "steps" not in vars(position) and "steps" not in vars(control)
    assert scenario_to_dict(scenario_from_dict(scenario_to_dict(sc))) == scenario_to_dict(sc)
    # written from the mode and component arrays
    assert "steps" not in vars(position) and "steps" not in vars(control)
    assert position.steps is position.steps and control.steps is control.steps


def _overflow_docs():
    weights = crossing_position_scenario(seed=1, n_steps=3)
    for mode in weights["agents"][0]["steps"][1]["modes"][:2]:
        mode["weight"] = 1e308
    mean = crossing_position_scenario(seed=1, n_steps=3)
    mean["agents"][0]["steps"][2]["modes"][0]["mean"] = [10**400, 0.0]
    control = crossing_control_scenario(seed=1, n_steps=3)
    control["agents"][0]["initial_state"]["x"] = 10**400
    control_weights = crossing_control_scenario(seed=1, n_steps=3)
    for mode in control_weights["agents"][0]["steps"][2]["w_theta_modes"]:
        mode["weight"] = 1e308
    return [
        (weights, r"agents\[0\]\.steps\[1\]\.modes: mode weights sum to inf, expected 1"),
        (mean, r"agents\[0\]\.steps\[2\]\.modes\[0\]\.mean: number too large for a float"),
        (control, r"agents\[0\]\.initial_state\.x: number too large for a float"),
        (control_weights,
         r"agents\[0\]\.steps\[2\]\.w_theta_modes: mode weights sum to inf, expected 1"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_overflowing_numbers_are_rejected_by_their_path(case, tmp_path, capsys):
    doc, message = _overflow_docs()[case]
    with pytest.raises(OverflowError):  # what used to escape the loader
        ref.scenario_from_dict(copy.deepcopy(doc))
    with pytest.raises(ValidationError, match=rf"^{message}"):
        scenario_from_dict(copy.deepcopy(doc))
    assert _check_against_reference(doc) == "overflow"
    # the command line reports it as an error, without a traceback
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["assess", "--scenario", str(path), "--methods", "chebyshev-quad"]) == 1
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err


def test_covariance_overflowing_when_symmetrized_is_rejected_by_its_path():
    doc = crossing_position_scenario(seed=1, n_steps=3)
    doc["agents"][0]["steps"][1]["modes"][0]["cov"] = [[1e308, 0.0], [0.0, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=(
            r"^agents\[0\]\.steps\[1\]\.modes\[0\]: covariance overflows when symmetrized$"
        )):
            scenario_from_dict(copy.deepcopy(doc))
    assert _check_against_reference(doc) == "overflow"


def test_gaussian_with_an_overflowing_covariance_is_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^covariance overflows when symmetrized$"):
            Gaussian2D([0.0, 0.0], [[1e308, 0.0], [0.0, 1e308]])
        # the largest entries whose symmetrized sum stays finite still pass
        big = sys.float_info.max / 2
        assert Gaussian2D([0.0, 0.0], [[big, 0.0], [0.0, big]]).cov[0, 0] == big
