"""One position stack per scenario against the per-agent route it replaced.

`run_assess` evaluates each analytic method once per scenario: the modes
of every position agent sit in one `ModeStack`, tagged by agent, the
tables of every control agent go through one `table_risks`, and
`compose_agents` folds all of them with offset `bincount` targets.  The
per-agent route ran each agent as a scenario of its own.  Each kernel is
row-wise and each Gauss-Kronrod integral adapts on its own, so every row,
total and union bound must be bit-identical to that route, imhof included.
Loading checks the whole stack at once, and with several faulty agents
still names the lowest one, as the former agent-by-agent loader did.
"""

import copy
import math

import numpy as np
import pytest

import reference_scenario as ref
from trajrisk.errors import ValidationError
from trajrisk.scenario import Scenario, run_assess, scenario_from_dict
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

POSITION = ["imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace", "sos-d2"]
CONTROL = ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"]


def _agents(make, seed: int, n_agents: int, **kw) -> dict:
    """A scenario of `n_agents`; the extra agents share agent 0's ego and footprint."""
    doc = make(seed=seed, **kw)
    for k in range(1, n_agents):
        doc["agents"].append(make(seed=1000 * seed + k, **kw)["agents"][0])
    return doc


def _position_exact(seed: int, n_agents: int, shift: int) -> dict:
    """The benchmark's position-exact shape: every other agent mode-persistent."""
    doc = _agents(crossing_position_scenario, seed, n_agents)
    for k, agent in enumerate(doc["agents"]):
        agent["mode_persistence"] = (k + shift) % 2 == 1
    return doc


def _mixed(seed: int) -> dict:
    """Position and control agents interleaved, one position agent persistent."""
    doc = crossing_position_scenario(seed=seed, n_steps=8)
    control = _agents(crossing_control_scenario, seed, 2, n_steps=8, n_modes=2 + seed % 2)
    doc["agents"] = [
        control["agents"][0],
        doc["agents"][0],
        control["agents"][1],
        dict(crossing_position_scenario(seed=seed + 50, n_steps=8)["agents"][0],
             mode_persistence=True),
    ]
    return doc


def _assert_matches_per_agent(doc: dict, methods) -> None:
    sc = scenario_from_dict(doc)
    report = run_assess(sc, methods)
    assert [(b.method, b.agent) for b in report.blocks] == [
        (m, i) for m in methods for i in range(len(sc.agents))
    ]
    alone = [
        run_assess(Scenario(sc.ego_trajectory, sc.ellipsoid, (agent,)), methods)
        for agent in sc.agents
    ]
    for block in report.blocks:
        (want,) = [b for b in alone[block.agent].blocks if b.method == block.method]
        assert block.values.tobytes() == want.values.tobytes(), (block.method, block.agent)
        assert block.is_upper_bound is want.is_upper_bound
    for method in methods:
        totals = [r.union_bound[method] for r in alone]
        assert report.union_bound[method] == min(1.0, math.fsum(totals))


@pytest.mark.parametrize("n_agents", [1, 2, 4, 8])
def test_position_exact_corpus_is_bit_identical_to_per_agent(n_agents):
    for seed in range(3):
        _assert_matches_per_agent(_position_exact(seed, n_agents, seed), POSITION)


def test_position_agents_all_persistent_or_none():
    for persistent in (False, True):
        doc = _agents(crossing_position_scenario, 7, 3)
        for agent in doc["agents"]:
            agent["mode_persistence"] = persistent
        _assert_matches_per_agent(doc, POSITION)


def test_higher_sos_degrees_are_bit_identical_to_per_agent():
    doc = _position_exact(4, 3, 0)
    for agent in doc["agents"]:
        agent["steps"] = agent["steps"][:3]
    doc["ego_trajectory"] = doc["ego_trajectory"][:3]
    _assert_matches_per_agent(doc, ["sos-d4", "sos-d6"])


@pytest.mark.parametrize("n_agents", [1, 2, 4])
def test_control_bounds_corpus_is_bit_identical_to_per_agent(n_agents):
    for seed in range(3):
        doc = _agents(crossing_control_scenario, seed, n_agents, n_modes=2 + seed % 2)
        _assert_matches_per_agent(doc, CONTROL)


@pytest.mark.parametrize("seed", range(4))
def test_mixed_scenarios_are_bit_identical_to_per_agent(seed):
    _assert_matches_per_agent(_mixed(seed), CONTROL)
    # a density method cannot read control agents, whichever agent comes first
    with pytest.raises(ValidationError, match="control-form"):
        run_assess(scenario_from_dict(_mixed(seed)), ["imhof"])


def _load_error(loader, doc):
    try:
        loader(copy.deepcopy(doc))
    except ValidationError as e:
        return str(e)
    return None


def _break_persistence(agent):
    agent["mode_persistence"] = True
    modes = agent["steps"][2]["modes"]
    modes[0]["weight"], modes[1]["weight"] = modes[1]["weight"], modes[0]["weight"]
    if modes[0]["weight"] == modes[1]["weight"]:
        modes[0]["weight"] += 0.05
        modes[1]["weight"] -= 0.05


def _overflow_form(agent):
    agent["steps"][1]["modes"][0]["mean"] = [1e300, 0.0]


def _short_horizon(agent):
    agent["steps"] = agent["steps"][:-1]


FAULTS = {"persistence": _break_persistence, "form": _overflow_form,
          "horizon": _short_horizon}


@pytest.mark.parametrize("faults", [
    {1: "persistence", 2: "form"},
    {2: "persistence", 1: "form"},
    {3: "horizon", 2: "form"},
    {0: "horizon", 1: "form"},
    {2: "horizon", 1: "persistence"},
    {3: "form"},
])
def test_the_lowest_faulty_agent_is_named(faults):
    doc = _agents(crossing_position_scenario, 5, 4, n_steps=4)
    for where, fault in faults.items():
        FAULTS[fault](doc["agents"][where])
    message = _load_error(scenario_from_dict, doc)
    assert message is not None and message.startswith(f"agents[{min(faults)}]")
    assert message == _load_error(ref.scenario_from_dict, doc)


def test_an_agent_with_a_form_and_a_persistence_fault_reports_the_form():
    doc = _agents(crossing_position_scenario, 5, 2, n_steps=4)
    _break_persistence(doc["agents"][1])
    _overflow_form(doc["agents"][1])
    message = _load_error(scenario_from_dict, doc)
    assert message.startswith("agents[1].steps[1].modes[0]: ego-frame form overflows")
    assert message == _load_error(ref.scenario_from_dict, doc)


def test_the_stack_holds_every_position_agent_in_order():
    doc = _mixed(1)
    sc = scenario_from_dict(doc)
    stack = sc.position_stack
    assert np.unique(stack.agent).tolist() == [1, 3]
    for i in (1, 3):
        rows = stack.agent == i
        agent = sc.agents[i]
        for name in ("means", "covs", "weights", "step"):
            assert np.array_equal(getattr(stack, name)[rows], getattr(agent, name))
    control_only = scenario_from_dict(crossing_control_scenario(seed=1, n_steps=3))
    assert control_only.position_stack is None
