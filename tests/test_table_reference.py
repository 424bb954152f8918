"""The stacked moment-table path against the per-step route it replaced.

`reference_tables` holds the old route unchanged: one `MomentState` and one
dict-backed `MomentTable` per step, and for every (step, mode) table a
translated copy, a rotated and validated form and one bound.  The stacked
path translates all rows in one product; chebyshev-quad and sos-dN read
the forms R^T Q R, and chebyshev-halfspace reads Q's tangent faces at each
step's heading against body-frame means and covariances.  The two agree
to rounding: 1e-12 absolute for chebyshev-halfspace and chebyshev-quad
rows and totals, 1e-8 (the SDP solver's tolerance) for sos-d4 and sos-d6.
sos-d2 is Cantelli's closed form, so its rows and totals are held to
the old chebyshev-quad route at 1e-12, and its rows to the old SDP route
at 1e-8; the SDP's totals are not, since its one-sided per-row excess
compounds over the horizon.  Ego headings are moved off the 2*pi/12 grid
of the tangent polygon, where the rotated faces and the faces at shifted
angles differ as sets.
"""

import json

import numpy as np
import pytest

import reference_tables as ref
from trajrisk.distributions import (
    MAX_MOMENT_ORDER,
    Gaussian2D,
    Gaussian2DMixture,
    gaussian2d_moment_stack,
    gaussian2d_raw_moments,
)
from trajrisk.engine import marginal_risk
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import run_assess, scenario_from_dict
from trajrisk.synthetic import (
    crossing_control_scenario,
    crossing_position_scenario,
    random_gaussian_instance,
)
from trajrisk.treering import dubins_position_tables

CHEB = ("chebyshev-halfspace", "chebyshev-quad")
EXACT = 1e-12
SOS = 1e-8


def _yawed(doc: dict, yaw: float) -> dict:
    for t, pose in enumerate(doc["ego_trajectory"]):
        pose["theta"] += yaw * (1.0 + 0.1 * t)
    return doc


def _assert_rows(sc, method: str, tol: float, ref_method=None, totals=True) -> None:
    report = run_assess(sc, [method])
    for i, agent in enumerate(sc.agents):
        want, want_total = ref.agent_rows(agent, sc, ref_method or method)
        got = [r.value for r in report.rows if r.agent == i]
        assert got == pytest.approx(want, abs=tol, rel=0), (method, i)
        if totals:
            assert report.totals[i].value == pytest.approx(want_total, abs=tol, rel=0)


def _assert_sos_rows(sc, method: str) -> None:
    if method == "sos-d2":
        _assert_rows(sc, method, EXACT, ref_method="chebyshev-quad")
        _assert_rows(sc, method, SOS, totals=False)
    else:
        _assert_rows(sc, method, SOS)


@pytest.mark.parametrize("yaw", [0.0, 0.37])
@pytest.mark.parametrize("n_modes", [2, 3])
def test_control_chebyshev_rows_match_reference(n_modes, yaw):
    # the criterion-7 corpus: crossing control scenarios, seeds 0-49
    for seed in range(50):
        sc = scenario_from_dict(_yawed(crossing_control_scenario(seed=seed, n_modes=n_modes), yaw))
        for method in CHEB:
            _assert_rows(sc, method, EXACT)


@pytest.mark.parametrize("yaw", [0.0, 0.37])
@pytest.mark.parametrize("n_modes", [2, 3])
def test_control_sos_rows_match_reference(n_modes, yaw):
    for seed in range(10):
        sc = scenario_from_dict(_yawed(crossing_control_scenario(seed=seed, n_modes=n_modes), yaw))
        _assert_sos_rows(sc, "sos-d2")


@pytest.mark.parametrize("method", ["sos-d2", "sos-d4", "sos-d6"])
def test_position_sos_rows_match_reference(method):
    for seed in range(2):
        doc = _yawed(crossing_position_scenario(seed=seed, n_steps=10), 0.37)
        doc["agents"][0]["mode_persistence"] = seed == 1
        _assert_sos_rows(scenario_from_dict(doc), method)


def test_gaussian_sos_matches_reference_on_bound_sweep_corpus():
    # the criterion-3/4 corpus: 200 random Gaussian instances x d = 2, 4, 6
    rng = np.random.default_rng(2026)
    pose = EgoPose(0.0, 0.0, 0.0)
    for _ in range(200):
        qf, mean, cov = random_gaussian_instance(rng)
        mix = Gaussian2DMixture([Gaussian2D(mean, cov)], [1.0])
        for method in ("sos-d2", "sos-d4", "sos-d6"):
            got = marginal_risk(mix, pose, Ellipsoid(qf), method).mixed
            assert got == pytest.approx(
                ref.marginal_risk(mix, pose, Ellipsoid(qf), method).mixed, abs=SOS, rel=0
            )


def test_array_fed_gaussian_moments_equal_the_per_object_fill():
    # point masses, rank-1 and full-rank covariances, orders 0-16
    rng = np.random.default_rng(17)
    comps = []
    for k in range(12):
        a = rng.normal(size=(2, 2))
        cov = [np.zeros((2, 2)), np.outer(a[0], a[0]), a @ a.T][k % 3]
        comps.append(Gaussian2D(rng.normal(scale=2.0, size=2), cov))
    means = np.array([g.mean for g in comps])
    covs = np.array([g.cov for g in comps])
    for order in range(MAX_MOMENT_ORDER + 1):
        got = gaussian2d_moment_stack(means, covs, order)
        for g, table in zip(comps, got):
            want = np.zeros((order + 1, order + 1))
            for (p, q), value in ref.gaussian2d_raw_moments(g, order).entries.items():
                want[p, q] = value
            assert np.array_equal(table, want), order


def _random_poses(rng, n):
    return [EgoPose(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-np.pi, np.pi)) for _ in range(n)]


def test_marginal_risk_on_tables_matches_reference_from_yawed_poses():
    rng = np.random.default_rng(31)
    for pose in _random_poses(rng, 40):
        qf, mean, cov = random_gaussian_instance(rng)
        ell = Ellipsoid(qf)
        comps = [Gaussian2D(mean, cov), Gaussian2D(mean + rng.normal(size=2), cov * 1.5)]
        weights = [0.3, 0.7]
        for method, tol in (*((m, EXACT) for m in CHEB), ("sos-d2", SOS), ("sos-d4", SOS)):
            new = [gaussian2d_raw_moments(c, 8) for c in comps]
            old = [ref.gaussian2d_raw_moments(c, 8) for c in comps]
            single = marginal_risk(new[0], pose, ell, method)
            assert single.mixed == pytest.approx(
                ref.marginal_risk(old[0], pose, ell, method).mixed, abs=tol, rel=0
            )
            listed = marginal_risk(list(zip(weights, new)), pose, ell, method)
            want = ref.marginal_risk(list(zip(weights, old)), pose, ell, method)
            assert [v for _, v in listed.per_mode] == pytest.approx(
                [v for _, v in want.per_mode], abs=tol, rel=0
            )
            assert listed.mixed == pytest.approx(want.mixed, abs=tol, rel=0)


def test_propagated_tables_match_reference_step_by_step():
    for seed, n_modes in ((0, 2), (5, 3)):
        agent = scenario_from_dict(crossing_control_scenario(seed=seed, n_modes=n_modes)).agents[0]
        args = (agent.initial_state, [s[0] for s in agent.steps], [s[1] for s in agent.steps])
        for order in (2, 4):
            new = dubins_position_tables(*args, order=order)
            old = ref.dubins_position_tables(*args, order=order)
            assert len(new) == len(old)
            for table, want in zip(new, old):
                for (a, b), val in want.entries.items():
                    assert abs(table[a, b] - val) <= 1e-12 * max(1.0, abs(val))


# -- batched propagation against the one-agent array route, bit for bit --------


def _control_agents(n_modes, seeds=range(50)):
    return [
        scenario_from_dict(crossing_control_scenario(seed=s, n_modes=n_modes)).agents[0]
        for s in seeds
    ]


def _batch_args(agents):
    return (
        [a.initial_state for a in agents],
        [[w_v for w_v, _ in a.steps] for a in agents],
        [[w_theta for _, w_theta in a.steps] for a in agents],
    )


def _assert_batches_equal_reference(agents, size, order):
    for lo in range(0, len(agents), size):
        batch = agents[lo:lo + size]
        got = dubins_position_tables(*_batch_args(batch), order=order)
        assert got.shape[0] == len(batch)
        for k, agent in enumerate(batch):
            want = ref.array_position_tables(agent.initial_state, *zip(*agent.steps), order=order)
            assert np.array_equal(got[k], want), (lo + k, size, order)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n_modes", [2, 3])
def test_batched_tables_equal_the_one_agent_route(n_modes, order):
    # the criterion-7 corpus, every agent in batches of 1, 2, 3 and 4
    agents = _control_agents(n_modes)
    for size in (1, 2, 3, 4):
        _assert_batches_equal_reference(agents, size, order)
    # a single agent is a batch of one, without the agent axis
    agent = agents[0]
    alone = dubins_position_tables(agent.initial_state, *zip(*agent.steps), order=order)
    assert np.array_equal(alone, ref.array_position_tables(
        agent.initial_state, *zip(*agent.steps), order=order))


@pytest.mark.parametrize("order", [2, 4])
def test_batches_mixing_two_and_three_mode_agents_equal_the_one_agent_route(order):
    two, three = _control_agents(2, range(12)), _control_agents(3, range(12, 24))
    mixed = [a for pair in zip(two, three) for a in pair]
    for size in (2, 3, 4):
        _assert_batches_equal_reference(mixed, size, order)


def test_mixed_scenario_report_equals_one_agent_propagation(monkeypatch):
    # position and control agents in one scenario: every row, total and union
    # is the one the one-agent array route gives, bit for bit
    from trajrisk import scenario

    doc = crossing_position_scenario(seed=3, n_steps=12)
    for k, make in enumerate((crossing_control_scenario, crossing_position_scenario,
                              crossing_control_scenario, crossing_control_scenario)):
        kw = {"n_modes": 2 + k % 2} if make is crossing_control_scenario else {}
        doc["agents"].append(make(seed=10 + k, n_steps=12, **kw)["agents"][0])
    sc = scenario_from_dict(doc)
    methods = ["chebyshev-halfspace", "chebyshev-quad", "sos-d2"]
    batched = run_assess(sc, methods)

    def one_agent_route(states, w_v, w_theta, order=2):
        return np.stack([ref.array_position_tables(*args, order=order)
                         for args in zip(states, w_v, w_theta)])

    monkeypatch.setattr(scenario, "dubins_position_tables", one_agent_route)
    want = run_assess(sc, methods)

    def fields(rows):
        return [(r.agent, r.t, r.method, r.value, r.is_upper_bound) for r in rows]

    assert fields(batched.rows) == fields(want.rows)
    assert fields(batched.totals) == fields(want.totals)
    assert batched.union_bound == want.union_bound


@pytest.mark.parametrize("edit", [
    lambda agent: agent["initial_state"].update(v=1e200),
    lambda agent: agent["steps"][3]["w_v_modes"][0].update(var=1e300),
])
def test_overflow_in_a_batch_names_the_lowest_failing_agent(edit):
    doc = crossing_control_scenario(seed=0, n_steps=8)
    for seed in (1, 2, 3):
        doc["agents"].append(crossing_control_scenario(seed=seed, n_steps=8)["agents"][0])
    for k in (2, 3):  # the fourth agent fails too, later in the batch
        agent = doc["agents"][k]
        agent["steps"] = [json.loads(json.dumps(step)) for step in agent["steps"]]
        edit(agent)
    sc = scenario_from_dict(doc)
    agent = sc.agents[2]
    with pytest.raises(ValidationError) as one_agent:
        ref.array_position_tables(agent.initial_state, *zip(*agent.steps), order=4)
    with pytest.raises(ValidationError) as batched:
        run_assess(sc, ["chebyshev-quad"])
    assert str(batched.value) == f"agents[2].{one_agent.value}"
    assert "propagated moment" in str(batched.value)
