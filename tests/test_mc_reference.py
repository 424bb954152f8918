"""The 1-D per-step Monte Carlo estimators against the array form they replaced.

`reference_mc` holds the former estimators: (n, 2, 2) mode gathers, an
`einsum` Cholesky product, `searchsorted` mode picks and the `einsum`
footprint test.  Both sides consume the same Philox draws in the same order
and add in the same order, so every probability, standard error and sample
count must be equal, not close.
"""

import math

import numpy as np
import pytest

import reference_mc as ref
from trajrisk import mc
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture, ScalarMixture
from trajrisk.engine import marginal_risk
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import scenario_from_dict
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

N = 10**5
SEEDS = range(50)
ORIGIN = EgoPose(0.0, 0.0, 0.0)
DISK = Ellipsoid(np.eye(2))


def _triples(out):
    per_step, union = out
    return [(e.probability, e.std_error, e.samples) for e in [*per_step, union]]


def _ref_triples(out):
    per_step, union = out
    return [*per_step, union]


def _same_position(steps, traj, q, seed, persistent=False, n=N):
    new = mc.mc_position_risk(steps, traj, q, n, seed, mode_persistence=persistent)
    old = ref.mc_position_risk(steps, traj, q, n, seed, mode_persistence=persistent)
    assert _triples(new) == _ref_triples(old)
    return new


def _same_control(steps, init, traj, q, seed, n=N):
    new = mc.mc_control_risk(steps, init, traj, q, n, seed)
    old = ref.mc_control_risk(steps, init, traj, q, n, seed)
    assert _triples(new) == _ref_triples(old)
    return new


def test_control_corpus_is_bit_identical():
    # the criterion-7 corpus, keyed on run_assess's per-agent seed
    for seed in SEEDS:
        sc = scenario_from_dict(crossing_control_scenario(seed=seed))
        agent = sc.agents[0]
        _same_control(agent.steps, agent.initial_state, sc.ego_trajectory,
                      sc.ellipsoid, seed * 7919)


@pytest.mark.parametrize("persistent", [False, True])
def test_position_corpus_is_bit_identical(persistent):
    for seed in SEEDS:
        doc = crossing_position_scenario(seed=seed)
        doc["agents"][0]["mode_persistence"] = persistent
        sc = scenario_from_dict(doc)
        _same_position(sc.agents[0].steps, sc.ego_trajectory, sc.ellipsoid,
                       seed * 7919, persistent)


def _mix(modes, weights):
    comps = tuple(Gaussian2D(np.array(m, dtype=float), np.array(c, dtype=float))
                  for m, c in modes)
    return Gaussian2DMixture(comps, tuple(weights))


TILTED = [[0.8, 0.3], [0.3, 0.5]]
POINT = [[0.0, 0.0], [0.0, 0.0]]
RANK1 = [[1.0, 1.0], [1.0, 1.0]]
RANK1_AXIS = [[0.0, 0.0], [0.0, 2.0]]

POSITION_EDGES = {
    "zero_weight_mode": _mix(
        [([0.5, 0.0], TILTED), ([9.0, 9.0], TILTED), ([-0.5, 0.4], TILTED)],
        (0.3, 0.0, 0.7)),
    "single_mode": _mix([([0.7, -0.2], TILTED)], (1.0,)),
    "cumsum_below_one": _mix(
        [([0.1 * k, 0.0], TILTED) for k in range(10)], (0.1,) * 10),
    # samples within ~1e-13 of the footprint boundary y = 2, where the
    # rounding of mean + root @ z decides membership
    "hugging_boundary": _mix(
        [([0.0, 2.0], [[1e-26, 5e-27], [5e-27, 1e-26]])], (1.0,)),
    "point_mass_and_rank1": _mix(
        [([0.3, 0.2], POINT), ([0.0, 0.0], RANK1), ([1.0, 0.0], RANK1_AXIS)],
        (0.2, 0.5, 0.3)),
}


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("name", sorted(POSITION_EDGES))
def test_position_edge_mixtures_are_bit_identical(name, persistent):
    mix = POSITION_EDGES[name]
    traj = [ORIGIN, EgoPose(0.4, -0.1, 0.7), EgoPose(-0.3, 0.2, -2.0)]
    q = Ellipsoid(np.array([[1.5, 0.2], [0.2, 0.9]]))
    _same_position([mix] * 3, traj, q, seed=5, persistent=persistent)


def test_samples_hugging_the_boundary_are_bit_identical():
    q = Ellipsoid(np.diag([1.0, 0.25]))
    (step,), _ = _same_position([POSITION_EDGES["hugging_boundary"]], [ORIGIN], q, seed=8)
    assert 0.0 < step.probability < 1.0


def test_cumsum_below_one_clamps_like_searchsorted():
    weights = (0.1,) * 10
    edges = np.cumsum(weights)
    assert edges[-1] < 1.0
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
    ])
    assert mc._pick(weights, u).tolist() == ref._pick(np.asarray(weights), u).tolist()
    assert mc._pick(weights, u).max() == 9
    zero_weight = (0.5, 0.0, 0.5)
    u = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), 0.75])
    assert (mc._pick(zero_weight, u).tolist()
            == ref._pick(np.asarray(zero_weight), u).tolist() == [0, 0, 2, 0, 2])
    assert (mc._pick((1.0,), u).tolist()
            == ref._pick(np.asarray((1.0,)), u).tolist() == [0] * 5)


def test_point_mass_on_footprint_boundary_is_a_hit():
    # 2 * (1/4) * 2 == 1 exactly: the boundary counts as inside on both sides
    q = Ellipsoid(np.diag([0.25, 1.0]))
    on_edge = _mix([([2.0, 0.0], POINT)], (1.0,))
    beyond = _mix([([2.0, 1e-7], POINT)], (1.0,))
    per_step, union = _same_position([on_edge, beyond], [ORIGIN] * 2, q, seed=3)
    assert [e.probability for e in per_step] == [1.0, 0.0]
    assert union.probability == 1.0


CONTROL_EDGES = {
    "zero_weight_mode": (
        ScalarMixture.single(0.0, 0.01),
        ScalarMixture(
            (ScalarMixture.single(0.05, 0.001).components[0],
             ScalarMixture.single(3.0, 0.0).components[0],
             ScalarMixture.single(-0.05, 0.002).components[0]),
            (0.5, 0.0, 0.5)),
    ),
    "single_and_point_modes": (ScalarMixture.point(0.0), ScalarMixture.single(0.0, 0.02)),
}


@pytest.mark.parametrize("name", sorted(CONTROL_EDGES))
def test_control_edge_mixtures_are_bit_identical(name):
    steps = [CONTROL_EDGES[name]] * 4
    traj = [EgoPose(2.0 + 0.5 * k, 0.3, 0.4 * k) for k in range(4)]
    _same_control(steps, (0.0, 0.0, 1.0, 0.1), traj, DISK, seed=17)


def test_marginal_risk_mc_matches_reference_per_mode():
    mix = POSITION_EDGES["point_mass_and_rank1"]
    pose = EgoPose(0.2, 0.1, 0.9)
    got = marginal_risk(mix, pose, DISK, "mc", mc_samples=N, seed=4)
    want = []
    for m, (w, comp) in enumerate(zip(mix.weights, mix.components)):
        single = Gaussian2DMixture([comp], [1.0])
        (step,), _ = ref.mc_position_risk([single], [pose], DISK, N, 4 * 1000003 + m)
        want.append((w, step[0]))
    assert list(got.per_mode) == want
    assert got.mixed == math.fsum(w * v for w, v in want)
