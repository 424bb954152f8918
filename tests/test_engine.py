"""Tests for per-step marginal risk and trajectory-level composition.

The method-stack regression values below were frozen from a run that was
cross-checked internally: the certified characteristic-function inversion,
the series approximation, and Monte Carlo all agree on the exact value to
within their documented errors, and every bound sits above it.
"""

import math

import numpy as np
import pytest

from trajrisk.distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    gaussian2d_raw_moments,
)
from trajrisk.engine import (
    BOUND_METHODS,
    METHODS,
    MarginalRisk,
    TrajectoryRisk,
    compose,
    marginal_risk,
    multi_agent_bound,
    trajectory_risk,
)
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid

# A two-mode encounter a couple of meters ahead-left of the ego vehicle,
# with the ego footprint a 1.5 x 1.0 ellipse yawed 30 degrees.
MIX = Gaussian2DMixture(
    (
        Gaussian2D([2.2, 0.3], [[0.4, 0.1], [0.1, 0.3]]),
        Gaussian2D([3.0, -0.5], [[0.5, -0.05], [-0.05, 0.2]]),
    ),
    (0.6, 0.4),
)
POSE = EgoPose(0.5, 0.0, math.pi / 6)
ELL = Ellipsoid(np.diag([1 / 2.25, 1.0]))

# method -> mixed marginal on the instance above (mc at 10^6 samples, seed 0).
STACK_VALUES = {
    "imhof": 0.135957946,
    "ltz": 0.136879756,
    "mc": 0.135935200,
    "chebyshev-quad": 0.482841601,
    "chebyshev-halfspace": 0.545256461,
    "sos-d2": 0.482841601,
    "sos-d4": 0.383515903,
    "sos-d6": 0.364057214,
}


@pytest.mark.parametrize("method", sorted(STACK_VALUES))
def test_method_stack_regression(method):
    kwargs = {"mc_samples": 10**6} if method == "mc" else {}
    r = marginal_risk(MIX, POSE, ELL, method, **kwargs)
    assert r.mixed == pytest.approx(STACK_VALUES[method], abs=5e-10)
    assert r.method == method
    assert r.is_upper_bound == (method in BOUND_METHODS)
    assert len(r.per_mode) == 2
    assert [w for w, _ in r.per_mode] == [0.6, 0.4]


def test_stack_cross_consistency():
    exact = STACK_VALUES["imhof"]
    # Series approximation within its documented error on benign geometry.
    assert abs(STACK_VALUES["ltz"] - exact) < 2e-3
    # 10^6-sample MC within a few standard errors.
    se = math.sqrt(exact * (1 - exact) / 10**6)
    assert abs(STACK_VALUES["mc"] - exact) < 4 * se
    # Every bound is an upper bound on the exact probability.
    for method in BOUND_METHODS:
        assert STACK_VALUES[method] >= exact
    # Higher relaxation degree never loosens the bound.
    assert STACK_VALUES["sos-d6"] <= STACK_VALUES["sos-d4"] <= STACK_VALUES["sos-d2"]


def test_point_mass_inside_is_certain():
    mix = Gaussian2DMixture([Gaussian2D([0.2, 0.1], np.zeros((2, 2)))], [1.0])
    r = marginal_risk(mix, EgoPose(0.0, 0.0, 0.0), ELL, "imhof")
    assert r.mixed == pytest.approx(1.0, abs=1e-12)


def test_table_route_matches_gaussian_route():
    # Feeding the same Gaussian through the moment-table entry point must
    # reproduce the position-form value bit for bit: both routes land on the
    # identical ego-frame moment table.
    for method, order in [("chebyshev-quad", 4), ("sos-d2", 4), ("sos-d4", 8)]:
        direct = marginal_risk(MIX, POSE, ELL, method)
        tables = [
            (w, gaussian2d_raw_moments(c, order))
            for w, c in zip(MIX.weights, MIX.components)
        ]
        via_tables = marginal_risk(tables, POSE, ELL, method)
        assert via_tables.mixed == pytest.approx(direct.mixed, abs=1e-12)


def test_single_table_is_one_implicit_mode():
    table = gaussian2d_raw_moments(MIX.components[0], 4)
    r = marginal_risk(table, POSE, ELL, "chebyshev-quad")
    assert r.per_mode == ((1.0, r.mixed),)


@pytest.mark.parametrize(
    "weights, match",
    [
        ((0.7, 0.7), "sum to"),
        ((-0.5, 1.5), "negative"),
        ((math.nan, 1.0), "non-finite"),
        ((), "at least one"),
    ],
)
def test_weighted_tables_check_their_weights(weights, match):
    table = gaussian2d_raw_moments(MIX.components[0], 4)
    with pytest.raises(ValidationError, match=match):
        marginal_risk([(w, table) for w in weights], POSE, ELL, "chebyshev-quad")


@pytest.mark.parametrize("method", ["imhof", "ltz", "mc"])
def test_density_methods_reject_tables(method):
    table = gaussian2d_raw_moments(MIX.components[0], 4)
    with pytest.raises(ValidationError, match="Gaussian position predictions"):
        marginal_risk(table, POSE, ELL, method)


def test_unknown_method_rejected():
    with pytest.raises(ValidationError, match="unknown method"):
        marginal_risk(MIX, POSE, ELL, "bisection")


def test_mc_marginal_is_deterministic():
    a = marginal_risk(MIX, POSE, ELL, "mc", mc_samples=20000, seed=3)
    b = marginal_risk(MIX, POSE, ELL, "mc", mc_samples=20000, seed=3)
    c = marginal_risk(MIX, POSE, ELL, "mc", mc_samples=20000, seed=4)
    assert a.mixed == b.mixed
    assert a.mixed != c.mixed


def test_marginal_validates_mixture_identity():
    with pytest.raises(ValidationError, match="weighted mode average"):
        MarginalRisk(
            t=0,
            per_mode=((0.5, 0.2), (0.5, 0.4)),
            mixed=0.5,
            method="imhof",
            is_upper_bound=False,
        )
    with pytest.raises(ValidationError, match="outside"):
        MarginalRisk(
            t=0,
            per_mode=((1.0, 1.2),),
            mixed=1.2,
            method="imhof",
            is_upper_bound=False,
        )


def _marg(t, per_mode):
    mixed = math.fsum(w * v for w, v in per_mode)
    return MarginalRisk(
        t=t, per_mode=tuple(per_mode), mixed=mixed, method="imhof", is_upper_bound=False
    )


def test_independent_product_form():
    marginals = [_marg(0, [(1.0, 0.5)]), _marg(1, [(1.0, 0.5)])]
    traj = trajectory_risk(marginals)
    assert traj.total == pytest.approx(0.75, abs=1e-15)
    assert traj.horizon == 2


def test_mode_persistence_worked_example():
    # Mode A never collides, mode B collides with p=0.5 at each of two steps.
    steps = [_marg(t, [(0.5, 0.0), (0.5, 0.5)]) for t in range(2)]
    independent = trajectory_risk(steps).total
    persistent = trajectory_risk(steps, mode_persistence=True).total
    # Independent: mixed 0.25 per step -> 1 - 0.75^2.
    assert independent == pytest.approx(0.4375, abs=1e-15)
    # Persistent: 0.5 * 0 + 0.5 * (1 - 0.5^2).
    assert persistent == pytest.approx(0.375, abs=1e-15)
    assert persistent < independent


def test_single_mode_persistence_matches_independent():
    steps = [_marg(t, [(1.0, 0.3)]) for t in range(3)]
    assert trajectory_risk(steps, mode_persistence=True).total == pytest.approx(
        trajectory_risk(steps).total, abs=1e-15
    )


def test_trajectory_total_order_invariant():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 0.3, size=6)
    steps = [_marg(t, [(1.0, float(v))]) for t, v in enumerate(vals)]
    shuffled = [steps[i] for i in (3, 0, 5, 1, 4, 2)]
    assert trajectory_risk(shuffled).total == pytest.approx(
        trajectory_risk(steps).total, abs=1e-15
    )


def test_certain_step_saturates_total():
    steps = [_marg(0, [(1.0, 0.1)]), _marg(1, [(1.0, 1.0)])]
    assert trajectory_risk(steps).total == 1.0


def test_empty_horizon_rejected():
    with pytest.raises(ValidationError, match="empty horizon"):
        trajectory_risk([])


def test_persistence_requires_stable_weights():
    steps = [_marg(0, [(0.5, 0.1), (0.5, 0.2)]), _marg(1, [(0.7, 0.1), (0.3, 0.2)])]
    with pytest.raises(ValidationError, match="identical mode weights"):
        trajectory_risk(steps, mode_persistence=True)
    # Mode count changes are caught by the same weight comparison.
    steps = [_marg(0, [(0.5, 0.1), (0.5, 0.2)]), _marg(1, [(1.0, 0.1)])]
    with pytest.raises(ValidationError, match="identical mode weights"):
        trajectory_risk(steps, mode_persistence=True)


def test_trajectory_risk_validates_horizon():
    m = _marg(0, [(1.0, 0.1)])
    with pytest.raises(ValidationError, match="horizon"):
        TrajectoryRisk(horizon=2, marginals=(m,), total=0.1)


def test_multi_agent_union_bound():
    def traj(total):
        m = _marg(0, [(1.0, total)])
        return trajectory_risk([m])

    assert multi_agent_bound([traj(0.2), traj(0.3)]) == pytest.approx(0.5, abs=1e-15)
    assert multi_agent_bound([traj(0.6), traj(0.7)]) == 1.0
    assert multi_agent_bound([]) == 0.0


def test_compose_one_step_stack():
    mixed, total = compose(np.array([0.2, 0.5]), np.array([0.25, 0.75]), np.array([0, 0]), 1)
    assert mixed.tolist() == [0.25 * 0.2 + 0.75 * 0.5]
    assert total == pytest.approx(mixed[0], abs=1e-15)


@pytest.mark.parametrize("persistent", [False, True])
def test_compose_zero_weight_mode_does_not_count(persistent):
    step = np.repeat(np.arange(3), 2)
    values = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
    mixed, total = compose(values, np.tile([1.0, 0.0], 3), step, 3, persistent)
    assert mixed.tolist() == [0.1, 0.2, 0.3]
    assert total == pytest.approx(1.0 - 0.9 * 0.8 * 0.7, abs=1e-15)


@pytest.mark.parametrize("persistent", [False, True])
def test_compose_certain_row_saturates_total(persistent):
    step = np.arange(3)
    mixed, total = compose(np.array([0.1, 1.0, 0.2]), np.ones(3), step, 3, persistent)
    assert mixed.tolist() == [0.1, 1.0, 0.2]
    assert total == 1.0


def test_compose_single_mode_persistence_is_independent_steps():
    values = np.random.default_rng(11).uniform(0.0, 0.4, size=7)
    step, weights = np.arange(7), np.ones(7)
    independent = compose(values, weights, step, 7)
    persistent = compose(values, weights, step, 7, mode_persistence=True)
    assert persistent[0].tolist() == independent[0].tolist()
    assert persistent[1] == pytest.approx(independent[1], abs=1e-15)


def test_method_registry_is_consistent():
    assert BOUND_METHODS < METHODS
    assert METHODS - BOUND_METHODS == {"imhof", "ltz", "mc"}
