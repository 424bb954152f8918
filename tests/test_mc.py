"""Monte Carlo reference estimators: determinism, anchors, semantics."""

import math
import tracemalloc

import numpy as np
import pytest

from trajrisk.distributions import Gaussian2D, Gaussian2DMixture, ScalarMixture
from trajrisk.engine import marginal_risk
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.mc import McEstimate, mc_control_risk, mc_position_risk
from trajrisk.scenario import ControlAgent, run_assess, scenario_from_dict
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

ORIGIN = EgoPose(0.0, 0.0, 0.0)
DISK = Ellipsoid(np.eye(2))


def _std_normal_step():
    return Gaussian2DMixture((Gaussian2D(np.zeros(2), np.eye(2)),), (1.0,))


def test_standard_normal_disk_anchor():
    # P(|Z|^2 <= 1) = 1 - exp(-1/2) for 2D standard normal
    per_step, union = mc_position_risk([_std_normal_step()], [ORIGIN], DISK,
                                       10**6, seed=0)
    truth = 1.0 - math.exp(-0.5)
    est = per_step[0]
    assert est.samples == 10**6
    assert abs(est.probability - truth) <= 4.0 * est.std_error
    assert est.std_error == pytest.approx(
        math.sqrt(truth * (1 - truth) / 10**6), rel=0.05
    )
    # single step: union estimate equals the one step estimate
    assert union.probability == est.probability


def test_same_seed_is_bitwise_deterministic():
    steps = [_std_normal_step()] * 3
    traj = [ORIGIN] * 3
    a = mc_position_risk(steps, traj, DISK, 20_000, seed=9)
    b = mc_position_risk(steps, traj, DISK, 20_000, seed=9)
    assert [e.probability for e in a[0]] == [e.probability for e in b[0]]
    assert a[1].probability == b[1].probability
    c = mc_position_risk(steps, traj, DISK, 20_000, seed=10)
    assert a[1].probability != c[1].probability


def test_union_relates_to_marginals():
    rng_steps = []
    for k in range(4):
        g = Gaussian2D(np.array([0.5 * k, 0.0]), 0.5 * np.eye(2))
        rng_steps.append(Gaussian2DMixture((g,), (1.0,)))
    per_step, union = mc_position_risk(rng_steps, [ORIGIN] * 4, DISK,
                                       50_000, seed=3)
    probs = [e.probability for e in per_step]
    assert union.probability >= max(probs) - 1e-12
    assert union.probability <= sum(probs) + 1e-12


def test_mode_persistence_changes_union_not_marginals():
    # mode A pinned at the origin (always inside), mode B far away: with a
    # persistent mode the trajectory risk equals the A-share; with fresh
    # mode draws it is 1 - (1 - w_A)^T
    inside = Gaussian2D(np.zeros(2), np.zeros((2, 2)))
    outside = Gaussian2D(np.array([50.0, 0.0]), np.zeros((2, 2)))
    mix = Gaussian2DMixture((inside, outside), (0.5, 0.5))
    steps, traj = [mix] * 3, [ORIGIN] * 3

    _, union_pers = mc_position_risk(steps, traj, DISK, 10**5, seed=1,
                                     mode_persistence=True)
    _, union_ind = mc_position_risk(steps, traj, DISK, 10**5, seed=1,
                                    mode_persistence=False)
    assert abs(union_pers.probability - 0.5) <= 5 * union_pers.std_error
    assert abs(union_ind.probability - 0.875) <= 5 * union_ind.std_error


def test_mode_persistence_requires_constant_mode_count():
    g = Gaussian2D(np.zeros(2), np.eye(2))
    two = Gaussian2DMixture((g, g), (0.5, 0.5))
    one = Gaussian2DMixture((g,), (1.0,))
    with pytest.raises(ValidationError, match="mode count"):
        mc_position_risk([two, one], [ORIGIN] * 2, DISK, 5000, 0,
                         mode_persistence=True)


def test_membership_uses_ego_heading():
    # elongated ellipse along ego body-x; agent sits on the world-y axis.
    # With heading pi/2 the long axis points at the agent (hit); with
    # heading 0 it does not.
    ell = Ellipsoid(np.diag([1.0 / 9.0, 1.0]))
    agent = Gaussian2DMixture(
        (Gaussian2D(np.array([0.0, 2.0]), np.zeros((2, 2))),), (1.0,)
    )
    hit, _ = mc_position_risk([agent], [EgoPose(0, 0, math.pi / 2)], ell,
                              2000, 0)
    miss, _ = mc_position_risk([agent], [EgoPose(0, 0, 0.0)], ell, 2000, 0)
    assert hit[0].probability == 1.0
    assert miss[0].probability == 0.0


def test_control_rollout_deterministic_boundary():
    # unit speed along +x with zero noise: positions 1..5; the unit disk
    # around (3, 0) admits x in [2, 4], boundary inclusive
    zero = ScalarMixture.point(0.0)
    steps = [(zero, zero)] * 5
    traj = [EgoPose(3.0, 0.0, 0.0)] * 5
    per_step, union = mc_control_risk(steps, (0.0, 0.0, 1.0, 0.0), traj,
                                      DISK, 1000, seed=0)
    assert [e.probability for e in per_step] == [0.0, 1.0, 1.0, 1.0, 0.0]
    assert union.probability == 1.0


def test_control_rollout_matches_position_form_in_law():
    # one step from a known start: position = x0 + v0 cos(th0) + noise-free
    # heading, speed noise enters only later steps, so step-1 position is
    # deterministic even with nonzero speed noise
    wv = ScalarMixture.single(0.3, 0.1)
    zero = ScalarMixture.point(0.0)
    per_step, _ = mc_control_risk([(wv, zero)], (0.0, 0.0, 1.0, 0.0),
                                  [EgoPose(1.0, 0.0, 0.0)], DISK, 5000, seed=2)
    assert per_step[0].probability == 1.0


@pytest.mark.parametrize("state", [
    (0.0, 0.0, math.nan, 0.0), (math.inf, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5),
], ids=["nan-v", "inf-x", "three-fields"])
def test_control_rollout_needs_four_finite_state_fields(state):
    # unchecked, a NaN speed or an infinite x read 0.0 at every step and for
    # the union, and a three-field state raised a bare ValueError
    zero = ScalarMixture.point(0.0)
    with pytest.raises(ValidationError, match="initial state must be four finite numbers"):
        mc_control_risk([(zero, zero)] * 3, state, [ORIGIN] * 3, DISK, 5000, 0)


@pytest.mark.parametrize("make_step", [
    lambda m: (m,), lambda m: (m, m, m), lambda m: (m, "0.1"), lambda m: m,
], ids=["one-mixture", "three-mixtures", "text", "bare-mixture"])
def test_control_steps_must_be_speed_heading_pairs(make_step):
    # unchecked, (m,) steps dropped the heading noise (step 3 read 1.0 against
    # 0.9994 with pairs), a third mixture was ignored, and run_assess raised a
    # bare ValueError or AttributeError
    m = ScalarMixture.single(0.0, 0.01)
    steps = [(m, m), make_step(m), (m, m)]
    match = r"^steps\[1\]: expected a \(speed, heading\) pair of ScalarMixtures"
    with pytest.raises(ValidationError, match=match):
        ControlAgent((0.0, 0.0, 1.0, 0.0), steps)
    with pytest.raises(ValidationError, match=match):
        mc_control_risk(steps, (0.0, 0.0, 1.0, 0.0), [ORIGIN] * 3, DISK, 5000, 0)


def test_sample_count_and_seed_validation():
    g = _std_normal_step()
    with pytest.raises(ValidationError, match="at least"):
        mc_position_risk([g], [ORIGIN], DISK, 10, 0)
    with pytest.raises(ValidationError, match="seed"):
        mc_position_risk([g], [ORIGIN], DISK, 5000, -1)
    with pytest.raises(ValidationError, match="horizon"):
        mc_position_risk([g, g], [ORIGIN], DISK, 5000, 0)


@pytest.mark.parametrize("form", ["position", "control"])
@pytest.mark.parametrize("n_samples, seed, name", [
    (5000, 1.5, "seed"),
    (5000, float("nan"), "seed"),
    (5000, float("inf"), "seed"),
    (float("inf"), 0, "n_samples"),
    (float("nan"), 0, "n_samples"),
    (2000.7, 0, "n_samples"),
    (5000, True, "seed"),
    (True, 0, "n_samples"),
    (5000, 2**128, "seed"),
    (5000, 1e300, "seed"),
])
def test_non_integral_sampling_args_rejected(form, n_samples, seed, name):
    # 1.5 used to alias seed 1, 2000.7 to 2000 samples, True to seed 1; NaN
    # and inf escaped as bare ValueError / OverflowError, and seeds of 2**128
    # and up as Philox's bare ValueError
    with pytest.raises(ValidationError, match=name):
        if form == "position":
            mc_position_risk([_std_normal_step()], [ORIGIN], DISK, n_samples, seed)
        else:
            zero = ScalarMixture.point(0.0)
            mc_control_risk([(zero, zero)], (0, 0, 1, 0), [ORIGIN], DISK,
                            n_samples, seed)


def test_non_integral_seed_rejected_at_run_assess_and_marginal_risk():
    # run_assess derives per-agent seeds as seed * 7919 + agent; the check
    # must come first, or 1 / 7919 would alias seed 1
    sc = scenario_from_dict(crossing_position_scenario(seed=0, n_steps=2))
    for seed in (1.5, 1 / 7919, float("nan")):
        with pytest.raises(ValidationError, match="seed"):
            run_assess(sc, ["mc"], mc_samples=5000, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            marginal_risk(_std_normal_step(), ORIGIN, DISK, "mc", seed=seed)
    with pytest.raises(ValidationError, match="n_samples"):
        run_assess(sc, ["mc"], mc_samples=2000.7)


def test_seed_bound_keeps_derived_keys_below_2_pow_128():
    # the per-agent (seed * 7919 + agent) and per-mode (seed * 1000003 + m)
    # keys must stay valid Philox keys, so the seed bound shrinks by the stride
    sc = scenario_from_dict(crossing_position_scenario(seed=0, n_steps=2))
    with pytest.raises(ValidationError, match="seed"):
        run_assess(sc, ["mc"], mc_samples=5000, seed=2**128 // 7919)
    with pytest.raises(ValidationError, match="seed"):
        marginal_risk(_std_normal_step(), ORIGIN, DISK, "mc", seed=2**128 // 1000003)
    run_assess(sc, ["mc"], mc_samples=1000, seed=2**128 // 7919 - 1)
    marginal_risk(_std_normal_step(), ORIGIN, DISK, "mc", mc_samples=1000,
                  seed=2**128 // 1000003 - 1)
    (step,), _ = mc_position_risk([_std_normal_step()], [ORIGIN], DISK, 1000,
                                  2**128 - 1)
    assert step.seed == 2**128 - 1


def test_integral_float_sampling_args_accepted():
    step = [_std_normal_step()]
    as_float, _ = mc_position_risk(step, [ORIGIN], DISK, 1e4, 2.0)
    as_int, _ = mc_position_risk(step, [ORIGIN], DISK, 10_000, 2)
    assert as_float == as_int
    assert type(as_float[0].seed) is int and type(as_float[0].samples) is int
    sc = scenario_from_dict(crossing_position_scenario(seed=0, n_steps=2))
    rep = run_assess(sc, ["mc"], mc_samples=1e4, seed=3.0)
    assert rep.to_dict()["seed"] == 3 and rep.to_dict()["mc_samples"] == 10_000


@pytest.mark.parametrize("p, n", [(0.0, 1000), (1.0, 1000), (0.3, 10**6), (0.5, 5000)])
def test_wilson_interval_contains_p_with_nonzero_width(p, n):
    lo, hi = McEstimate(p, math.sqrt(p * (1 - p) / n), n, 0).ci95
    assert 0.0 <= lo <= p <= hi <= 1.0
    assert hi - lo > 0.0
    if 0.0 < p < 1.0:
        # away from the edges Wilson is close to p +- 1.96 se
        assert hi - lo == pytest.approx(2 * 1.96 * math.sqrt(p * (1 - p) / n), rel=0.02)
    else:
        # the Wilson edge width z^2 / (n + z^2)
        assert hi - lo == pytest.approx(1.96**2 / (n + 1.96**2), rel=1e-3)


def _traced_peak_per_sample(form):
    """Traced peak of one call over a 5-step scenario at 2e5 samples, in
    bytes per sample."""
    n = 200_000
    if form == "position":
        sc = scenario_from_dict(crossing_position_scenario(seed=1, n_steps=5))
        agent = sc.agents[0]
        args = (agent.steps, sc.ego_trajectory, sc.ellipsoid, n, 1)
        run = mc_position_risk
    else:
        sc = scenario_from_dict(crossing_control_scenario(seed=1, n_steps=5))
        agent = sc.agents[0]
        args = (agent.steps, agent.initial_state, sc.ego_trajectory,
                sc.ellipsoid, n, 1)
        run = mc_control_risk
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / n


@pytest.mark.parametrize("form", ["position", "control"])
def test_peak_memory_per_sample(form):
    # the array form peaked at ~106 (position) and ~82 (control) bytes per sample
    assert _traced_peak_per_sample(form) <= 72.0


def test_position_peak_stays_below_control_peak():
    # the position form's deeper pipeline must not set a mixed run's peak
    assert _traced_peak_per_sample("position") < _traced_peak_per_sample("control")


def test_estimate_validation():
    with pytest.raises(ValidationError):
        McEstimate(1.2, 0.0, 100, 0)


def test_anchor_coverage_across_seeds():
    """|estimate - truth| <= 3 SE holds for at least 99% of seeds.

    1000 independent 10^4-sample runs of the standard-normal disk anchor;
    the binomial miss rate at 3 sigma is ~0.3%, so 990 is a loose floor.
    """
    truth = 1.0 - math.exp(-0.5)
    step = [_std_normal_step()]
    traj = [ORIGIN]
    hits = 0
    for seed in range(1000):
        est, _ = mc_position_risk(step, traj, DISK, 10_000, seed=seed)
        if abs(est[0].probability - truth) <= 3.0 * est[0].std_error:
            hits += 1
    assert hits >= 990
