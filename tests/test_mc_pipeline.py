"""The Monte Carlo estimators' worker-thread pipeline.

Each step's draws run on one worker thread a step ahead of its evaluation,
into two reused buffer sets, and each step is evaluated in slices of
`mc._CHUNK` samples.  The estimates must equal `reference_mc`'s bit for bit
at sample counts below one slice and off a slice multiple, over one step
(one buffer set) and two (both), for persistent and per-step modes and for
mixtures past the 256 modes a ``uint8`` index holds.  Errors raised on the
worker reach the caller, and no call leaves a thread behind.
"""

import threading

import numpy as np
import pytest

import reference_mc as ref
from trajrisk import mc
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture, ScalarMixture
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.scenario import scenario_from_dict
from trajrisk.synthetic import crossing_control_scenario, crossing_position_scenario

SIZES = [1000, 3 * mc._CHUNK + 1234]
TILTED = [[0.8, 0.3], [0.3, 0.5]]


def _triples(out):
    per_step, union = out
    return [(e.probability, e.std_error, e.samples) for e in [*per_step, union]]


def _ref_triples(out):
    per_step, union = out
    return [*per_step, union]


def _position(n_steps, persistent, seed=3):
    doc = crossing_position_scenario(seed=seed, n_steps=n_steps)
    doc["agents"][0]["mode_persistence"] = persistent
    sc = scenario_from_dict(doc)
    return sc.agents[0].steps, sc.ego_trajectory, sc.ellipsoid


def _control(n_steps, seed=3):
    sc = scenario_from_dict(crossing_control_scenario(seed=seed, n_steps=n_steps))
    agent = sc.agents[0]
    return agent.steps, agent.initial_state, sc.ego_trajectory, sc.ellipsoid


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("n_steps", [1, 2])
@pytest.mark.parametrize("persistent", [False, True])
def test_position_pipeline_is_bit_identical(n, n_steps, persistent):
    steps, traj, q = _position(n_steps, persistent)
    got = mc.mc_position_risk(steps, traj, q, n, 11, mode_persistence=persistent)
    want = ref.mc_position_risk(steps, traj, q, n, 11, mode_persistence=persistent)
    assert _triples(got) == _ref_triples(want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("n_steps", [1, 2])
def test_control_pipeline_is_bit_identical(n, n_steps):
    steps, init, traj, q = _control(n_steps)
    got = mc.mc_control_risk(steps, init, traj, q, n, 11)
    want = ref.mc_control_risk(steps, init, traj, q, n, 11)
    assert _triples(got) == _ref_triples(want)


def _many_modes(k, rng):
    comps = tuple(Gaussian2D(rng.uniform(-1.5, 1.5, 2), np.array(TILTED)) for _ in range(k))
    w = rng.uniform(0.5, 1.5, k)
    return Gaussian2DMixture(comps, tuple(w / w.sum()))


@pytest.mark.parametrize("k, dtype", [(256, np.uint8), (300, np.intp)])
@pytest.mark.parametrize("persistent", [False, True])
def test_position_index_dtype_switch_is_bit_identical(k, dtype, persistent):
    rng = np.random.default_rng(k)
    steps = [_many_modes(k, rng) for _ in range(3)]
    traj = [EgoPose(0.0, 0.0, 0.0), EgoPose(0.3, -0.2, 0.8), EgoPose(-0.4, 0.1, 2.0)]
    q = Ellipsoid(np.array([[1.5, 0.2], [0.2, 0.9]]))
    assert mc._pick(steps[0].weights, np.array([0.999999])).dtype == dtype
    n = 2 * mc._CHUNK + 77
    got = mc.mc_position_risk(steps, traj, q, n, 5, mode_persistence=persistent)
    want = ref.mc_position_risk(steps, traj, q, n, 5, mode_persistence=persistent)
    assert _triples(got) == _ref_triples(want)


def test_control_index_dtype_switch_is_bit_identical():
    # 300 speed modes next to a 2-mode heading mixture share one index buffer
    rng = np.random.default_rng(9)
    means = rng.uniform(-0.2, 0.2, 300)
    w = rng.uniform(0.5, 1.5, 300)
    speed = ScalarMixture(
        tuple(ScalarMixture.single(m, 0.01).components[0] for m in means),
        tuple(w / w.sum()))
    heading = ScalarMixture(
        (ScalarMixture.single(0.1, 0.002).components[0],
         ScalarMixture.single(-0.1, 0.002).components[0]), (0.4, 0.6))
    steps = [(speed, heading), (heading, speed), (speed, speed)]
    traj = [EgoPose(1.0 + 0.5 * k, 0.2, 0.3 * k) for k in range(3)]
    n = 2 * mc._CHUNK + 77
    got = mc.mc_control_risk(steps, (0.0, 0.0, 1.0, 0.1), traj, Ellipsoid(np.eye(2)), n, 4)
    want = ref.mc_control_risk(steps, (0.0, 0.0, 1.0, 0.1), traj, Ellipsoid(np.eye(2)), n, 4)
    assert _triples(got) == _ref_triples(want)


def _call(form, n_steps=4):
    if form == "position":
        steps, traj, q = _position(n_steps, False)
        return mc.mc_position_risk(steps, traj, q, 5000, 2)
    steps, init, traj, q = _control(n_steps)
    return mc.mc_control_risk(steps, init, traj, q, 5000, 2)


@pytest.mark.parametrize("form", ["position", "control"])
def test_normal_return_leaves_no_thread(form):
    before = threading.active_count()
    per_step, _ = _call(form)
    assert len(per_step) == 4
    assert threading.active_count() == before


@pytest.mark.parametrize("form", ["position", "control"])
def test_worker_error_reaches_caller_and_leaves_no_thread(form, monkeypatch):
    stream = mc._stream

    def failing(seed, step):
        if step == 2:
            raise RuntimeError("draw failed at step 2")
        return stream(seed, step)

    monkeypatch.setattr(mc, "_stream", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="step 2"):
        _call(form)
    assert threading.active_count() == before


@pytest.mark.parametrize("form", ["position", "control"])
def test_caller_error_waits_for_worker_and_leaves_no_thread(form, monkeypatch):
    # the second step's evaluation raises while step 3 is being drawn
    rotate = mc.rotate_form
    calls = []

    def failing(q, theta):
        calls.append(theta)
        if len(calls) == 2:
            raise RuntimeError("evaluation failed")
        return rotate(q, theta)

    monkeypatch.setattr(mc, "rotate_form", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="evaluation failed"):
        _call(form)
    assert threading.active_count() == before


@pytest.mark.parametrize("form", ["position", "control"])
def test_impossible_sample_count_fails_before_any_thread(form):
    before = threading.active_count()
    with pytest.raises(MemoryError):
        if form == "position":
            steps, traj, q = _position(2, False)
            mc.mc_position_risk(steps, traj, q, 10**12, 0)
        else:
            steps, init, traj, q = _control(2)
            mc.mc_control_risk(steps, init, traj, q, 10**12, 0)
    assert threading.active_count() == before
