"""The Monte Carlo estimators' worker-thread pipeline.

Each step's draws run ahead of its evaluation on worker threads into
reused buffer sets: two workers up to two steps ahead into three sets for
the position form, one worker a step ahead into two sets for the control
form.  Each step is evaluated in slices of `mc._CHUNK` samples.  The
estimates must equal `reference_mc`'s bit for bit at sample counts below
one slice and off a slice multiple, over one to four steps (fewer steps
than sets, every set once, and a set reused), for persistent and per-step
modes and for mixtures past the 256 modes a ``uint8`` index holds.  Errors
raised on a worker reach the caller, also while another worker is still
drawing, and no call leaves a thread behind.
"""

import threading
import time

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


def _mean(mix):
    return sum(w * c.mean for w, c in zip(mix.weights, mix.components))


def _off_path(points, r=0.1):
    """Ego poses just beside the agent's mean path, with a disk footprint of
    radius r whose edge cuts through the agent's spread, so a sampled step's
    estimate lies strictly between 0 and 1 and a changed draw changes it.
    (The crossing scenarios' own ego misses their first steps entirely.)"""
    traj = [EgoPose(px + 0.9 * r, py, 0.0) for px, py in points]
    return traj, Ellipsoid(np.eye(2) / r**2)


def _position(n_steps, persistent, seed=3):
    doc = crossing_position_scenario(seed=seed, n_steps=n_steps)
    doc["agents"][0]["mode_persistence"] = persistent
    steps = scenario_from_dict(doc).agents[0].steps
    return (steps, *_off_path([_mean(mix) for mix in steps]))


def _control(n_steps, seed=3):
    agent = scenario_from_dict(crossing_control_scenario(seed=seed, n_steps=n_steps)).agents[0]
    x, y, v, th = agent.initial_state
    points = []
    for speed, heading in agent.steps:  # the rollout of the mean noise
        x, y = x + v * np.cos(th), y + v * np.sin(th)
        points.append((x, y))
        v, th = v + _mean(speed), th + _mean(heading)
    return (agent.steps, agent.initial_state, *_off_path(points))


@pytest.mark.parametrize("persistent", [False, True])
def test_estimates_lie_strictly_inside_zero_one(persistent):
    # else the bit-identity tests below compare zeros.  A control agent's
    # first position is the deterministic initial move, inside the footprint,
    # so its first step and union are skipped.
    steps, traj, q = _position(4, persistent)
    per_step, union = mc.mc_position_risk(steps, traj, q, SIZES[0], 11,
                                          mode_persistence=persistent)
    steps, init, traj, q = _control(4)
    c_step, _ = mc.mc_control_risk(steps, init, traj, q, SIZES[0], 11)
    for e in [*per_step, union, *c_step[1:]]:
        assert 0.0 < e.probability < 1.0


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
@pytest.mark.parametrize("persistent", [False, True])
def test_position_pipeline_is_bit_identical(n, n_steps, persistent):
    steps, traj, q = _position(n_steps, persistent)
    got = mc.mc_position_risk(steps, traj, q, n, 11, mode_persistence=persistent)
    want = ref.mc_position_risk(steps, traj, q, n, 11, mode_persistence=persistent)
    assert _triples(got) == _ref_triples(want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
def test_control_pipeline_is_bit_identical(n, n_steps):
    steps, init, traj, q = _control(n_steps)
    got = mc.mc_control_risk(steps, init, traj, q, n, 11)
    want = ref.mc_control_risk(steps, init, traj, q, n, 11)
    assert _triples(got) == _ref_triples(want)


@pytest.mark.parametrize("form", ["position", "control"])
def test_slow_evaluation_reads_only_its_own_buffer_set(form, monkeypatch):
    # every draw ahead finishes while the caller waits between slices, so a
    # draw into a set a step is still read from would change the estimates
    contains = mc.form_contains

    def slow(q, x, y):
        time.sleep(0.005)
        return contains(q, x, y)

    monkeypatch.setattr(mc, "form_contains", slow)
    n = SIZES[1]
    if form == "position":
        steps, traj, q = _position(4, False)
        got = mc.mc_position_risk(steps, traj, q, n, 11)
        want = ref.mc_position_risk(steps, traj, q, n, 11)
    else:
        steps, init, traj, q = _control(4)
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


def test_error_two_steps_ahead_reaches_caller_while_next_draw_runs(monkeypatch):
    # step 2's draw fails on one position worker while step 1's is held on
    # the other until that failure
    stream = mc._stream
    failed = threading.Event()
    held = []

    def failing(seed, step):
        if step == 1:
            held.append(failed.wait(timeout=30))
        if step == 2:
            failed.set()
            raise RuntimeError("draw failed at step 2")
        return stream(seed, step)

    monkeypatch.setattr(mc, "_stream", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="step 2"):
        _call("position")
    assert held == [True]
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
