"""Ego-frame transforms: rotation of quadratic forms, moment translation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajrisk.distributions import Gaussian2D, gaussian2d_raw_moments
from trajrisk.errors import ValidationError
from trajrisk.frames import (
    EgoPose,
    Ellipsoid,
    form_contains,
    rotate_form,
    rotation,
    to_ego_frame,
    translate_moments,
)


def test_rotation_matrix_basics():
    r = rotation(math.pi / 2)
    assert np.allclose(r @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(rotation(0.3) @ rotation(-0.3), np.eye(2), atol=1e-15)


def test_rotate_form_quarter_turn_swaps_axes():
    # axis-aligned ellipse with semi-axes (1, 1/2); rotating the form by
    # pi/4 mixes the diagonal into [[2.5, 1.5], [1.5, 2.5]]
    ell = Ellipsoid(np.diag([1.0, 4.0]))
    rot = rotate_form(ell, math.pi / 4)
    assert np.allclose(rot.q, [[2.5, 1.5], [1.5, 2.5]], atol=1e-12)
    assert np.allclose(rotate_form(ell, -math.pi / 4).q,
                       [[2.5, -1.5], [-1.5, 2.5]], atol=1e-12)
    # full quarter turn swaps the axes outright
    rot90 = rotate_form(ell, math.pi / 2)
    assert np.allclose(rot90.q, np.diag([4.0, 1.0]), atol=1e-12)


@given(theta=st.floats(-6.3, 6.3))
@settings(max_examples=100, deadline=None)
def test_rotate_form_preserves_membership(theta):
    ell = Ellipsoid(np.array([[1.2, 0.3], [0.3, 0.7]]))
    pts = np.array([[0.5, 0.2], [1.5, -0.4], [-0.9, 1.1], [0.0, 0.0]])
    # x in rotated-form ellipsoid iff R(theta) x in the original
    rotated = rotate_form(ell, theta)
    back = pts @ rotation(theta).T
    assert np.array_equal(rotated.contains(pts), ell.contains(back))


def test_ellipsoid_contains_is_boundary_inclusive():
    ell = Ellipsoid(np.eye(2))
    pts = np.array([[1.0, 0.0], [0.0, -1.0], [0.999, 0.0], [1.0001, 0.0]])
    assert ell.contains(pts).tolist() == [True, True, True, False]


def test_form_contains_adds_in_einsum_order_on_the_boundary():
    # points scaled onto the boundary land within an ulp or two of 1, where a
    # different summation order flips ~1% of the memberships
    rng = np.random.default_rng(0)
    q = np.array([[1.3, 0.4], [0.4, 0.7]])
    pts = rng.normal(size=(100_000, 2))
    pts /= np.sqrt(np.einsum("...i,ij,...j->...", pts, q, pts))[:, None]
    want = np.einsum("...i,ij,...j->...", pts, q, pts) <= 1.0
    assert 0 < want.sum() < want.size
    assert np.array_equal(form_contains(q, pts[:, 0], pts[:, 1]), want)
    assert np.array_equal(Ellipsoid(q).contains(pts), want)


def test_ellipsoid_rejects_bad_forms():
    with pytest.raises(ValidationError):
        Ellipsoid(np.array([[1.0, 0.0], [0.0, -2.0]]))  # not positive definite
    with pytest.raises(ValidationError):
        Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


def test_translate_moments_matches_shifted_gaussian():
    g = Gaussian2D(np.array([1.0, -2.0]), np.array([[1.1, 0.2], [0.2, 0.6]]))
    v = np.array([0.7, 1.9])
    moved = translate_moments(gaussian2d_raw_moments(g, 4), v, 4)
    direct = gaussian2d_raw_moments(Gaussian2D(g.mean - v, g.cov), 4)
    for a in range(5):
        for b in range(5 - a):
            assert moved[(a, b)] == pytest.approx(direct[(a, b)], abs=1e-12)


def _translate_loop(table, v, n):
    """Term-by-term binomial expansion: the loop translate_moments replaced.

    Maps each (i, j) to the translated moment and to the sum of the
    absolute values of its terms, the scale its rounding error lives on
    (the terms cancel heavily when the shift is large).
    """
    powx = [(-v[0]) ** k for k in range(n + 1)]
    powy = [(-v[1]) ** k for k in range(n + 1)]
    out = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            acc = mag = 0.0
            for p in range(i + 1):
                for q in range(j + 1):
                    term = (math.comb(i, p) * powx[i - p] * math.comb(j, q)
                            * powy[j - q] * table[(p, q)])
                    acc += term
                    mag += abs(term)
            out[(i, j)] = (acc, mag)
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_translate_moments_matches_binomial_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        r = rng.normal(size=(2, 2))
        g = Gaussian2D(rng.normal(scale=3.0, size=2), r @ r.T + 0.1 * np.eye(2))
        table = gaussian2d_raw_moments(g, 12)
        v = rng.uniform(0.5, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        moved = translate_moments(table, v, n)
        assert moved.shape == (n + 1, n + 1)
        for key, (val, mag) in _translate_loop(table, v, n).items():
            assert abs(moved[key] - val) <= 1e-12 * mag


@given(
    vx=st.floats(-5.0, 5.0),
    vy=st.floats(-5.0, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_translate_moments_invertible(vx, vy):
    g = Gaussian2D(np.array([0.3, 0.8]), np.array([[0.9, -0.1], [-0.1, 0.5]]))
    table = gaussian2d_raw_moments(g, 3)
    v = np.array([vx, vy])
    back = translate_moments(translate_moments(table, v, 3), -v, 3)
    for key in [(a, b) for a in range(4) for b in range(4 - a)]:
        val = table[key]
        assert abs(back[key] - val) <= 1e-12 * max(1.0, abs(val))


def test_to_ego_frame_membership_equivalence():
    """Membership probabilities agree between world and ego frames.

    The world-frame event (x - v)^T R^T Q R (x - v) <= 1 must equal the
    ego-frame event on translated moments with the rotated form; check via
    a dense sample cloud evaluated both ways.
    """
    rng = np.random.default_rng(7)
    g = Gaussian2D(np.array([2.0, 1.0]), np.array([[0.8, 0.3], [0.3, 1.4]]))
    pose = EgoPose(1.5, 0.5, 0.6)
    ell = Ellipsoid(np.array([[1.0, 0.2], [0.2, 0.5]]))

    table, q_ego = to_ego_frame(gaussian2d_raw_moments(g, 2), pose, ell)
    # translated mean/cov must be the agent stats relative to the pose
    assert np.allclose(table.mean(), g.mean - pose.position)
    assert np.allclose(table.covariance(), g.cov, atol=1e-12)

    pts = rng.multivariate_normal(g.mean, g.cov, size=4000)
    member_world = q_ego.contains(pts - pose.position)
    # same event written with the body-frame form evaluated on rotated points
    body = (pts - pose.position) @ rotation(pose.theta).T
    member_body = ell.contains(body)
    assert np.array_equal(member_world, member_body)


def test_ego_pose_position_is_vector():
    pose = EgoPose(1.0, 2.0, 0.1)
    assert pose.position.shape == (2,)
    assert pose.position.tolist() == [1.0, 2.0]
