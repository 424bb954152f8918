"""Moment-based collision bounds: Cantelli on quadratic and linear margins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajrisk.chebyshev import (
    HalfSpace,
    cheb_bound_halfspace,
    cheb_bound_quadratic,
    ellipse_to_halfspaces,
    one_tailed_bounds,
    quad_form_moments,
    tangent_normals,
)
from trajrisk.distributions import Gaussian2D, gaussian2d_raw_moments
from trajrisk.errors import ValidationError
from trajrisk.frames import Ellipsoid, rotate_form, rotation
from trajrisk.qfmvg import imhof_cdf, spectral_reduce
from trajrisk.synthetic import random_gaussian_instance


# -- scalar one-tailed bound --------------------------------------------------


def test_cheb_one_tailed_known_value():
    # E[g] = 0.5, Var[g] = 1.25: bound = 1.25 / (1.25 + 0.25) = 5/6
    assert one_tailed_bounds(0.5, 1.25 + 0.25) == pytest.approx(5.0 / 6.0)


def test_cheb_one_tailed_vacuous_when_mean_nonpositive():
    assert one_tailed_bounds(0.0, 1.0) == 1.0
    assert one_tailed_bounds(-2.0, 5.0) == 1.0


def test_cheb_one_tailed_zero_variance():
    # deterministic positive margin: no mass at or below zero
    assert one_tailed_bounds(3.0, 9.0) == 0.0


def test_cheb_one_tailed_rejects_jensen_violation():
    with pytest.raises(ValidationError, match="inconsistent"):
        one_tailed_bounds(2.0, 1.0)


@given(mean=st.floats(0.01, 10.0), var=st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_cheb_one_tailed_matches_cantelli_formula(mean, var):
    got = float(one_tailed_bounds(mean, var + mean * mean))
    assert got == pytest.approx(var / (var + mean * mean), abs=1e-12)
    assert 0.0 <= got <= 1.0


# -- quadratic-margin moments -------------------------------------------------


def _hermite_second_moment(q: np.ndarray, g: Gaussian2D) -> float:
    """Independent oracle for E[(x'Qx)^2] via Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(16)
    w2 = np.outer(weights, weights) / (2 * math.pi)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    vals, vecs = np.linalg.eigh(g.cov)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    x = g.mean[0] + root[0, 0] * u + root[0, 1] * v
    y = g.mean[1] + root[1, 0] * u + root[1, 1] * v
    qf = q[0, 0] * x * x + 2 * q[0, 1] * x * y + q[1, 1] * y * y
    return float(np.sum(w2 * qf * qf))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_quad_form_second_moment_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    q, mean, cov = random_gaussian_instance(rng)
    g = Gaussian2D(mean, cov)
    table = gaussian2d_raw_moments(g, 4)
    assert quad_form_moments(q, table, 2)[2] == pytest.approx(
        _hermite_second_moment(np.asarray(q), g), rel=1e-10
    )


def test_quad_form_second_moment_needs_order_four():
    table = gaussian2d_raw_moments(Gaussian2D(np.zeros(2), np.eye(2)), 2)
    with pytest.raises(ValidationError, match="order 4"):
        quad_form_moments(np.eye(2), table, 2)[2]


# -- quadratic-margin bound ---------------------------------------------------


def test_cheb_bound_quadratic_analytic_anchor():
    # x ~ N((2, 0), I) against the radius-2 disk: E[Q(x)] = 1.5,
    # Var[Q(x)] = 1.25, so the Cantelli value is (5/4)/(5/4 + 1/4) = 5/6
    g = Gaussian2D(np.array([2.0, 0.0]), np.eye(2))
    bound = cheb_bound_quadratic(np.eye(2) / 4.0, gaussian2d_raw_moments(g, 4))
    assert bound.value == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert bound.method == "chebyshev-quad"
    assert bound.moments_used == 4


def test_cheb_bound_quadratic_vacuous_inside():
    # mean inside the ellipse: one-tailed precondition fails, bound is 1
    g = Gaussian2D(np.zeros(2), 0.01 * np.eye(2))
    bound = cheb_bound_quadratic(np.eye(2), gaussian2d_raw_moments(g, 4))
    assert bound.value == 1.0


@pytest.mark.parametrize("seed", range(25))
def test_cheb_bound_quadratic_dominates_true_probability(seed):
    rng = np.random.default_rng(1000 + seed)
    q, mean, cov = random_gaussian_instance(rng)
    truth = imhof_cdf(spectral_reduce(q, mean, cov), tol=1e-10).probability
    bound = cheb_bound_quadratic(
        q, gaussian2d_raw_moments(Gaussian2D(mean, cov), 4)
    ).value
    assert bound >= truth - 1e-9


# -- half-space construction and bound ----------------------------------------


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValidationError):
        HalfSpace(np.zeros(2), -1.0)


@pytest.mark.parametrize("n_h", [3, 4, 12, 40])
def test_circumscribed_polygon_contains_ellipse(n_h):
    q = np.array([[1.4, 0.5], [0.5, 0.9]])
    faces = ellipse_to_halfspaces(q, n_h)
    assert len(faces) == n_h
    # boundary points of the ellipse satisfy every face constraint
    evals, evecs = np.linalg.eigh(q)
    q_inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    ts = np.linspace(0.0, 2 * np.pi, 257)
    boundary = (q_inv_sqrt @ np.stack([np.cos(ts), np.sin(ts)])).T
    for face in faces:
        margins = boundary @ face.a + face.b
        assert margins.max() <= 1e-12
    # and each face is genuinely tangent: some boundary point touches it
    for face in faces:
        margins = boundary @ face.a + face.b
        assert margins.max() >= -1e-3


@pytest.mark.parametrize("theta", [0.3, -2.5, 1.1, math.pi / 2])
def test_rotated_form_faces_are_shifted_tangent_faces(theta):
    # The faces of R^T Q R are R^T times the faces of Q at tangency angles
    # t_k + theta, which is the polygon the body-frame path evaluates.
    q = np.array([[1.4, 0.5], [0.5, 0.9]])
    rotated = np.array([f.a for f in ellipse_to_halfspaces(rotate_form(Ellipsoid(q), theta), 12)])
    shifted = tangent_normals(q, 12, [theta])[0]
    r = rotation(theta)
    assert np.allclose(rotated, shifted @ r, atol=1e-12)
    # Q's own faces with normals rotated by R^T are a different polygon
    # unless theta is a multiple of 2 pi / 12 (then the same faces, permuted).
    unshifted = tangent_normals(q, 12)[0] @ r
    gap = np.abs(rotated[:, None] - unshifted[None]).max(axis=-1).min(axis=1).max()
    on_grid = math.isclose(theta % (math.pi / 6), 0.0, abs_tol=1e-12)
    assert (gap <= 1e-12) == on_grid


def test_ellipse_to_halfspaces_validation():
    with pytest.raises(ValidationError):
        ellipse_to_halfspaces(np.eye(2), 2)
    with pytest.raises(ValidationError):
        ellipse_to_halfspaces(np.diag([1.0, 0.0]), 8)


def test_cheb_bound_halfspace_single_face_formula():
    # face {x1 >= 4} written as -x1 + 4 <= 0, agent x1 ~ N(1, 1): the mean
    # margin is +3 (mean outside the face), var 1; bound = 1/(1+9) = 0.1
    faces = [HalfSpace(np.array([-1.0, 0.0]), 4.0)]
    bound = cheb_bound_halfspace(faces, np.array([1.0, 0.0]), np.eye(2))
    assert bound.value == pytest.approx(0.1)
    assert bound.moments_used == 2


def test_cheb_bound_halfspace_takes_best_face():
    faces = [
        HalfSpace(np.array([1.0, 0.0]), -2.0),  # mean inside: vacuous
        HalfSpace(np.array([-1.0, 0.0]), 5.0),  # mean margin 4, var 1
    ]
    bound = cheb_bound_halfspace(faces, np.array([1.0, 0.0]), np.eye(2))
    assert bound.value == pytest.approx(1.0 / 17.0)


@pytest.mark.parametrize("seed", range(25))
def test_cheb_bound_halfspace_dominates_true_probability(seed):
    rng = np.random.default_rng(2000 + seed)
    q, mean, cov = random_gaussian_instance(rng)
    truth = imhof_cdf(spectral_reduce(q, mean, cov), tol=1e-10).probability
    bound = cheb_bound_halfspace(ellipse_to_halfspaces(q, 12), mean, cov).value
    assert bound >= truth - 1e-9


def test_more_faces_never_hurt():
    rng = np.random.default_rng(11)
    q, mean, cov = random_gaussian_instance(rng)
    vals = [
        cheb_bound_halfspace(ellipse_to_halfspaces(q, n), mean, cov).value
        for n in (3, 6, 12, 24, 48)
    ]
    # face sets at powers of the base angle grid refine the polygon;
    # the minimum over faces can only improve as the grid densifies
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12
