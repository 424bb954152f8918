"""An exact oracle for position-form risk that shares no code with imhof.

P((x - p)' F (x - p) <= 1) for x ~ N(mu, Sigma), F = R(theta)' Q R(theta)
the footprint form seen from the ego pose (the form the Monte Carlo
estimators test against), is a probability that w = F^{1/2}(x - p) lies in
the unit disk.  In the principal axes of w's covariance the two coordinates
are independent, so the inner one is a difference of two normal CDFs
(`scipy.special.ndtr`) and the outer one a 1-D integral, taken along the
disk's edge as w_1 = sin(phi) so the integrand stays smooth.  imhof must
agree within its tolerance on the crossing corpus, and every bound must
sit above the oracle.

imhof's disk route (`qfmvg._disk`) now integrates this same disk-edge
integral, with its own code: it starts from the spectral reduction rather
than from the pose and the covariance, and runs the package's batched
Gauss-Kronrod driver rather than QUADPACK.  This oracle therefore shares
its math with the shipped route.  The independent check of that math is
the characteristic-function inversion kept in `reference_position`
(`tests/test_position_batch.py`, `tests/test_disk_route.py`).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.engine import BOUND_METHODS, marginal_risk, position_risks, stack_modes
from trajrisk.frames import EgoPose, Ellipsoid
from trajrisk.qfmvg import imhof_cdf
from trajrisk.scenario import scenario_from_dict
from trajrisk.synthetic import crossing_position_scenario

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def exact_risk(mean, cov, q, xy, theta) -> float:
    """P((x - xy)' R' Q R (x - xy) <= 1), x ~ N(mean, cov) with cov positive definite."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    vals, vecs = np.linalg.eigh(r.T @ q @ r)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    b = root @ cov @ root
    lam, axes = np.linalg.eigh(0.5 * (b + b.T))
    m_in, m_out = axes.T @ root @ (np.asarray(mean) - xy)
    s_in, s_out = np.sqrt(lam)  # the wider axis is the outer coordinate

    def integrand(phi):
        u, h = math.sin(phi), math.cos(phi)
        z = (u - m_out) / s_out
        inner = special.ndtr((h - m_in) / s_in) - special.ndtr((-h - m_in) / s_in)
        return math.exp(-0.5 * z * z) / (s_out * _SQRT_2PI) * inner * h

    peak = math.asin(min(1.0, max(-1.0, m_out)))
    value, _ = integrate.quad(integrand, -0.5 * math.pi, 0.5 * math.pi, points=[peak],
                              epsabs=1e-14, epsrel=1e-12, limit=500)
    return value


def _stack_exact(stack):
    return np.array([
        exact_risk(stack.means[i], stack.covs[i], stack.q,
                   stack.xy[stack.step[i]], stack.thetas[stack.step[i]])
        for i in range(len(stack.means))
    ])


def test_standard_normal_disk_anchor():
    # P(|Z|^2 <= 1) = 1 - exp(-1/2)
    got = exact_risk([0.0, 0.0], np.eye(2), np.eye(2), np.zeros(2), 0.7)
    assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-13)


def test_imhof_matches_exact_oracle_on_crossing_modes():
    worst, quad_modes = 0.0, 0
    for seed in range(40):
        sc = scenario_from_dict(crossing_position_scenario(seed=seed))
        stack = sc.position_stack
        cdf = imhof_cdf(stack.spectral, tol=1e-10)
        diff = np.abs(cdf.probabilities - _stack_exact(stack))
        # imhof certifies each form within its error bound (<= tol / 2)
        assert np.all(diff <= cdf.error_bounds + 1e-12)
        worst = max(worst, float(diff.max()))
        quad_modes += int(np.count_nonzero(np.isin(cdf.branches, ("disk", "quad"))))
    assert worst <= 1e-10
    assert quad_modes > 0  # an integrated branch, not only the gates, was checked


def _spd(a, b, rho):
    sa, sb = math.sqrt(a), math.sqrt(b)
    return np.array([[a, rho * sa * sb], [rho * sa * sb, b]])


@given(
    mx=st.floats(-3.0, 3.0),
    my=st.floats(-3.0, 3.0),
    var_x=st.floats(0.01, 2.0),
    var_y=st.floats(0.01, 2.0),
    rho=st.floats(-0.9, 0.9),
    theta=st.floats(-math.pi, math.pi),
    q_x=st.floats(0.2, 4.0),
    q_y=st.floats(0.2, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_cross_method_invariants(mx, my, var_x, var_y, rho, theta, q_x, q_y):
    mode = Gaussian2D(np.array([mx, my]), _spd(var_x, var_y, rho))
    other = Gaussian2D(np.array([0.5, -0.5]), _spd(0.3, 0.2, 0.4))
    q = Ellipsoid(np.diag([q_x, q_y]))
    pose = EgoPose(0.2, -0.1, theta)
    single = Gaussian2DMixture((mode,), (1.0,))
    # the mode is row 1 of a two-step stack that also holds another mode
    stack = stack_modes([Gaussian2DMixture((other,), (1.0,)), single], [pose, pose], q)
    exact = exact_risk(mode.mean, mode.cov, q.q, np.array([pose.x, pose.y]), theta)

    vals = {}
    for method in sorted(BOUND_METHODS | {"imhof", "ltz"}):
        batched = position_risks(stack, method, tol=1e-10)[1]
        # batched = scalar: the row equals the one-mode, one-step route
        alone = marginal_risk(single, pose, q, method, tol=1e-10).mixed
        assert batched == alone, method
        vals[method] = batched

    assert abs(vals["imhof"] - exact) <= 1e-10
    for method in BOUND_METHODS:
        assert vals[method] >= exact - 1e-6, method
    assert vals["sos-d6"] <= vals["sos-d4"] + 1e-6 <= vals["sos-d2"] + 2e-6
    assert vals["sos-d2"] == vals["chebyshev-quad"]
