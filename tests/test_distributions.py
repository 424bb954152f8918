"""Scalar/bivariate mixture moments and trigonometric moment machinery."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajrisk.distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    MomentTable,
    ScalarComponent,
    ScalarMixture,
    _check_gaussians,
    gaussian2d_raw_moments,
    raw_moment_array,
    trig_moment,
    trig_moments_from_char_fn,
)
from trajrisk.errors import ValidationError


# -- scalar components and mixtures -----------------------------------------


def test_scalar_component_moments_match_closed_form():
    # central Gaussian: odd moments vanish, even are (n-1)!! sigma^n
    c = ScalarComponent(0.0, 4.0)
    assert c.raw_moment(0) == 1.0
    assert c.raw_moment(1) == 0.0
    assert c.raw_moment(2) == pytest.approx(4.0)
    assert c.raw_moment(3) == 0.0
    assert c.raw_moment(4) == pytest.approx(3 * 16.0)
    assert c.raw_moment(6) == pytest.approx(15 * 64.0)


def test_scalar_component_shifted_moments():
    # E[(Z+1)^n] for Z standard normal, by binomial expansion
    c = ScalarComponent(1.0, 1.0)
    assert c.raw_moment(2) == pytest.approx(2.0)
    assert c.raw_moment(3) == pytest.approx(4.0)
    assert c.raw_moment(4) == pytest.approx(10.0)
    assert c.raw_moment(6) == pytest.approx(76.0)


def test_scalar_mixture_mean_variance():
    mix = ScalarMixture(
        [ScalarComponent(-1.0, 0.5), ScalarComponent(2.0, 2.0)], [0.25, 0.75]
    )
    assert mix.mean == pytest.approx(0.25 * -1.0 + 0.75 * 2.0)
    second = 0.25 * (0.5 + 1.0) + 0.75 * (2.0 + 4.0)
    assert mix.variance == pytest.approx(second - mix.mean**2)
    assert mix.raw_moment(1) == pytest.approx(mix.mean)
    assert mix.raw_moment(2) == pytest.approx(second)


def test_point_mixture():
    p = ScalarMixture.point(0.7)
    assert p.mean == 0.7
    assert p.variance == 0.0
    assert p.raw_moment(3) == pytest.approx(0.7**3)
    # characteristic function of a constant is a pure phase
    z = p.char_fn(2.0)
    assert z == pytest.approx(complex(math.cos(1.4), math.sin(1.4)))


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        ScalarMixture([ScalarComponent(0.0, 1.0)], [0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mixture_weights_must_be_finite(bad):
    # abs(nan - 1) > tol is False, so the sum check alone lets NaN through
    with pytest.raises(ValidationError, match="ScalarMixture: non-finite"):
        ScalarMixture([ScalarComponent(0.0, 1.0), ScalarComponent(1.0, 1.0)], [bad, 1.0])
    g = Gaussian2D([0.0, 0.0], np.eye(2))
    with pytest.raises(ValidationError, match="Gaussian2DMixture: non-finite"):
        Gaussian2DMixture([g], [bad])


@given(
    t=st.floats(-30.0, 30.0),
    m1=st.floats(-3.0, 3.0),
    v1=st.floats(0.0, 4.0),
    m2=st.floats(-3.0, 3.0),
    v2=st.floats(0.0, 4.0),
    w=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_char_fn_hermitian_and_bounded(t, m1, v1, m2, v2, w):
    mix = ScalarMixture(
        [ScalarComponent(m1, v1), ScalarComponent(m2, v2)], [w, 1.0 - w]
    )
    z_pos = mix.char_fn(t)
    z_neg = mix.char_fn(-t)
    assert abs(z_pos) <= 1.0 + 1e-12
    assert z_neg == pytest.approx(z_pos.conjugate(), abs=1e-12)
    assert mix.char_fn(0.0) == pytest.approx(1.0)


# -- trigonometric moments ----------------------------------------------------


def _trig_quadrature(mix: ScalarMixture, m: int, n: int) -> float:
    """Independent oracle: integrate cos^m sin^n against each component."""
    from scipy.integrate import quad

    total = 0.0
    for w, comp in zip(mix.weights, mix.components):
        if comp.variance == 0.0:
            total += w * math.cos(comp.mean) ** m * math.sin(comp.mean) ** n
            continue
        sd = math.sqrt(comp.variance)

        def f(u, mu=comp.mean, sd=sd):
            x = mu + sd * u
            return (
                math.cos(x) ** m
                * math.sin(x) ** n
                * math.exp(-0.5 * u * u)
                / math.sqrt(2 * math.pi)
            )

        val, _ = quad(f, -12.0, 12.0, limit=200, epsabs=1e-13, epsrel=1e-13)
        total += w * val
    return total


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                 (3, 1), (2, 2), (0, 4), (5, 3)])
def test_trig_moments_match_quadrature(m, n):
    mix = ScalarMixture(
        [ScalarComponent(0.4, 0.09), ScalarComponent(-1.1, 0.25)], [0.6, 0.4]
    )
    assert trig_moment(mix, m, n) == pytest.approx(
        _trig_quadrature(mix, m, n), abs=1e-10
    )


def test_trig_pythagoras():
    mix = ScalarMixture.single(0.8, 0.3)
    assert trig_moment(mix, 2, 0) + trig_moment(mix, 0, 2) == pytest.approx(1.0)
    # fourth-degree variant: (c^2+s^2)^2 = 1
    total = (
        trig_moment(mix, 4, 0)
        + 2 * trig_moment(mix, 2, 2)
        + trig_moment(mix, 0, 4)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trig_moment_rejects_bad_char_fn():
    # a "characteristic function" that is not Hermitian leaves an
    # imaginary residual and must raise rather than return garbage
    from trajrisk.errors import NumericalError

    cf = np.array([1.0, 1.0 + 0.5j, 1.0 + 0.5j])  # frequencies -1, 0, 1
    with pytest.raises(NumericalError):
        trig_moments_from_char_fn(cf, [(1, 0)], 1)


def test_trig_moment_accepts_array_valued_char_fn():
    # one row per mixture on the kernel's leading axis: the rows equal the
    # scalar results
    mixes = [ScalarMixture.single(0.3, 0.02), ScalarMixture.point(-1.1)]
    cf = np.array([[m.char_fn(f) for f in range(-4, 5)] for m in mixes])
    got = trig_moments_from_char_fn(cf, [(3, 1)], 4)[:, 0]
    want = [trig_moment(m, 3, 1) for m in mixes]
    assert got == pytest.approx(want, abs=1e-15)


def test_trig_moment_rejects_negative_powers():
    with pytest.raises(ValidationError):
        trig_moment(ScalarMixture.point(0.0), -1, 0)


@pytest.mark.parametrize("power", [1.5, 2.0, "1", True, None])
def test_trig_moment_rejects_powers_other_than_ints(power):
    # unchecked, 1.5, 2.0 and "1" raised a bare TypeError and True read as 1
    for m, n in ((power, 0), (0, power)):
        with pytest.raises(ValidationError, match=rf"^power {re.escape(repr(power))} of "):
            trig_moment(ScalarMixture.point(0.3), m, n)


# -- bivariate Gaussians and moment tables -----------------------------------


def _hermite_oracle(g: Gaussian2D, a: int, b: int) -> float:
    """E[x^a y^b] by Gauss-Hermite quadrature (exact for polynomials)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(24)
    w2 = np.outer(weights, weights) / (2 * math.pi)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    # allow singular covariances via eigendecomposition square root
    vals, vecs = np.linalg.eigh(g.cov)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    x = g.mean[0] + root[0, 0] * u + root[0, 1] * v
    y = g.mean[1] + root[1, 0] * u + root[1, 1] * v
    return float(np.sum(w2 * x**a * y**b))


@pytest.mark.parametrize(
    "mean,cov",
    [
        ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))),
        ((1.5, -0.5), ((2.0, 0.7), (0.7, 0.8))),
        ((-2.0, 3.0), ((0.3, -0.2), (-0.2, 1.1))),
    ],
)
def test_gaussian2d_raw_moments_match_quadrature(mean, cov):
    g = Gaussian2D(np.array(mean), np.array(cov))
    table = gaussian2d_raw_moments(g, 6)
    for a in range(7):
        for b in range(7 - a):
            assert table[(a, b)] == pytest.approx(
                _hermite_oracle(g, a, b), rel=1e-11, abs=1e-11
            ), (a, b)


def test_gaussian2d_degenerate_covariance():
    g = Gaussian2D(np.array([1.0, 2.0]), np.zeros((2, 2)))
    table = gaussian2d_raw_moments(g, 4)
    assert table[(2, 1)] == pytest.approx(1.0**2 * 2.0)
    assert table[(0, 4)] == pytest.approx(16.0)


def test_gaussian2d_rejects_indefinite_covariance():
    with pytest.raises(ValidationError, match="positive semidefinite"):
        Gaussian2D(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def _per_mode_check(mean, cov):
    """The error text of the per-mode check Gaussian2D ran before the
    stacked one (None when the mode is accepted): the differential oracle."""
    m = np.asarray(mean, dtype=float)
    if m.shape != (2,):
        return f"mean must have shape (2,), got {m.shape}"
    if not np.all(np.isfinite(m)):
        return "mean has non-finite entries"
    c = np.asarray(cov, dtype=float)
    if c.shape != (2, 2):
        return f"covariance must be 2x2, got shape {c.shape}"
    if not np.all(np.isfinite(c)):
        return "covariance has non-finite entries"
    if abs(c[0, 1] - c[1, 0]) > 1e-12 * max(1.0, abs(c[0, 1]), abs(c[1, 0])):
        return "covariance must be symmetric within 1e-12"
    eigvals = np.linalg.eigvalsh(0.5 * (c + c.T))
    if eigvals.min() < -1e-12 * max(1.0, eigvals.max()):
        return f"covariance is not positive semidefinite (eigenvalues {eigvals})"
    return None


def _boundary_modes(rng, n):
    """Modes on both sides of the symmetry and PSD tolerances, at scales
    below and above 1, with a few shape and finiteness faults mixed in."""
    modes = []
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        angle = rng.uniform(0.0, math.pi)
        r = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        low = -1e-12 * max(1.0, scale) * rng.uniform(0.5, 1.5)
        cov = r @ np.diag([scale, low if rng.random() < 0.5 else 0.0]) @ r.T
        cov[0, 1] += 1e-12 * max(1.0, abs(cov[0, 1])) * rng.uniform(-1.5, 1.5)
        mean = rng.normal(size=2)
        fault = rng.integers(12)
        if fault == 0:
            mean = np.append(mean, 1.0)
        elif fault == 1:
            mean[1] = math.nan
        elif fault == 2:
            cov = cov[:1]
        elif fault == 3:
            cov[1, 1] = math.inf
        modes.append((mean, cov))
    return modes


def test_stacked_check_matches_the_per_mode_check():
    rng = np.random.default_rng(10)
    modes = _boundary_modes(rng, 600)
    verdicts = [_per_mode_check(m, c) for m, c in modes]
    assert 100 < sum(v is None for v in verdicts) < 500
    for (mean, cov), want in zip(modes, verdicts):
        if want is None:
            g = Gaussian2D(mean, cov)
            assert np.array_equal(g.cov, 0.5 * (cov + cov.T))
        else:
            with pytest.raises(ValidationError) as err:
                Gaussian2D(mean, cov)
            assert str(err.value) == want
    # a whole stack reports its first bad mode, at the path it is given
    first = next(n for n, v in enumerate(verdicts) if v is not None)
    with pytest.raises(ValidationError) as err:
        _check_gaussians(*zip(*modes), lambda n: f"modes[{n}]")
    assert str(err.value) == f"modes[{first}]: {verdicts[first]}"
    good = [mode for mode, v in zip(modes, verdicts) if v is None]
    means, covs = _check_gaussians(*zip(*good), lambda n: f"modes[{n}]")
    assert not means.flags.writeable and not covs.flags.writeable
    for m, c, (mean, cov) in zip(means, covs, good, strict=True):
        single = Gaussian2D(mean, cov)
        assert np.array_equal(m, single.mean) and np.array_equal(c, single.cov)


def test_moment_table_round_trips_mean_covariance():
    g = Gaussian2D(np.array([0.4, -1.2]), np.array([[1.5, 0.3], [0.3, 0.9]]))
    table = gaussian2d_raw_moments(g, 2)
    assert np.allclose(table.mean(), g.mean)
    assert np.allclose(table.covariance(), g.cov, atol=1e-12)


def test_moment_table_is_complete_and_bounded():
    table = gaussian2d_raw_moments(Gaussian2D(np.zeros(2), np.eye(2)), 2)
    with pytest.raises(ValidationError):
        table[(2, 1)]  # order 3 from an order-2 table
    with pytest.raises(ValidationError, match="order 4"):
        raw_moment_array(table, 4)
    with pytest.raises(ValidationError, match=r"numeric array of shape \(3, 3\)"):
        MomentTable(2, {(0, 0): 1.0})  # a mapping is not a moment array


@pytest.mark.parametrize("entries", [
    "moments", [[1.0, 0.0, 1.0], [0.0, 0.0], [1.0]], np.eye(2), np.ones((3, 3, 1)), None,
    [["1", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]],
], ids=["string", "ragged", "2x2", "3x3x1", "none", "numeric-text"])
def test_moment_table_needs_a_numeric_square_array(entries):
    # unchecked, a string or a ragged list raised a bare ValueError, and
    # numbers written as text were read as numbers
    with pytest.raises(ValidationError, match=r"numeric array of shape \(3, 3\)"):
        MomentTable(2, entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [(1, 0), (0, 1), (1, 1), (0, 2)])
def test_moment_table_rejects_non_finite_moments(index, bad):
    # unchecked, NaN first moments got chebyshev bounds of 1.0 with no error
    m = gaussian2d_raw_moments(Gaussian2D(np.zeros(2), np.eye(2)), 2).moments.copy()
    m[index] = bad
    with pytest.raises(ValidationError, match=rf"^moment {re.escape(str(index))} is not finite"):
        MomentTable(2, m)
    m[index] = 0.0 if index != (0, 2) else 1.0
    m[2, 2] = bad  # beyond the order: not a moment, stored as zero
    assert MomentTable(2, m).moments[2, 2] == 0.0


def test_moment_table_rejects_jensen_violation():
    entries = [[1.0, 0.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ValidationError, match="Jensen"):
        MomentTable(2, entries)
