"""CDF of Gaussian quadratic forms: spectral reduction, imhof, surrogate."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chndtr

import reference_ncx2
import reference_position
from trajrisk.errors import NumericalError, ValidationError
from trajrisk.qfmvg import (
    SpectralBatch,
    SpectralForm,
    imhof_cdf,
    ltz_cdf,
    spectral_reduce,
    spectral_reduce_batch,
)

# Reference CDF values computed independently with mpmath at 40-50 digits:
# the noncentral chi-square by its Poisson-weighted regularized-gamma
# series, the weighted forms by adaptive quadrature of the inversion
# integral with an oscillation-aware tail (values stable to < 1e-30
# under doubling of the integration split point).
NCX2_REFS = [
    # (x, df, nc, cdf)
    (1.0, 2.0, 0.0, 0.39346934028736658),
    (2.5, 3.0, 1.7, 0.31760123259798634),
    (0.8, 1.0, 4.0, 0.1325564771960376),
    (12.0, 5.0, 9.5, 0.40582459949668133),
    (0.05, 2.0, 0.3, 0.02129065993201732),
]

FORM_REFS = [
    # (lambdas, noncentralities, q, cdf)
    ((2.0, 0.5), (1.0, 0.25), 1.0, 0.224566398868086258),
    ((3.0, 1.0, 0.2), (0.5, 2.0, 0.0), 2.0, 0.165765043377642529),
]
# imhof takes forms of rank <= 2 only; ltz takes every row
RANK_TWO_REFS = [row for row in FORM_REFS if len(row[0]) <= 2]


# -- spectral reduction -------------------------------------------------------


def test_spectral_reduce_isotropic_identity():
    # standard normal against the unit disk: two unit eigenvalues, central
    form = spectral_reduce(np.eye(2), np.zeros(2), np.eye(2))
    assert form.lambdas == pytest.approx((1.0, 1.0))
    assert form.noncentralities == pytest.approx((0.0, 0.0))
    assert form.q == pytest.approx(1.0)


def test_spectral_reduce_known_diagonal_case():
    # x ~ N((1, 0), diag(4, 1)), form diag(1/4, 1): whitening gives
    # Sigma^(1/2) Q Sigma^(1/2) = I, and the whitened mean puts delta^2 =
    # (0.5)^2 on one unit eigenvalue.  Equal eigenvalues make the pairing
    # order arbitrary, so compare as a sorted pair set.
    form = spectral_reduce(np.diag([0.25, 1.0]), np.array([1.0, 0.0]),
                           np.diag([4.0, 1.0]))
    pairs = sorted(zip(form.lambdas, form.noncentralities))
    assert pairs == pytest.approx([(1.0, 0.0), (1.0, 0.25)])
    assert form.q == pytest.approx(1.0)


@given(
    mx=st.floats(-3.0, 3.0),
    my=st.floats(-3.0, 3.0),
    scale=st.floats(0.2, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_spectral_reduce_matches_direct_quadratic(mx, my, scale):
    """sum lambda_r chi2(delta_r^2) must reproduce E and Var of x^T Q x."""
    q = np.array([[0.8, 0.2], [0.2, 1.1]]) * scale
    cov = np.array([[1.3, -0.4], [-0.4, 0.7]])
    mean = np.array([mx, my])
    form = spectral_reduce(q, mean, cov)
    lam = np.array(form.lambdas)
    nc = np.array(form.noncentralities)
    # matching holds up to the deterministic offset folded into q
    offset = 1.0 - form.q
    e_direct = float(np.trace(q @ cov) + mean @ q @ mean)
    v_direct = float(2 * np.trace(q @ cov @ q @ cov) + 4 * mean @ q @ cov @ q @ mean)
    assert float(np.sum(lam * (1 + nc))) + offset == pytest.approx(e_direct, rel=1e-9)
    assert float(np.sum(lam**2 * (2 + 4 * nc))) == pytest.approx(v_direct, rel=1e-9)


def test_spectral_reduce_degenerate_covariance_folds_offset():
    # zero covariance: no eigenvalues, event reduces to the sign of q
    form = spectral_reduce(np.eye(2), np.array([2.0, 0.0]), np.zeros((2, 2)))
    assert form.deterministic
    assert form.q == pytest.approx(1.0 - 4.0)
    assert imhof_cdf(form).probability == 0.0
    assert ltz_cdf(form).probability == 0.0
    inside = spectral_reduce(np.eye(2), np.array([0.5, 0.0]), np.zeros((2, 2)))
    assert imhof_cdf(inside).probability == 1.0
    assert ltz_cdf(inside).probability == 1.0


def test_spectral_reduce_rejects_indefinite_form():
    with pytest.raises(ValidationError):
        spectral_reduce(np.diag([1.0, -1.0]), np.zeros(2), np.eye(2))


def test_spectral_form_validation():
    with pytest.raises(ValidationError):
        SpectralForm((1.0, 2.0), (0.0, 0.0), 1.0)  # not descending
    with pytest.raises(ValidationError):
        SpectralForm((1.0,), (-0.1,), 1.0)  # negative noncentrality
    with pytest.raises(ValidationError):
        SpectralForm((0.0,), (0.0,), 1.0)  # zero eigenvalue


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lambdas", "noncentralities"])
def test_spectral_form_rejects_nonfinite_entries(field, bad):
    # NaN passes every sign and order comparison: unchecked, imhof scores
    # ((nan,), (0,), 1) as 1.0 and ((1,), (nan,), 1) as 0.0, both with error 0
    fields = {"lambdas": (1.0, 0.5), "noncentralities": (0.2, 0.1), "q": 1.0}
    fields[field] = (1.0, bad) if field == "noncentralities" else (bad, 0.5)
    with pytest.raises(ValidationError, match="must be finite"):
        SpectralForm(**fields)


@pytest.mark.parametrize("q_form,mean,cov,match", [
    (np.eye(2), 1.0, np.eye(2), r"mean must have shape \(d,\)"),
    (np.eye(2), np.zeros((1, 2)), np.eye(2), r"mean must have shape \(d,\)"),
    (np.eye(3), np.zeros(2), np.eye(2), r"form Q must have shape \(2, 2\)"),
    (np.eye(2), np.zeros(2), np.eye(3), r"covariance must have shape \(2, 2\)"),
    (np.eye(2), np.zeros(2), np.ones(2), r"covariance must have shape \(2, 2\)"),
    (np.eye(2), np.array([math.nan, 0.0]), np.eye(2), "mean must be finite"),
    (np.eye(2), np.array([0.0, math.inf]), np.eye(2), "mean must be finite"),
    (np.diag([1.0, math.nan]), np.zeros(2), np.eye(2), "form Q must be finite"),
    (np.eye(2), np.zeros(2), np.full((2, 2), math.nan), "covariance must be finite"),
    (np.eye(2), np.zeros(2), np.diag([math.inf, 1.0]), "covariance must be finite"),
], ids=["scalar-mean", "matrix-mean", "form-3x3", "cov-3x3", "cov-vector",
        "nan-mean", "inf-mean", "nan-form", "nan-cov", "inf-cov"])
def test_spectral_reduce_names_the_bad_input(q_form, mean, cov, match):
    # unchecked, a scalar mean raises IndexError, a NaN covariance "threshold
    # q must be finite", and a NaN mean reduces to NaN noncentralities that
    # imhof scores 0.0 with error 0
    with pytest.raises(ValidationError, match=match):
        spectral_reduce(q_form, mean, cov)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["mean", "form Q", "covariance"])
def test_spectral_reduce_batch_names_the_non_finite_input(name, bad):
    # unchecked, a NaN mean reduced to NaN noncentralities that ltz scored
    # 0.0 and imhof blamed on its quadrature, and a NaN Q passed form_root
    args = {"mean": np.array([[0.5, 0.0], [0.2, 0.1]]), "form Q": np.eye(2),
            "covariance": np.stack([np.eye(2), np.diag([0.3, 0.1])])}
    args[name].flat[-1] = bad
    with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
        spectral_reduce_batch(args["form Q"], args["mean"], args["covariance"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cdf", [imhof_cdf, ltz_cdf], ids=["imhof", "ltz"])
def test_batch_thresholds_must_be_finite(cdf, bad):
    # a SpectralBatch is not checked when built: unchecked, both evaluators
    # score q = nan as 0.0 and q = inf as 1.0, imhof with error 0
    covs = np.stack([np.eye(2), np.diag([0.3, 0.1])])
    reduced = spectral_reduce_batch(np.eye(2), np.ones((2, 2)), covs, q=bad)
    hand = SpectralBatch(
        np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([[0.2, 0.1], [0.2, 0.1]]), np.array([1.0, bad])
    )
    for batch in (reduced, hand):
        with pytest.raises(ValidationError, match="threshold q must be finite"):
            cdf(batch)


# -- noncentral chi-square CDF -----------------------------------------------
# ltz evaluates its surrogate with scipy's ``chndtr``; these hold that
# function to the mpmath values and to the Poisson series it replaced.


@pytest.mark.parametrize("x,df,nc,ref", NCX2_REFS)
def test_noncentral_chi2_cdf_reference_values(x, df, nc, ref):
    assert chndtr(x, df, nc) == pytest.approx(ref, abs=1e-13)


def test_noncentral_chi2_cdf_matches_poisson_series():
    # log-uniform df in [0.1, 30] and nc in [0.01, 100] (a tenth central),
    # x from 0.03 to 5 times the mean df + nc: both tails and the bulk
    rng = np.random.default_rng(2020)
    n = 5000
    df = 10.0 ** rng.uniform(-1.0, 1.5, n)
    nc = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-2.0, 2.0, n))
    x = (df + nc) * 10.0 ** rng.uniform(-1.5, 0.7, n)
    worst = max(
        abs(chndtr(*p) - reference_ncx2.noncentral_chi2_cdf(*p))
        for p in zip(x.tolist(), df.tolist(), nc.tolist())
    )
    assert worst <= 1e-12


def test_noncentral_chi2_matches_scipy():
    from scipy.stats import ncx2

    for x, df, nc in [(0.5, 1.0, 0.2), (3.0, 4.0, 2.5), (7.5, 2.5, 6.0)]:
        assert chndtr(x, df, nc) == pytest.approx(
            float(ncx2.cdf(x, df, nc)), abs=1e-12
        )


# -- imhof: the Chernoff gate and the disk-edge integral ---------------------


def test_imhof_equal_eigenvalue_anchor():
    # two unit central eigenvalues against q=1: exactly 1 - exp(-1/2)
    form = SpectralForm((1.0, 1.0), (0.0, 0.0), 1.0)
    got = imhof_cdf(form, tol=1e-10)
    assert got.probability == pytest.approx(1.0 - math.exp(-0.5), abs=1e-10)
    assert got.error_bound is not None and got.error_bound <= 1e-8


@pytest.mark.parametrize("lambdas,ncs,q,ref", RANK_TWO_REFS)
def test_imhof_reference_forms(lambdas, ncs, q, ref):
    got = imhof_cdf(SpectralForm(lambdas, ncs, q), tol=1e-10)
    assert got.probability == pytest.approx(ref, abs=1e-9)


def test_imhof_agrees_with_ncx2_on_equal_eigenvalues():
    # lambda I with common noncentrality reduces to a scaled chi-square
    lam, d2, q = 0.7, 1.3, 1.9
    form = SpectralForm((lam, lam), (d2, d2), q)
    direct = chndtr(q / lam, 2.0, 2 * d2)
    assert imhof_cdf(form, tol=1e-12).probability == pytest.approx(direct, abs=1e-10)


def test_imhof_tolerance_is_honoured():
    form = SpectralForm((2.0, 0.5), (1.0, 0.25), 1.0)
    ref = FORM_REFS[0][3]
    for tol in (1e-6, 1e-8, 1e-10):
        got = imhof_cdf(form, tol=tol)
        assert abs(got.probability - ref) <= tol + 1e-12
        assert got.error_bound is not None


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_imhof_rejects_nonfinite_or_nonpositive_tol(tol):
    # unchecked, tol=inf lets a Chernoff gate settle this form at 0.0
    # (its probability is 0.449) and tol=nan runs every quadrature round
    form = SpectralForm((1.0, 0.5), (0.2, 0.1), 1.0)
    with pytest.raises(ValidationError, match="tol must be finite and positive"):
        imhof_cdf(form, tol=tol)


def test_imhof_unreachable_tol_raises():
    # no quadrature error estimate gets below 1e-300: give up, name the tol
    form = SpectralForm((1.0, 0.5), (0.3, 0.0), 1.0)
    t0 = time.perf_counter()
    with pytest.raises(NumericalError, match=r"did not reach tol=1e-300"):
        imhof_cdf(form, tol=1e-300)
    assert time.perf_counter() - t0 < 5.0


def test_imhof_extreme_tails_clamp_cleanly():
    # far outside: probability indistinguishable from 0
    far = SpectralForm((1.0,), (400.0,), 1.0)
    assert imhof_cdf(far, tol=1e-8).probability <= 1e-12
    # fully containing: indistinguishable from 1
    near = SpectralForm((1e-4, 1e-5), (0.0, 0.0), 1.0)
    got = imhof_cdf(near, tol=1e-8)
    assert got.detail == "disk"
    assert got.probability >= 1.0 - 1e-12


# -- moment-matched surrogate -------------------------------------------------


def test_ltz_exact_on_single_chi_square():
    # one eigenvalue: the surrogate is the distribution itself
    form = SpectralForm((2.0,), (1.5,), 3.0)
    assert ltz_cdf(form).probability == pytest.approx(
        chndtr(1.5, 1.0, 1.5), abs=1e-12
    )


def test_ltz_exact_on_equal_eigenvalues():
    lam, d2 = 0.5, 0.8
    form = SpectralForm((lam, lam, lam), (d2, d2, d2), 1.0)
    direct = chndtr(1.0 / lam, 3.0, 3 * d2)
    assert ltz_cdf(form).probability == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("lambdas,ncs,q,ref", FORM_REFS)
def test_ltz_close_to_true_cdf(lambdas, ncs, q, ref):
    # cumulant-matched surrogate: no certificate; on these deliberately
    # skewed, strongly noncentral spectra its error sits near 1e-2
    # (benign encounter geometries land around 1e-4, see the acceptance
    # corpus test)
    got = ltz_cdf(SpectralForm(lambdas, ncs, q))
    assert got.probability == pytest.approx(ref, abs=2e-2)
    assert got.error_bound is None
    assert got.detail in ("skew-kurtosis", "skew-only")


def test_ltz_branches_are_reachable():
    # strongly skewed spectrum triggers the skew-kurtosis branch
    a = ltz_cdf(SpectralForm((5.0, 0.1), (3.0, 0.0), 2.0))
    # near-symmetric spectrum with small skew uses the central branch
    b = ltz_cdf(SpectralForm((1.0, 1.0, 1.0, 1.0), (0.0,) * 4, 4.0))
    assert {a.detail, b.detail} <= {"skew-kurtosis", "skew-only"}


def test_ltz_tracks_imhof_under_random_perturbations():
    # adversarial spectra (wide eigenvalue spread, noncentralities up to 4)
    # stress the surrogate well beyond typical encounter geometry; observed
    # worst error there is about 0.019.  These rank-3 spectra are beyond
    # imhof, so the truth is the independent QUADPACK inversion.
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        lam = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
        nc = rng.uniform(0.0, 4.0, size=3)
        q = rng.uniform(0.5, 6.0)
        form = SpectralForm(tuple(lam), tuple(nc), float(q))
        truth = reference_position.imhof_cdf(form, tol=1e-10).probability
        diff = abs(ltz_cdf(form).probability - truth)
        worst = max(worst, diff)
    assert worst <= 5e-2


def test_imhof_runtime_smoke():
    form = SpectralForm((1.0, 1.0), (0.0, 0.0), 1.0)
    imhof_cdf(form, tol=1e-8)  # warm any lazy setup
    t0 = time.perf_counter()
    for _ in range(20):
        imhof_cdf(form, tol=1e-8)
    per_call = (time.perf_counter() - t0) / 20
    assert per_call < 0.05
