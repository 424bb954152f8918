"""imhof's disk route against the characteristic-function inversion.

A reduced form of rank <= 2 is the mass of the unit disk under two
independent normal axes, w_r ~ N(m_r, s_r^2).  imhof integrates the wider
axis along the disk edge (`qfmvg._disk`), which shares no code with the
inversion oracle in `reference_position` (QUADPACK on Imhof's integrand):
every integrated form must sit within its own error bound of that oracle,
run at 1e-12.  Where the oracle cannot converge (near-rank-1 forms with
s_in = 1e-4 s_out, a tiny distribution on the disk edge), the same
probability integrated along the other axis (the columns swapped), and a
closed-form expansion on the edge, take its place.  Rank 1 is a closed
form, checked against scipy's noncentral chi-square CDF.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import chndtr, ndtr

import reference_position as ref
from trajrisk.errors import ValidationError
from trajrisk.qfmvg import SpectralBatch, SpectralForm, _disk, imhof_cdf

TOLS = (1e-8, 1e-10)


def _form(s, m, q=1.0) -> SpectralForm:
    """The form whose axes have standard deviations s and means m (s descending)."""
    lam = tuple(q * x * x for x in s)
    return SpectralForm(lam, tuple((mr / sr) ** 2 for sr, mr in zip(s, m)), q)


def _swapped(form: SpectralForm, tol: float):
    """The disk route with the narrower axis as the outer one."""
    batch = SpectralBatch.of(form)
    prob, err = _disk(batch.lambdas[:, ::-1], batch.noncentralities[:, ::-1], batch.q, tol)
    return prob[0], err[0]


def _assert_disk(form: SpectralForm, tol: float, oracle: bool):
    got = imhof_cdf(form, tol=tol)
    assert got.detail == "disk"
    assert got.error_bound <= 0.5 * tol
    other, other_err = _swapped(form, tol)
    assert abs(got.probability - other) <= got.error_bound + other_err + 1e-13
    if oracle:
        want = ref.imhof_cdf(form, tol=1e-12).probability
        assert abs(got.probability - want) <= got.error_bound + 1e-12
    return got


@pytest.mark.parametrize("tol", TOLS)
def test_random_forms_match_the_inversion(tol):
    rng = np.random.default_rng(61)
    integrated = 0
    for _ in range(150):
        lam = np.sort(rng.uniform(0.01, 3.0, size=2))[::-1]
        form = SpectralForm(tuple(lam), tuple(rng.uniform(0.0, 6.0, size=2)),
                            float(rng.uniform(0.2, 5.0)))
        if imhof_cdf(form, tol=tol).detail == "disk":
            _assert_disk(form, tol, oracle=True)
            integrated += 1
    assert integrated > 100


@pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("m_in", [0.0, 0.5, 0.95, 1.0, "edge + s_in"])
def test_near_rank_one_forms(ratio, m_in):
    # s_in down to 1e-4 s_out: the inner factor is a step of width s_in at
    # cos(phi) = m_in; the inversion oracle converges down to ratio 1e-3
    m_in = 1.0 + ratio if m_in == "edge + s_in" else m_in
    for tol in TOLS:
        _assert_disk(_form((1.0, ratio), (0.55, m_in)), tol, oracle=ratio >= 1e-3)


@pytest.mark.parametrize("s_out", [0.3, 1e-2, 1e-3])
@pytest.mark.parametrize("m_out", [1.0, 1.01, 1.2])
def test_mean_on_or_beyond_the_disk_edge(s_out, m_out):
    form = _form((s_out, 0.5 * s_out), (m_out, 0.0))
    if imhof_cdf(form, tol=1e-8).detail != "disk":  # certified by a gate
        assert m_out - 1.0 > 5.0 * s_out
        return
    for tol in TOLS:
        _assert_disk(form, tol, oracle=True)


def test_a_tiny_distribution_centred_on_the_edge():
    # w_out ~ N(m, s_out^2) with m = 1 up to rounding, w_in ~ N(0, s_in^2):
    # P = E[ndtr((sqrt(1 - w_in^2) - m) / s_out)] = ndtr(c) - phi(c) s_in^2 /
    # (2 s_out) with c = (1 - m) / s_out, up to terms below 1e-16
    form = _form((1e-5, 5e-6), (1.0, 0.0))
    (l_out, l_in), (nc_out, _) = form.lambdas, form.noncentralities
    s_out, s_in, m = math.sqrt(l_out), math.sqrt(l_in), math.sqrt(l_out * nc_out)
    c = (1.0 - m) / s_out
    want = ndtr(c) - math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi) * s_in ** 2 / (2.0 * s_out)
    for tol in TOLS:
        got = _assert_disk(form, tol, oracle=False)
        assert abs(got.probability - want) <= got.error_bound + 1e-13


@pytest.mark.parametrize("lam,nc,q", [
    (2.0, 1.5, 3.0), (0.3, 0.0, 1.0), (1.0, 4.0, 1.0), (0.5, 9.0, 2.0), (4.0, 0.2, 0.5),
])
def test_rank_one_is_the_closed_form(lam, nc, q):
    want = chndtr(q / lam, 1.0, nc)
    got = imhof_cdf(SpectralForm((lam,), (nc,), q), tol=1e-10)
    assert got.detail == "disk" and got.error_bound == 0.0
    assert got.probability == pytest.approx(want, abs=1e-14)
    # the same form padded to two columns, as a 2-D reduction gives it
    padded = SpectralBatch(np.array([[lam, 0.0]]), np.array([[nc, 0.0]]), np.array([q]))
    assert imhof_cdf(padded, tol=1e-10).probabilities[0] == got.probability


def test_forms_within_tol_of_one_are_integrated():
    # The oracle's upper-tail Chernoff gate settles these forms at 1.0,
    # within tol/2 of the truth; imhof has no such gate and integrates
    # them, so it must land within tol of the oracle.
    grid = itertools.product(
        (1e-8, 1e-6, 1e-4, 1e-2, 0.1), (1.0, 1e-3, 1e-6, 1e-11), (0.0, 0.5, 10.0),
        (0.0, 3.0), (1.0, 0.3), (1e-6, 1e-8, 1e-10),
    )
    by_tol = {}
    for l1, ratio, nc1, nc2, q, tol in grid:
        form = SpectralForm((l1, l1 * ratio), (nc1, nc2), q)
        if ref.imhof_branch(form, tol) == "gate-high":
            by_tol.setdefault(tol, []).append(form)
    assert sum(map(len, by_tol.values())) >= 400
    for tol, forms in by_tol.items():
        got = imhof_cdf(SpectralBatch(
            np.array([f.lambdas for f in forms]), np.array([f.noncentralities for f in forms]),
            np.array([f.q for f in forms]),
        ), tol=tol)
        assert set(got.branches) == {"disk"}
        assert got.error_bound <= 0.5 * tol
        want = np.array([ref.imhof_cdf(f, tol).probability for f in forms])
        assert np.abs(got.probabilities - want).max() <= tol


def test_rank_three_forms_are_rejected():
    # imhof takes only what a 2-D position builds, gated or not
    rank_three = SpectralForm((1.0, 0.6, 0.3), (0.4, 0.1, 0.9), 1.5)
    far = SpectralForm((1.0, 0.6, 0.3), (400.0, 0.0, 0.0), 1.5)
    assert ref.imhof_cdf(far, tol=1e-10).probability == 0.0  # a gate settles it
    rows = SpectralBatch(
        np.array([[1.0, 0.6, 0.0], [1.0, 0.6, 0.3]]),
        np.array([[0.4, 0.1, 0.0], [0.4, 0.1, 0.9]]),
        np.array([1.5, 1.5]),
    )
    for form in (rank_three, far, rows):
        with pytest.raises(ValidationError, match=r"rank <= 2"):
            imhof_cdf(form, tol=1e-10)


def test_zero_padded_columns_change_no_bit():
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(0.01, 3.0, size=(40, 2)), axis=1)[:, ::-1]
    lam[::4, 1] = 0.0  # some rank-1 rows
    nc = np.where(lam > 0.0, rng.uniform(0.0, 6.0, size=(40, 2)), 0.0)
    q = rng.uniform(0.2, 5.0, size=40)
    padded = SpectralBatch(np.pad(lam, ((0, 0), (0, 1))), np.pad(nc, ((0, 0), (0, 1))), q)
    want = imhof_cdf(SpectralBatch(lam, nc, q), tol=1e-10)
    got = imhof_cdf(padded, tol=1e-10)
    assert "disk" in want.branches
    assert got.branches.tolist() == want.branches.tolist()
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    assert got.error_bounds.tobytes() == want.error_bounds.tobytes()
