"""Reference noncentral chi-square CDF: the Poisson series `qfmvg.noncentral_chi2_cdf` replaced.

The package now evaluates the CDF with `scipy.special.chndtr`.  This is the
series it used before, kept unchanged so that `test_qfmvg.py` can compare
the two: a Poisson-weighted sum of regularized incomplete gamma functions,
truncated by a Chernoff bound on the Poisson tails.
"""

import math

from scipy import special

from trajrisk.errors import NumericalError, ValidationError


def noncentral_chi2_cdf(x: float, df: float, nc: float, tail_tol: float = 1e-14) -> float:
    """CDF of the noncentral chi-square distribution.

    Poisson-weighted series of central chi-square CDFs,
    F(x; df, nc) = sum_j w_j P(df/2 + j, x/2) with w_j ~ Poisson(nc/2).
    The index sum is truncated to a range around the Poisson mode whose
    complementary mass is provably below ``tail_tol`` (Chernoff bound); the
    weights are seeded at the mode, so large noncentralities neither
    underflow nor lose the head of the series.  Degrees of freedom may be
    non-integer.
    """
    if df <= 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if nc < 0.0:
        raise ValidationError(f"noncentrality must be nonnegative, got {nc}")
    if x <= 0.0:
        return 0.0
    half = 0.5 * nc
    if half == 0.0:
        return float(special.gammainc(0.5 * df, 0.5 * x))
    # Chernoff sandwich: skip the series when either tail is below 1e-18,
    # far under any tolerance used in this package.  The bounds come from
    # the moment generating function (1 - 2s)^{-df/2} exp(nc s / (1 - 2s)).
    log_left = x - nc / 3.0 - 0.5 * df * math.log(3.0)  # s = 1
    if log_left < -41.5:
        return 0.0
    log_right = -0.25 * x + 0.5 * nc + 0.5 * df * math.log(2.0)  # s = 1/4
    if log_right < -41.5:
        return 1.0
    # Truncate the Poisson index sum to a range whose complementary mass is
    # provably below tail_tol; since every CDF factor is at most 1, the mass
    # outside the range bounds the truncation error.  The range comes from
    # the Chernoff bound P(J >= j), P(J <= j) <= exp(-mu + j - j log(j/mu)).
    mu = half
    target = math.log(0.5 * tail_tol)

    def _log_tail(j: int) -> float:
        if j <= 0:
            return -mu
        return -mu + j - j * math.log(j / mu)

    step = max(1, int(math.sqrt(mu)))
    j_hi = int(mu) + 1
    while _log_tail(j_hi) > target:
        j_hi += step
        if j_hi - mu > 5e6:
            raise NumericalError("noncentral chi-square series did not converge")
    j_lo = int(mu) - 1
    while j_lo > 0 and _log_tail(j_lo) > target:
        j_lo -= step
    j_lo = max(0, j_lo)

    mode = int(mu)
    log_w0 = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    w0 = math.exp(log_w0)
    total = w0 * float(special.gammainc(0.5 * df + mode, 0.5 * x))
    w = w0
    for j in range(mode + 1, j_hi + 1):
        w *= mu / j
        if w == 0.0:
            break
        total += w * float(special.gammainc(0.5 * df + j, 0.5 * x))
    w = w0
    for j in range(mode, j_lo, -1):
        w *= j / mu
        if w == 0.0:
            break
        total += w * float(special.gammainc(0.5 * df + j - 1, 0.5 * x))
    return min(1.0, max(0.0, total))
