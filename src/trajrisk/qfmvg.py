"""CDF of a positive quadratic form of a Gaussian vector.

The collision probability at one timestep is P(x^T Q x <= q) for Gaussian x.
With w = Q^{1/2} x and an eigendecomposition of its covariance
Q^{1/2} Sigma Q^{1/2}, the form reduces to a weighted sum of independent
noncentral chi-square variables sum_r lambda_r chi2_1(delta_r^2) plus a
deterministic offset that is absorbed into the threshold.
``spectral_reduce_batch`` reduces N Gaussians at once, with one stacked
``eigh``, into a ``SpectralBatch`` of (lambda, nc, q) arrays.  Two
evaluators operate on the reduced forms:

* ``imhof_cdf``: numerical inversion of the characteristic function.  Two
  Chernoff bounds, evaluated as arrays over the batch, settle the forms
  whose probability is certifiably within tol/2 of 0 or 1; the rest are
  integrated one by one: the head adaptively and the tail with
  Fourier-weight quadrature, which meets any requested absolute tolerance
  without truncating at the (loose) analytic cutoff.
* ``ltz_cdf``: a noncentral chi-square surrogate matched to the form's
  cumulants (skewness and kurtosis), evaluated with one call of scipy's
  noncentral chi-square CDF (``special.chndtr``) over the batch.  Fast, no
  tuning, accuracy typically ~1e-6 for two-eigenvalue forms.

Both take a ``SpectralBatch`` (and return a ``CdfBatch``) or one
``SpectralForm`` (and return a ``CdfResult``); the single form goes through
the same array code as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import integrate
from scipy import special

from .errors import NumericalError, ValidationError
from .frames import form_root

__all__ = [
    "SpectralForm",
    "SpectralBatch",
    "CdfResult",
    "CdfBatch",
    "spectral_reduce",
    "spectral_reduce_batch",
    "imhof_cdf",
    "ltz_cdf",
    "noncentral_chi2_cdf",
]

# Eigenvalues of the whitened form below this fraction of the largest are
# treated as exactly zero (degenerate directions carry no randomness).
_RANK_TOL = 1e-12

# Chernoff parameters: s = _LOWER_STEPS / (2 max lambda) for the lower
# tail, s = _UPPER_FRACS / (2 max lambda) for the upper one.
_LOWER_STEPS = 2.0 ** np.arange(-8, 64)
_UPPER_FRACS = np.array([0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99])


@dataclass(frozen=True)
class SpectralForm:
    """Reduced form sum_r lambda_r chi2_1(delta_r^2) compared against q.

    ``lambdas`` holds the nonzero eigenvalues in descending order.  An empty
    tuple means the form is deterministic (zero covariance) and the event
    reduces to the sign of ``q``.
    """

    lambdas: tuple[float, ...]
    noncentralities: tuple[float, ...]
    q: float

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        nc = tuple(float(v) for v in self.noncentralities)
        if len(lam) != len(nc):
            raise ValidationError("lambdas and noncentralities must align")
        if any(v <= 0.0 for v in lam):
            raise ValidationError("spectral eigenvalues must be positive")
        if any(v < 0.0 for v in nc):
            raise ValidationError("noncentralities must be nonnegative")
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValidationError("eigenvalues must be sorted descending")
        if not math.isfinite(self.q):
            raise ValidationError("threshold q must be finite")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "noncentralities", nc)

    @property
    def deterministic(self) -> bool:
        return not self.lambdas


@dataclass(frozen=True)
class SpectralBatch:
    """N reduced forms side by side: row n is the form of SpectralForm.

    ``lambdas`` and ``noncentralities`` are (N, r) with each row's
    eigenvalues descending; rows with fewer nonzero eigenvalues are padded
    with zeros (and zero noncentrality), so a row of zeros is a
    deterministic form.  ``q`` is (N,).  Built from validated inputs by
    `spectral_reduce_batch` or from one checked `SpectralForm`, so the
    arrays are not checked again.
    """

    lambdas: np.ndarray
    noncentralities: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, form: SpectralForm) -> "SpectralBatch":
        r = len(form.lambdas)
        lam = np.zeros((1, max(r, 1)))
        nc = np.zeros_like(lam)
        lam[0, :r] = form.lambdas
        nc[0, :r] = form.noncentralities
        return cls(lam, nc, np.array([form.q]))

    def form(self, n: int) -> SpectralForm:
        """Row n as a SpectralForm (zero padding dropped)."""
        keep = self.lambdas[n] > 0.0
        return SpectralForm(
            tuple(self.lambdas[n][keep].tolist()),
            tuple(self.noncentralities[n][keep].tolist()),
            float(self.q[n]),
        )


@dataclass(frozen=True)
class CdfResult:
    """Probability estimate with method tag and (if certified) error bound."""

    probability: float
    method: str
    error_bound: Optional[float] = None
    detail: Optional[str] = None

    def __post_init__(self):
        p = self.probability
        slack = self.error_bound if self.error_bound is not None else 1e-9
        if p < -slack or p > 1.0 + slack:
            raise NumericalError(
                f"probability {p} outside [0, 1] beyond the error bound"
            )
        object.__setattr__(self, "probability", min(1.0, max(0.0, p)))


@dataclass(frozen=True)
class CdfBatch:
    """Probabilities of every form of a SpectralBatch and how each was made.

    ``branches`` names each form's route.  imhof: ``exact`` (deterministic
    form, or q <= 0), ``gate-low`` / ``gate-high`` (a Chernoff bound put the
    probability within tol/2 of 0 / 1) or ``quad``; ltz: ``degenerate``,
    ``skew-kurtosis`` or ``skew-only``.  ``error_bounds`` is per form, None
    when the method certifies none.
    """

    probabilities: np.ndarray
    method: str
    branches: np.ndarray
    error_bounds: Optional[np.ndarray] = None

    @property
    def error_bound(self) -> Optional[float]:
        """The largest per-form error bound, or None without bounds."""
        if self.error_bounds is None:
            return None
        return float(self.error_bounds.max(initial=0.0))

    def row(self, n: int) -> CdfResult:
        err = None if self.error_bounds is None else float(self.error_bounds[n])
        return CdfResult(
            float(self.probabilities[n]), self.method, err, str(self.branches[n])
        )


def _clamp(prob: np.ndarray, slack) -> np.ndarray:
    """Clip to [0, 1]; raise when a value lies outside beyond its slack."""
    if np.any((prob < -slack) | (prob > 1.0 + slack)):
        raise NumericalError(
            f"probabilities {prob.min()}..{prob.max()} outside [0, 1] "
            "beyond the error bound"
        )
    return np.clip(prob, 0.0, 1.0)


def spectral_reduce_batch(
    q_form: np.ndarray, means: np.ndarray, covs: np.ndarray, q: float = 1.0
) -> SpectralBatch:
    """Reduce N Gaussian forms P(x_n^T Q x_n <= q) at once.

    With w = Q^{1/2} x ~ N(Q^{1/2} mu, B), B = Q^{1/2} Sigma Q^{1/2} =
    P L P^T and nu = P^T Q^{1/2} mu, the form |w|^2 is
    sum_r lambda_r (z_r + nu_r / sqrt(lambda_r))^2, so nc_r = nu_r^2 /
    lambda_r.  Directions with a zero eigenvalue are deterministic and add
    nu_r^2 to the offset, which is folded into the threshold.  ``means``
    is (N, d), ``covs`` (N, d, d); Q must be symmetric positive definite
    (checked) and each covariance positive semidefinite (not checked).
    """
    root = form_root(q_form)
    b = root @ covs @ root
    lam, vecs = np.linalg.eigh(0.5 * (b + b.transpose(0, 2, 1)))
    lam, vecs = lam[:, ::-1], vecs[:, :, ::-1]
    nu = np.einsum("nij,ni->nj", vecs, means @ root)
    keep = lam > _RANK_TOL * np.maximum(1.0, lam[:, :1])
    nu2 = nu * nu
    lam = np.where(keep, lam, 0.0)
    nc = np.where(keep, nu2 / np.where(keep, lam, 1.0), 0.0)
    offset = np.where(keep, 0.0, nu2).sum(axis=1)
    return SpectralBatch(lam, nc, float(q) - offset)


def spectral_reduce(
    q_form: np.ndarray, mean: np.ndarray, cov: np.ndarray, q: float = 1.0
) -> SpectralForm:
    """Reduce one Gaussian form; checks its inputs, then `spectral_reduce_batch`."""
    qf = np.asarray(q_form, dtype=float)
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(cov, dtype=float)
    dim = mu.shape[0]
    if qf.shape != (dim, dim) or sigma.shape != (dim, dim):
        raise ValidationError("shape mismatch between form, mean, and covariance")
    sig_vals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if sig_vals.min() < -_RANK_TOL * max(1.0, sig_vals.max()):
        raise ValidationError("covariance is not positive semidefinite")
    return spectral_reduce_batch(0.5 * (qf + qf.T), mu[None], sigma[None], q).form(0)


def _chernoff_log_lower(lam: np.ndarray, nc: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log of a Chernoff upper bound on P(T <= q), per row.

    P(T <= q) <= exp(sq) E[exp(-sT)] for any s > 0; the Laplace transform of
    the reduced form is the product of shifted chi-square transforms.  A
    coarse logarithmic grid in s is enough because the gate only needs to
    certify astronomically small tails.  Rows need a positive lam[:, 0].
    """
    s = _LOWER_STEPS / (2.0 * lam[:, :1])
    val = s * q[:, None]
    for l, d2 in zip(lam.T[:, :, None], nc.T[:, :, None]):
        sl2 = 2.0 * s * l
        val -= 0.5 * np.log1p(sl2) + s * l * d2 / (1.0 + sl2)
    return np.minimum(val.min(axis=1), 0.0)


def _chernoff_log_upper(lam: np.ndarray, nc: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log of a Chernoff upper bound on P(T > q), s in (0, 1/(2 max lambda))."""
    s = _UPPER_FRACS / (2.0 * lam[:, :1])
    val = -s * q[:, None]
    for l, d2 in zip(lam.T[:, :, None], nc.T[:, :, None]):
        sl2 = 2.0 * s * l
        val += -0.5 * np.log1p(-sl2) + s * l * d2 / (1.0 - sl2)
    return np.minimum(val.min(axis=1), 0.0)


def _imhof_theta_rho(lam: Tuple[float, ...], nc: Tuple[float, ...], q: float):
    def theta(u: float) -> float:
        acc = 0.0
        for l, d2 in zip(lam, nc):
            lu = l * u
            acc += math.atan(lu) + d2 * lu / (1.0 + lu * lu)
        return 0.5 * acc - 0.5 * q * u

    def inv_u_rho(u: float) -> float:
        """1 / (u * rho(u)); caller guarantees u > 0."""
        logrho = 0.0
        ex = 0.0
        for l, d2 in zip(lam, nc):
            l2u2 = (l * u) ** 2
            logrho += 0.25 * math.log1p(l2u2)
            ex += d2 * l2u2 / (1.0 + l2u2)
        return math.exp(-logrho - 0.5 * ex) / u

    return theta, inv_u_rho


def _imhof_quad(
    lam: Tuple[float, ...], nc: Tuple[float, ...], q: float, tol: float
) -> Tuple[float, float]:
    """(probability, error bound) of one form with q > 0 by inversion.

    P = 1/2 - (1/pi) * int_0^inf sin(theta(u)) / (u rho(u)) du with the
    classical theta and rho.  The integral is split at the point beyond which
    the phase is strictly decreasing; the head uses adaptive quadrature, the
    tail is rewritten as cos/sin Fourier integrals of smooth decaying factors
    and evaluated with Fourier-weight quadrature on the infinite interval.
    ``lam`` holds the nonzero eigenvalues only.
    """
    theta, inv_u_rho = _imhof_theta_rho(lam, nc, q)
    theta0 = 0.5 * (sum(l * (1.0 + d2) for l, d2 in zip(lam, nc)) - q)

    def integrand(u: float) -> float:
        if u < 1e-100:
            return theta0
        return math.sin(theta(u)) * inv_u_rho(u)

    # Beyond u_split the derivative of theta is below -q/4, so the phase is
    # monotone and the tail is a well-posed Fourier integral with frequency
    # q/2.  If the noncentrality envelope kills the integrand earlier, split
    # there instead; the tail integrals then converge immediately.
    u_split = math.sqrt(2.0 * sum((1.0 + d2) / l for l, d2 in zip(lam, nc)) / q)
    u_split = 1.5 * u_split
    env = 0.5 * sum(d2 for d2 in nc)
    if env > 60.0:
        u_env = 1.0
        while u_env < u_split:
            decay = 0.5 * sum(
                d2 * (l * u_env) ** 2 / (1.0 + (l * u_env) ** 2)
                for l, d2 in zip(lam, nc)
            )
            if decay > 60.0:
                break
            u_env *= 2.0
        u_split = min(u_split, u_env)
    u_split = max(1.0, u_split)

    def h_cos(u: float) -> float:
        return math.sin(theta(u) + 0.5 * q * u) * inv_u_rho(u)

    def h_sin(u: float) -> float:
        return math.cos(theta(u) + 0.5 * q * u) * inv_u_rho(u)

    budget = 0.5 * math.pi * tol  # total allowance for the integral itself
    last_err = math.inf
    for limit, limlst in ((200, 80), (2000, 400)):
        head, head_err = integrate.quad(
            integrand, 0.0, u_split, epsabs=budget / 4.0, epsrel=1e-13, limit=limit
        )
        tail_c, err_c = integrate.quad(
            h_cos, u_split, np.inf, weight="cos", wvar=0.5 * q,
            epsabs=budget / 4.0, limlst=limlst, limit=limit,
        )
        tail_s, err_s = integrate.quad(
            h_sin, u_split, np.inf, weight="sin", wvar=0.5 * q,
            epsabs=budget / 4.0, limlst=limlst, limit=limit,
        )
        total = head + tail_c - tail_s
        last_err = head_err + err_c + err_s
        if last_err <= budget:
            return 0.5 - total / math.pi, last_err / math.pi
    raise NumericalError(
        f"imhof quadrature did not reach tol={tol} "
        f"(estimated error {last_err / math.pi:.3e})"
    )


def _imhof(form: SpectralBatch, tol: float) -> CdfBatch:
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    lam, nc, q = form.lambdas, form.noncentralities, form.q
    random = lam[:, 0] > 0.0
    # A deterministic form is the sign of q; a random one with q <= 0 is
    # above q with probability one.
    prob = np.where(~random & (q >= 0.0), 1.0, 0.0)
    err = np.zeros(len(q))
    branch = np.full(len(q), "exact", dtype="<U9")
    idx = np.flatnonzero(random & (q > 0.0))
    if idx.size:
        # Deep-tail gates: when a Chernoff bound certifies that one tail is
        # below tol/2, skip the quadrature.  This covers predictions far
        # from the collision region, where the inversion integrand needs
        # enormous phase resolution to resolve a probability that is
        # effectively 0 or 1.
        log_lo = _chernoff_log_lower(lam[idx], nc[idx], q[idx])
        log_hi = _chernoff_log_upper(lam[idx], nc[idx], q[idx])
        cut = math.log(0.5 * tol)
        low = log_lo <= cut
        high = ~low & (log_hi <= cut)
        err[idx[low]] = np.exp(log_lo[low])
        branch[idx[low]] = "gate-low"
        prob[idx[high]] = 1.0
        err[idx[high]] = np.exp(log_hi[high])
        branch[idx[high]] = "gate-high"
        for i in idx[~(low | high)]:
            keep = lam[i] > 0.0
            prob[i], err[i] = _imhof_quad(
                tuple(lam[i][keep].tolist()), tuple(nc[i][keep].tolist()),
                float(q[i]), tol,
            )
            branch[i] = "quad"
    return CdfBatch(_clamp(prob, err), "imhof", branch, err)


def imhof_cdf(form, tol: float = 1e-6):
    """P(form <= q) by characteristic-function inversion, for every form.

    Takes a `SpectralBatch` and returns a `CdfBatch`, or one
    `SpectralForm` and returns its `CdfResult`.  Forms certified by a
    Chernoff gate carry that bound as their error; integrated ones carry
    the summed quadrature error estimates.  Raises if those cannot be
    driven below ``tol``.
    """
    if isinstance(form, SpectralForm):
        return _imhof(SpectralBatch.of(form), tol).row(0)
    return _imhof(form, tol)


def noncentral_chi2_cdf(x: float, df: float, nc: float) -> float:
    """CDF of the noncentral chi-square distribution, by ``scipy.special.chndtr``.

    Degrees of freedom may be non-integer.  Nonpositive ``x`` gives 0
    here, because ``chndtr`` returns nan for x < 0.
    """
    if df <= 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if nc < 0.0:
        raise ValidationError(f"noncentrality must be nonnegative, got {nc}")
    if x <= 0.0:
        return 0.0
    return float(special.chndtr(x, df, nc))


def _ltz(form: SpectralBatch) -> CdfBatch:
    lam, nc, q = form.lambdas, form.noncentralities, form.q
    prob = np.where(q >= 0.0, 1.0, 0.0)
    branch = np.full(len(q), "degenerate", dtype="<U13")
    idx = np.flatnonzero(lam[:, 0] > 0.0)
    if idx.size:
        lam, nc, q = lam[idx], nc[idx], q[idx]
        c1, c2, c3, c4 = (np.sum(lam ** k * (1.0 + k * nc), axis=1) for k in (1, 2, 3, 4))
        if np.any(c2 <= 0.0):
            raise NumericalError("degenerate cumulants in surrogate construction")
        s1 = c3 / c2 ** 1.5
        s2 = c4 / (c2 * c2)
        t_star = (q - c1) / np.sqrt(2.0 * c2)
        kurt = s1 * s1 > s2
        # Skew-only rows have a = 1 / s1: the root term is zero there.
        a = 1.0 / (s1 - np.sqrt(np.where(kurt, s1 * s1 - s2, 0.0)))
        delta = np.where(kurt, np.maximum(s1 * a ** 3 - a * a, 0.0), 0.0)
        df = np.where(kurt, a * a - 2.0 * delta, c2 ** 3 / (c3 * c3))
        if np.any(df <= 0.0):
            raise NumericalError(f"surrogate degrees of freedom {df.min()} <= 0")
        x = t_star * math.sqrt(2.0) * a + df + delta
        inside = x > 0.0
        p = np.zeros(len(idx))
        p[inside] = special.chndtr(x[inside], df[inside], delta[inside])
        prob[idx] = p
        branch[idx] = np.where(kurt, "skew-kurtosis", "skew-only")
    return CdfBatch(_clamp(prob, 1e-9), "ltz", branch)


def ltz_cdf(form):
    """P(form <= q) via a cumulant-matched noncentral chi-square surrogate.

    The first four cumulant ratios of the form are matched to a noncentral
    chi-square: when s1^2 > s2 both skewness and kurtosis can be matched,
    otherwise skewness alone is matched with a central surrogate.  The branch
    taken is recorded per form (``CdfBatch.branches``, ``CdfResult.detail``).
    Exact when the form is a single chi-square.  No error bound is
    available; the companion inversion method provides certified values.
    Takes a `SpectralBatch` or one `SpectralForm`, as `imhof_cdf` does.
    """
    if isinstance(form, SpectralForm):
        return _ltz(SpectralBatch.of(form)).row(0)
    return _ltz(form)
