"""CDF of a positive quadratic form of a Gaussian vector.

The collision probability at one timestep is P(x^T Q x <= q) for Gaussian x.
With w = Q^{1/2} x and an eigendecomposition of its covariance
Q^{1/2} Sigma Q^{1/2}, the form reduces to a weighted sum of independent
noncentral chi-square variables sum_r lambda_r chi2_1(delta_r^2) plus a
deterministic offset that is absorbed into the threshold.
``spectral_reduce_batch`` reduces N Gaussians at once, with one stacked
``eigh``, into a ``SpectralBatch`` of (lambda, nc, q) arrays.  Two
evaluators operate on the reduced forms:

* ``imhof_cdf``: the exact CDF to a requested absolute tolerance, for
  forms of rank <= 2 (every form a 2-D position builds).  A Chernoff
  bound, evaluated as an array over the batch, settles the forms whose
  probability is certifiably within tol/2 of 0.  Every other form is the
  mass of the unit disk under two independent normal axes: rank 1 is
  a difference of two normal CDFs, and rank 2 a smooth real integral
  along the disk edge (branch ``disk``), all of them integrated by one
  adaptive Gauss-Kronrod 7/15 run (Piessens et al., QUADPACK, 1983).
* ``ltz_cdf``: a noncentral chi-square surrogate matched to the form's
  cumulants (skewness and kurtosis), evaluated with one call of scipy's
  noncentral chi-square CDF (``special.chndtr``) over the batch.  Fast, no
  tuning, accuracy typically ~1e-6 for two-eigenvalue forms.

Both take a ``SpectralBatch`` (and return a ``CdfBatch``) or one
``SpectralForm`` (and return a ``CdfResult``); the single form goes through
the same array code as a batch of one.

``scipy.special`` is imported on first use, once per call of either
evaluator (``ndtr`` by the disk route, ``chndtr`` by ltz), so importing
this module, or running a method that calls neither, loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
]

# Eigenvalues of the whitened form below this fraction of the largest are
# treated as exactly zero (degenerate directions carry no randomness).
_RANK_TOL = 1e-12

# Chernoff parameters of the lower-tail gate: s = _LOWER_STEPS / (2 max lambda).
_LOWER_STEPS = 2.0 ** np.arange(-8, 64)


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
        # NaN passes every comparison below, so it is rejected first
        if not all(math.isfinite(v) for v in lam + nc):
            raise ValidationError("eigenvalues and noncentralities must be finite")
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
    deterministic form.  ``q`` is (N,).  Built by `spectral_reduce_batch`
    or from one checked `SpectralForm`, the arrays are not checked again,
    except that both evaluators reject a non-finite q.
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
    form, or q <= 0), ``gate-low`` (a Chernoff bound put the probability
    within tol/2 of 0) or ``disk`` (integrated along the disk edge, or in
    closed form at rank 1); ltz: ``degenerate``, ``skew-kurtosis`` or
    ``skew-only``.  ``error_bounds`` is per form, None when the method
    certifies none.
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
    is (N, d), ``covs`` (N, d, d); all must be finite and Q symmetric positive
    definite (checked), each covariance positive semidefinite (not checked).
    """
    for name, a in (("mean", means), ("form Q", q_form), ("covariance", covs)):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} must be finite")
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
    """Reduce one Gaussian form: checks the shapes, then `spectral_reduce_batch`
    (finite inputs, Q positive definite), then that the covariance is PSD."""
    qf = np.asarray(q_form, dtype=float)
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(cov, dtype=float)
    if mu.ndim != 1:
        raise ValidationError(f"mean must have shape (d,), got {mu.shape}")
    square = (len(mu),) * 2
    for name, a in (("form Q", qf), ("covariance", sigma)):
        if a.shape != square:
            raise ValidationError(f"{name} must have shape {square} like the mean, got {a.shape}")
    batch = spectral_reduce_batch(0.5 * (qf + qf.T), mu[None], sigma[None], q)
    sig_vals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if sig_vals.min() < -_RANK_TOL * max(1.0, sig_vals.max()):
        raise ValidationError("covariance is not positive semidefinite")
    return batch.form(0)


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


# Gauss-Kronrod 7/15 on [-1, 1]: the positive Kronrod nodes (descending),
# their Kronrod weights followed by the centre's, and the 7-point Gauss
# weights of every second node followed by the centre's.
_GK_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_GAUSS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
# The 15 nodes in ascending order with both weight vectors on them (the
# Gauss weights zero at the Kronrod-only nodes).
_GK_X = np.concatenate([-_GK_NODES, [0.0], _GK_NODES[::-1]])[:, None]
_GK_W = np.zeros((2, 15, 1))
_GK_W[0, :, 0] = np.concatenate([_GK_KRONROD, _GK_KRONROD[-2::-1]])
_GK_W[1, 1:14:2, 0] = np.concatenate([_GK_GAUSS, _GK_GAUSS[-2::-1]])
# Bisection rounds, and intervals evaluated per integral, before giving up.
_GK_ROUNDS = 60
_GK_MAX_INTERVALS = 2000


def _gk_sums(f: np.ndarray) -> np.ndarray:
    """The Kronrod and Gauss sums (2, M) of node values f (15, M).

    Each column's 15 terms are added in one fixed order by elementwise
    operations, so an interval's sums do not depend on the batch around it
    (a BLAS product may order a row's terms by its place in the batch).
    """
    p = _GK_W * f
    p7 = p[:, :7] + p[:, 7:14]
    p3 = p7[:, :3] + p7[:, 3:6]
    return p3[:, 0] + p3[:, 1] + p3[:, 2] + p7[:, 6] + p[:, 14]


def _gauss_kronrod(integrand, n: int, share: np.ndarray):
    """Integrals over [0, 1] of n functions by adaptive Gauss-Kronrod 7/15.

    ``integrand(k, t)`` evaluates function k[m] at the nodes t[:, m] (15, M).
    Each round evaluates every open interval of every function at once.
    A function closes when its summed |K - G| fits ``share[k]``; otherwise
    its intervals whose |K - G| fits their length's part of the share are
    accepted and the rest are bisected.  Returns the Kronrod sums, the
    summed |K - G| (over the open intervals too, when it gives up) and
    whether each function met its share.
    """
    value, err, count = np.zeros(n), np.zeros(n), np.zeros(n)
    k, lo, hi = np.arange(n), np.zeros(n), np.ones(n)
    for _ in range(_GK_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = lo + half
        kron, gauss = half * _gk_sums(integrand(k, mid + half * _GK_X))
        e = np.abs(kron - gauss)
        closes = err + np.bincount(k, e, n) <= share
        accept = closes[k] | (e <= share[k] * (hi - lo))
        value += np.bincount(k[accept], kron[accept], n)
        err += np.bincount(k[accept], e[accept], n)
        count += np.bincount(k, minlength=n)
        split = ~accept
        pending = np.bincount(k[split], e[split], n)
        if not split.any() or (count[k[split]] >= _GK_MAX_INTERVALS).any():
            break
        k, lo, hi, mid = k[split], lo[split], hi[split], mid[split]
        k, lo, hi = np.repeat(k, 2), np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    err += pending
    return value, err, err <= share


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# The disk route's panels end this many standard deviations from each
# feature of its integrand.
_DISK_SIGMAS = 8.0


def _disk_integrand(ndtr, lo, width, s_out, m_out, s_in, m_in, t):
    """The disk-edge integrand at phi = lo + width * t of each panel row.

    Column m of ``t`` (15, M) lies on a panel starting at lo[m],
    ``width[m]`` wide, of a form whose outer and inner axes have standard
    deviations s_out[m], s_in[m] and means m_out[m], m_in[m]; ``ndtr`` is
    the standard normal CDF.
    """
    phi = lo + width * t
    h = np.cos(phi)
    z = (np.sin(phi) - m_out) / s_out
    inner = ndtr((h - m_in) / s_in) - ndtr((-h - m_in) / s_in)
    return (width * _INV_SQRT_2PI / s_out) * np.exp(-0.5 * z * z) * h * inner


def _disk(lam: np.ndarray, nc: np.ndarray, q: np.ndarray, tol: float):
    """(probabilities, error bounds) of forms of rank <= 2 with q > 0.

    The form is |w|^2 with independent w_r ~ N(m_r, s_r^2), s_r =
    sqrt(lambda_r / q), m_r = sqrt(lambda_r nc_r / q), so P is the mass of
    the unit disk.  Rank 1 is the closed form ndtr(sqrt(q / lambda) -
    sqrt(nc)) - ndtr(-sqrt(q / lambda) - sqrt(nc)).  Rank 2 integrates the
    wider (outer) axis along the disk edge, w_out = sin(phi):

        P = int_{-pi/2}^{pi/2} N(sin phi; m_out, s_out) cos(phi)
            [ndtr((cos phi - m_in) / s_in) - ndtr((-cos phi - m_in) / s_in)] dphi,

    a smooth real integrand with two features: the Gaussian bump around
    sin(phi) = m_out and the inner factor's steps around cos(phi) = m_in.
    Each form is split into panels where sin(phi) = m_out +- 8 s_out and
    cos(phi) = m_in +- 8 s_in (arguments clipped to the range of sin and
    cos), so each feature fills panels of its own width, however narrow,
    and the Kronrod nodes see it; beyond them the features differ from 0
    or 1 by less than ndtr(-8) ~ 6e-16.  Empty panels are dropped.  Every
    other panel is one integral of an adaptive Gauss-Kronrod run with an
    equal share of tol/2, so a form's summed |K - G| stays within tol/2.
    """
    from scipy.special import ndtr

    prob, err = np.zeros(len(q)), np.zeros(len(q))
    one = lam[:, 1] == 0.0 if lam.shape[1] > 1 else np.ones(len(q), dtype=bool)
    if one.any():
        r, d = np.sqrt(q[one] / lam[one, 0]), np.sqrt(nc[one, 0])
        prob[one] = ndtr(r - d) - ndtr(-r - d)
    two = np.flatnonzero(~one)
    if two.size:
        s = np.sqrt(lam[two, :2] / q[two, None])
        m = np.sqrt(lam[two, :2] * nc[two, :2] / q[two, None])
        span = np.array([-_DISK_SIGMAS, _DISK_SIGMAS])
        peak = np.arcsin(np.clip(m[:, :1] + span * s[:, :1], -1.0, 1.0))
        steps = np.arccos(np.clip(m[:, 1:] + span * s[:, 1:], 0.0, 1.0))
        half = np.full((two.size, 1), 0.5 * math.pi)
        edges = np.sort(np.concatenate([-half, peak, -steps, steps, half], axis=1), axis=1)
        width = np.diff(edges, axis=1)
        live = width > 0.0
        form = np.nonzero(live)[0]
        lo, width = edges[:, :-1][live], width[live]
        s_out, m_out, s_in, m_in = s[form, 0], m[form, 0], s[form, 1], m[form, 1]

        def integrand(k, t):
            return _disk_integrand(ndtr, lo[k], width[k], s_out[k], m_out[k], s_in[k], m_in[k], t)

        share = 0.5 * tol / live.sum(axis=1)[form]
        value, panel_err, met = _gauss_kronrod(integrand, lo.size, share)
        prob[two] = np.bincount(form, value, two.size)
        err[two] = np.bincount(form, panel_err, two.size)
        if not met.all():
            raise NumericalError(
                f"imhof quadrature did not reach tol={tol} "
                f"(estimated error {err.max():.3e})"
            )
    return prob, err


def _imhof(form: SpectralBatch, tol: float) -> CdfBatch:
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    lam, nc, q = form.lambdas, form.noncentralities, form.q
    if not np.isfinite(q).all():
        raise ValidationError("threshold q must be finite")
    if lam[:, 2:].any():
        raise ValidationError(
            "imhof takes forms of rank <= 2, as a 2-D position builds; "
            "got a nonzero eigenvalue past the second"
        )
    random = lam[:, 0] > 0.0
    # A deterministic form is the sign of q; a random one with q <= 0 is
    # above q with probability one.
    prob = np.where(~random & (q >= 0.0), 1.0, 0.0)
    err = np.zeros(len(q))
    branch = np.full(len(q), "exact", dtype="<U9")
    idx = np.flatnonzero(random & (q > 0.0))
    if idx.size:
        # Deep-tail gate: when a Chernoff bound certifies that the
        # probability is below tol/2, skip the quadrature.  This covers
        # predictions far from the collision region, where the quadrature
        # would spend its rounds on a probability that is effectively 0.
        log_lo = _chernoff_log_lower(lam[idx], nc[idx], q[idx])
        low = log_lo <= math.log(0.5 * tol)
        err[idx[low]] = np.exp(log_lo[low])
        branch[idx[low]] = "gate-low"
        disk = idx[~low]
        if disk.size:
            prob[disk], err[disk] = _disk(lam[disk], nc[disk], q[disk], tol)
            branch[disk] = "disk"
    return CdfBatch(_clamp(prob, err), "imhof", branch, err)


def imhof_cdf(form, tol: float = 1e-6):
    """P(form <= q) for every form, within ``tol``.

    Takes a `SpectralBatch` and returns a `CdfBatch`, or one
    `SpectralForm` and returns its `CdfResult`.  Every form must have rank
    <= 2: a nonzero eigenvalue past the second raises `ValidationError`
    (zero padding is fine), as does a non-finite threshold.  Forms the
    Chernoff gate certifies as below tol/2 carry that bound as their error;
    the rest are integrated along the disk edge (rank 1 in closed form,
    error 0), each carrying its summed quadrature error estimates, at most
    tol/2.  Raises if those cannot be driven below their share of ``tol``.
    """
    if isinstance(form, SpectralForm):
        return _imhof(SpectralBatch.of(form), tol).row(0)
    return _imhof(form, tol)


def _ltz(form: SpectralBatch) -> CdfBatch:
    from scipy.special import chndtr

    lam, nc, q = form.lambdas, form.noncentralities, form.q
    if not np.isfinite(q).all():
        raise ValidationError("threshold q must be finite")
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
        p[inside] = chndtr(x[inside], df[inside], delta[inside])
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
    available; `imhof_cdf` gives certified values for forms of rank <= 2.
    Takes a `SpectralBatch` or one `SpectralForm`, as `imhof_cdf` does,
    of any rank.
    """
    if isinstance(form, SpectralForm):
        return _ltz(SpectralBatch.of(form)).row(0)
    return _ltz(form)
