"""Scalar and bivariate mixture distributions with exact raw moments and
characteristic functions.

Every component is either a Gaussian or a point mass; point masses are
modeled as zero-variance Gaussians so deterministic inputs flow through the
same code paths.  Mixture moments and characteristic functions are weighted
sums of the component quantities.  Trigonometric moments E[cos^m X sin^n X]
are assembled from characteristic-function values at integer frequencies,
which is exact for any distribution whose characteristic function is
available.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "MAX_MOMENT_ORDER",
    "ScalarComponent",
    "ScalarMixture",
    "Gaussian2D",
    "Gaussian2DMixture",
    "mixture_modes",
    "mode_mixtures",
    "MomentTable",
    "char_fn",
    "trig_moment",
    "trig_moments_from_char_fn",
    "raw_moment_array",
    "gaussian2d_moment_stack",
    "gaussian2d_raw_moments",
]

# Highest raw-moment order handed out by this module.  Degree-6 SOS bounds on a
# quadratic form consume bivariate moments up to order 12, so the cap leaves
# headroom above that.
MAX_MOMENT_ORDER = 16

_WEIGHT_TOL = 1e-12
_SYM_TOL = 1e-12
_PSD_TOL = 1e-12
_IMAG_TOL = 1e-10


def _check_order(n: int) -> None:
    if n < 0:
        raise ValidationError(f"moment order must be nonnegative, got {n}")
    if n > MAX_MOMENT_ORDER:
        raise ValidationError(
            f"moment order {n} exceeds the supported cap {MAX_MOMENT_ORDER}"
        )


def _odd_factorial(k: int) -> int:
    """(k-1)!! for even k, the number of pairings of k items."""
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


@dataclass(frozen=True)
class ScalarComponent:
    """One mixture component on the real line.

    Parameters
    ----------
    mean : float
        Component mean.
    variance : float
        Component variance; zero denotes a point mass.
    """

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean) or not math.isfinite(self.variance):
            raise ValidationError("component mean/variance must be finite")
        if self.variance < 0.0:
            raise ValidationError(f"variance must be >= 0, got {self.variance}")

    def char_fn(self, t: float) -> complex:
        return cmath.exp(1j * t * self.mean - 0.5 * self.variance * t * t)

    def raw_moment(self, n: int) -> float:
        """E[X^n], exact."""
        _check_order(n)
        if self.variance == 0.0:
            return self.mean ** n
        sigma2 = self.variance
        total = 0.0
        for k in range(0, n + 1, 2):
            total += (
                math.comb(n, k)
                * _odd_factorial(k)
                * sigma2 ** (k // 2)
                * self.mean ** (n - k)
            )
        return total


def _check_weights(weights: Sequence[float], where: str) -> tuple[float, ...]:
    w = tuple(float(x) for x in weights)
    if not w:
        raise ValidationError(f"{where}: mixture needs at least one component")
    if not all(math.isfinite(x) for x in w):
        raise ValidationError(f"{where}: non-finite mixture weight")
    if any(x < 0.0 for x in w):
        raise ValidationError(f"{where}: negative mixture weight")
    try:
        s = math.fsum(w)
    except OverflowError:  # the sum is beyond the float range
        s = math.inf
    if abs(s - 1.0) > _WEIGHT_TOL:
        raise ValidationError(f"{where}: mixture weights sum to {s!r}, expected 1")
    return w


@dataclass(frozen=True)
class ScalarMixture:
    """Finite mixture of scalar Gaussian / point-mass components."""

    components: tuple[ScalarComponent, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        w = _check_weights(self.weights, "ScalarMixture")
        if len(w) != len(comps):
            raise ValidationError(
                f"ScalarMixture: {len(comps)} components but {len(w)} weights"
            )
        object.__setattr__(self, "weights", w)

    @classmethod
    def single(cls, mean: float, variance: float) -> "ScalarMixture":
        return cls((ScalarComponent(mean, variance),), (1.0,))

    @classmethod
    def point(cls, value: float) -> "ScalarMixture":
        return cls.single(value, 0.0)

    def char_fn(self, t: float) -> complex:
        return sum(
            w * c.char_fn(t) for w, c in zip(self.weights, self.components)
        )

    def raw_moment(self, n: int) -> float:
        return math.fsum(
            w * c.raw_moment(n) for w, c in zip(self.weights, self.components)
        )

    @property
    def mean(self) -> float:
        return self.raw_moment(1)

    @property
    def variance(self) -> float:
        m1 = self.raw_moment(1)
        return self.raw_moment(2) - m1 * m1


def _check_gaussians(
    means: Sequence, covs: Sequence, where: Optional[Callable[[int], str]] = None
):
    """Check N bivariate Gaussians in one stacked pass.

    ``means`` and ``covs`` are stacked (N, 2) and (N, 2, 2) arrays or one
    entry per mode.  Returns the (N, 2) means and the symmetrized (N, 2, 2)
    covariances, both read-only.  Each mode gets, in this order, a mean
    shape, finite mean, covariance shape, finite covariance, finite
    symmetrized covariance (entries near the float maximum overflow when
    added), symmetry (1e-12) and PSD (1e-12, one stacked ``eigvalsh``)
    check; the first
    failing check of the first bad mode n raises, prefixed with
    ``where(n)`` when given.
    """
    try:
        m, c = np.array(means, dtype=float), np.array(covs, dtype=float)
    except (TypeError, ValueError, OverflowError):  # mixed shapes, or no numbers
        m = c = np.zeros(0)
    if m.shape[1:] == (2,) and c.shape == (len(m), 2, 2):
        mean_shape = cov_shape = np.zeros(len(m), dtype=bool)
    else:  # entry by entry, as each mode's own check would see it
        ms = [np.asarray(x, dtype=float) for x in means]
        cs = [np.asarray(x, dtype=float) for x in covs]
        mean_shape = np.array([x.shape != (2,) for x in ms], dtype=bool)
        cov_shape = np.array([x.shape != (2, 2) for x in cs], dtype=bool)
        m = np.array([np.zeros(2) if bad else x for bad, x in zip(mean_shape, ms)]).reshape(-1, 2)
        c = np.array([np.zeros((2, 2)) if bad else x for bad, x in zip(cov_shape, cs)]).reshape(-1, 2, 2)
    mean_finite = np.isfinite(m).all(axis=1)
    cov_finite = np.isfinite(c).all(axis=(1, 2))
    c = np.where(cov_finite[:, None, None], c, 0.0)  # a non-finite one fails first anyway
    c01, c10 = c[:, 0, 1], c[:, 1, 0]
    with np.errstate(over="ignore"):
        asym = abs(c01 - c10) > _SYM_TOL * np.maximum(np.maximum(abs(c01), abs(c10)), 1.0)
        sym = 0.5 * (c + c.transpose(0, 2, 1))
    sym_finite = np.isfinite(sym).all(axis=(1, 2))
    eig = np.linalg.eigvalsh(np.where(sym_finite[:, None, None], sym, 0.0))
    not_psd = eig[:, 0] < -_PSD_TOL * np.maximum(1.0, eig[:, 1])
    bad = mean_shape | ~mean_finite | cov_shape | ~cov_finite | ~sym_finite | asym | not_psd
    if bad.any():
        n = int(np.argmax(bad))
        checks = (
            (mean_shape, lambda: f"mean must have shape (2,), got {ms[n].shape}"),
            (~mean_finite, lambda: "mean has non-finite entries"),
            (cov_shape, lambda: f"covariance must be 2x2, got shape {cs[n].shape}"),
            (~cov_finite, lambda: "covariance has non-finite entries"),
            (~sym_finite, lambda: "covariance overflows when symmetrized"),
            (asym, lambda: "covariance must be symmetric within 1e-12"),
            (not_psd, lambda: f"covariance is not positive semidefinite (eigenvalues {eig[n]})"),
        )
        message = next(text() for fails, text in checks if fails[n])
        raise ValidationError(message if where is None else f"{where(n)}: {message}")
    m.flags.writeable = False
    sym.flags.writeable = False
    return m, sym


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, which have
    been checked already (as a stack, say), without its own checks."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate Gaussian, possibly degenerate (rank < 2).

    Checked as a stack of one (`mixture_modes` checks many at once).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        means, covs = _check_gaussians([self.mean], [self.cov])
        object.__setattr__(self, "mean", means[0])
        object.__setattr__(self, "cov", covs[0])


@dataclass(frozen=True)
class Gaussian2DMixture:
    """Finite mixture of bivariate Gaussians (one prediction mode each)."""

    components: tuple[Gaussian2D, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        w = _check_weights(self.weights, "Gaussian2DMixture")
        if len(w) != len(comps):
            raise ValidationError(
                f"Gaussian2DMixture: {len(comps)} components but {len(w)} weights"
            )
        object.__setattr__(self, "weights", w)


def mixture_modes(steps: Sequence[Gaussian2DMixture]):
    """The modes of per-step mixtures as arrays, checked as one stack.

    Returns the read-only weights (N,), means (N, 2), symmetrized
    covariances (N, 2, 2) and step index (N,) of every mode, steps in
    order.  The Gaussians pass `_check_gaussians`, the check a loaded
    agent's mode arrays take, so mixtures and scenario files reach a mode
    stack by one route.
    """
    comps = [c for mix in steps for c in mix.components]
    means, covs = _check_gaussians([c.mean for c in comps], [c.cov for c in comps])
    weights = np.array([w for mix in steps for w in mix.weights], dtype=float)
    step = np.repeat(np.arange(len(steps)), [len(mix.components) for mix in steps])
    weights.flags.writeable = step.flags.writeable = False
    return weights, means, covs, step


def _grouped(cls, comps: list, weights: np.ndarray, group: np.ndarray) -> list:
    """One `cls` mixture of checked components and weights per value of the
    sorted index `group`; every value from 0 to ``group[-1]`` is present."""
    w, ends = weights.tolist(), np.cumsum(np.bincount(group)).tolist()
    return [_unchecked(cls, components=tuple(comps[lo:hi]), weights=tuple(w[lo:hi]))
            for lo, hi in zip([0] + ends[:-1], ends)]


def mode_mixtures(weights, means, covs, step) -> tuple[Gaussian2DMixture, ...]:
    """Per-step mixtures of checked mode arrays, the inverse of `mixture_modes`;
    every step from 0 to ``step[-1]`` holds at least one mode."""
    comps = [_unchecked(Gaussian2D, mean=m, cov=c) for m, c in zip(means, covs)]
    return tuple(_grouped(Gaussian2DMixture, comps, weights, step))


def _check_state(state) -> None:
    """Reject a unicycle state (x, y, v, theta) that is not four finite numbers."""
    try:
        if len(state) == 4 and all(map(math.isfinite, state)):
            return
    except (TypeError, OverflowError):  # no length, or a field no float can hold
        pass
    raise ValidationError(f"initial state must be four finite numbers (x, y, v, theta), "
                          f"got {state!r}")


@dataclass(frozen=True, init=False, eq=False)
class ControlAgent:
    """Initial (x, y, v, theta), four finite numbers, plus per-step (speed,
    heading) noise mixtures held as component arrays.

    Component n of ``weights``, ``means`` and ``variances`` (N,) belongs to
    mixture ``mixture[n]``, in order: 2t is step t's speed noise and 2t + 1
    its heading noise.  The arrays are read-only and checked, by the loader
    or by building from ``steps``, (speed, heading) pairs of `ScalarMixture`s;
    ``steps`` itself is rebuilt from the arrays on first use (Monte Carlo).
    """

    initial_state: Tuple[float, float, float, float]
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    mixture: np.ndarray

    form = "gmm_control"

    def __init__(self, initial_state, steps: Sequence[Tuple[ScalarMixture, ScalarMixture]]):
        _check_state(initial_state)
        mixes = []
        for t, pair in enumerate(steps):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(mix, ScalarMixture) for mix in pair)):
                raise ValidationError(f"steps[{t}]: expected a (speed, heading) pair of "
                                      f"ScalarMixtures, got {pair!r:.60}")
            mixes += pair
        comps = [c for mix in mixes for c in mix.components]
        fields = dict(
            weights=np.array([w for mix in mixes for w in mix.weights], dtype=float),
            means=np.array([c.mean for c in comps], dtype=float),
            variances=np.array([c.variance for c in comps], dtype=float),
            mixture=np.repeat(np.arange(len(mixes)), [len(mix.weights) for mix in mixes]),
        )
        for array in fields.values():
            array.flags.writeable = False
        self.__dict__.update(fields, initial_state=initial_state)

    @cached_property
    def steps(self) -> Tuple[Tuple[ScalarMixture, ScalarMixture], ...]:
        comps = [_unchecked(ScalarComponent, mean=m, variance=v)
                 for m, v in zip(self.means.tolist(), self.variances.tolist())]
        mixes = _grouped(ScalarMixture, comps, self.weights, self.mixture)
        return tuple(zip(mixes[::2], mixes[1::2]))

    @property
    def horizon(self) -> int:
        return int(self.mixture[-1]) // 2 + 1 if len(self.mixture) else 0


class MomentTable:
    """Raw moments E[x^p y^q] of a bivariate distribution for p + q <= max_order.

    ``moments`` is one read-only (max_order + 1, max_order + 1) array with
    M[p, q] = E[x^p y^q] and zeros where p + q > max_order: the layout the
    stacked kernels read, there with a leading row axis (`raw_moment_array`).
    ``entries`` is a numeric array of that shape; its entries with
    p + q <= max_order must be finite, the zeroth moment must be 1 and the
    pure second moments must obey Jensen.  Lookups beyond the stored order
    raise instead of silently truncating.
    """

    __slots__ = ("max_order", "moments")

    def __init__(self, max_order: int, entries):
        _check_order(max_order)
        idx = np.arange(max_order + 1)
        inside = np.add.outer(idx, idx) <= max_order
        try:
            m = np.array(entries, dtype=float)
            numeric = np.asarray(entries).dtype.kind in "biuf"  # not text read as numbers
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            numeric = False
        if not numeric or m.shape != inside.shape:
            raise ValidationError(f"moment table at max_order {max_order} must be a numeric "
                                  f"array of shape {inside.shape}")
        m[~inside] = 0.0
        if not np.isfinite(m).all():
            p, q = np.argwhere(~np.isfinite(m))[0].tolist()
            raise ValidationError(f"moment ({p}, {q}) is not finite: {m[p, q]!r}")
        if abs(m[0, 0] - 1.0) > 1e-9:
            raise ValidationError(f"zeroth moment must be 1, got {m[0, 0]!r}")
        if max_order >= 2:
            for p, q in ((2, 0), (0, 2)):
                lo = m[p // 2, q // 2] ** 2
                if m[p, q] < lo - 1e-9 * max(1.0, abs(lo)):
                    raise ValidationError(
                        f"second moment at {(p, q)} violates Jensen: {m[p, q]} < {lo}"
                    )
        m.flags.writeable = False
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "moments", m)

    def __setattr__(self, name, value):
        raise AttributeError("MomentTable is immutable")

    def __getitem__(self, index: tuple[int, int]) -> float:
        a, b = index
        if a < 0 or b < 0:
            raise ValidationError(f"invalid moment index {index}")
        if a + b > self.max_order:
            raise ValidationError(
                f"moment {index} requested but table only holds order "
                f"{self.max_order}"
            )
        return float(self.moments[a, b])

    def mean(self) -> np.ndarray:
        return raw_moment_array(self, 1)[[1, 0], [0, 1]]

    def covariance(self) -> np.ndarray:
        m = raw_moment_array(self, 2)
        mx, my = m[1, 0], m[0, 1]
        return np.array(
            [
                [m[2, 0] - mx * mx, m[1, 1] - mx * my],
                [m[1, 1] - mx * my, m[0, 2] - my * my],
            ]
        )

    def __repr__(self):
        return f"MomentTable(max_order={self.max_order})"


def raw_moment_array(moments, order: int) -> np.ndarray:
    """M[..., :order + 1, :order + 1] of a `MomentTable` or of an array in its
    layout with leading axes for stacked tables; raises when fewer orders
    are held.  Only the entries with p + q <= order are moments of order
    at most `order`."""
    m = np.asarray(moments.moments if isinstance(moments, MomentTable) else moments, float)
    held = m.shape[-1] - 1
    if held < order:
        raise ValidationError(
            f"operation needs moments up to order {order}, table holds {held}"
        )
    return m[..., :order + 1, :order + 1]


def char_fn(dist, t: float) -> complex:
    """Characteristic function E[exp(i t X)] of a scalar component or mixture."""
    return dist.char_fn(t)


def _trig_terms(m: int, n: int) -> tuple[list[tuple[int, float]], complex]:
    """(frequency, coefficient) terms and divisor of E[cos^m X sin^n X].

    Writes cos X = (e^{iX} + e^{-iX})/2 and sin X = (e^{iX} - e^{-iX})/(2i)
    and expands both binomials: the moment is the sum of coefficient *
    phi(frequency) over the terms, divided by the divisor (a power of 2
    times a power of i).
    """
    terms = []
    for j in range(m + 1):
        cmj = math.comb(m, j)
        for k in range(n + 1):
            sign = -1.0 if (n - k) % 2 else 1.0
            terms.append((2 * (j + k) - m - n, cmj * math.comb(n, k) * sign))
    return terms, (1j) ** n * 2 ** (m + n)


@lru_cache(maxsize=None)
def _trig_layout(pairs: tuple, zero: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Term frequencies (offset by `zero`), coefficients and divisors of
    every (m, n) in `pairs`, padded with zero-coefficient terms at frequency 0."""
    expanded = [_trig_terms(m, n) for m, n in pairs]
    width = max(len(terms) for terms, _ in expanded)
    idx = np.full((len(pairs), width), zero, dtype=np.intp)
    coeff = np.zeros((len(pairs), width))
    for p, (terms, _) in enumerate(expanded):
        idx[p, :len(terms)] = [zero + freq for freq, _ in terms]
        coeff[p, :len(terms)] = [c for _, c in terms]
    return idx, coeff, np.array([divisor for _, divisor in expanded])


def trig_moments_from_char_fn(cf: np.ndarray, pairs: Sequence[tuple[int, int]],
                              zero: int) -> np.ndarray:
    """E[cos^m X sin^n X] for every (m, n) of `pairs`, stacked on a new last axis.

    ``cf[..., zero + f]`` holds characteristic-function values at the
    integer frequency f, so every pair needs 1 <= m + n <= zero.  Each
    moment collects its values at the frequencies 2(j + k) - m - n of the
    binomial expansion, term by term in a fixed order (padding terms are
    exact zeros).  The assembled sums are real up to roundoff; a residual
    imaginary part above 1e-10 indicates a defective characteristic
    function and raises.
    """
    idx, coeff, divisor = _trig_layout(tuple(pairs), zero)
    vals = cf[..., idx]
    acc = 0.0 + 0.0j
    for r in range(idx.shape[1]):
        acc = acc + coeff[:, r] * vals[..., r]
    acc = acc / divisor
    residual = float(np.max(np.abs(np.imag(acc))))
    if residual > _IMAG_TOL:
        raise NumericalError(
            f"trig moment has imaginary residual {residual:.3e}; "
            "characteristic function is inconsistent"
        )
    return acc.real


def trig_moment(dist, m: int, n: int) -> float:
    """E[cos^m X sin^n X] for a scalar component or mixture X.

    The characteristic function is sampled at every integer frequency in
    [-(m + n), m + n] and the moment assembled by
    :func:`trig_moments_from_char_fn`.
    """
    for power in (m, n):
        if isinstance(power, bool) or not isinstance(power, numbers.Integral) or power < 0:
            raise ValidationError(f"power {power!r} of ({m!r}, {n!r}) is not a nonnegative int")
    if m + n == 0:
        return 1.0
    cf = np.array([dist.char_fn(float(f)) for f in range(-(m + n), m + n + 1)])
    return trig_moments_from_char_fn(cf, [(m, n)], m + n)[0]


def _gaussian2d_fill(mean: list, cov: list, max_order: int) -> list[list[float]]:
    """Raw moments of a bivariate Gaussian by the integration-by-parts
    recursion E[x_i f(x)] = mu_i E[f] + sum_j Sigma_ij E[d f / d x_j]."""
    mx, my = mean
    (sxx, sxy), (_, syy) = cov
    t = [[0.0] * (max_order + 1) for _ in range(max_order + 1)]
    t[0][0] = 1.0
    for order in range(1, max_order + 1):
        for a in range(order, -1, -1):
            b = order - a
            if a >= 1:
                val = mx * t[a - 1][b]
                if a >= 2:
                    val += sxx * (a - 1) * t[a - 2][b]
                if b >= 1:
                    val += sxy * b * t[a - 1][b - 1]
            else:
                val = my * t[0][b - 1]
                if b >= 2:
                    val += syy * (b - 1) * t[0][b - 2]
            t[a][b] = val
    return t


def gaussian2d_moment_stack(means, covs, max_order: int) -> np.ndarray:
    """Raw moments of N bivariate Gaussians with means (N, 2) and
    covariances (N, 2, 2), as (N, max_order + 1, max_order + 1) in the
    `MomentTable` layout."""
    _check_order(max_order)
    rows = zip(np.asarray(means, float).tolist(), np.asarray(covs, float).tolist())
    return np.array([_gaussian2d_fill(m, c, max_order) for m, c in rows])


def gaussian2d_raw_moments(g: Gaussian2D, max_order: int) -> MomentTable:
    """Complete raw-moment table of a bivariate Gaussian up to ``max_order``."""
    return MomentTable(max_order, gaussian2d_moment_stack([g.mean], [g.cov], max_order)[0])
