"""The per-mode position-form route, kept as the differential-test oracle.

Before the batched path, every (step, mode) Gaussian was evaluated on its
own: the footprint form was rotated to the global frame
(``rotate_form``), and then

* imhof / ltz: ``spectral_reduce`` whitened by Sigma^{1/2} and
  diagonalized, then ``imhof_cdf`` or ``ltz_cdf`` on that one form;
* chebyshev-halfspace: ``ellipse_to_halfspaces`` on the rotated form,
  then ``cheb_bound_halfspace`` face by face;
* chebyshev-quad: ``gaussian2d_raw_moments`` to order 4, translated to the
  ego and fed to ``cheb_bound_quadratic`` (``quad_form_moments``).

The functions below are that code, unchanged, with a copy of the retired
scalar ``noncentral_chi2_cdf``; what the package still ships unchanged
(``rotate_form``, ``SpectralForm``, ``CdfResult``) is imported, and the old
moment tables, ``to_ego_frame``, ``cheb_one_tailed``,
``cheb_bound_quadratic`` and the old step-by-step ``trajectory_risk`` come
from the table-route oracle ``reference_tables``.
``imhof_branch`` is new: it names the branch the old ``imhof_cdf`` takes.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
from scipy import integrate, special

from reference_tables import (
    cheb_bound_quadratic,
    cheb_one_tailed,
    gaussian2d_raw_moments,
    to_ego_frame,
    trajectory_risk,
)
from trajrisk.chebyshev import HalfSpace, RiskBound
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.engine import MarginalRisk
from trajrisk.errors import NumericalError, ValidationError
from trajrisk.frames import EgoPose, Ellipsoid, rotate_form
from trajrisk.qfmvg import CdfResult, SpectralForm

_RANK_TOL = 1e-12


def noncentral_chi2_cdf(x: float, df: float, nc: float) -> float:
    """The package's former scalar wrapper of ``special.chndtr``, which the
    old ltz route called."""
    if df <= 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if nc < 0.0:
        raise ValidationError(f"noncentrality must be nonnegative, got {nc}")
    if x <= 0.0:
        return 0.0
    return float(special.chndtr(x, df, nc))


def spectral_reduce(
    q_form: np.ndarray, mean: np.ndarray, cov: np.ndarray, q: float = 1.0
) -> SpectralForm:
    qf = np.asarray(q_form, dtype=float)
    mu = np.asarray(mean, dtype=float)
    sigma = np.asarray(cov, dtype=float)
    dim = mu.shape[0]
    if qf.shape != (dim, dim) or sigma.shape != (dim, dim):
        raise ValidationError("shape mismatch between form, mean, and covariance")
    q_eigs = np.linalg.eigvalsh(0.5 * (qf + qf.T))
    if q_eigs.min() <= 0.0:
        raise ValidationError("quadratic form must be positive definite")

    sig_vals, sig_vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if sig_vals.min() < -_RANK_TOL * max(1.0, sig_vals.max()):
        raise ValidationError("covariance is not positive semidefinite")
    sig_vals = np.clip(sig_vals, 0.0, None)
    root = sig_vecs @ np.diag(np.sqrt(sig_vals)) @ sig_vecs.T

    a = root @ qf @ root
    lam, vecs = np.linalg.eigh(0.5 * (a + a.T))
    d = vecs.T @ (root @ (qf @ mu))

    cutoff = _RANK_TOL * max(1.0, lam.max(initial=0.0))
    offset = float(mu @ qf @ mu)
    lambdas: list[float] = []
    ncs: list[float] = []
    for lam_r, d_r in zip(lam, d):
        if lam_r <= cutoff:
            continue
        delta = d_r / lam_r
        lambdas.append(float(lam_r))
        ncs.append(float(delta * delta))
        offset -= float(d_r * d_r / lam_r)
    order = np.argsort(lambdas)[::-1]
    return SpectralForm(
        tuple(lambdas[i] for i in order),
        tuple(ncs[i] for i in order),
        float(q) - offset,
    )


def _chernoff_log_lower(form: SpectralForm) -> float:
    lam, nc, q = form.lambdas, form.noncentralities, form.q
    lmax = max(lam)
    best = 0.0
    for k in range(-8, 64):
        s = 2.0 ** k / (2.0 * lmax)
        val = s * q
        for l, d2 in zip(lam, nc):
            sl2 = 2.0 * s * l
            val -= 0.5 * math.log1p(sl2) + s * l * d2 / (1.0 + sl2)
        best = min(best, val)
    return best


def _chernoff_log_upper(form: SpectralForm) -> float:
    lam, nc, q = form.lambdas, form.noncentralities, form.q
    lmax = max(lam)
    best = 0.0
    for frac in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99):
        s = frac / (2.0 * lmax)
        val = -s * q
        for l, d2 in zip(lam, nc):
            sl2 = 2.0 * s * l
            val += -0.5 * math.log1p(-sl2) + s * l * d2 / (1.0 - sl2)
        best = min(best, val)
    return best


def _imhof_theta_rho(form: SpectralForm):
    lam = form.lambdas
    nc = form.noncentralities
    q = form.q

    def theta(u: float) -> float:
        acc = 0.0
        for l, d2 in zip(lam, nc):
            lu = l * u
            acc += math.atan(lu) + d2 * lu / (1.0 + lu * lu)
        return 0.5 * acc - 0.5 * q * u

    def inv_u_rho(u: float) -> float:
        logrho = 0.0
        ex = 0.0
        for l, d2 in zip(lam, nc):
            l2u2 = (l * u) ** 2
            logrho += 0.25 * math.log1p(l2u2)
            ex += d2 * l2u2 / (1.0 + l2u2)
        return math.exp(-logrho - 0.5 * ex) / u

    return theta, inv_u_rho


def imhof_branch(form: SpectralForm, tol: float) -> str:
    """The branch `imhof_cdf` takes: exact, gate-low, gate-high or quad."""
    if form.deterministic or form.q <= 0.0:
        return "exact"
    if _chernoff_log_lower(form) <= math.log(0.5 * tol):
        return "gate-low"
    if _chernoff_log_upper(form) <= math.log(0.5 * tol):
        return "gate-high"
    return "quad"


def imhof_cdf(form: SpectralForm, tol: float = 1e-6) -> CdfResult:
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    if form.deterministic:
        return CdfResult(1.0 if form.q >= 0.0 else 0.0, "imhof", 0.0)
    if form.q <= 0.0:
        return CdfResult(0.0, "imhof", 0.0)

    log_lo = _chernoff_log_lower(form)
    if log_lo <= math.log(0.5 * tol):
        return CdfResult(0.0, "imhof", error_bound=math.exp(log_lo))
    log_hi = _chernoff_log_upper(form)
    if log_hi <= math.log(0.5 * tol):
        return CdfResult(1.0, "imhof", error_bound=math.exp(log_hi))

    theta, inv_u_rho = _imhof_theta_rho(form)
    lam = form.lambdas
    nc = form.noncentralities
    q = form.q
    theta0 = 0.5 * (sum(l * (1.0 + d2) for l, d2 in zip(lam, nc)) - q)

    def integrand(u: float) -> float:
        if u < 1e-100:
            return theta0
        return math.sin(theta(u)) * inv_u_rho(u)

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

    budget = 0.5 * math.pi * tol
    last_err = math.inf
    for attempt, (limit, limlst) in enumerate(((200, 80), (2000, 400))):
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
            prob = 0.5 - total / math.pi
            return CdfResult(prob, "imhof", error_bound=last_err / math.pi)
    raise NumericalError(
        f"imhof quadrature did not reach tol={tol} "
        f"(estimated error {last_err / math.pi:.3e})"
    )


def ltz_cdf(form: SpectralForm) -> CdfResult:
    if form.deterministic:
        return CdfResult(1.0 if form.q >= 0.0 else 0.0, "ltz", None, "degenerate")
    lam = form.lambdas
    nc = form.noncentralities
    c = [
        sum(l ** k * (1.0 + k * d2) for l, d2 in zip(lam, nc))
        for k in (1, 2, 3, 4)
    ]
    c1, c2, c3, c4 = c
    if c2 <= 0.0:
        raise NumericalError("degenerate cumulants in surrogate construction")
    s1 = c3 / c2 ** 1.5
    s2 = c4 / (c2 * c2)
    t_star = (form.q - c1) / math.sqrt(2.0 * c2)
    if s1 * s1 > s2:
        a = 1.0 / (s1 - math.sqrt(s1 * s1 - s2))
        delta = s1 * a ** 3 - a * a
        delta = max(delta, 0.0)
        df = a * a - 2.0 * delta
        branch = "skew-kurtosis"
    else:
        a = 1.0 / s1
        delta = 0.0
        df = c2 ** 3 / (c3 * c3)
        branch = "skew-only"
    if df <= 0.0:
        raise NumericalError(f"surrogate degrees of freedom {df} <= 0")
    x = t_star * math.sqrt(2.0) * a + df + delta
    prob = noncentral_chi2_cdf(x, df, delta)
    return CdfResult(prob, "ltz", None, branch)


def ellipse_to_halfspaces(q, n_h: int) -> list:
    if n_h < 3:
        raise ValidationError(f"need at least 3 half-spaces, got {n_h}")
    qm = np.asarray(q.q if isinstance(q, Ellipsoid) else q, dtype=float).reshape(2, 2)
    evals, evecs = np.linalg.eigh(qm)
    if evals.min() <= 0.0:
        raise ValidationError("form matrix must be positive definite")
    q_inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    faces = []
    for k in range(n_h):
        t = 2.0 * np.pi * k / n_h
        p = q_inv_sqrt @ np.array([np.cos(t), np.sin(t)])
        faces.append(HalfSpace(qm @ p, -1.0))
    return faces


def cheb_bound_halfspace(halfspaces, mean, cov) -> RiskBound:
    mu = np.asarray(mean, dtype=float).reshape(2)
    sigma = np.asarray(cov, dtype=float).reshape(2, 2)
    best = 1.0
    for face in halfspaces:
        margin = float(face.a @ mu + face.b)
        var = float(face.a @ sigma @ face.a)
        bound = cheb_one_tailed(margin, var + margin * margin)
        if bound.value < best:
            best = bound.value
    return RiskBound(best, "chebyshev-halfspace", 2)


def gaussian_mode_risk(
    g: Gaussian2D, pose: EgoPose, q: Ellipsoid, method: str, tol: float,
    n_halfspaces: int,
) -> float:
    """One mode's risk, as the engine computed it before the batched path."""
    if method == "chebyshev-quad":
        ego_table, q_ego = to_ego_frame(gaussian2d_raw_moments(g, 4), pose, q)
        return cheb_bound_quadratic(q_ego.q, ego_table).value
    mean = g.mean - pose.position
    q_rot = rotate_form(q, pose.theta)
    if method == "chebyshev-halfspace":
        faces = ellipse_to_halfspaces(q_rot.q, n_halfspaces)
        return cheb_bound_halfspace(faces, mean, g.cov).value
    form = spectral_reduce(q_rot.q, mean, g.cov)
    if method == "imhof":
        return imhof_cdf(form, tol=tol).probability
    return ltz_cdf(form).probability


def mode_branches(mix: Gaussian2DMixture, pose: EgoPose, q: Ellipsoid, tol: float):
    """The imhof branch of each mode of one step."""
    q_rot = rotate_form(q, pose.theta)
    return [
        imhof_branch(spectral_reduce(q_rot.q, g.mean - pose.position, g.cov), tol)
        for g in mix.components
    ]


def marginal(mix, pose, q, method, t=0, tol=1e-8, n_halfspaces=12) -> MarginalRisk:
    per_mode = [
        (float(w), gaussian_mode_risk(g, pose, q, method, tol, n_halfspaces))
        for w, g in zip(mix.weights, mix.components)
    ]
    return MarginalRisk(
        t=t,
        per_mode=tuple(per_mode),
        mixed=math.fsum(w * v for w, v in per_mode),
        method=method,
        is_upper_bound=method.startswith("chebyshev"),
    )


def agent_rows(agent, sc, method, tol=1e-8, n_halfspaces=12) -> Tuple[List[float], float]:
    """Per-step mixed values and the trajectory total of one position agent."""
    marginals = [
        marginal(mix, pose, sc.ellipsoid, method, t + 1, tol, n_halfspaces)
        for t, (mix, pose) in enumerate(zip(agent.steps, sc.ego_trajectory))
    ]
    traj = trajectory_risk(marginals, mode_persistence=agent.mode_persistence)
    return [m.mixed for m in marginals], traj.total
