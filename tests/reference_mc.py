"""Monte Carlo estimators as they were before the 1-D per-step rewrite.

Differential oracle for `trajrisk.mc`: the estimator bodies are the former
ones unchanged, with (n, 2, 2) mode gathers, an `einsum` Cholesky product
and `searchsorted` mode picks.  Only the footprint test is inlined, as the
former `Ellipsoid.contains` einsum, so that this file shares no membership
arithmetic with the code under test.  Results are (probability, std_error,
samples) tuples.
"""

from __future__ import annotations

import math

import numpy as np

from trajrisk.frames import rotate_form


def _contains(ell, points):
    pts = np.asarray(points, dtype=float)
    vals = np.einsum("...i,ij,...j->...", pts, ell.q, pts)
    return vals <= 1.0


def _estimate(hits):
    n = hits.size
    p = float(hits.mean())
    return p, math.sqrt(p * (1.0 - p) / n), n


def _stream(seed, step):
    return np.random.Generator(np.random.Philox(key=seed).jumped(step + 1))


def _pick(weights, u):
    edges = np.cumsum(weights)
    return np.minimum(np.searchsorted(edges, u, side="right"), len(weights) - 1)


def _psd_root(cov):
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def mc_position_risk(gmm_steps, ego_traj, q, n_samples, seed, mode_persistence=False):
    n = int(n_samples)

    persistent_modes = None
    if mode_persistence:
        w = np.asarray(gmm_steps[0].weights, dtype=float)
        persistent_modes = _pick(w, _stream(seed, -1).random(n))

    per_step = []
    union = np.zeros(n, dtype=bool)
    for t, (mix, pose) in enumerate(zip(gmm_steps, ego_traj)):
        g = _stream(seed, t)
        means = np.stack([c.mean for c in mix.components])
        chols = np.stack([_psd_root(c.cov) for c in mix.components])
        if persistent_modes is None:
            modes = _pick(np.asarray(mix.weights, dtype=float), g.random(n))
        else:
            modes = persistent_modes
        z = g.standard_normal((n, 2))
        pos = means[modes] + np.einsum("nij,nj->ni", chols[modes], z)
        hits = _contains(rotate_form(q, pose.theta), pos - pose.position)
        union |= hits
        per_step.append(_estimate(hits))
    return per_step, _estimate(union)


def mc_control_risk(control_steps, init_state, ego_traj, q, n_samples, seed):
    n = int(n_samples)
    x0, y0, v0, th0 = map(float, init_state)
    x = np.full(n, x0)
    y = np.full(n, y0)
    v = np.full(n, v0)
    th = np.full(n, th0)

    def draw(mix, g):
        means = np.array([c.mean for c in mix.components])
        sds = np.sqrt([c.variance for c in mix.components])
        comp = _pick(np.asarray(mix.weights, dtype=float), g.random(n))
        return means[comp] + sds[comp] * g.standard_normal(n)

    per_step = []
    union = np.zeros(n, dtype=bool)
    for t, ((w_v, w_th), pose) in enumerate(zip(control_steps, ego_traj)):
        g = _stream(seed, t)
        x = x + v * np.cos(th)
        y = y + v * np.sin(th)
        v = v + draw(w_v, g)
        th = th + draw(w_th, g)
        pos = np.column_stack([x, y])
        hits = _contains(rotate_form(q, pose.theta), pos - pose.position)
        union |= hits
        per_step.append(_estimate(hits))
    return per_step, _estimate(union)
