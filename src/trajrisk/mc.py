"""Monte Carlo reference estimators for scenario risk.

Ground truth for the analytic and bound pipelines.  Position-mixture agents
are sampled directly at every step; control-mixture agents are rolled out as
a particle cloud through the unicycle dynamics.  All randomness comes from
counter-based Philox streams keyed on (seed, step), so estimates are
reproducible for a fixed seed and independent of how the work would be
partitioned across workers.

Stream layout, per step t (step -1 holds the persistent-mode draw):
position form draws ``random(n)`` for the modes, then
``standard_normal((n, 2))`` whose columns drive x and y; control form draws
``random(n)`` and ``standard_normal(n)`` for the speed noise, then the same
pair for the heading noise.  Each step then does O(n) work on 1-D float
arrays: a mode index from comparisons with the cumulative weights, gathers
from per-mode vectors, and sums written in the order ``np.einsum`` adds
them, so every estimate is bit-for-bit what the (n, 2, 2)-array form gave.

Because a step's stream does not depend on the rollout, worker threads
draw later steps while the calling thread evaluates step t (`_run`); numpy's
fills and ufuncs release the GIL, so they overlap.  The pipeline depth is
fixed per form.  The position form's draw (the normals most of all) costs
over twice its evaluation, so two workers draw steps t + 1 and t + 2 into
three buffer sets, step t into set t % 3.  The control form keeps one
worker a step ahead and two sets: next to its 32 bytes of particle state
per sample, a third set would lift its peak from about 71 to 89 bytes per
sample.  A set holds the (n, 2) normals and a mode index
per sample (position), or the speed and heading normals with a mode index
each (control); the uniforms are drawn into the buffer the normals then
overwrite.  A control worker runs only the stream (uniforms to mode index,
then normals); the calling thread scales the normals by each sample's
mode, slice by slice, just before adding them to the speed and heading,
which splits a step's work about evenly between the two threads.  Mode
indices are ``uint8`` up to 256 modes.  The calling thread works through
each step in slices of `_CHUNK` samples; every operation is elementwise,
so slicing changes no result and only the state, the draws and the union
are held for all n samples: about 55 bytes per sample for the position
form (three sets of 17) and 71 for the control form (32 of state, two sets
of 18, the union).
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .distributions import ControlAgent, Gaussian2DMixture, ScalarMixture
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, form_contains, rotate_form

__all__ = ["McEstimate", "mc_position_risk", "mc_control_risk", "sampling_args"]

_MIN_SAMPLES = 1000
_Z95 = 1.959963984540054  # standard normal 0.975 quantile
_KEY_LIMIT = 2**128  # Philox keys are 128-bit
_CHUNK = 1 << 13  # samples per slice of the per-step work


@dataclass(frozen=True)
class McEstimate:
    """Bernoulli estimate with its binomial standard error."""

    probability: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"estimated probability {self.probability} outside [0, 1]"
            )

    @property
    def ci95(self) -> Tuple[float, float]:
        """95% Wilson score interval; keeps nonzero width at p = 0 and p = 1."""
        p, n, z2 = self.probability, self.samples, _Z95 * _Z95
        scale = 1.0 / (1.0 + z2 / n)
        center = scale * (p + z2 / (2.0 * n))
        half = scale * _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
        return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def _estimate(hits: int, n: int, seed: int) -> McEstimate:
    p = hits / n
    return McEstimate(p, math.sqrt(p * (1.0 - p) / n), n, seed)


def _stream(seed: int, step: int) -> np.random.Generator:
    """Independent substream for one timestep (step -1: setup draws)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(step + 1))


def _chunks(n: int):
    return (slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK))


def _index_dtype(n_modes: int) -> type:
    """Dtype of a mode index held for all samples.  Slices of it are widened
    to ``intp`` before gathering: a ``uint8`` index gathers about 2x slower."""
    return np.uint8 if n_modes <= 256 else np.intp


def _pick(weights: Sequence[float], u: np.ndarray, out=None) -> np.ndarray:
    """Categorical sampling by inverse CDF, into `out` if given.

    The index is the count of inner cumulative-weight edges at or below u,
    i.e. ``searchsorted(cumsum(weights), u, "right")`` clamped to the last
    mode, so a cumsum ending a hair below 1 still picks a valid mode.
    """
    edges = np.cumsum(np.asarray(weights, dtype=float))[:-1]
    if out is None:
        out = np.empty(u.shape, dtype=_index_dtype(len(edges) + 1))
    for s in _chunks(u.size):
        k = out[s]
        k.fill(0)
        for e in edges:
            k += u[s] >= e
    return out


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """B with B B^T = cov; falls back past Cholesky for degenerate modes."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _integral(name: str, value) -> int:
    # bool is an Integral, but True as a seed or sample count is a mistake
    integral = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (
            isinstance(value, numbers.Real)
            and math.isfinite(value)
            and float(value).is_integer()
        )
    )
    if not integral:
        raise ValidationError(f"{name} must be a finite integer, got {value!r}")
    return int(value)


def sampling_args(n_samples, seed, stride: int = 1) -> Tuple[int, int]:
    """Validated (n_samples, seed) as ints; integral floats such as 1e6 pass.

    Callers that key substreams as ``seed * stride + i`` with i < stride pass
    their stride, so every derived key stays below Philox's 2**128 limit.
    """
    n = _integral("n_samples", n_samples)
    if n < _MIN_SAMPLES:
        raise ValidationError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    seed = _integral("seed", seed)
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    limit = _KEY_LIMIT // stride
    if seed >= limit:
        raise ValidationError(f"seed must be below {limit}, got {seed}")
    return n, seed


def _check_common(n_samples, seed, n_steps: int, n_poses: int) -> Tuple[int, int]:
    n, seed = sampling_args(n_samples, seed)
    if n_steps != n_poses:
        raise ValidationError(
            f"prediction horizon {n_steps} does not match ego trajectory {n_poses}"
        )
    return n, seed


def _run(
    n: int, seed: int, ego_traj: Sequence[EgoPose], q: Ellipsoid, ahead: int,
    make: Callable[[], tuple], draw: Callable[[int, tuple], None],
    sample: Callable[[int, tuple, slice], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[List[McEstimate], McEstimate]:
    """Per-step and union estimates of footprint membership.

    `make()` allocates one buffer set and `draw(t, bufs)` fills it with step
    t's draws, on `ahead` worker threads up to `ahead` steps ahead of the
    calling thread, into ``ahead + 1`` sets: step t into set
    ``t % (ahead + 1)``, the one step t - 1 was evaluated from.
    `sample(t, bufs, s)` returns the global (x, y) of samples `s` at step t
    from the set step t was drawn into.  Every buffer is allocated before
    the workers start, so an impossible sample count fails before any
    thread does.
    """
    n_steps = len(ego_traj)
    n_sets = ahead + 1
    union = np.zeros(n, dtype=bool)
    sets = [make() for _ in range(min(n_sets, n_steps))]
    per_step: List[McEstimate] = []
    with ThreadPoolExecutor(ahead) as workers:
        drawn = [workers.submit(draw, t, sets[t]) for t in range(min(ahead, n_steps))]
        for t, pose in enumerate(ego_traj):
            drawn[t].result()
            if t + ahead < n_steps:  # into the set step t - 1 used
                drawn.append(workers.submit(draw, t + ahead, sets[(t + ahead) % n_sets]))
            form = rotate_form(q, pose.theta).q
            hits = 0
            for s in _chunks(n):
                x, y = sample(t, sets[t % n_sets], s)
                inside = form_contains(form, x - pose.x, y - pose.y)
                union[s] |= inside
                hits += int(np.count_nonzero(inside))
            per_step.append(_estimate(hits, n, seed))
    return per_step, _estimate(int(np.count_nonzero(union)), n, seed)


def mc_position_risk(
    gmm_steps: Sequence[Gaussian2DMixture],
    ego_traj: Sequence[EgoPose],
    q: Ellipsoid,
    n_samples: int,
    seed: int,
    mode_persistence: bool = False,
) -> Tuple[List[McEstimate], McEstimate]:
    """Sampled per-step collision risks plus the trajectory-level union.

    Each step draws fresh positions from that step's mixture; the
    trajectory estimate is the per-sample union of step memberships.  With
    mode_persistence the mode index is drawn once per sample (from the
    step-0 weights) and held fixed, matching the mode-persistent survival
    semantics; steps stay conditionally independent given the mode.
    """
    n, seed = _check_common(n_samples, seed, len(gmm_steps), len(ego_traj))
    counts = {len(step.components) for step in gmm_steps}
    if mode_persistence:
        if len(counts) != 1:
            raise ValidationError(
                "mode persistence needs the same mode count at every step"
            )
        held = _pick(gmm_steps[0].weights, _stream(seed, -1).random(n))

    # per step: root entries r00, r01, r10, r11, then mean x, y, as per-mode
    # vectors (gathers from them beat roots[modes, i, j])
    params = [
        (*np.stack([_psd_root(c.cov) for c in mix.components]).reshape(-1, 4).T,
         *np.stack([c.mean for c in mix.components]).T)
        for mix in gmm_steps
    ]

    def make():
        modes = held if mode_persistence else np.empty(n, _index_dtype(max(counts)))
        return modes, np.empty((n, 2))

    def draw(t, bufs):
        modes, z = bufs
        g = _stream(seed, t)
        if not mode_persistence:
            u = z.reshape(-1)[:n]  # the normals' buffer holds the uniforms first
            _pick(gmm_steps[t].weights, g.random(out=u), out=modes)
        g.standard_normal(out=z)

    def sample(t, bufs, s):
        modes, z = bufs
        m, z0, z1 = modes[s].astype(np.intp), z[s, 0], z[s, 1]
        # means[modes] + einsum("nij,nj->ni", roots[modes], z), by coordinate
        r00, r01, r10, r11, mx, my = params[t]
        x = r00[m] * z0
        x += r01[m] * z1
        x += mx[m]
        y = r10[m] * z0
        y += r11[m] * z1
        y += my[m]
        return x, y

    return _run(n, seed, ego_traj, q, 2, make, draw, sample)


def mc_control_risk(
    control_steps: Sequence[Tuple[ScalarMixture, ScalarMixture]],
    init_state: Tuple[float, float, float, float],
    ego_traj: Sequence[EgoPose],
    q: Ellipsoid,
    n_samples: int,
    seed: int,
) -> Tuple[List[McEstimate], McEstimate]:
    """Particle rollout of a control-mixture agent with per-step membership.

    control_steps[t] holds the (speed, heading) noise mixtures driving the
    transition into step t+1; the post-transition position is tested against
    ego_traj[t].  Also returns the union estimate over the whole horizon,
    which for a rollout is a true joint-trajectory probability.
    """
    agent = ControlAgent(init_state, control_steps)
    n, seed = _check_common(n_samples, seed, agent.horizon, len(ego_traj))
    x, y, v, th = (np.full(n, float(s)) for s in init_state)
    # per mixture (step t's speed at 2t, its heading at 2t + 1): weights, sd and mean per mode
    sizes = np.bincount(agent.mixture)
    weights, sds, means = (np.split(a, np.cumsum(sizes)[:-1])
                           for a in (agent.weights, np.sqrt(agent.variances), agent.means))
    n_modes = int(sizes.max(initial=1))

    def make():
        index = _index_dtype(n_modes)
        return np.empty(n), np.empty(n), np.empty(n, index), np.empty(n, index)

    def draw(t, bufs):
        # the stream only: the uniforms go into each noise buffer and pick
        # its mode index before the standard normals overwrite them
        g = _stream(seed, t)
        for w, out, comp in zip(weights[2 * t:2 * t + 2], bufs[:2], bufs[2:]):
            _pick(w, g.random(out=out), out=comp)
            g.standard_normal(out=out)

    def sample(t, bufs, s):
        xs, ys, vs, ths = x[s], y[s], v[s], th[s]
        xs += vs * np.cos(ths)
        ys += vs * np.sin(ths)
        # scale the normals by each sample's mode, then add them: speed first
        for sd, mean, noise, comp, state in zip(sds[2 * t:2 * t + 2], means[2 * t:2 * t + 2],
                                                bufs[:2], bufs[2:], (vs, ths)):
            o, k = noise[s], comp[s].astype(np.intp)
            o *= sd[k]
            o += mean[k]
            state += o
        return xs, ys

    return _run(n, seed, ego_traj, q, 1, make, draw, sample)
