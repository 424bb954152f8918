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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .distributions import Gaussian2DMixture, ScalarMixture
from .errors import ValidationError
from .frames import EgoPose, Ellipsoid, form_contains, rotate_form

__all__ = ["McEstimate", "mc_position_risk", "mc_control_risk", "sampling_args"]

_MIN_SAMPLES = 1000
_Z95 = 1.959963984540054  # standard normal 0.975 quantile
_KEY_LIMIT = 2**128  # Philox keys are 128-bit


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


def _estimate(hits: np.ndarray, seed: int) -> McEstimate:
    n = hits.size
    p = int(np.count_nonzero(hits)) / n
    return McEstimate(p, math.sqrt(p * (1.0 - p) / n), n, seed)


def _stream(seed: int, step: int) -> np.random.Generator:
    """Independent substream for one timestep (step -1: setup draws)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(step + 1))


def _pick(weights: Sequence[float], u: np.ndarray) -> np.ndarray:
    """Categorical sampling by inverse CDF.

    The index is the count of inner cumulative-weight edges at or below u,
    i.e. ``searchsorted(cumsum(weights), u, "right")`` clamped to the last
    mode, so a cumsum ending a hair below 1 still picks a valid mode.
    """
    k = np.zeros(u.shape, dtype=np.intp)
    for e in np.cumsum(np.asarray(weights, dtype=float))[:-1]:
        k += u >= e
    return k


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


def _hits(q: Ellipsoid, pose: EgoPose, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Membership of global points (x, y) in the footprint at `pose`."""
    return form_contains(rotate_form(q, pose.theta).q, x - pose.x, y - pose.y)


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

    modes = None
    if mode_persistence:
        counts = {len(step.components) for step in gmm_steps}
        if len(counts) != 1:
            raise ValidationError(
                "mode persistence needs the same mode count at every step"
            )
        modes = _pick(gmm_steps[0].weights, _stream(seed, -1).random(n))

    per_step: List[McEstimate] = []
    union = np.zeros(n, dtype=bool)
    for t, (mix, pose) in enumerate(zip(gmm_steps, ego_traj)):
        g = _stream(seed, t)
        means = np.stack([c.mean for c in mix.components])
        roots = np.stack([_psd_root(c.cov) for c in mix.components])
        if not mode_persistence:
            modes = _pick(mix.weights, g.random(n))
        z = g.standard_normal((n, 2))
        z0, z1 = z[:, 0], z[:, 1]
        # means[modes] + einsum("nij,nj->ni", roots[modes], z), by coordinate,
        # gathering from per-mode vectors (faster than roots[modes, i, j])
        (r00, r01), (r10, r11) = roots.transpose(1, 2, 0)
        mx, my = means.T
        x = r00[modes] * z0
        x += r01[modes] * z1
        x += mx[modes]
        y = r10[modes] * z0
        y += r11[modes] * z1
        y += my[modes]
        del z, z0, z1  # free the draws before the membership temporaries
        hits = _hits(q, pose, x, y)
        union |= hits
        per_step.append(_estimate(hits, seed))
    return per_step, _estimate(union, seed)


def _draw(mix: ScalarMixture, g: np.random.Generator, n: int) -> np.ndarray:
    """n samples of a scalar mixture: one uniform, then one normal, each."""
    comp = _pick(mix.weights, g.random(n))
    out = g.standard_normal(n)
    out *= np.sqrt([c.variance for c in mix.components])[comp]
    out += np.array([c.mean for c in mix.components])[comp]
    return out


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
    n, seed = _check_common(n_samples, seed, len(control_steps), len(ego_traj))
    x, y, v, th = (np.full(n, float(s)) for s in init_state)

    per_step: List[McEstimate] = []
    union = np.zeros(n, dtype=bool)
    for t, ((w_v, w_th), pose) in enumerate(zip(control_steps, ego_traj)):
        g = _stream(seed, t)
        x += v * np.cos(th)
        y += v * np.sin(th)
        v += _draw(w_v, g, n)
        th += _draw(w_th, g, n)
        hits = _hits(q, pose, x, y)
        union |= hits
        per_step.append(_estimate(hits, seed))
    return per_step, _estimate(union, seed)
