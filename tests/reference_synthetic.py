"""The crossing-scenario generators as they were before their shared
encounter draw.

Differential oracle for `trajrisk.synthetic`: `crossing_position_scenario`
and `crossing_control_scenario` are the former ones unchanged, each with
its own copy of the ego, arrival-time, footprint and agent-start draws, so
a test can hold the package's generators to the same documents, draw for
draw.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

DT = 0.2
"""Step length in seconds for the synthetic intersection."""


def _ego_rows(ve: float, e0: float, n_steps: int) -> list:
    # Ego drives north (+y) at constant speed; pose t pairs with the
    # agent's step-t prediction.
    return [
        {"x": 0.0, "y": -e0 + ve * DT * t, "theta": math.pi / 2}
        for t in range(1, n_steps + 1)
    ]


def _footprint(rng: np.random.Generator) -> list:
    # Body-frame footprint, x-forward: half-length ~2 m, half-width ~1 m.
    a_long = rng.uniform(1.7, 2.3)
    a_lat = rng.uniform(0.85, 1.15)
    return [[1.0 / a_long**2, 0.0], [0.0, 1.0 / a_lat**2]]


def _arrival_times(rng: np.random.Generator, n_steps: int):
    """Conflict-point arrival times (in steps) for ego and agent."""
    t_conflict = rng.uniform(0.35, 0.70) * n_steps
    if rng.uniform() < 0.4:
        gap = rng.uniform(5.5, 8.0)  # near miss
    else:
        gap = rng.uniform(8.0, 16.0)  # comfortable pass
    gap *= rng.choice([-1.0, 1.0])
    return t_conflict, t_conflict + gap


def crossing_position_scenario(
    seed: Optional[int] = None,
    n_steps: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Generate a position-form crossing scenario.

    One agent approaches the intersection from the east while the ego
    drives north.  The agent's per-step prediction is a three-mode
    Gaussian mixture: a nominal straight track and two lateral drift
    hypotheses, with along-track / cross-track standard deviations that
    grow with lookahead and saturate near (0.6, 0.28) m.

    Parameters
    ----------
    seed : int, optional
        Seed for a fresh generator; ignored when `rng` is given.
    n_steps : int
        Horizon length (number of prediction steps).
    rng : numpy.random.Generator, optional
        Generator to draw from, for callers managing their own streams.

    Returns
    -------
    dict
        Scenario dict in the file schema, single position-form agent.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    ve = rng.uniform(3.0, 7.0)
    t_conflict, t_agent = _arrival_times(rng, n_steps)
    e0 = ve * DT * t_conflict
    footprint = _footprint(rng)

    va = rng.uniform(3.0, 7.0)
    a0 = va * DT * t_agent
    lat0 = rng.uniform(0.0, 1.0) * rng.choice([-1.0, 1.0])
    drift = (0.0, rng.uniform(0.02, 0.04), -rng.uniform(0.02, 0.04))
    weights = (0.3, 0.4, 0.3)

    steps = []
    for t in range(1, n_steps + 1):
        modes = []
        for j in range(3):
            # Along-track uncertainty on world x (agent drives westbound),
            # cross-track on world y; jitter decorrelates steps and modes.
            sa = min(0.1 + 0.04 * t, 0.6) * rng.uniform(0.85, 1.15)
            sc = min(0.05 + 0.015 * t, 0.28) * rng.uniform(0.85, 1.15)
            modes.append(
                {
                    "weight": weights[j],
                    "mean": [a0 - va * DT * t, lat0 + drift[j] * t * va * DT],
                    "cov": [[sa**2, 0.0], [0.0, sc**2]],
                }
            )
        steps.append({"modes": modes})

    return {
        "ego_trajectory": _ego_rows(ve, e0, n_steps),
        "ellipsoid": {"q": footprint},
        "agents": [
            {"form": "gmm_position", "mode_persistence": False, "steps": steps}
        ],
    }


def crossing_control_scenario(
    seed: Optional[int] = None,
    n_steps: int = 30,
    n_modes: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Generate a control-form crossing scenario.

    The agent is a unicycle rolled forward from an initial state east of
    the intersection, heading west.  Each step carries Gaussian mixtures
    over the speed increment ``w_v`` and the heading increment
    ``w_theta``; modes represent maintain-speed versus gentle-brake and
    hold-course versus drift hypotheses.

    Per-step speed is in metres per step (the unicycle update has no
    separate time constant), so magnitudes are `DT` times a road speed.

    ``n_modes`` is 2 or 3 (the modes above); anything else raises
    ``ValueError``.

    Returns
    -------
    dict
        Scenario dict in the file schema, single control-form agent.
    """
    if n_modes not in (2, 3):
        raise ValueError(f"n_modes must be 2 or 3, got {n_modes!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    ve = rng.uniform(3.0, 7.0)
    t_conflict, t_agent = _arrival_times(rng, n_steps)
    e0 = ve * DT * t_conflict
    footprint = _footprint(rng)

    va = rng.uniform(3.0, 7.0)
    a0 = va * DT * t_agent
    lat0 = rng.uniform(0.0, 1.0) * rng.choice([-1.0, 1.0])

    # Mode means: small sustained accelerations / heading drifts.
    accel_means = [0.0, -rng.uniform(0.002, 0.01)]
    turn_means = [0.0, rng.choice([-1.0, 1.0]) * rng.uniform(0.002, 0.008)]
    if n_modes == 3:
        accel_means.append(rng.uniform(0.002, 0.01))
        turn_means.append(-turn_means[1])
    w_main = 0.6 if n_modes == 2 else 0.5
    w_rest = (1.0 - w_main) / (n_modes - 1)
    mode_weights = [w_main] + [w_rest] * (n_modes - 1)

    sig_v = rng.uniform(0.005, 0.02)   # m/step per step
    sig_t = rng.uniform(0.002, 0.01)   # rad per step

    steps = []
    for _ in range(n_steps):
        steps.append(
            {
                "w_v_modes": [
                    {"weight": w, "mean": m, "var": sig_v**2}
                    for w, m in zip(mode_weights, accel_means)
                ],
                "w_theta_modes": [
                    {"weight": w, "mean": m, "var": sig_t**2}
                    for w, m in zip(mode_weights, turn_means)
                ],
            }
        )

    return {
        "ego_trajectory": _ego_rows(ve, e0, n_steps),
        "ellipsoid": {"q": footprint},
        "agents": [
            {
                "form": "gmm_control",
                "mode_persistence": False,
                "initial_state": {
                    "x": a0,
                    "y": lat0,
                    "v": va * DT,
                    "theta": math.pi,
                },
                "steps": steps,
            }
        ],
    }
