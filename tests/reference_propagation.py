"""Reference moment propagation: the scalar interpreter the compiled plan replaced.

`interpret` walks every term of every update expression in Python and
fetches each known moment from `ScalarBaseMoments`, which computes speed
moments by binomial convolution of per-step raw moments and heading trig
moments from the characteristic function one (moment, t) pair at a time,
through the term-by-term `trig_moment_from_char_fn` kept here.  All of it
is deliberately kept term-by-term and scalar so that it shares no array
code with `trajrisk.treering`; the differential tests compare the two.
"""

import math
from typing import Dict, List

import numpy as np

from trajrisk.errors import NumericalError, ValidationError
from trajrisk.treering import MomentDynamics, MultiIndex


def trig_moment_from_char_fn(phi, m: int, n: int):
    """E[cos^m X sin^n X] from the characteristic function, term by term.

    The package's scalar loop before it was folded into the stacked
    ``trig_moments_from_char_fn``; ``phi`` may return an array per frequency.
    """
    if m < 0 or n < 0:
        raise ValidationError(f"powers must be nonnegative, got ({m}, {n})")
    if m + n == 0:
        return 1.0
    acc = 0.0 + 0.0j
    for j in range(m + 1):
        cmj = math.comb(m, j)
        for k in range(n + 1):
            freq = 2 * (j + k) - m - n
            sign = -1.0 if (n - k) % 2 else 1.0
            acc += cmj * math.comb(n, k) * sign * phi(freq)
    acc /= (1j) ** n * 2 ** (m + n)
    residual = float(np.max(np.abs(np.imag(acc))))
    if residual > 1e-10:
        raise NumericalError(
            f"trig moment has imaginary residual {residual:.3e}; "
            "characteristic function is inconsistent"
        )
    return acc.real


class ScalarBaseMoments:
    """Known-group moments of the unicycle, one scalar at a time, cached."""

    def __init__(self, initial_state, w_v_steps, w_theta_steps, max_degree=8):
        self.x0, self.y0, self.v0, self.theta0 = map(float, initial_state)
        self.w_v_steps = list(w_v_steps)
        self.w_theta_steps = list(w_theta_steps)
        self.max_degree = max_degree
        self.horizon = len(self.w_v_steps)
        self._v_moments = [[self.v0**k for k in range(max_degree + 1)]]
        self._phi_cache: Dict[tuple, complex] = {}
        self._moment_cache: Dict[tuple, float] = {}

    def _v_moment_row(self, t: int) -> List[float]:
        while len(self._v_moments) <= t:
            tau = len(self._v_moments) - 1
            prev = self._v_moments[-1]
            noise = self.w_v_steps[tau]
            row = []
            for k in range(self.max_degree + 1):
                acc = 0.0
                for j in range(k + 1):
                    acc += math.comb(k, j) * prev[j] * noise.raw_moment(k - j)
                row.append(acc)
            self._v_moments.append(row)
        return self._v_moments[t]

    def _phi(self, t: int, k: int) -> complex:
        if k < 0:
            return self._phi(t, -k).conjugate()
        key = (t, k)
        if key not in self._phi_cache:
            if t == 0:
                val = complex(math.cos(k * self.theta0), math.sin(k * self.theta0))
            else:
                val = self._phi(t - 1, k) * self.w_theta_steps[t - 1].char_fn(k)
            self._phi_cache[key] = val
        return self._phi_cache[key]

    def moment(self, xi: MultiIndex, t: int) -> float:
        key = (xi, t)
        if key not in self._moment_cache:
            self._moment_cache[key] = self._moment_uncached(xi, t)
        return self._moment_cache[key]

    def _moment_uncached(self, xi: MultiIndex, t: int) -> float:
        sup = xi.support
        if sup <= {"v"}:
            return self._v_moment_row(t)[xi.get("v")]
        if sup <= {"c", "s"}:
            return trig_moment_from_char_fn(
                lambda freq: self._phi(t, int(round(freq))), xi.get("c"), xi.get("s")
            )
        if sup <= {"w_v"}:
            return self.w_v_steps[t].raw_moment(xi.get("w_v"))
        if sup <= {"c_w", "s_w"}:
            phi = self.w_theta_steps[t].char_fn
            return trig_moment_from_char_fn(phi, xi.get("c_w"), xi.get("s_w"))
        raise ValidationError(f"no provider for moment over {sorted(sup)}")


def interpret(
    dyn: MomentDynamics,
    init: Dict[MultiIndex, float],
    base: ScalarBaseMoments,
    horizon: int,
) -> List[Dict[MultiIndex, float]]:
    """Roll the expressions forward term by term; horizon+1 states."""
    targets = [expr.target for expr in dyn.expressions]
    index = {sym: i for i, sym in enumerate(targets)}
    compiled = []
    for expr in dyn.expressions:
        cterms = []
        for coeff, factors in expr.terms:
            state_ix = [index[f] for f in factors if f in index]
            base_syms = [f for f in factors if f not in index]
            cterms.append((coeff, state_ix, base_syms))
        compiled.append(cterms)

    states = [dict(init)]
    cur = [init[sym] for sym in targets]
    for t in range(horizon):
        nxt = []
        for cterms in compiled:
            acc = 0.0
            for coeff, state_ix, base_syms in cterms:
                prod = coeff
                for i in state_ix:
                    prod *= cur[i]
                for sym in base_syms:
                    prod *= base.moment(sym, t)
                acc += prod
            nxt.append(acc)
        cur = nxt
        states.append(dict(zip(targets, nxt)))
    return states
