"""Reference SDP solver: the loop-based interior-point method the stacked-array solver replaced.

Same HKM/Mehrotra path-following method as `trajrisk.sdp.solve_dense_sdp`,
written one constraint at a time: `op_a`/`op_at` and the Schur complement
are Python loops over `tensordot`, and every step-length test does two
triangular solves.  It shares no array code with `trajrisk.sdp` beyond the
result type; the differential tests in `test_sdp.py` compare the two.
"""

from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg

from trajrisk.errors import ValidationError
from trajrisk.sdp import SdpSolution

_STEP_SHRINK = 0.98  # stay strictly inside the cone


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _chol(mat: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _max_step(factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest step alpha <= 1 keeping P + alpha*D in the PSD cone.

    `factor` is the Cholesky factor L of the current iterate P; the
    boundary is governed by the minimum eigenvalue of L^-1 D L^-T.
    """
    w = scipy.linalg.solve_triangular(factor, direction, lower=True)
    w = scipy.linalg.solve_triangular(factor, w.T, lower=True)
    lam_min = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -_STEP_SHRINK / lam_min)


def solve_dense_sdp(
    c: np.ndarray,
    a_mats: Sequence[np.ndarray],
    b: Sequence[float],
    tol: float = 1e-9,
    max_iter: int = 100,
) -> SdpSolution:
    """Interior-point solve of a dense standard-form SDP.

    Parameters
    ----------
    c : ndarray
        Symmetric cost matrix.
    a_mats : sequence of ndarray
        Symmetric constraint matrices A_i.
    b : sequence of float
        Right-hand sides.
    tol : float
        Target for the complementarity gap and the scaled residuals.
    max_iter : int
        Iteration cap; on hitting it the best iterate is returned with
        status "max-iter".

    The method makes no feasibility assumptions about the start
    (infeasible-start path following); problems whose data renders the
    dual infeasible will run out of iterations rather than diverge.
    """
    c = _sym(np.asarray(c, dtype=float))
    a_list: List[np.ndarray] = [_sym(np.asarray(a, dtype=float)) for a in a_mats]
    b_vec = np.asarray(b, dtype=float).reshape(-1)
    n = c.shape[0]
    m = len(a_list)
    if m != b_vec.size:
        raise ValidationError("constraint count mismatch")
    for a in a_list:
        if a.shape != (n, n):
            raise ValidationError("constraint matrix shape mismatch")

    data_scale = max(
        1.0,
        float(np.abs(b_vec).max(initial=0.0)),
        float(np.abs(c).max()),
        max(float(np.abs(a).max()) for a in a_list),
    )
    eye = np.eye(n)
    x = data_scale * eye
    s = data_scale * eye
    y = np.zeros(m)

    def op_a(mat: np.ndarray) -> np.ndarray:
        return np.array([float(np.tensordot(a, mat)) for a in a_list])

    def op_at(vec: np.ndarray) -> np.ndarray:
        out = np.zeros((n, n))
        for coeff, a in zip(vec, a_list):
            out += coeff * a
        return out

    status = "max-iter"
    iterations = 0
    last_good = (x, y, s)
    for iterations in range(1, max_iter + 1):
        if not (
            np.all(np.isfinite(x))
            and np.all(np.isfinite(s))
            and np.all(np.isfinite(y))
        ):
            # Unbounded rays drive the iterate to overflow; report the
            # last finite point instead of propagating NaNs.
            x, y, s = last_good
            status = "infeasible"
            break
        if max(float(np.abs(x).max()), float(np.abs(y).max(initial=0.0))) > (
            1e14 * data_scale
        ):
            status = "infeasible"
            break
        last_good = (x, y, s)
        r_p = b_vec - op_a(x)
        r_d = c - s - op_at(y)
        mu = float(np.tensordot(x, s)) / n
        p_obj = float(np.tensordot(c, x))
        d_obj = float(b_vec @ y)
        norm_rp = float(np.linalg.norm(r_p)) / (1.0 + np.linalg.norm(b_vec))
        norm_rd = float(np.linalg.norm(r_d)) / (1.0 + np.linalg.norm(c))
        if mu <= tol and norm_rp <= tol and norm_rd <= tol:
            status = "optimal"
            break

        l_s = _chol(s)
        l_x = _chol(x)
        if l_s is None or l_x is None:
            # Iterate drifted out of the cone numerically; report what
            # we have rather than fabricating progress.
            break

        s_inv = scipy.linalg.cho_solve((l_s, True), eye)
        s_inv = _sym(s_inv)

        # Schur complement M_ij = tr(A_i X A_j S^-1) and its LU factors.
        xas = [x @ a @ s_inv for a in a_list]
        m_mat = np.empty((m, m))
        for j, z in enumerate(xas):
            for i, a in enumerate(a_list):
                m_mat[i, j] = float(np.tensordot(a, z))
        try:
            lu = scipy.linalg.lu_factor(m_mat)
        except (scipy.linalg.LinAlgError, ValueError):
            break

        def directions(r_c: np.ndarray):
            rhs = r_p - op_a((r_c - x @ r_d) @ s_inv)
            dy = scipy.linalg.lu_solve(lu, rhs)
            ds = r_d - op_at(dy)
            dx = _sym((r_c - x @ ds) @ s_inv)
            return dx, dy, ds

        try:
            # Predictor: pure Newton step toward complementarity zero.
            dx_aff, dy_aff, ds_aff = directions(-x @ s)
            alpha_aff = _max_step(l_x, dx_aff)
            beta_aff = _max_step(l_s, ds_aff)
            mu_aff = float(np.tensordot(x + alpha_aff * dx_aff,
                                        s + beta_aff * ds_aff)) / n
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            # Corrector with Mehrotra second-order term.
            r_c = sigma * mu * eye - x @ s - dx_aff @ ds_aff
            dx, dy, ds = directions(r_c)
        except (scipy.linalg.LinAlgError, ValueError):
            # Overflowed products poison the Newton system before the
            # finiteness check at the top of the next pass can fire.
            status = "infeasible"
            break
        alpha = _max_step(l_x, dx)
        beta = _max_step(l_s, ds)
        if max(alpha, beta) < 1e-12:
            break
        x = _sym(x + alpha * dx)
        y = y + beta * dy
        s = _sym(s + beta * ds)

    r_p = b_vec - op_a(x)
    r_d = c - s - op_at(y)
    return SdpSolution(
        primal_objective=float(np.tensordot(c, x)),
        dual_objective=float(b_vec @ y),
        x=x,
        y=y,
        s=s,
        status=status,
        duality_gap=float(np.tensordot(x, s)) / n,
        primal_residual=float(np.linalg.norm(r_p)),
        dual_residual=float(np.linalg.norm(r_d)),
        iterations=iterations,
    )
