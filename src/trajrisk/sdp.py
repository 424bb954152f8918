"""Small dense semidefinite programming solver.

Solves standard-form problems

    minimize    <C, X>
    subject to  <A_i, X> = b_i,  i = 1..m
                X  positive semidefinite

with a primal-dual path-following interior-point method (HKM search
direction, Mehrotra predictor-corrector, infeasible start).  The intended
workload is tiny: block-diagonal matrices of total dimension around ten
and under a dozen constraints.  A general sparse SDP solver would be
overkill for that, and embedding the method keeps the dependency set to
numpy/scipy.  ``scipy.linalg.lapack`` (triangular inverse and LU) is
imported by the first solve, so importing this module loads no scipy.

The constraints are stacked once per solve, so applying the constraint
operator, its adjoint and forming the Schur complement are each one array
product, and each iteration takes one batched Cholesky factorization,
one LU factorization and two batched eigenvalue calls.  At this size the
cost is numpy call overhead.  The callers are the degree-4 and degree-6
SOS programs of :mod:`trajrisk.sos` (n = 7, 10; m = 5, 7); the degree-2
bound is Cantelli's closed form there and solves nothing, though the
solver still accepts that program (n = 4, m = 3).  On the criterion-3/4
corpus (200 random Gaussians), on a 2-vCPU machine with OpenBLAS, the
degree-2/4/6 programs take a median 9, 11 and 17 iterations and 0.55,
0.73 and 1.26 ms per solve.

Block-diagonal inputs stay exactly block-diagonal throughout the
iteration (every off-block entry of a product of block matrices is a sum
of terms each containing a structural zero), so callers can pass dense
matrices with block layout and read Gram blocks back out of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["SdpSolution", "solve_dense_sdp"]

_STEP_SHRINK = 0.98  # stay strictly inside the cone


@dataclass
class SdpSolution:
    """Outcome of an SDP solve.

    `status` is "optimal", "max-iter", or "infeasible"; `duality_gap` is
    the complementarity <X,S>/n of the final iterate, and the residual
    fields report how well the final iterate satisfies the primal and
    dual linear equations (all should be near zero on "optimal").
    """

    primal_objective: float
    dual_objective: float
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    duality_gap: float
    primal_residual: float
    dual_residual: float
    iterations: int


def _sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _max_steps(l_inv: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Largest steps alpha <= 1 keeping each P_k + alpha*D_k in the PSD cone.

    `l_inv` stacks the inverse Cholesky factors L_k^-1 of the current
    iterates P_k and `directions` the matching D_k; the boundary is
    governed by the minimum eigenvalue of L^-1 D L^-T, taken for the
    whole stack in one call.
    """
    w = l_inv @ directions @ l_inv.swapaxes(1, 2)
    lam_min = np.linalg.eigvalsh(_sym(w)).min(axis=1)
    # lam_min >= -1e-14 means the direction does not leave the cone: step 1.
    return np.minimum(1.0, _STEP_SHRINK / np.maximum(-lam_min, 1e-14))


def _tril_inv(dtrtri, factor: np.ndarray) -> np.ndarray:
    inv, info = dtrtri(factor, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("singular Cholesky factor")
    return inv


def _check_data(c: np.ndarray, a_list: List[np.ndarray], b_vec: np.ndarray) -> None:
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"cost matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    if len(a_list) != b_vec.size:
        raise ValidationError("constraint count mismatch")
    if not a_list:
        raise ValidationError("need at least one constraint")
    for i, a in enumerate(a_list):
        if a.shape != (n, n):
            raise ValidationError("constraint matrix shape mismatch")
        if not np.isfinite(a).all():
            raise ValidationError(f"constraint matrix {i} has non-finite entries")
    if not np.isfinite(c).all():
        raise ValidationError("cost matrix has non-finite entries")
    if not np.isfinite(b_vec).all():
        raise ValidationError("right-hand side has non-finite entries")


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
    Non-finite or mis-shaped data raise `ValidationError`.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs, dtrtri

    c = np.asarray(c, dtype=float)
    a_list: List[np.ndarray] = [np.asarray(a, dtype=float) for a in a_mats]
    b_vec = np.asarray(b, dtype=float).reshape(-1)
    _check_data(c, a_list, b_vec)
    c = _sym(c)
    n = c.shape[0]
    m = len(a_list)
    a_stack = _sym(np.stack(a_list))
    a_flat = a_stack.reshape(m, n * n)

    data_scale = max(
        1.0,
        float(np.abs(b_vec).max()),
        float(np.abs(c).max()),
        float(np.abs(a_flat).max()),
    )
    rp_scale = 1.0 + float(np.linalg.norm(b_vec))
    rd_scale = 1.0 + float(np.linalg.norm(c))
    eye = np.eye(n)
    x = data_scale * eye
    s = data_scale * eye
    y = np.zeros(m)

    def op_a(mat: np.ndarray) -> np.ndarray:
        return a_flat @ mat.ravel()

    def op_at(vec: np.ndarray) -> np.ndarray:
        return (vec @ a_flat).reshape(n, n)

    status = "max-iter"
    iterations = 0
    last_good = (x, y, s)
    for iterations in range(1, max_iter + 1):
        if not (
            np.isfinite(x).all() and np.isfinite(s).all() and np.isfinite(y).all()
        ):
            # Unbounded rays drive the iterate to overflow; report the
            # last finite point instead of propagating NaNs.
            x, y, s = last_good
            status = "infeasible"
            break
        if max(float(np.abs(x).max()), float(np.abs(y).max())) > (
            1e14 * data_scale
        ):
            status = "infeasible"
            break
        last_good = (x, y, s)
        r_p = b_vec - op_a(x)
        r_d = c - s - op_at(y)
        mu = float(np.vdot(x, s)) / n
        norm_rp = float(np.linalg.norm(r_p)) / rp_scale
        norm_rd = float(np.linalg.norm(r_d)) / rd_scale
        if mu <= tol and norm_rp <= tol and norm_rd <= tol:
            status = "optimal"
            break

        try:
            # Inverse Cholesky factors of X and S, stacked in that order.
            factors = np.linalg.cholesky(np.array((x, s)))
            l_inv = np.array([_tril_inv(dtrtri, f) for f in factors])
        except np.linalg.LinAlgError:
            # Iterate drifted out of the cone numerically; report what
            # we have rather than fabricating progress.
            break
        s_inv = _sym(l_inv[1].T @ l_inv[1])

        # Schur complement M_ij = tr(A_i X A_j S^-1), all pairs in one
        # product, and its LU factors.
        m_mat = a_flat @ (x @ a_stack @ s_inv).reshape(m, n * n).T
        if not np.isfinite(m_mat).all():
            break
        # An exactly singular M (info > 0) leaves inf/nan in the solves,
        # which `directions` rejects.
        lu, piv, _ = dgetrf(m_mat)

        def directions(r_c: np.ndarray):
            rhs = r_p - op_a((r_c - x @ r_d) @ s_inv)
            dy = dgetrs(lu, piv, rhs)[0]
            ds = r_d - op_at(dy)
            dx = _sym((r_c - x @ ds) @ s_inv)
            if not (np.isfinite(dx).all() and np.isfinite(ds).all()):
                raise np.linalg.LinAlgError("non-finite search direction")
            return dx, dy, ds

        try:
            # Predictor: pure Newton step toward complementarity zero.
            dx_aff, dy_aff, ds_aff = directions(-x @ s)
            alpha_aff, beta_aff = _max_steps(l_inv, np.array((dx_aff, ds_aff)))
            mu_aff = float(np.vdot(x + alpha_aff * dx_aff,
                                   s + beta_aff * ds_aff)) / n
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            # Corrector with Mehrotra second-order term.
            r_c = sigma * mu * eye - x @ s - dx_aff @ ds_aff
            dx, dy, ds = directions(r_c)
        except np.linalg.LinAlgError:
            # Overflowed products poison the Newton system before the
            # finiteness check at the top of the next pass can fire.
            status = "infeasible"
            break
        alpha, beta = (float(v) for v in _max_steps(l_inv, np.array((dx, ds))))
        if max(alpha, beta) < 1e-12:
            break
        x = _sym(x + alpha * dx)
        y = y + beta * dy
        s = _sym(s + beta * ds)

    r_p = b_vec - op_a(x)
    r_d = c - s - op_at(y)
    return SdpSolution(
        primal_objective=float(np.vdot(c, x)),
        dual_objective=float(b_vec @ y),
        x=x,
        y=y,
        s=s,
        status=status,
        duality_gap=float(np.vdot(x, s)) / n,
        primal_residual=float(np.linalg.norm(r_p)),
        dual_residual=float(np.linalg.norm(r_d)),
        iterations=iterations,
    )
