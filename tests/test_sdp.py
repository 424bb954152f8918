"""Interior-point SDP solver on problems with known optima."""

import warnings

import numpy as np
import pytest

import reference_sdp
from trajrisk.distributions import Gaussian2D, MomentTable, gaussian2d_raw_moments
from trajrisk.errors import ValidationError
from trajrisk.frames import EgoPose, Ellipsoid, to_ego_frame
from trajrisk.scenario import scenario_from_dict
from trajrisk.sdp import solve_dense_sdp
from trajrisk.sos import build_sos_program, moments_of_g, normalize_moments
from trajrisk.synthetic import crossing_control_scenario, random_gaussian_instance
from trajrisk.treering import dubins_position_tables


def test_diagonal_sdp_reduces_to_lp():
    # min x11 + 2 x22 s.t. x11 + x22 = 1, X psd; optimum puts all mass
    # on the cheap coordinate: X = diag(1, 0), objective 1
    c = np.diag([1.0, 2.0])
    a = [np.eye(2)]
    sol = solve_dense_sdp(c, a, [1.0])
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert sol.dual_objective == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(sol.x, np.diag([1.0, 0.0]), atol=1e-6)


def test_min_trace_with_fixed_off_diagonal():
    # min tr(X) s.t. x12 + x21 = 2, X psd.  With x12 = 1 psd forces
    # x11 x22 >= 1, so tr X >= 2 sqrt(x11 x22) >= 2 with equality at
    # x11 = x22 = 1.
    c = np.eye(2)
    a = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    sol = solve_dense_sdp(c, a, [2.0])
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(2.0, abs=1e-7)
    assert np.allclose(sol.x, np.ones((2, 2)), atol=1e-6)


def test_max_eigenvalue_dual_form():
    # lambda_max(M) = min t s.t. tI - M psd, in standard form over the
    # slack X = tI - M: minimize tr(X)/n ... solved instead through the
    # primal form max <M, X> s.t. tr X = 1, X psd (value = lambda_max)
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    lam_max = float(np.linalg.eigvalsh(m)[-1])
    sol = solve_dense_sdp(-m, [np.eye(2)], [1.0])
    assert sol.status == "optimal"
    assert -sol.primal_objective == pytest.approx(lam_max, abs=1e-7)


def test_certificates_agree_at_optimum():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(3, 3))
    c = base + base.T + 6.0 * np.eye(3)
    a1 = np.eye(3)
    r = rng.normal(size=(3, 3))
    a2 = r + r.T
    sol = solve_dense_sdp(c, [a1, a2], [1.0, 0.3])
    assert sol.status == "optimal"
    # primal/dual objectives mutually certify optimality
    assert sol.duality_gap <= 1e-8
    assert sol.primal_objective == pytest.approx(sol.dual_objective, abs=1e-7)
    assert sol.primal_residual <= 1e-7
    assert sol.dual_residual <= 1e-7
    # feasibility of the returned matrices
    assert float(np.linalg.eigvalsh(sol.x).min()) >= -1e-9
    assert float(np.linalg.eigvalsh(sol.s).min()) >= -1e-9
    assert float(np.tensordot(a1, sol.x)) == pytest.approx(1.0, abs=1e-7)
    assert float(np.tensordot(a2, sol.x)) == pytest.approx(0.3, abs=1e-7)


def test_block_diagonal_structure_is_preserved():
    # two independent 2x2 blocks assembled as one 4x4 problem; the
    # solution must not leak mass into the off-blocks
    c = np.zeros((4, 4))
    c[:2, :2] = np.diag([1.0, 2.0])
    c[2:, 2:] = np.diag([3.0, 1.0])
    a1 = np.zeros((4, 4))
    a1[:2, :2] = np.eye(2)
    a2 = np.zeros((4, 4))
    a2[2:, 2:] = np.eye(2)
    sol = solve_dense_sdp(c, [a1, a2], [1.0, 2.0])
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(1.0 + 2.0, abs=1e-6)
    assert np.abs(sol.x[:2, 2:]).max() <= 1e-8


def test_dual_infeasible_problem_does_not_diverge():
    # unbounded below: min -tr(X) with only an off-diagonal constraint
    # leaves tr(X) free to grow; the solver must stop cleanly
    c = -np.eye(2)
    a = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    sol = solve_dense_sdp(c, a, [0.0], max_iter=60)
    assert sol.status in ("max-iter", "infeasible")
    assert np.all(np.isfinite(sol.x))


def test_input_validation():
    with pytest.raises(ValidationError):
        solve_dense_sdp(np.eye(2), [np.eye(2)], [1.0, 2.0])
    with pytest.raises(ValidationError):
        solve_dense_sdp(np.eye(2), [np.eye(3)], [1.0])
    with pytest.raises(ValidationError, match="square"):
        solve_dense_sdp(np.ones((2, 3)), [np.eye(2)], [1.0])
    with pytest.raises(ValidationError, match="at least one constraint"):
        solve_dense_sdp(np.eye(2), [], [])
    nan_c = np.eye(2)
    nan_c[0, 1] = nan_c[1, 0] = np.nan
    with pytest.raises(ValidationError, match="cost matrix has non-finite"):
        solve_dense_sdp(nan_c, [np.eye(2)], [1.0])
    inf_a = np.eye(2)
    inf_a[1, 1] = np.inf
    with pytest.raises(ValidationError, match="constraint matrix 1 has non-finite"):
        solve_dense_sdp(np.eye(2), [np.eye(2), inf_a], [1.0, 0.0])
    with pytest.raises(ValidationError, match="right-hand side has non-finite"):
        solve_dense_sdp(np.eye(2), [np.eye(2)], [np.nan])


def test_solver_is_deterministic():
    c = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, -0.1], [0.0, -0.1, 0.5]])
    a = [np.eye(3), np.diag([1.0, -1.0, 0.0])]
    s1 = solve_dense_sdp(c, a, [1.0, 0.2])
    s2 = solve_dense_sdp(c, a, [1.0, 0.2])
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


# ---------------------------------------------------------------------------
# differential tests against the loop-based solver in reference_sdp.py

_OFF_DIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def _random_certificate_problem():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(3, 3))
    r = rng.normal(size=(3, 3))
    return base + base.T + 6.0 * np.eye(3), [np.eye(3), r + r.T], [1.0, 0.3], {}


def _block_problem():
    c = np.zeros((4, 4))
    c[:2, :2] = np.diag([1.0, 2.0])
    c[2:, 2:] = np.diag([3.0, 1.0])
    a1 = np.zeros((4, 4))
    a1[:2, :2] = np.eye(2)
    a2 = np.zeros((4, 4))
    a2[2:, 2:] = np.eye(2)
    return c, [a1, a2], [1.0, 2.0], {}


_PROBLEMS = {
    "diagonal-lp": lambda: (np.diag([1.0, 2.0]), [np.eye(2)], [1.0], {}),
    "min-trace": lambda: (np.eye(2), [_OFF_DIAG], [2.0], {}),
    "max-eigenvalue": lambda: (
        -np.array([[2.0, 1.0], [1.0, 3.0]]), [np.eye(2)], [1.0], {}
    ),
    "certificates": _random_certificate_problem,
    "block-diagonal": _block_problem,
    "dual-infeasible": lambda: (-np.eye(2), [_OFF_DIAG], [0.0], {"max_iter": 60}),
    # repeated constraint: the Schur complement is exactly singular
    "singular-schur": lambda: (
        np.diag([1.0, 2.0]), [np.eye(2), np.eye(2)], [1.0, 1.0], {}
    ),
    "deterministic": lambda: (
        np.array([[1.0, 0.2, 0.0], [0.2, 2.0, -0.1], [0.0, -0.1, 0.5]]),
        [np.eye(3), np.diag([1.0, -1.0, 0.0])],
        [1.0, 0.2],
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(_PROBLEMS))
def test_status_matches_reference(name):
    c, a, b, kw = _PROBLEMS[name]()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference LU warns when singular
        old = reference_sdp.solve_dense_sdp(c, a, b, **kw)
    new = solve_dense_sdp(c, a, b, **kw)
    assert new.status == old.status


def _assert_matches_reference(programs):
    for prog in programs:
        old = reference_sdp.solve_dense_sdp(prog.c_mat, prog.a_mats, prog.b)
        new = solve_dense_sdp(prog.c_mat, prog.a_mats, prog.b)
        assert new.status == old.status
        assert abs(new.primal_objective - old.primal_objective) <= 1e-8


def test_matches_reference_on_bound_sweep_corpus():
    # the criterion-3/4 corpus: 200 random Gaussian instances x d = 2, 4, 6
    rng = np.random.default_rng(2026)
    pose = EgoPose(0.0, 0.0, 0.0)
    programs = []
    for _ in range(200):
        qf, mean, cov = random_gaussian_instance(rng)
        for d in (2, 4, 6):
            table, q_ego = to_ego_frame(
                gaussian2d_raw_moments(Gaussian2D(mean, cov), 2 * d), pose, Ellipsoid(qf)
            )
            programs.append(
                build_sos_program(normalize_moments(moments_of_g(q_ego.q, table, d)))
            )
    _assert_matches_reference(programs)


def test_matches_reference_on_control_form_programs():
    # sos-d2 on a control-form agent: order-4 propagated tables, every step
    sc = scenario_from_dict(crossing_control_scenario(seed=11))
    agent = sc.agents[0]
    tables = dubins_position_tables(
        agent.initial_state,
        [s[0] for s in agent.steps],
        [s[1] for s in agent.steps],
        order=4,
    )
    programs = []
    for table, pose in zip(tables[1:], sc.ego_trajectory):
        moved, q_ego = to_ego_frame(MomentTable(4, table), pose, sc.ellipsoid)
        mv = normalize_moments(moments_of_g(q_ego.q, moved, 2))
        if mv.is_consistent():
            programs.append(build_sos_program(mv))
    assert len(programs) >= 20
    _assert_matches_reference(programs)
