"""Sum-of-squares moment bounds and their SDP assembly."""

import numpy as np
import pytest

import reference_moments
from trajrisk.chebyshev import cheb_bound_quadratic, quad_form_moments
from trajrisk.distributions import Gaussian2D, MomentTable, gaussian2d_raw_moments
from trajrisk.errors import ValidationError
from trajrisk.frames import to_ego_frame
from trajrisk.qfmvg import imhof_cdf, spectral_reduce
from trajrisk.scenario import scenario_from_dict
from trajrisk.sos import (
    MomentVector,
    build_sos_program,
    moments_of_g,
    normalize_moments,
    solve_sdp,
    sos_risk_bound,
)
from trajrisk.synthetic import crossing_control_scenario, random_gaussian_instance
from trajrisk.treering import dubins_position_tables

# Frozen anchor: x ~ N((2, 0), I) against the radius-2 disk (Q = I/4).
# True containment probability is about 0.3965; Cantelli gives exactly
# 5/6 and the higher degrees improve on it monotonically.  Values from
# this package's interior-point solve at tol 1e-9, stable to ~1e-8.
ANCHOR_MEAN = (2.0, 0.0)
ANCHOR_BOUNDS = {2: 0.83333333, 4: 0.81986405, 6: 0.73546657}


def _anchor_table(order: int):
    g = Gaussian2D(np.array(ANCHOR_MEAN), np.eye(2))
    return gaussian2d_raw_moments(g, order)


# -- moment extraction ----------------------------------------------------


def test_moments_of_g_degree_one():
    # E[g] = E[Q(x)] - 1 with Q = I/4, x ~ N((2,0), I): 6/4 - 1 = 1/2
    mv = moments_of_g(np.eye(2) / 4.0, _anchor_table(2), 1)
    assert mv.m[0] == 1.0
    assert mv.m[1] == pytest.approx(0.5)


def test_moments_of_g_degree_two_matches_cantelli_inputs():
    mv = moments_of_g(np.eye(2) / 4.0, _anchor_table(4), 2)
    # Var[Q(x)] = 1.25 for this anchor, so E[g^2] = 1.25 + 0.25
    assert mv.m[2] == pytest.approx(1.5)


def test_moments_of_g_requires_enough_orders():
    with pytest.raises(ValidationError):
        moments_of_g(np.eye(2), _anchor_table(4), 4)  # needs order 8


@pytest.fixture(scope="module")
def differential_corpus():
    """(Q, table, d): the criterion-3/4 corpus and ego-frame control-form tables.

    The first part is the bound sweep of the acceptance gate (rng 2026,
    200 random Gaussians, order-2d tables for d = 2, 4, 6); the second is
    every step of the order-4 propagated tables of a crossing control
    agent, as `sos-d2` and `chebyshev-quad` see them.
    """
    rng = np.random.default_rng(2026)
    corpus = []
    for _ in range(200):
        qf, mean, cov = random_gaussian_instance(rng)
        g = Gaussian2D(mean, cov)
        corpus += [(qf, gaussian2d_raw_moments(g, 2 * d), d) for d in (2, 4, 6)]
    sc = scenario_from_dict(crossing_control_scenario(seed=11))
    agent = sc.agents[0]
    tables = dubins_position_tables(
        agent.initial_state,
        [s[0] for s in agent.steps],
        [s[1] for s in agent.steps],
        order=4,
    )
    for table, pose in zip(tables[1:], sc.ego_trajectory):
        moved, q_ego = to_ego_frame(MomentTable(4, table), pose, sc.ellipsoid)
        corpus.append((q_ego.q, moved, 2))
    return corpus


def _assert_close(new, old):
    for a, b in zip(new, old, strict=True):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_moments_of_g_match_dict_expansion(differential_corpus):
    for q, table, d in differential_corpus:
        old = reference_moments.expected_powers(q, table, d, shift=-1.0)
        _assert_close(moments_of_g(q, table, d).m, old)


def test_quad_form_moments_match_dict_expansion(differential_corpus):
    for q, table, d in differential_corpus:
        new = quad_form_moments(q, table, d)
        _assert_close(new, reference_moments.expected_powers(q, table, d, shift=0.0))
        _assert_close(
            new[1:3],
            [reference_moments.quad_form_mean(q, table),
             reference_moments.quad_form_second_moment(q, table)],
        )


def test_normalize_moments_preserves_sign_structure():
    mv = MomentVector(2, (1.0, 0.5, 1.5))
    out = normalize_moments(mv)
    assert out.m[0] == 1.0
    assert out.m[2] == pytest.approx(1.0)
    assert out.m[1] == pytest.approx(0.5 / np.sqrt(1.5))
    assert out.scale == pytest.approx(np.sqrt(1.5))


def test_moment_vector_validation():
    with pytest.raises(ValidationError):
        MomentVector(2, (1.0, 0.5))  # wrong length
    with pytest.raises(ValidationError):
        MomentVector(2, (0.9, 0.5, 1.0))  # m0 != 1
    with pytest.raises(ValidationError):
        normalize_moments(MomentVector(2, (1.0, 0.5, 0.0)))


def test_hankel_consistency_flags_impossible_moments():
    # m2 < m1^2 violates Jensen; no distribution has these moments
    bad = MomentVector(2, (1.0, 2.0, 1.0))
    assert not bad.is_consistent()
    good = MomentVector(2, (1.0, 2.0, 10.0))
    assert good.is_consistent()


# -- program structure ------------------------------------------------------


def test_program_dimensions_scale_with_degree():
    for d, dims in [(2, (2, 2, 1)), (4, (3, 3, 2)), (6, (4, 4, 3))]:
        prog = build_sos_program(MomentVector(d, (1.0,) + (2.0, 6.0, 24.0,
                                                           120.0, 720.0, 5040.0)[:d]))
        assert prog.block_dims == dims
        assert len(prog.a_mats) == d + 1


def test_constraints_are_built_once_per_degree():
    mv = MomentVector(4, (1.0, 2.0, 6.0, 24.0, 120.0))
    first, second = build_sos_program(mv), build_sos_program(normalize_moments(mv))
    assert first.a_mats is second.a_mats and first.b is second.b
    assert not any(a.flags.writeable for a in first.a_mats)
    assert not np.array_equal(first.c_mat, second.c_mat)


def test_program_rejects_odd_degree():
    with pytest.raises(ValidationError, match="even"):
        build_sos_program(MomentVector(3, (1.0, 2.0, 6.0, 24.0)))


def test_solve_sdp_screens_inconsistent_moments():
    sol = solve_sdp(build_sos_program(MomentVector(2, (1.0, 2.0, 1.0))))
    assert sol.status == "infeasible"
    assert sol.iterations == 0


def test_degree_two_program_equals_cantelli():
    # margin moments of (Z+1)^2 for standard normal Z: (1, 2, 10); the
    # degree-2 program must land on the Cantelli value (10-4)/10 = 0.6
    mv = normalize_moments(MomentVector(2, (1.0, 2.0, 10.0)))
    sol = solve_sdp(build_sos_program(mv))
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(0.6, abs=1e-7)


# -- end-to-end bounds --------------------------------------------------------


@pytest.mark.parametrize("d", [2, 4, 6])
def test_anchor_bounds_are_reproduced(d):
    bound = sos_risk_bound(np.eye(2) / 4.0, _anchor_table(2 * d), d)
    assert bound.value == pytest.approx(ANCHOR_BOUNDS[d], abs=5e-7)
    assert bound.method == f"sos-d{d}"
    assert bound.note is None
    assert bound.moments_used == 2 * d


def test_degree_two_closed_form_matches_the_sdp(differential_corpus):
    # sos-d2 is Cantelli's closed form; the degree-2 program it replaced
    # must land on it within the solver's tolerance wherever it is solvable
    solved = 0
    for q, table, d in differential_corpus:
        if d != 2:
            continue
        mv = normalize_moments(moments_of_g(q, table, 2))
        if not mv.is_consistent():
            continue
        sol = solve_sdp(build_sos_program(mv))
        assert sol.status == "optimal"
        bound = sos_risk_bound(q, table, 2)
        assert bound.note is None and bound.moments_used == 4
        assert bound.value == pytest.approx(min(max(sol.primal_objective, 0.0), 1.0), abs=1e-8)
        solved += 1
    assert solved == 230


def test_degree_two_matches_quadratic_chebyshev():
    table = _anchor_table(4)
    sos2 = sos_risk_bound(np.eye(2) / 4.0, table, 2).value
    cheb = cheb_bound_quadratic(np.eye(2) / 4.0, table).value
    assert sos2 == pytest.approx(cheb, abs=1e-6)


def test_degrees_are_monotone_on_anchor():
    vals = [sos_risk_bound(np.eye(2) / 4.0, _anchor_table(2 * d), d).value
            for d in (2, 4, 6)]
    assert vals[2] <= vals[1] + 1e-6 <= vals[0] + 2e-6


def test_point_mass_far_outside_is_certified_tiny():
    # deterministic agent at distance: true risk is exactly zero and the
    # degree-2 certificate already drives the bound to numerical zero
    pm = Gaussian2D(np.array([3.5, 0.0]), np.zeros((2, 2)))
    table = gaussian2d_raw_moments(pm, 12)
    for d in (2, 4, 6):
        val = sos_risk_bound(np.eye(2) / 4.0, table, d).value
        assert 0.0 <= val <= 1e-7


@pytest.mark.parametrize("seed", range(15))
def test_bounds_dominate_truth_and_order_by_degree(seed):
    rng = np.random.default_rng(3000 + seed)
    q, mean, cov = random_gaussian_instance(rng)
    table = gaussian2d_raw_moments(Gaussian2D(mean, cov), 12)
    truth = imhof_cdf(spectral_reduce(q, mean, cov), tol=1e-10).probability
    vals = {d: sos_risk_bound(q, table, d).value for d in (2, 4, 6)}
    for d, v in vals.items():
        assert v >= truth - 1e-6, (d, v, truth)
    assert vals[6] <= vals[4] + 1e-6
    assert vals[4] <= vals[2] + 1e-6


def test_solver_failure_degrades_to_chebyshev():
    # starve the solver of iterations so it cannot reach optimality
    from unittest import mock

    import trajrisk.sos as sos_mod

    table = _anchor_table(8)

    def crippled(prog, tol=1e-9, max_iter=100):
        return solve_sdp(prog, tol=tol, max_iter=1)

    with mock.patch.object(sos_mod, "solve_sdp", crippled):
        bound = sos_mod.sos_risk_bound(np.eye(2) / 4.0, table, 4)
    assert bound.note is not None and "degraded" in bound.note
    assert bound.value == pytest.approx(
        cheb_bound_quadratic(np.eye(2) / 4.0, table).value
    )
