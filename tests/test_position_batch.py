"""The batched position-form path against the per-mode route it replaced.

`reference_position` holds the old route unchanged: rotate the footprint
form per step, reduce each mode with Sigma^{1/2}, evaluate it alone.  The
batched path moves the modes into the ego body frame instead and reduces a
whole agent with one stacked eigendecomposition, so the two agree to
rounding: 1e-12 absolute for ltz, chebyshev-quad, chebyshev-halfspace and
the totals.  imhof gets 1e-12 where every mode of the step is exact or
settled by the same Chernoff gate on both sides, and its own ``tol`` where
a mode is integrated or a gate decision flips on rounding.  The old route
integrated every such form by inverting its characteristic function with
QUADPACK (branch ``quad``); the shipped route integrates every such form,
all of rank <= 2, along the disk edge with a batched Gauss-Kronrod run
(``disk``), so ``disk`` and ``quad`` both count as the integrated branch.
The disk route is also held to its own error bound against the old
inversion run at 1e-12.
"""

import math

import numpy as np
import pytest

import reference_position as ref
from trajrisk.chebyshev import cheb_bound_halfspace, ellipse_to_halfspaces
from trajrisk.distributions import Gaussian2D, Gaussian2DMixture
from trajrisk.engine import marginal_risk, stack_modes
from trajrisk.frames import EgoPose, Ellipsoid, rotate_form
from trajrisk.qfmvg import SpectralBatch, imhof_cdf, ltz_cdf, spectral_reduce
from trajrisk.scenario import run_assess, scenario_from_dict
from trajrisk.synthetic import crossing_position_scenario, random_gaussian_instance

METHODS = ("imhof", "ltz", "chebyshev-quad", "chebyshev-halfspace")
TOL = 1e-8
EXACT = 1e-12
INTEGRATED = ("disk", "quad")


def _old_name(branch: str) -> str:
    """The old route's name for a branch: it integrated every form by inversion."""
    return "quad" if branch in INTEGRATED else branch


def _crossing(seed: int, n_agents: int, persistent: bool) -> dict:
    doc = crossing_position_scenario(seed=seed)
    for k in range(1, n_agents):
        extra = crossing_position_scenario(seed=10_000 + 100 * seed + k)
        doc["agents"].append(extra["agents"][0])
    for k, agent in enumerate(doc["agents"]):
        agent["mode_persistence"] = persistent and k % 2 == 0
    return doc


def _assert_matches_reference(doc: dict) -> int:
    """Compare every row and total of run_assess with the old route.

    Returns the number of imhof steps where a branch flips.
    """
    sc = scenario_from_dict(doc)
    report = run_assess(sc, list(METHODS), tol=TOL)
    horizon, flips = sc.horizon, 0
    for method in METHODS:
        rows = [r.value for r in report.rows if r.method == method]
        totals = [r.value for r in report.totals if r.method == method]
        for i, agent in enumerate(sc.agents):
            want_rows, want_total = ref.agent_rows(agent, sc, method, tol=TOL)
            got_rows = rows[i * horizon:(i + 1) * horizon]
            allow = [EXACT] * horizon
            if method == "imhof":
                stack = stack_modes(agent.steps, sc.ego_trajectory, sc.ellipsoid)
                new = list(map(_old_name, imhof_cdf(stack.spectral, tol=TOL).branches))
                old = [
                    b
                    for mix, pose in zip(agent.steps, sc.ego_trajectory)
                    for b in ref.mode_branches(mix, pose, sc.ellipsoid, TOL)
                ]
                flipped = set()
                for row, (n, o) in enumerate(zip(new, old)):
                    if n != o or n == "quad":
                        allow[stack.step[row]] = TOL
                    if n != o:
                        flipped.add(stack.step[row])
                flips += len(flipped)
            for t, (got, want) in enumerate(zip(got_rows, want_rows)):
                assert abs(got - want) <= allow[t], (method, i, t, got, want)
            assert abs(totals[i] - want_total) <= sum(allow), (method, i)
    return flips


@pytest.mark.parametrize("persistent", [False, True])
def test_batched_assess_matches_per_mode_route(persistent):
    """Criterion-1 corpus, seeds 0-39, 1-8 agents per scenario."""
    flips = 0
    for seed in range(40):
        flips += _assert_matches_reference(_crossing(seed, seed % 8 + 1, persistent))
    assert flips <= 5  # gate flips are rare; each is bounded by tol above


def _rank1(v):
    return [[v[0] * v[0], v[0] * v[1]], [v[0] * v[1], v[1] * v[1]]]


def _edge_case_doc() -> dict:
    """Point masses, rank-1 covariances, uneven mode counts, odd headings."""
    steps = [
        # point masses inside, outside and on the far side of the footprint
        [(0.5, [0.3, 0.1], [[0.0, 0.0], [0.0, 0.0]]),
         (0.5, [4.0, -1.0], [[0.0, 0.0], [0.0, 0.0]])],
        # rank-1 covariances, one along the footprint's long axis
        [(1.0, [1.5, 0.4], _rank1([0.6, 0.2]))],
        [(0.2, [0.8, -0.5], _rank1([0.0, 0.9])),
         (0.3, [2.5, 1.0], [[0.3, 0.1], [0.1, 0.2]]),
         (0.5, [-1.2, 0.6], _rank1([0.5, -0.5]))],
        # ordinary Gaussians, the mean near the boundary and far away
        [(0.7, [1.1, 0.9], [[0.2, -0.05], [-0.05, 0.4]]),
         (0.3, [30.0, 2.0], [[0.5, 0.0], [0.0, 0.5]])],
        [(0.25, [0.0, 0.0], [[1e-14, 0.0], [0.0, 1e-14]]),
         (0.75, [0.9, 0.0], [[0.04, 0.0], [0.0, 0.01]])],
    ]
    headings = [0.3, -2.5, 1.1, math.pi / 7, 4.0]
    return {
        "ego_trajectory": [
            {"x": 0.2 * t, "y": -0.1 * t, "theta": th} for t, th in enumerate(headings)
        ],
        "ellipsoid": {"q": [[0.3, 0.08], [0.08, 0.9]]},
        "agents": [
            {
                "form": "gmm_position",
                "steps": [
                    {"modes": [{"weight": w, "mean": m, "cov": c} for w, m, c in modes]}
                    for modes in steps
                ],
            }
        ],
    }


def test_batched_assess_matches_on_edge_cases():
    assert _assert_matches_reference(_edge_case_doc()) == 0


def test_heading_sweep_matches_per_mode_route():
    # headings that are not multiples of 2 pi / 12 move the tangency angles
    doc = crossing_position_scenario(seed=5, n_steps=12)
    for t, pose in enumerate(doc["ego_trajectory"]):
        pose["theta"] = 0.37 * t - 1.9
    _assert_matches_reference(doc)


def test_marginal_risk_matches_on_bound_sweep_corpus():
    """Criterion-3/4 corpus (rng 2026), each instance seen from a yawed pose."""
    rng = np.random.default_rng(2026)
    for _ in range(200):
        qf, mean, cov = random_gaussian_instance(rng)
        pose = EgoPose(*rng.uniform(-1.0, 1.0, size=2), rng.uniform(-math.pi, math.pi))
        mix = Gaussian2DMixture([Gaussian2D(mean, cov)], [1.0])
        ell = Ellipsoid(qf)
        for method in METHODS:
            got = marginal_risk(mix, pose, ell, method, tol=TOL).mixed
            want = ref.marginal(mix, pose, ell, method, tol=TOL).mixed
            branch = _old_name(
                imhof_cdf(stack_modes([mix], [pose], ell).spectral, tol=TOL).branches[0]
            )
            at_tol = method == "imhof" and (
                branch == "quad" or branch != ref.mode_branches(mix, pose, ell, TOL)[0]
            )
            assert abs(got - want) <= (TOL if at_tol else EXACT), method


def test_scalar_wrappers_match_the_old_functions():
    rng = np.random.default_rng(77)
    for _ in range(100):
        qf, mean, cov = random_gaussian_instance(rng)
        theta = rng.uniform(-math.pi, math.pi)
        q_rot = rotate_form(Ellipsoid(qf), theta).q
        new, old = spectral_reduce(q_rot, mean, cov), ref.spectral_reduce(q_rot, mean, cov)
        assert np.allclose(new.lambdas, old.lambdas, rtol=1e-12, atol=0.0)
        assert np.allclose(new.noncentralities, old.noncentralities, rtol=1e-9, atol=1e-12)
        assert new.q == pytest.approx(old.q, abs=1e-12)
        assert ltz_cdf(new).probability == pytest.approx(
            ref.ltz_cdf(old).probability, abs=EXACT
        )
        assert ltz_cdf(new).detail == ref.ltz_cdf(old).detail
        res, want = imhof_cdf(old, tol=TOL), ref.imhof_cdf(old, tol=TOL)
        if res.detail in INTEGRATED:
            assert abs(res.probability - want.probability) <= TOL
            assert res.error_bound <= TOL
        else:
            assert res.probability == want.probability
            assert res.error_bound == pytest.approx(want.error_bound, rel=1e-12)
        faces, old_faces = ellipse_to_halfspaces(q_rot, 12), ref.ellipse_to_halfspaces(q_rot, 12)
        assert np.allclose([f.a for f in faces], [f.a for f in old_faces], atol=1e-12)
        assert cheb_bound_halfspace(faces, mean, cov).value == pytest.approx(
            ref.cheb_bound_halfspace(old_faces, mean, cov).value, abs=EXACT
        )


@pytest.fixture(scope="module")
def quad_forms():
    """The criterion-1 corpus forms imhof integrates at TOL, with the old
    inversion's value at 1e-12 for each."""
    lam, nc, q = [], [], []
    for seed in range(40):
        spec = scenario_from_dict(_crossing(seed, seed % 8 + 1, False)).position_stack.spectral
        rows = np.isin(imhof_cdf(spec, tol=TOL).branches, INTEGRATED)
        lam.append(spec.lambdas[rows])
        nc.append(spec.noncentralities[rows])
        q.append(spec.q[rows])
    batch = SpectralBatch(np.concatenate(lam), np.concatenate(nc), np.concatenate(q))
    truth = np.array([
        ref.imhof_cdf(batch.form(n), tol=1e-12).probability for n in range(len(batch.q))
    ])
    return batch, truth


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_imhof_quadrature_is_within_its_error_bound(quad_forms, tol):
    batch, truth = quad_forms
    assert len(truth) == 520
    got = imhof_cdf(batch, tol=tol)
    assert set(got.branches) == {"disk"}  # every form is 2-D
    assert np.all(got.error_bounds <= 0.5 * tol)
    assert np.all(np.abs(got.probabilities - truth) <= got.error_bounds + 1e-12)
