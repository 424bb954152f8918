"""Release gate: one test per acceptance criterion, each printing a verdict.

Every test appends an ``ACCEPTANCE n: PASS/FAIL - detail`` line to RESULTS
(echoed in the terminal summary by conftest.py) and then asserts the stated
tolerances, so a red criterion is visible both in the summary block and as
an ordinary test failure.  Sampled comparisons use fixed seeds; timing
limits are generous for commodity hardware but will trip on an order of
magnitude regression.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from trajrisk.chebyshev import cheb_bound_quadratic
from trajrisk.distributions import (
    Gaussian2D,
    Gaussian2DMixture,
    ScalarComponent,
    ScalarMixture,
    char_fn,
    gaussian2d_raw_moments,
    trig_moment,
)
from trajrisk.engine import marginal_risk, trajectory_risk
from trajrisk.frames import EgoPose, Ellipsoid, rotate_form, translate_moments
from trajrisk.mc import mc_position_risk
from trajrisk.qfmvg import SpectralForm, imhof_cdf
from trajrisk.scenario import run_assess, scenario_from_dict
from trajrisk.synthetic import (
    crossing_control_scenario,
    crossing_position_scenario,
    random_gaussian_instance,
)
from trajrisk.treering import (
    DependenceGraph,
    MultiIndex,
    Poly,
    derive_position_moments,
    dubins_position_tables,
    dubins_system,
    expand,
    factor_moment,
)

RESULTS = []


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return line


# ---------------------------------------------------------------------------
# 1. exact-method agreement and runtime on the synthetic crossing corpus


def test_criterion_1_exact_method_agreement():
    diffs, t_ltz, t_imhof = [], [], []
    for seed in range(200):
        sc = scenario_from_dict(crossing_position_scenario(seed=seed))
        rep = run_assess(sc, ["imhof", "ltz"], tol=1e-10)
        by = {}
        for r in rep.rows:
            by.setdefault(r.method, []).append(r.value)
        diffs.append(max(abs(a - b) for a, b in zip(by["imhof"], by["ltz"])))
        t_imhof.append(rep.timings_ms["imhof"])
        t_ltz.append(rep.timings_ms["ltz"])
    mean_diff = float(np.mean(diffs))
    ms_ltz, ms_imhof = float(np.mean(t_ltz)), float(np.mean(t_imhof))
    ok = mean_diff <= 1e-3 and ms_ltz < 50.0 and ms_imhof < 300.0
    _report(
        1,
        ok,
        f"200 scenarios, 30 steps, 3 modes: mean max|ltz-imhof| {mean_diff:.2e} "
        f"(limit 1e-3); per-scenario ltz {ms_ltz:.1f} ms (limit 50), "
        f"imhof {ms_imhof:.1f} ms (limit 300)",
    )
    assert mean_diff <= 1e-3
    assert ms_ltz < 50.0
    assert ms_imhof < 300.0


# ---------------------------------------------------------------------------
# 2. closed-form anchor for the quadratic-form CDF


def test_criterion_2_analytic_anchor():
    form = SpectralForm((1.0, 1.0), (0.0, 0.0), 1.0)
    best_ms = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = imhof_cdf(form, tol=1e-10)
        best_ms = min(best_ms, 1e3 * (time.perf_counter() - t0))
    truth = 1.0 - math.exp(-0.5)
    err = abs(res.probability - truth)
    ok = err <= 1e-8 and best_ms < 10.0
    _report(
        2,
        ok,
        f"isotropic unit form: |error| {err:.1e} (limit 1e-8), "
        f"{best_ms:.2f} ms (limit 10)",
    )
    assert err <= 1e-8
    assert best_ms < 10.0


# ---------------------------------------------------------------------------
# 3 + 4. bound soundness sweep, shared across the two criteria


@pytest.fixture(scope="module")
def bound_sweep():
    rng = np.random.default_rng(2026)
    pose = EgoPose(0.0, 0.0, 0.0)
    records = []
    for _ in range(200):
        qf, mean, cov = random_gaussian_instance(rng)
        mix = Gaussian2DMixture([Gaussian2D(mean, cov)], [1.0])
        ell = Ellipsoid(qf)
        row = {"exact": marginal_risk(mix, pose, ell, "imhof", tol=1e-8).mixed}
        for m in ("chebyshev-quad", "chebyshev-halfspace", "sos-d2", "sos-d4", "sos-d6"):
            t0 = time.perf_counter()
            row[m] = marginal_risk(mix, pose, ell, m).mixed
            row[m + ":ms"] = 1e3 * (time.perf_counter() - t0)
        records.append(row)
    return records


def test_criterion_3_bound_soundness(bound_sweep):
    methods = ("chebyshev-quad", "chebyshev-halfspace", "sos-d2", "sos-d4", "sos-d6")
    violations = sum(
        1 for row in bound_sweep for m in methods if row[m] < row["exact"] - 1e-6
    )
    ok = violations == 0
    _report(
        3,
        ok,
        f"200 random Gaussian instances x 5 bounds: {violations} violations "
        "of bound >= exact - 1e-6 (limit 0)",
    )
    assert violations == 0


def test_criterion_4_sos_ordering(bound_sweep):
    bad_order = sum(
        1
        for row in bound_sweep
        if not (row["sos-d6"] <= row["sos-d4"] + 1e-6 <= row["sos-d2"] + 2e-6)
    )
    max_gap = max(abs(row["sos-d2"] - row["chebyshev-quad"]) for row in bound_sweep)
    max_solve = max(
        row[m + ":ms"] for row in bound_sweep for m in ("sos-d2", "sos-d4", "sos-d6")
    )
    ok = bad_order == 0 and max_gap <= 1e-3 and max_solve < 200.0
    _report(
        4,
        ok,
        f"degree ordering violations {bad_order} (limit 0); max |sos-d2 - "
        f"chebyshev| {max_gap:.1e} (limit 1e-3); slowest solve "
        f"{max_solve:.1f} ms (limit 200)",
    )
    assert bad_order == 0
    assert max_gap <= 1e-3
    assert max_solve < 200.0


# ---------------------------------------------------------------------------
# 5. moment-closure expression counts


def test_criterion_5_closure_counts():
    sys_, graph = dubins_system()
    t0 = time.perf_counter()
    dyn2 = derive_position_moments(sys_, graph, 2)
    dyn4 = derive_position_moments(sys_, graph, 4)
    derive_s = time.perf_counter() - t0
    n2, n4 = len(dyn2.expressions), len(dyn4.expressions)

    tracked, _ = expand(MultiIndex.of(x=1, y=1), sys_, graph)
    expected_xy = {
        MultiIndex.of(x=1, y=1),
        MultiIndex.of(x=1, s=1),
        MultiIndex.of(y=1, s=1),
        MultiIndex.of(x=1, c=1),
        MultiIndex.of(y=1, c=1),
        MultiIndex.of(x=1, v=1, s=1),
        MultiIndex.of(x=1, v=1, c=1),
        MultiIndex.of(y=1, v=1, s=1),
        MultiIndex.of(y=1, v=1, c=1),
    }
    xy_ok = tracked == expected_xy

    ok = n2 == 11 and n4 == 92 and derive_s < 5.0 and xy_ok
    _report(
        5,
        ok,
        f"order-2 closure {n2} expressions (want 11); order-4 {n4} (want 92); "
        f"derivation {derive_s:.2f} s (limit 5); xy tracked set "
        f"{'matches' if xy_ok else 'differs'}",
    )
    assert n2 == 11
    assert xy_ok
    assert derive_s < 5.0
    # The closure here is exact (no truncation dropped any cross moment),
    # and the exact unicycle closure at order 4 has 125 expressions.
    assert n4 == 92, f"order-4 closure yields {n4} expressions, not 92"


# ---------------------------------------------------------------------------
# 6. propagated moments match a large particle rollout


def test_criterion_6_propagation_exactness():
    rng = np.random.default_rng(77)
    horizon, n = 30, 10**6
    worst = 0.0
    best_prop_ms = math.inf
    for k in range(10):
        x0 = rng.uniform(2.0, 6.0)
        y0 = rng.uniform(-1.0, 1.0)
        v0 = rng.uniform(0.5, 1.5)
        th0 = rng.uniform(0.0, 2 * np.pi)
        mu_v = rng.uniform(-0.02, 0.02, horizon)
        sd_v = rng.uniform(0.005, 0.02, horizon)
        mu_t = rng.uniform(-0.02, 0.02, horizon)
        sd_t = rng.uniform(0.002, 0.01, horizon)
        w_v = [ScalarMixture.single(m, s**2) for m, s in zip(mu_v, sd_v)]
        w_t = [ScalarMixture.single(m, s**2) for m, s in zip(mu_t, sd_t)]
        t0 = time.perf_counter()
        tables = dubins_position_tables((x0, y0, v0, th0), w_v, w_t, order=2)
        best_prop_ms = min(best_prop_ms, 1e3 * (time.perf_counter() - t0))

        g = np.random.default_rng(1000 + k)
        x = np.full(n, x0)
        y = np.full(n, y0)
        v = np.full(n, v0)
        th = np.full(n, th0)
        for t in range(horizon):
            x = x + v * np.cos(th)
            y = y + v * np.sin(th)
            v = v + g.normal(mu_v[t], sd_v[t], n)
            th = th + g.normal(mu_t[t], sd_t[t], n)
            tab = tables[t + 1]
            for (a, b), stat in (
                ((1, 0), x),
                ((0, 1), y),
                ((2, 0), x * x),
                ((0, 2), y * y),
                ((1, 1), x * y),
            ):
                se = stat.std() / math.sqrt(n)
                exact = tab[(a, b)]
                tolerance = 3 * se + 1e-9 * max(1.0, abs(exact))
                worst = max(worst, abs(exact - stat.mean()) / tolerance)
    ok = worst < 1.0 and best_prop_ms < 10.0
    _report(
        6,
        ok,
        f"10 scenarios, T=30, 1e6 particles: worst |error|/(3 se) {worst:.2f} "
        f"(limit 1); 30-step propagation {best_prop_ms:.1f} ms (limit 10)",
    )
    assert worst < 1.0
    assert best_prop_ms < 10.0


# ---------------------------------------------------------------------------
# 7. control-pipeline bound stays above the Monte Carlo reference


def test_criterion_7_control_pipeline_soundness():
    violations = 0
    conservatism = []
    bound_ms = []
    mc_ms = []
    for seed in range(50):
        sc = scenario_from_dict(crossing_control_scenario(seed=seed))
        rb = run_assess(sc, ["chebyshev-halfspace"])
        rm = run_assess(sc, ["mc"], mc_samples=10**6, seed=seed)
        bound_ms.append(rb.timings_ms["chebyshev-halfspace"])
        mc_ms.append(rm.timings_ms["mc"])
        bound = {r.t: r.value for r in rb.rows}
        for r in rm.rows:
            if bound[r.t] < r.value - 3 * r.std_error:
                violations += 1
            conservatism.append(bound[r.t] - r.value)
    ok = violations == 0
    _report(
        7,
        ok,
        f"50 control scenarios: {violations} steps below mc - 3 se (limit 0); "
        f"recorded mean conservatism {np.mean(conservatism):.4f}, "
        f"bound runtime {np.mean(bound_ms):.1f} ms per scenario, "
        f"mc runtime {np.mean(mc_ms):.0f} ms per scenario",
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 8. always-on property spot checks


def test_criterion_8_property_suites():
    checks = []

    # Characteristic function: Hermitian symmetry and unit magnitude cap.
    mix = ScalarMixture(
        (ScalarComponent(0.4, 0.09), ScalarComponent(-1.1, 0.25)), (0.7, 0.3)
    )
    sym = max(
        abs(char_fn(mix, -t) - np.conj(char_fn(mix, t)))
        for t in np.linspace(-7.0, 7.0, 29)
    )
    mag = max(abs(char_fn(mix, t)) for t in np.linspace(-7.0, 7.0, 29))
    checks.append(("char symmetry", sym < 1e-14 and mag <= 1.0 + 1e-12))

    # Trig moments against direct quadrature.
    def quad_trig(m, n):
        def integrand(th):
            dens = sum(
                w * scipy.stats.norm.pdf(th, c.mean, math.sqrt(c.variance))
                for w, c in zip(mix.weights, mix.components)
            )
            return math.cos(th) ** m * math.sin(th) ** n * dens

        val, _ = scipy.integrate.quad(integrand, -12.0, 12.0, limit=200)
        return val

    trig_err = max(
        abs(trig_moment(mix, m, n) - quad_trig(m, n))
        for m, n in ((1, 0), (0, 1), (2, 1), (1, 2), (2, 2))
    )
    checks.append(("trig vs quadrature", trig_err < 1e-10))

    # Polynomial ring laws on exact integer coefficients.
    p = Poly.variable("x") + Poly.variable("y").scale(2.0)
    q = Poly.variable("x") * Poly.variable("v") - Poly.constant(3.0)
    r = Poly.variable("y").pow(2) + Poly.constant(1.0)
    checks.append(
        (
            "ring laws",
            ((p + q) * r).terms == (p * r + q * r).terms
            and (p * q).terms == (q * p).terms,
        )
    )

    # Independent-block factorization identity, verified by sampling.
    graph = DependenceGraph.of(
        vertices=("a", "b", "c", "d", "e"),
        edges=(("a", "b"), ("c", "d")),
    )
    split = factor_moment(MultiIndex.of(a=1, b=1, c=1, e=1), graph)
    split_ok = sorted(tuple(sorted(f.support)) for f in split) == [
        ("a", "b"), ("c",), ("e",),
    ]
    g = np.random.default_rng(55)
    n = 200_000
    ab = g.multivariate_normal([0.3, -0.2], [[1.0, 0.6], [0.6, 1.0]], size=n)
    cd = g.multivariate_normal([0.5, 0.1], [[0.5, -0.2], [-0.2, 0.4]], size=n)
    e = g.normal(1.2, 0.3, size=n)
    joint = ab[:, 0] * ab[:, 1] * cd[:, 0] * e
    factored = (ab[:, 0] * ab[:, 1]).mean() * cd[:, 0].mean() * e.mean()
    se = joint.std() / math.sqrt(n)
    checks.append(
        ("factorization sampling", split_ok and abs(joint.mean() - factored) < 5 * se)
    )

    # Frame identities: translation of moment tables, rotation membership.
    gsn = Gaussian2D([0.8, -0.4], [[0.5, 0.1], [0.1, 0.3]])
    shift = np.array([-0.3, 0.9])
    moved = translate_moments(gaussian2d_raw_moments(gsn, 4), shift, 4)
    direct = gaussian2d_raw_moments(Gaussian2D(gsn.mean - shift, gsn.cov), 4)
    trans_err = max(
        abs(moved[(a, b)] - direct[(a, b)]) for a in range(5) for b in range(5 - a)
    )
    ell = Ellipsoid(np.diag([1.0, 4.0]))
    theta = 0.7
    rot = rotate_form(ell, theta)
    c, s = math.cos(theta), math.sin(theta)
    rmat = np.array([[c, -s], [s, c]])
    pts = np.random.default_rng(8).normal(size=(500, 2))
    rot_ok = np.array_equal(rot.contains(pts), ell.contains(pts @ rmat.T))
    checks.append(("frame identities", trans_err < 1e-12 and rot_ok))

    # Trajectory product form on hand-picked marginals.
    marginals = [
        marginal_risk(
            Gaussian2DMixture([Gaussian2D([2.0, 0.0], np.eye(2) * 0.2)], [1.0]),
            EgoPose(0.0, 0.0, 0.0),
            Ellipsoid(np.eye(2)),
            "imhof",
            t=t,
        )
        for t in range(3)
    ]
    expect = 1.0 - np.prod([1.0 - m.mixed for m in marginals])
    checks.append(
        (
            "product form",
            abs(trajectory_risk(marginals).total - expect) < 1e-12,
        )
    )

    # Seeded Monte Carlo is reproducible bit for bit.
    mixes = [Gaussian2DMixture([Gaussian2D([1.0, 0.0], np.eye(2))], [1.0])] * 3
    poses = [EgoPose(0.0, 0.0, 0.0)] * 3
    run1 = mc_position_risk(mixes, poses, Ellipsoid(np.eye(2)), 30_000, 9)
    run2 = mc_position_risk(mixes, poses, Ellipsoid(np.eye(2)), 30_000, 9)
    checks.append(
        (
            "mc determinism",
            [e.probability for e in run1[0]] == [e.probability for e in run2[0]]
            and run1[1].probability == run2[1].probability,
        )
    )

    failed = [name for name, ok in checks if not ok]
    _report(
        8,
        not failed,
        f"{len(checks)} property spot checks: "
        + ("all hold" if not failed else "failing: " + ", ".join(failed)),
    )
    assert not failed
