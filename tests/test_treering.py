"""Mechanical moment-closure derivation and propagation for the unicycle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajrisk.distributions import MomentTable, ScalarComponent, ScalarMixture
from trajrisk.errors import NumericalError, ValidationError
from reference_propagation import ScalarBaseMoments, interpret
from trajrisk.treering import (
    DependenceGraph,
    DubinsBaseMoments,
    MomentDynamics,
    MultiIndex,
    Poly,
    PolySystem,
    derive_position_moments,
    dubins_position_tables,
    dubins_system,
    expand,
    factor_moment,
    propagate,
    substitute_dynamics,
)

# -- multi-indices ------------------------------------------------------------


def test_multiindex_normalizes_zero_exponents():
    assert MultiIndex.of({"x": 2, "y": 0}) == MultiIndex.of(x=2)
    assert MultiIndex.of() .is_zero()
    assert MultiIndex.of(x=1, v=2).degree == 3
    assert MultiIndex.of(x=1, v=2).support == {"x", "v"}


def test_multiindex_product_adds_exponents():
    a = MultiIndex.of(x=1, y=2)
    b = MultiIndex.of(y=1, v=3)
    assert a * b == MultiIndex.of(x=1, y=3, v=3)


def test_multiindex_restrict_and_render():
    mi = MultiIndex.of(x=2, v=1, s=1)
    assert mi.restrict({"x", "s"}) == MultiIndex.of(x=2, s=1)
    assert mi.render(("x", "y", "v", "c", "s")) == "x^2*v*s"
    assert MultiIndex.of().render(("x",)) == "1"


def test_multiindex_rejects_negative_exponent():
    with pytest.raises(ValidationError):
        MultiIndex.of(x=-1)


# -- polynomial ring ----------------------------------------------------------


def _polys(draw_coeff=st.integers(-4, 4)):
    mono = st.builds(
        lambda ex, ey, ev: MultiIndex.of(x=ex, y=ey, v=ev),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
    )
    term = st.tuples(mono, draw_coeff.map(float))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: Poly({m: c for m, c in ts})
    )


@given(a=_polys(), b=_polys(), c=_polys())
@settings(max_examples=150, deadline=None)
def test_poly_ring_laws(a, b, c):
    # integer coefficients keep float arithmetic exact, so the ring laws
    # hold as dict equality rather than approximately
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = Poly()
    one = Poly.constant(1.0)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


def test_poly_pow_matches_repeated_product():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = x + y.scale(2.0)
    assert p.pow(3) == p * p * p
    assert p.pow(0) == Poly.constant(1.0)
    with pytest.raises(ValidationError):
        p.pow(-1)


# -- dependence factoring -------------------------------------------------


def test_components_of_induced_subgraph():
    _, graph = dubins_system()
    comps = graph.components({"v", "c", "s"})
    assert sorted(comps, key=len) == [frozenset({"v"}), frozenset({"c", "s"})]
    assert graph.components({"x", "w_v"}) == [frozenset({"x"}), frozenset({"w_v"})] or \
        graph.components({"x", "w_v"}) == [frozenset({"w_v"}), frozenset({"x"})]


def test_factor_moment_splits_independent_blocks():
    _, graph = dubins_system()
    parts = factor_moment(MultiIndex.of(v=2, c=1, s=1), graph)
    assert sorted(p.render(("v", "c", "s")) for p in parts) == ["c*s", "v^2"]
    # fully entangled support does not factor
    parts = factor_moment(MultiIndex.of(x=1, v=1, c=1), graph)
    assert len(parts) == 1


def test_factor_moment_statistical_identity():
    """Sampled joint moments factor exactly as the graph says they do.

    Build a joint law that respects the dependence graph (blocks
    {a, b}, {c, d}, {e} mutually independent, dependence inside blocks)
    and check the sample moment of a monomial equals the product of its
    per-block sample moments computed from the same draws.
    """
    graph = DependenceGraph.of(
        vertices=("a", "b", "c", "d", "e"),
        edges=(("a", "b"), ("c", "d")),
    )
    rng = np.random.default_rng(42)
    n = 200_000
    z = rng.standard_normal((n, 3))
    samples = {
        "a": z[:, 0],
        "b": 0.6 * z[:, 0] + 0.8 * rng.standard_normal(n) + 0.3,
        "c": np.cos(z[:, 1]),
        "d": np.sin(z[:, 1]),
        "e": z[:, 2] ** 2,
    }
    for target in (
        MultiIndex.of(a=1, b=1, c=2),
        MultiIndex.of(a=2, e=1),
        MultiIndex.of(b=1, c=1, d=1, e=2),
    ):
        joint = np.ones(n)
        for var, exp in target.exponents:
            joint = joint * samples[var] ** exp
        product = 1.0
        for part in factor_moment(target, graph):
            block = np.ones(n)
            for var, exp in part.exponents:
                block = block * samples[var] ** exp
            product *= float(block.mean())
        se = float(joint.std(ddof=1)) / math.sqrt(n)
        assert abs(float(joint.mean()) - product) <= 5 * se + 1e-9


# -- symbolic closure -------------------------------------------------------


def test_substitute_dynamics_mixed_moment_has_four_terms():
    sys_, _ = dubins_system()
    poly = substitute_dynamics(MultiIndex.of(x=1, y=1), sys_)
    order = sys_.all_vars
    got = {mi.render(order): c for mi, c in poly.terms.items()}
    assert got == {"x*y": 1.0, "x*v*s": 1.0, "y*v*c": 1.0, "v^2*c*s": 1.0}


def test_expand_mixed_moment_tracks_nine_symbols():
    sys_, graph = dubins_system()
    tracked, exprs = expand(MultiIndex.of(x=1, y=1), sys_, graph)
    names = sorted(mi.render(sys_.all_vars) for mi in tracked)
    assert names == [
        "x*c", "x*s", "x*v*c", "x*v*s", "x*y",
        "y*c", "y*s", "y*v*c", "y*v*s",
    ]
    assert set(exprs) == tracked


def test_second_order_closure_has_eleven_expressions():
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, 2)
    assert len(dyn.expressions) == 11
    assert dyn.unknown_symbols() == frozenset()
    # adding the means widens the closure by exactly x and y trackers
    with_means = derive_position_moments(sys_, graph, 2, include_means=True)
    assert len(with_means.expressions) == 13


def test_fourth_order_closure_is_exact_with_125_expressions():
    # the full exact closure for fourth-order position moments; every
    # update expression is exact (no truncation anywhere), which is what
    # the propagation consistency tests below rely on
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, 4)
    assert len(dyn.expressions) == 125
    assert dyn.unknown_symbols() == frozenset()
    # order-2 targets are a subset of the order-4 closure
    dyn2 = derive_position_moments(sys_, graph, 2)
    assert {e.target for e in dyn2.expressions} <= {e.target for e in dyn.expressions}


def test_deterministic_speed_variant_closes_smaller():
    # freezing the speed at a constant removes every v-tracking moment:
    # the second-order closure needs only {x^2, y^2, xy, xc, xs, yc, ys}
    speed = 0.7
    x, y, c, s = (Poly.variable(n) for n in ("x", "y", "c", "s"))
    c_w, s_w = Poly.variable("c_w"), Poly.variable("s_w")
    sys_ = PolySystem(
        state_vars=("x", "y", "c", "s"),
        updates={
            "x": x + c.scale(speed),
            "y": y + s.scale(speed),
            "c": c * c_w - s * s_w,
            "s": s * c_w + c * s_w,
        },
        known_groups=(frozenset({"c", "s"}), frozenset({"c_w", "s_w"})),
    )
    graph = DependenceGraph.of(
        vertices=("x", "y", "c", "s", "c_w", "s_w"),
        edges=(
            ("x", "y"), ("x", "c"), ("x", "s"),
            ("y", "c"), ("y", "s"), ("c", "s"), ("c_w", "s_w"),
        ),
    )
    dyn = derive_position_moments(sys_, graph, 2)
    assert len(dyn.expressions) < 11
    names = sorted(e.target.render(sys_.all_vars) for e in dyn.expressions)
    assert names == ["x*c", "x*s", "x*y", "x^2", "y*c", "y*s", "y^2"]


def test_expansion_guard_stops_degree_increasing_systems():
    x = Poly.variable("x")
    sys_ = PolySystem(
        state_vars=("x",),
        updates={"x": x * x},
        known_groups=(),
    )
    graph = DependenceGraph.of(vertices=("x",), edges=())
    with pytest.raises(NumericalError, match="unlikely to close"):
        expand(MultiIndex.of(x=2), sys_, graph, max_tracked=40)
    # linear degree growth trips the tracked-count guard instead
    xv, yv = Poly.variable("x"), Poly.variable("y")
    slow = PolySystem(
        state_vars=("x", "y"),
        updates={"x": xv * yv, "y": yv},
        known_groups=(),
    )
    slow_graph = DependenceGraph.of(vertices=("x", "y"), edges=(("x", "y"),))
    with pytest.raises(NumericalError, match="unlikely to close"):
        expand(MultiIndex.of(x=1), slow, slow_graph, max_tracked=25)


def test_dump_is_deterministic_and_readable():
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, 2)
    text = dyn.dump()
    assert text == dyn.dump()
    lines = text.strip().split("\n")
    assert len(lines) == 11
    # spot-check the hand-derivable second-moment update
    assert (
        "E[x^2]_{t+1} = E[x^2]_t + 2*E[x*v*c]_t + E[v^2]_t*E[c^2]_t" in lines
    )


# -- known-group moment provider ---------------------------------------------


def _const(v: float) -> ScalarMixture:
    return ScalarMixture.point(v)


def test_speed_moments_follow_independent_sums():
    base = DubinsBaseMoments(
        (0.0, 0.0, 2.0, 0.0),
        [ScalarMixture.single(0.1, 0.04)] * 5,
        [_const(0.0)] * 5,
    )
    v1 = MultiIndex.of(v=1)
    v2 = MultiIndex.of(v=2)
    for t in range(5):
        mean = 2.0 + 0.1 * t
        assert base.moment(v1, t) == pytest.approx(mean, abs=1e-12)
        assert base.moment(v2, t) == pytest.approx(mean**2 + 0.04 * t, abs=1e-12)


def test_heading_trig_moments_match_gaussian_formula():
    # theta_t ~ N(theta0 + mu t, sigma^2 t): E[cos theta_t] has the
    # closed form exp(-sigma^2 t / 2) cos(theta0 + mu t)
    theta0, mu, var = 0.3, 0.05, 0.01
    base = DubinsBaseMoments(
        (0.0, 0.0, 1.0, theta0),
        [_const(0.0)] * 6,
        [ScalarMixture.single(mu, var)] * 6,
    )
    for t in range(7):
        want_c = math.exp(-var * t / 2) * math.cos(theta0 + mu * t)
        want_s = math.exp(-var * t / 2) * math.sin(theta0 + mu * t)
        assert base.moment(MultiIndex.of(c=1), t) == pytest.approx(want_c, abs=1e-12)
        assert base.moment(MultiIndex.of(s=1), t) == pytest.approx(want_s, abs=1e-12)
        # Pythagoras at every t
        c2 = base.moment(MultiIndex.of(c=2), t)
        s2 = base.moment(MultiIndex.of(s=2), t)
        assert c2 + s2 == pytest.approx(1.0, abs=1e-12)


def test_noise_group_moments():
    mu, var = 0.2, 0.05
    base = DubinsBaseMoments(
        (0.0, 0.0, 1.0, 0.0),
        [ScalarMixture.single(0.0, 1.0)] * 3,
        [ScalarMixture.single(mu, var)] * 3,
    )
    # E[cos w sin w] = exp(-2 var) sin(2 mu) / 2 for Gaussian w
    want = math.exp(-2 * var) * math.sin(2 * mu) / 2
    got = base.moment(MultiIndex.of(c_w=1, s_w=1), 0)
    assert got == pytest.approx(want, abs=1e-12)
    assert base.moment(MultiIndex.of(w_v=2), 1) == pytest.approx(1.0)


def test_moment_provider_rejects_unknown_groups_and_horizon():
    base = DubinsBaseMoments((0.0, 0.0, 1.0, 0.0), [_const(0.0)], [_const(0.0)])
    with pytest.raises(ValidationError, match="no provider"):
        base.moment(MultiIndex.of(x=1), 0)
    with pytest.raises(ValidationError, match="horizon"):
        base.moment(MultiIndex.of(w_v=1), 5)
    # unchecked, time -1 raised IndexError and time -2 "negative dimensions"
    for t in (-1, -2):
        with pytest.raises(ValidationError, match=f"time {t}"):
            base.moment(MultiIndex.of(v=1), t)
    with pytest.raises(ValidationError, match="n_times must be nonnegative, got -1"):
        base.moments([MultiIndex.of(v=1)], -1)
    with pytest.raises(ValidationError):
        DubinsBaseMoments((0, 0, 1, 0), [_const(0.0)], [])


# -- propagation ---------------------------------------------------------------


def test_noise_free_propagation_matches_deterministic_rollout():
    x0, y0, v0, th0 = 1.0, -0.5, 0.8, math.pi / 5
    horizon = 12
    tables = dubins_position_tables(
        (x0, y0, v0, th0),
        [_const(0.0)] * horizon,
        [_const(0.1)] * horizon,
        order=2,
    )
    # exact deterministic unicycle rollout
    x, y, th = x0, y0, th0
    for t in range(horizon + 1):
        table = MomentTable(2, tables[t])
        assert table.mean() == pytest.approx([x, y], abs=1e-10)
        assert np.abs(table.covariance()).max() <= 1e-9
        x += v0 * math.cos(th)
        y += v0 * math.sin(th)
        th += 0.1


def test_order2_and_order4_closures_agree_on_shared_moments():
    # two different derivations (11-expression and 125-expression
    # closures) must propagate identical second moments
    init = (0.3, -0.2, 1.2, 0.4)
    wv = [ScalarMixture.single(0.05, 0.01)] * 8
    wt = [ScalarMixture(
        [ScalarComponent(0.02, 0.004), ScalarComponent(-0.05, 0.002)],
        [0.7, 0.3],
    )] * 8
    t2 = dubins_position_tables(init, wv, wt, order=2)
    t4 = dubins_position_tables(init, wv, wt, order=4)
    for a, b in zip(t2, t4):
        for key in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            assert a[key] == pytest.approx(b[key], rel=1e-11, abs=1e-11)


def test_propagated_moments_match_sampled_rollout():
    init = (0.0, 0.0, 1.0, 0.2)
    horizon = 6
    wv = [ScalarMixture.single(0.1, 0.02)] * horizon
    wt = [ScalarMixture.single(-0.03, 0.015)] * horizon
    tables = dubins_position_tables(init, wv, wt, order=2)

    rng = np.random.default_rng(7)
    n = 400_000
    x = np.zeros(n)
    y = np.zeros(n)
    v = np.full(n, 1.0)
    th = np.full(n, 0.2)
    for t in range(horizon):
        x = x + v * np.cos(th)
        y = y + v * np.sin(th)
        v = v + 0.1 + math.sqrt(0.02) * rng.standard_normal(n)
        th = th - 0.03 + math.sqrt(0.015) * rng.standard_normal(n)
        table = tables[t + 1]
        for key, arr in (((1, 0), x), ((0, 1), y), ((2, 0), x * x),
                         ((0, 2), y * y), ((1, 1), x * y)):
            se = float(arr.std(ddof=1)) / math.sqrt(n)
            tol = 4.0 * se + 1e-9 * max(1.0, abs(table[key]))
            assert abs(float(arr.mean()) - table[key]) <= tol, (t, key)


def test_propagate_checks_initial_state_coverage():
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, 2)
    base = DubinsBaseMoments((0, 0, 1, 0), [_const(0.0)] * 2, [_const(0.0)] * 2)
    with pytest.raises(ValidationError, match="tracks"):
        propagate(dyn, np.zeros(0), base, 2)


def _noise_steps(rng, n_modes, horizon, mean_sd, var_hi):
    """Per-step mixtures; every third (step, mode) pair is a point mass."""
    steps = []
    for t in range(horizon):
        comps = [
            ScalarComponent(
                float(rng.normal(0.0, mean_sd)),
                0.0 if (t + k) % 3 == 0 else float(rng.uniform(0.1, 1.0) * var_hi),
            )
            for k in range(n_modes)
        ]
        w = rng.uniform(0.2, 1.0, n_modes)
        steps.append(ScalarMixture(comps, list(w / w.sum())))
    return steps


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("include_means", [False, True])
@pytest.mark.parametrize("order", [2, 4])
def test_compiled_propagation_matches_interpreter(order, include_means, n_modes):
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, order, include_means=include_means)
    assert dyn.plan is dyn.plan  # compiled once per closure
    rng = np.random.default_rng([order, include_means, n_modes])
    horizon = 30
    init_state = (rng.uniform(2.0, 6.0), rng.uniform(-1.0, 1.0),
                  rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * np.pi))
    w_v = _noise_steps(rng, n_modes, horizon, 0.02, 4e-4)
    w_t = _noise_steps(rng, n_modes, horizon, 0.05, 1e-3)
    base = DubinsBaseMoments(init_state, w_v, w_t)
    init = base.initial_moments(dyn.plan.tracked)
    new = propagate(dyn, init, base, horizon)
    init_map = dict(zip(dyn.plan.tracked, init.tolist()))
    old = interpret(dyn, init_map, ScalarBaseMoments(init_state, w_v, w_t), horizon)
    assert new.shape == (horizon + 1, len(dyn.tracked)) and len(old) == horizon + 1
    for t, (got, want) in enumerate(zip(new, old)):
        assert set(want) == set(dyn.plan.tracked) == dyn.tracked
        for sym, val in zip(dyn.plan.tracked, got):
            ref = want[sym]
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref)), (t, sym, val, ref)


def test_propagate_rejects_symbol_without_provider():
    # x' = x + z with z independent noise in a group the unicycle provider
    # knows nothing about
    x, z = Poly.variable("x"), Poly.variable("z")
    sys_ = PolySystem(state_vars=("x",), updates={"x": x + z},
                      known_groups=(frozenset({"z"}),))
    graph = DependenceGraph.of(vertices=("x", "z"), edges=())
    tracked, exprs = expand(MultiIndex.of(x=2), sys_, graph)
    dyn = MomentDynamics(sys_, graph, frozenset(tracked), tuple(exprs.values()))
    assert MultiIndex.of(z=2) in dyn.plan.base
    base = DubinsBaseMoments((0, 0, 1, 0), [_const(0.0)] * 2, [_const(0.0)] * 2)
    with pytest.raises(ValidationError, match="no provider"):
        propagate(dyn, np.zeros(len(dyn.plan.tracked)), base, 2)


def test_position_tables_shape_and_initial_point():
    init = (2.0, 1.0, 0.5, 0.0)
    tables = dubins_position_tables(
        init, [_const(0.0)] * 3, [_const(0.0)] * 3, order=4
    )
    assert tables.shape == (4, 5, 5)
    assert not tables.flags.writeable
    assert MomentTable(4, tables[0]).mean() == pytest.approx([2.0, 1.0])
    assert tables[0, 4, 0] == pytest.approx(16.0)
    assert tables[0, 4, 1] == 0.0  # order 5: outside the table
