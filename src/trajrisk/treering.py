"""Symbolic derivation and propagation of moment dynamics (TreeRing).

For a polynomial stochastic system b_{t+1} = g(b_t, noise_t) the moments
of b evolve polynomially too: E[b^xi at t+1] expands through g into a sum
of monomial moments at time t.  Independence between groups of variables,
recorded in a dependence graph, lets each required moment factor into a
product over connected components; components whose moments are already
computable in closed form (pure noise powers, accumulated-speed powers,
accumulated-heading trig products) terminate the recursion, and the rest
are added to the tracked set and expanded in turn.

The output is a :class:`MomentDynamics`: a closed set of update
expressions that a runtime evaluator steps forward, so no hand
transcription of moment recursions is involved anywhere downstream.
Doing the transcription mechanically matters: the hand-derived update
for a single mixed moment of the unicycle has four terms, while the full
fourth-order closure needs 125 expressions.

The unicycle (Dubins) instantiation uses the change of variables
c = cos(theta), s = sin(theta), after which the angle-sum identities make
the dynamics polynomial.  Heading trig moments come from the
characteristic function of the accumulated heading (an independent sum),
speed moments from binomial convolution of raw-moment sequences.

Propagation runs over a batch of agents sharing a horizon: known moments
are filled as (agent, step, degree) tables, up to the degree the plan
reads, and each step is one gather, product and scatter for all agents.
Every agent's moments are summed in the order of its own one-agent
propagation, so batching changes no bit of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .distributions import (
    MAX_MOMENT_ORDER,
    ControlAgent,
    trig_moments_from_char_fn,
)
from .errors import NumericalError, ValidationError

__all__ = [
    "MultiIndex",
    "Poly",
    "DependenceGraph",
    "PolySystem",
    "MomentExpr",
    "MomentDynamics",
    "PropagationPlan",
    "substitute_dynamics",
    "factor_moment",
    "expand",
    "derive_position_moments",
    "dubins_system",
    "DubinsBaseMoments",
    "PropagationError",
    "propagate",
    "agent_tables",
    "dubins_position_tables",
]


# ---------------------------------------------------------------------------
# sparse multivariate monomials and polynomials


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector of a monomial, stored sparsely.

    Zero exponents are never stored, so equal monomials compare and hash
    equal regardless of construction path.  The hash is computed once at
    construction: multi-indices are dict keys throughout propagation.  The
    sort key of each variable order asked for is kept with the index.
    """

    exponents: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.exponents,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(mapping: Mapping[str, int] = (), **kw: int) -> "MultiIndex":
        merged = dict(mapping)
        merged.update(kw)
        items = tuple(sorted((v, e) for v, e in merged.items() if e != 0))
        for _, e in items:
            if e < 0:
                raise ValidationError("negative exponent in multi-index")
        return MultiIndex(items)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exponents)

    def get(self, var: str) -> int:
        for v, e in self.exponents:
            if v == var:
                return e
        return 0

    def __mul__(self, other: "MultiIndex") -> "MultiIndex":
        merged = dict(self.exponents)
        for v, e in other.exponents:
            merged[v] = merged.get(v, 0) + e
        return MultiIndex(tuple(sorted(merged.items())))

    def restrict(self, vars_: Iterable[str]) -> "MultiIndex":
        keep = set(vars_)
        return MultiIndex(tuple(ve for ve in self.exponents if ve[0] in keep))

    def is_zero(self) -> bool:
        return not self.exponents

    def grlex_key(self, var_order: Sequence[str]) -> tuple:
        """Graded-lexicographic sort key under a fixed variable order."""
        keys = self.__dict__.setdefault("_grlex", {})
        order = tuple(var_order)
        key = keys.get(order)
        if key is None:
            vec = [0] * len(order)
            for v, e in self.exponents:
                vec[order.index(v)] = -e
            key = keys[order] = (self.degree, tuple(vec))
        return key

    def render(self, var_order: Sequence[str]) -> str:
        if not self.exponents:
            return "1"
        pos = {v: i for i, v in enumerate(var_order)}
        parts = []
        for v, e in sorted(self.exponents, key=lambda ve: pos[ve[0]]):
            parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts)


ONE = MultiIndex.of()

# Expansion abort threshold: no sane closure needs monomials anywhere near
# this degree (fourth-order unicycle position moments stay at degree 8).
_MAX_EXPANSION_DEGREE = 64


class Poly:
    """Sparse multivariate polynomial with real coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[MultiIndex, float]] = None):
        clean: Dict[MultiIndex, float] = {}
        if terms:
            for mi, coeff in terms.items():
                if coeff != 0.0:
                    clean[mi] = float(coeff)
        self.terms = clean

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly({MultiIndex.of({name: 1}): 1.0})

    @staticmethod
    def constant(value: float) -> "Poly":
        return Poly({ONE: value})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mi, coeff in other.terms.items():
            out[mi] = out.get(mi, 0.0) + coeff
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[MultiIndex, float] = {}
        for mi1, c1 in self.terms.items():
            for mi2, c2 in other.terms.items():
                key = mi1 * mi2
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly(out)

    def scale(self, factor: float) -> "Poly":
        return Poly({mi: factor * c for mi, c in self.terms.items()})

    def pow(self, n: int) -> "Poly":
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = Poly.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def variables(self) -> frozenset:
        out: set = set()
        for mi in self.terms:
            out |= mi.support
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:  # debug aid only
        return f"Poly({self.terms!r})"


# ---------------------------------------------------------------------------
# dependence structure


@dataclass(frozen=True)
class DependenceGraph:
    """Undirected graph recording which variables may be dependent."""

    vertices: frozenset
    edges: frozenset

    @staticmethod
    def of(vertices: Iterable[str], edges: Iterable[Tuple[str, str]]) -> "DependenceGraph":
        verts = frozenset(vertices)
        edge_set = set()
        for a, b in edges:
            if a == b:
                raise ValidationError(f"self-loop on {a}")
            if a not in verts or b not in verts:
                raise ValidationError(f"edge ({a},{b}) uses undeclared variable")
            edge_set.add(frozenset((a, b)))
        return DependenceGraph(verts, frozenset(edge_set))

    @cached_property
    def _adjacency(self) -> Dict[str, frozenset]:
        out: Dict[str, set] = {v: set() for v in self.vertices}
        for a, b in map(tuple, self.edges):
            out[a].add(b)
            out[b].add(a)
        return {v: frozenset(nbs) for v, nbs in out.items()}

    @cached_property
    def _factors(self) -> Tuple[dict, dict]:
        """`factor_moment` results of this graph by multi-index, and every
        factor among them by itself, so that equal factors are one object."""
        return {}, {}

    def neighbors(self, var: str) -> frozenset:
        return self._adjacency.get(var, frozenset())

    def components(self, support: Iterable[str]) -> List[frozenset]:
        """Connected components of the subgraph induced by `support`."""
        todo = set(support)
        missing = todo - self.vertices
        if missing:
            raise ValidationError(f"variables not in graph: {sorted(missing)}")
        comps = []
        while todo:
            stack = [todo.pop()]
            comp = {stack[0]}
            while stack:
                here = stack.pop()
                for nb in self.neighbors(here):
                    if nb in todo:
                        todo.discard(nb)
                        comp.add(nb)
                        stack.append(nb)
            comps.append(frozenset(comp))
        return comps


def factor_moment(alpha: MultiIndex, graph: DependenceGraph) -> List[MultiIndex]:
    """Split E[b^alpha] into independent factors via the dependence graph.

    Vertices in different components of the induced subgraph are
    independent, so the moment is the product of the per-component
    moments.  Returned indices sum to `alpha`.
    """
    if alpha.is_zero():
        raise ValidationError("cannot factor the zeroth moment")
    memo, seen = graph._factors
    parts = memo.get(alpha)
    if parts is None:
        parts = memo[alpha] = tuple(
            seen.setdefault(part, part)
            for part in (alpha.restrict(c) for c in graph.components(alpha.support))
        )
    return list(parts)


# ---------------------------------------------------------------------------
# polynomial systems


@dataclass(frozen=True)
class PolySystem:
    """State update polynomials plus the externally-known variable groups.

    `state_vars` fixes the registration order used for rendering and
    sorting.  `known_groups` lists sets of variables whose joint moments
    are computable without recursion (per-step noise, and state variables
    like accumulated speed or heading trig whose law is an independent
    sum); a moment whose support lies inside one group is never expanded.
    """

    state_vars: Tuple[str, ...]
    updates: Mapping[str, Poly]
    known_groups: Tuple[frozenset, ...]

    def __post_init__(self):
        declared = set(self.state_vars) | set(self.noise_vars)
        for var, poly in self.updates.items():
            if var not in self.state_vars:
                raise ValidationError(f"update for non-state variable {var}")
            undeclared = poly.variables() - declared
            if undeclared:
                raise ValidationError(
                    f"update for {var} uses undeclared {sorted(undeclared)}"
                )
        for noise in self.noise_vars:
            if not any(noise in g for g in self.known_groups):
                raise ValidationError(f"noise variable {noise} has no known group")

    @cached_property
    def noise_vars(self) -> Tuple[str, ...]:
        seen = set(self.state_vars)
        out = []
        for var in self.state_vars:
            for other in sorted(self.updates[var].variables()):
                if other not in seen:
                    seen.add(other)
                    out.append(other)
        return tuple(out)

    @cached_property
    def all_vars(self) -> Tuple[str, ...]:
        return self.state_vars + self.noise_vars

    @cached_property
    def _powers(self) -> Dict[Tuple[str, int], Poly]:
        """`updates[var].pow(e)` of this system, by (var, e)."""
        return {}

    @cached_property
    def _known(self) -> Dict[MultiIndex, bool]:
        """`is_known` answers of this system, by multi-index."""
        return {}

    def is_known(self, xi: MultiIndex) -> bool:
        known = self._known.get(xi)
        if known is None:
            sup = xi.support
            known = self._known[xi] = any(sup <= group for group in self.known_groups)
        return known


def substitute_dynamics(xi: MultiIndex, sys: PolySystem) -> Poly:
    """Express b_{t+1}^xi as a polynomial in time-t state and noise."""
    out = Poly.constant(1.0)
    for var, exp in xi.exponents:
        if var not in sys.updates:
            raise ValidationError(f"undeclared state variable {var}")
        power = sys._powers.get((var, exp))
        if power is None:
            power = sys._powers[var, exp] = sys.updates[var].pow(exp)
        out = out * power
    return out


# ---------------------------------------------------------------------------
# moment dynamics derivation


@dataclass(frozen=True)
class MomentExpr:
    """One update: E[target]_{t+1} = sum of coeff * prod of symbol moments.

    Every symbol is a multi-index over state or noise variables; symbols
    outside the tracked set must lie inside a known group.
    """

    target: MultiIndex
    terms: Tuple[Tuple[float, Tuple[MultiIndex, ...]], ...]

    def symbols(self) -> frozenset:
        out: set = set()
        for _, factors in self.terms:
            out.update(factors)
        return frozenset(out)


@dataclass(frozen=True, eq=False)
class PropagationPlan:
    """Array form of a closed moment-update system.

    Every term of every expression is one column.  Row f of `factors`
    holds, contiguously, the f-th factor of every term as an index into the
    step vector [tracked state | base symbols | 1.0], terms with fewer
    factors padded by the constant slot; `coeff` is the term's coefficient
    and `target` the position of its expression's target in `tracked`.  One
    step is ``bincount(target, ext[factors].prod(0) * coeff)``: the product
    over the factor axis runs ((f0 * f1) * f2) * f3 for all terms at once.
    `even` marks the tracked moments no distribution can make negative.
    """

    tracked: Tuple[MultiIndex, ...]
    base: Tuple[MultiIndex, ...]
    factors: np.ndarray
    coeff: np.ndarray
    target: np.ndarray
    even: np.ndarray

    @staticmethod
    def compile(
        expressions: Sequence["MomentExpr"], var_order: Sequence[str]
    ) -> "PropagationPlan":
        """Index every term; base symbols sort graded-lexicographically."""
        tracked = tuple(expr.target for expr in expressions)
        index = {sym: i for i, sym in enumerate(tracked)}
        base_syms = {f for expr in expressions for _, fs in expr.terms for f in fs}
        base = tuple(sorted(base_syms - set(index), key=lambda f: f.grlex_key(var_order)))
        index.update((sym, len(tracked) + j) for j, sym in enumerate(base))
        one = len(index)
        rows = [(i, coeff, factors)
                for i, expr in enumerate(expressions) for coeff, factors in expr.terms]
        width = max([len(factors) for _, _, factors in rows] + [1])
        gather = np.full((width, len(rows)), one, dtype=np.intp)
        for r, (_, _, factors) in enumerate(rows):
            gather[:len(factors), r] = [index[f] for f in factors]
        return PropagationPlan(
            tracked=tracked,
            base=base,
            factors=gather,
            coeff=np.array([coeff for _, coeff, _ in rows], dtype=float),
            target=np.array([i for i, _, _ in rows], dtype=np.intp),
            even=np.array([all(e % 2 == 0 for _, e in sym.exponents) for sym in tracked]),
        )


@dataclass(frozen=True)
class MomentDynamics:
    """Closed moment-update system produced by the expansion recursion."""

    system: PolySystem
    graph: DependenceGraph
    tracked: frozenset
    expressions: Tuple[MomentExpr, ...]

    @cached_property
    def plan(self) -> PropagationPlan:
        """The expressions compiled for :func:`propagate`, built on first use."""
        return PropagationPlan.compile(self.expressions, self.system.all_vars)

    def unknown_symbols(self) -> frozenset:
        """Symbols in any expression that are neither tracked nor known.

        Empty by construction; exposed so tests can verify closure
        mechanically rather than trusting the recursion.
        """
        bad = set()
        for expr in self.expressions:
            for sym in expr.symbols():
                if sym not in self.tracked and not self.system.is_known(sym):
                    bad.add(sym)
        return frozenset(bad)

    def dump(self) -> str:
        """Render expressions, one line each, in a stable order.

        Targets and terms sort graded-lexicographically under the
        system's registration order, so output is byte-identical across
        runs and suitable for golden-file comparison.
        """
        order = self.system.all_vars
        lines = []
        for expr in sorted(self.expressions,
                           key=lambda e: e.target.grlex_key(order)):
            rendered = []
            def term_key(term):
                total = ONE
                for f in term[1]:
                    total = total * f
                return total.grlex_key(order)
            for coeff, factors in sorted(expr.terms, key=term_key):
                syms = "*".join(
                    f"E[{f.render(order)}]_t"
                    for f in sorted(factors, key=lambda f: f.grlex_key(order))
                ) or "1"
                if coeff == 1.0:
                    rendered.append(f"+ {syms}")
                elif coeff == -1.0:
                    rendered.append(f"- {syms}")
                elif coeff < 0:
                    rendered.append(f"- {-coeff:.12g}*{syms}")
                else:
                    rendered.append(f"+ {coeff:.12g}*{syms}")
            body = " ".join(rendered)
            if body.startswith("+ "):
                body = body[2:]
            lines.append(f"E[{expr.target.render(order)}]_{{t+1}} = {body}")
        return "\n".join(lines) + "\n"


def expand(
    xi: MultiIndex,
    sys: PolySystem,
    graph: DependenceGraph,
    tracked: Optional[set] = None,
    expressions: Optional[Dict[MultiIndex, MomentExpr]] = None,
    max_tracked: int = 500,
) -> Tuple[set, Dict[MultiIndex, MomentExpr]]:
    """Recursively close the moment set needed to update E[b^xi].

    Adds `xi` (and everything it transitively requires) to the tracked
    set, recording one update expression per tracked moment.  Membership
    is checked before recursing, so shared sub-moments are expanded once
    and cycles cannot occur.  `max_tracked` guards against systems whose
    closure does not terminate (degree-increasing dynamics).
    """
    tracked = tracked if tracked is not None else set()
    expressions = expressions if expressions is not None else {}
    if xi in tracked:
        return tracked, expressions
    if xi.degree > _MAX_EXPANSION_DEGREE:
        # Degree-increasing dynamics can double the degree per level, in
        # which case the substitution cost explodes long before the
        # tracked-count guard below would fire.
        raise NumericalError(
            f"moment degree {xi.degree} exceeds cap {_MAX_EXPANSION_DEGREE}; "
            "the system is unlikely to close"
        )
    tracked.add(xi)
    if len(tracked) > max_tracked:
        raise NumericalError(
            f"moment closure exceeded {max_tracked} tracked moments; "
            "the system is unlikely to close"
        )
    poly = substitute_dynamics(xi, sys)
    var_order = sys.all_vars
    terms = []
    for alpha, coeff in poly.terms.items():
        if alpha.is_zero():
            factors: Tuple[MultiIndex, ...] = ()
        else:
            parts = factor_moment(alpha, graph)
            for part in parts:
                if not sys.is_known(part) and part not in tracked:
                    expand(part, sys, graph, tracked, expressions, max_tracked)
            factors = tuple(sorted(parts, key=lambda p: p.grlex_key(var_order)))
        terms.append((coeff, factors))
    terms.sort(key=lambda t: tuple(f.grlex_key(var_order) for f in t[1]))
    expressions[xi] = MomentExpr(xi, tuple(terms))
    return tracked, expressions


def derive_position_moments(
    sys: PolySystem,
    graph: DependenceGraph,
    order: int,
    include_means: bool = False,
) -> MomentDynamics:
    """Close the moment set for all position moments up to `order`.

    Targets are E[x^a y^b] for 2 <= a+b <= order; with `include_means`
    the degree-1 means join the targets (needed when downstream
    consumers build full moment tables).  For the unicycle system the
    default targets close with exactly 11 expressions at order 2 and
    125 at order 4; every expression is exact, no truncation is applied.
    """
    if order < 2:
        raise ValidationError("order must be at least 2")
    lo = 1 if include_means else 2
    tracked: set = set()
    exprs: Dict[MultiIndex, MomentExpr] = {}
    for deg in range(lo, order + 1):
        for a in range(deg + 1):
            xi = MultiIndex.of({"x": a, "y": deg - a})
            expand(xi, sys, graph, tracked, exprs)
    ordered = tuple(
        exprs[key] for key in sorted(exprs, key=lambda k: k.grlex_key(sys.all_vars))
    )
    dyn = MomentDynamics(sys, graph, frozenset(tracked), ordered)
    leftovers = dyn.unknown_symbols()
    if leftovers:
        raise NumericalError(f"closure failed for symbols {leftovers}")
    return dyn


# ---------------------------------------------------------------------------
# unicycle (Dubins) instantiation


def dubins_system() -> Tuple[PolySystem, DependenceGraph]:
    """Polynomial unicycle after the cos/sin change of variables.

    State (x, y, v, c, s) with per-step noises w_v (speed increment) and
    (c_w, s_w) = (cos w_theta, sin w_theta):

        x' = x + v c                 y' = y + v s
        v' = v + w_v
        c' = c c_w - s s_w           s' = s c_w + c s_w

    Position depends on speed and heading history, so x and y connect to
    everything; v is independent of heading; c and s share the
    accumulated heading, as do c_w and s_w the step noise.  Known groups:
    v powers (independent-sum convolution), c/s trig products
    (accumulated-heading characteristic function), and the two noise
    groups.
    """
    x, y, v, c, s = (Poly.variable(n) for n in ("x", "y", "v", "c", "s"))
    w_v, c_w, s_w = (Poly.variable(n) for n in ("w_v", "c_w", "s_w"))
    updates = {
        "x": x + v * c,
        "y": y + v * s,
        "v": v + w_v,
        "c": c * c_w - s * s_w,
        "s": s * c_w + c * s_w,
    }
    sys = PolySystem(
        state_vars=("x", "y", "v", "c", "s"),
        updates=updates,
        known_groups=(
            frozenset({"v"}),
            frozenset({"c", "s"}),
            frozenset({"w_v"}),
            frozenset({"c_w", "s_w"}),
        ),
    )
    graph = DependenceGraph.of(
        vertices=("x", "y", "v", "c", "s", "w_v", "c_w", "s_w"),
        edges=(
            ("x", "y"), ("x", "v"), ("y", "v"),
            ("x", "s"), ("x", "c"), ("y", "s"), ("y", "c"),
            ("c", "s"), ("c_w", "s_w"),
        ),
    )
    return sys, graph


_STATE_VARS = ("x", "y", "v", "c", "s")
# known groups by the table that provides them, with the variables of a key
_PROVIDERS = {"v": ("v",), "w_v": ("w_v",), "cs": ("c", "s"), "cw": ("c_w", "s_w")}


@lru_cache(maxsize=None)
def _provider_layout(symbols: Tuple[MultiIndex, ...]) -> tuple:
    """Known symbols grouped by the table that provides them.

    One (group, columns, keys) triple per group present, the keys being
    speed degrees for v and w_v, and (cos, sin) powers for the trig groups.
    """
    found: Dict[str, Tuple[list, list]] = {}
    for j, xi in enumerate(symbols):
        group = next((g for g, vars_ in _PROVIDERS.items() if xi.support <= set(vars_)), None)
        if group is None:
            raise ValidationError(f"no provider for moment over {sorted(xi.support)}")
        cols, keys = found.setdefault(group, ([], []))
        cols.append(j)
        keys.append(tuple(xi.get(v) for v in _PROVIDERS[group]))
    return tuple(
        (group, np.array(cols), np.array(keys)[:, 0] if group in ("v", "w_v") else tuple(keys))
        for group, (cols, keys) in found.items()
    )


@lru_cache(maxsize=None)
def _power_layout(tracked: Tuple[MultiIndex, ...]) -> Tuple[np.ndarray, int]:
    """Where each tracked moment's factors sit in a table of state powers.

    Returns (F, n) indices into a flattened (variable, exponent) table with
    exponents 0..top, the factors of each moment in its variable order and
    padded with x^0 = 1.0, and `top`.
    """
    top = max((e for mi in tracked for _, e in mi.exponents), default=0)
    width = max((len(mi.exponents) for mi in tracked), default=1)
    cols = np.zeros((width, len(tracked)), dtype=np.intp)
    for r, mi in enumerate(tracked):
        cols[:len(mi.exponents), r] = [_STATE_VARS.index(v) * (top + 1) + e
                                       for v, e in mi.exponents]
    return cols, top


class DubinsBaseMoments:
    """Known-group moment provider for the unicycle, over a batch of agents.

    Speed moments come from binomially convolving the raw-moment
    sequences of v_0 and the per-step speed noises; heading trig moments
    from the characteristic function of theta_t = theta_0 + sum of
    step noises, evaluated at the integer frequencies a trig product
    expands into.  Noise-group moments read the per-step components
    directly.  Each of these is filled once per instance as an (agent,
    step, degree) table, and :meth:`moments` reads whole columns out of
    them.  Tables hold degrees 0..`max_degree` only: every recursion reads
    degrees at or below the one it fills, so the values do not depend on
    the cap, and a propagation fills just the degree its plan reads.

    `agents` is one `ControlAgent` or a sequence of them sharing one
    horizon; their components are scattered into (noise, field, agent,
    step, component) arrays, shorter mixtures padded with zero-weight
    point masses at 0, which add nothing to any moment.  For one agent,
    :meth:`moments`, :meth:`moment` and :meth:`initial_moments` return no agent axis.
    """

    def __init__(self, agents, max_degree: int = 8):
        self.batched = not isinstance(agents, ControlAgent)
        agents = list(agents) if self.batched else [agents]
        if not (agents and all(isinstance(a, ControlAgent) for a in agents)):
            raise ValidationError("expected a ControlAgent or a nonempty sequence of them")
        horizons = {a.horizon for a in agents}
        if len(horizons) != 1:
            raise ValidationError(f"agents of horizons {sorted(horizons)} in one batch")
        if max_degree > MAX_MOMENT_ORDER:
            raise ValidationError(
                f"max_degree {max_degree} exceeds cap {MAX_MOMENT_ORDER}"
            )
        self.states = np.array([a.initial_state for a in agents], dtype=float)
        self.max_degree = max_degree
        self.horizon = horizons.pop()
        self.n_agents = len(agents)
        # a mixture's components are one run of equal keys, and the keys ascend
        mixture = np.concatenate([a.mixture for a in agents])
        agent = np.repeat(np.arange(len(agents)), [len(a.mixture) for a in agents])
        key = agent * 2 * self.horizon + mixture
        col = np.arange(len(key)) - np.searchsorted(key, key)
        fields = [np.concatenate([getattr(a, name) for a in agents])
                  for name in ("weights", "means", "variances")]
        self._mixtures = np.zeros((2, 3, len(agents), self.horizon, col.max(initial=0) + 1))
        self._mixtures[mixture % 2, :, agent, mixture // 2, col] = np.stack(fields, axis=1)

    # -- speed ---------------------------------------------------------

    @cached_property
    def _noise_raw(self) -> np.ndarray:
        """(A, horizon, max_degree + 1) raw moments E[w_v^k] of each step."""
        w, mu, var = self._mixtures[0]
        # Gaussian raw moments: m_k = mu m_{k-1} + (k - 1) var m_{k-2}.
        comp = np.ones((self.max_degree + 1,) + w.shape)
        for k in range(1, self.max_degree + 1):
            comp[k] = mu * comp[k - 1]
            if k >= 2:
                comp[k] += (k - 1) * var * comp[k - 2]
        return np.moveaxis((comp * w).sum(axis=3), 0, -1)

    @cached_property
    def _speed_raw(self) -> np.ndarray:
        """(A, horizon + 1, max_degree + 1) raw moments E[v_t^k]."""
        n_agents, n_deg = self.n_agents, self.max_degree + 1
        ks = np.arange(n_deg)
        k, j = np.tril_indices(n_deg)  # pairs j <= k, by k then j
        binom = np.array([math.comb(a, b) for a, b in zip(k, j)], dtype=float)
        # conv[a, t, n] = C(k, j) E[w_v^(k-j)] of agent a at step t for the n-th pair (k, j)
        conv = binom * self._noise_raw[:, :, k - j]
        target = (np.arange(n_agents)[:, None] * n_deg + k).ravel()
        rows = np.empty((n_agents, self.horizon + 1, n_deg))
        rows[:, 0] = self.states[:, 2:3] ** ks
        for t in range(self.horizon):
            # Only j <= k enters, so a degree that overflowed (v^8 = inf)
            # cannot turn the lower ones NaN through 0 * inf.
            rows[:, t + 1] = np.bincount(
                target, (conv[:, t] * rows[:, t, j]).ravel(), n_agents * n_deg
            ).reshape(n_agents, n_deg)
        return rows

    # -- heading -------------------------------------------------------

    @cached_property
    def _noise_cf(self) -> np.ndarray:
        """(A, horizon, 2 max_degree + 1) char. function of w_theta at -d..d."""
        freqs = np.arange(-self.max_degree, self.max_degree + 1)
        w, mu, var = (a[..., None] for a in self._mixtures[1])
        return (w * np.exp(1j * mu * freqs - 0.5 * var * freqs**2)).sum(axis=2)

    @cached_property
    def _heading_cf(self) -> np.ndarray:
        """(A, horizon + 1, 2 max_degree + 1) char. function of theta_t at -d..d."""
        freqs = np.arange(-self.max_degree, self.max_degree + 1)
        phi0 = np.exp(1j * self.states[:, 3:4] * freqs)[:, None]
        return np.concatenate([phi0, phi0 * np.cumprod(self._noise_cf, axis=1)], axis=1)

    # -- dispatch ------------------------------------------------------

    def moments(self, symbols: Sequence[MultiIndex], n_times: int) -> np.ndarray:
        """Known moments E[b^xi] for t = 0..n_times-1, one column per symbol.

        An (A, n_times, len(symbols)) array, without the agent axis for a
        single agent.  State groups (v, c/s) are read at time t, noise groups
        at step t, so a noise symbol needs n_times <= horizon.  Each group's
        columns are read in one gather.
        """
        if n_times < 0:
            raise ValidationError(f"n_times must be nonnegative, got {n_times}")
        out = np.empty((self.n_agents, n_times, len(symbols)))
        for group, cols, keys in _provider_layout(tuple(symbols)):
            if group in ("v", "cs"):
                if n_times > self.horizon + 1:
                    raise ValidationError(
                        f"no time-{n_times - 1} state in a horizon of {self.horizon}"
                    )
            elif n_times > self.horizon:
                raise ValidationError(
                    f"no step-{n_times - 1} noise in a horizon of {self.horizon}"
                )
            if group in ("v", "w_v"):
                if keys.max() > self.max_degree:
                    raise ValidationError(f"speed moment degree {keys.max()} above cap")
                table = self._speed_raw if group == "v" else self._noise_raw
                out[:, :, cols] = table[:, :n_times][..., keys]
            else:
                top = max(m + n for m, n in keys)
                if top > self.max_degree:
                    raise ValidationError(f"trig moment degree {top} above cap")
                cf = self._heading_cf if group == "cs" else self._noise_cf
                out[:, :, cols] = trig_moments_from_char_fn(cf[:, :n_times], keys, self.max_degree)
        return out if self.batched else out[0]

    def moment(self, xi: MultiIndex, t: int):
        """Value of the known moment E[b^xi] at time t (noises: step t)."""
        if t < 0:
            raise ValidationError(f"no moment at negative time {t}")
        value = self.moments([xi], t + 1)[..., t, 0]
        return value if self.batched else float(value)

    def initial_moments(self, tracked: Sequence[MultiIndex]) -> np.ndarray:
        """Deterministic initial values of the tracked moments, in the order given.

        One row per agent.  Each value is the product of the scalar powers
        ``np.float64(value) ** e`` taken left to right in its multi-index's
        variable order, the same for every batch: the closure amplifies
        last-bit changes here ~1e5-fold in 20 steps."""
        cols, top = _power_layout(tuple(tracked))
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.array([
                [np.float64(value) ** e
                 for value in (x, y, v, math.cos(theta), math.sin(theta))
                 for e in range(top + 1)]
                for x, y, v, theta in self.states.tolist()
            ])
            out = np.ones((self.n_agents, cols.shape[1]))
            for factor in cols:
                out = out * powers[:, factor]
        return out if self.batched else out[0]


class PropagationError(ValidationError):
    """A propagated moment is not finite, or even and negative.

    `agent` is the index in the batch of the agent it belongs to.
    """

    def __init__(self, message: str, agent: int):
        super().__init__(message)
        self.agent = agent


def propagate(
    dyn: MomentDynamics,
    init: np.ndarray,
    base_moments: DubinsBaseMoments,
    horizon: int,
) -> np.ndarray:
    """Roll the moment dynamics of a batch of agents forward `horizon` steps.

    ``init`` holds one row of tracked moments per agent of `base_moments`,
    in ``dyn.plan.tracked`` order; row t+1 of an agent's (horizon + 1,
    n_tracked) block evaluates every expression on its row t plus the known
    moments at t, all fetched before the first step, so a symbol outside
    both the tracked set and the provider's groups raises before any work
    is done.  A step multiplies the plan's gathered factor rows in order and
    sums all agents' terms in one `bincount` with targets offset per agent,
    so each agent's sums run in the order of its own propagation.  A single
    agent (a 1-D ``init``) gets a result without the agent axis.  A moment
    that is not finite, or even and below -1e-9, raises a
    :class:`PropagationError` for the lowest such agent, naming its row as
    ``steps[t]``, the step producing it, or ``initial_state``.
    """
    plan = dyn.plan
    n, n_base = len(plan.tracked), len(plan.base)
    init = np.asarray(init, dtype=float)
    first = np.atleast_2d(init)
    if first.ndim != 2 or first.shape[1] != n:
        raise ValidationError(
            f"initial state has {first.shape[-1]} moments but the closure tracks {n}"
        )
    n_agents, width = len(first), n + n_base + 1
    if n_agents != base_moments.n_agents:
        raise ValidationError(
            f"{n_agents} initial states for {base_moments.n_agents} agents"
        )
    # ext[t] is [state | base | 1.0] at time t for every agent, flattened
    # per t; each step gathers from ext[t] and writes the state of ext[t + 1]
    ext = np.ones((horizon + 1, n_agents, width))
    ext[0, :, :n] = first
    agents = np.arange(n_agents)[:, None]
    gather = plan.factors[:, None, :] + agents * width
    target = (agents * n + plan.target).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        base = base_moments.moments(plan.base, horizon).reshape(n_agents, horizon, n_base)
        ext[:horizon, :, n:n + n_base] = base.swapaxes(0, 1)
        for t in range(horizon):
            # ((f0 * f1) * f2) * f3: the association of a row-wise product
            terms = ext[t].take(gather).prod(axis=0) * plan.coeff
            ext[t + 1, :, :n] = np.bincount(
                target, terms.ravel(), n_agents * n
            ).reshape(n_agents, n)
    states = ext[:, :, :n].transpose(1, 0, 2)
    bad = ~np.isfinite(states) | (plan.even & (states < -1e-9))
    if bad.any():
        a, t, j = np.argwhere(bad)[0]
        where = "initial_state" if t == 0 else f"steps[{t - 1}]"
        what = "is negative" if np.isfinite(states[a, t, j]) else "is not finite"
        raise PropagationError(
            f"{where}: propagated moment E[{plan.tracked[j].render(dyn.system.all_vars)}] "
            f"= {states[a, t, j]:.3g} {what}",
            int(a),
        )
    return states[0] if init.ndim == 1 else states


def agent_tables(agents, order: int = 2) -> np.ndarray:
    """Propagated position moment tables of control agents, one per time.

    Derives (and caches) the closed moment dynamics including means and
    propagates them over the agents' horizon.  Returns a read-only
    (horizon + 1, order + 1, order + 1) array whose row t is the table of
    time t in the `MomentTable` layout: E[x^a y^b] at [t, a, b] for
    a + b <= order, 0 elsewhere.  ``MomentTable(order, tables[t])`` wraps
    one of them.  `agents` is one `ControlAgent` or a sequence of them, as
    :class:`DubinsBaseMoments` takes them; every agent of a sequence
    propagates in the same pass and the tables gain a leading agent axis,
    each agent's tables equal to those it has alone bit for bit.
    """
    dyn = _cached_dynamics(order)
    degree, cols, px, py = _table_layout(order)
    base = DubinsBaseMoments(agents, max_degree=degree)
    states = propagate(dyn, base.initial_moments(dyn.plan.tracked), base, base.horizon)
    tables = np.zeros(states.shape[:-1] + (order + 1, order + 1))
    tables[..., 0, 0] = 1.0
    tables[..., px, py] = states[..., cols]
    tables.flags.writeable = False
    return tables


def dubins_position_tables(
    initial_state,
    w_v_steps: Sequence,
    w_theta_steps: Sequence,
    order: int = 2,
) -> np.ndarray:
    """The `agent_tables` of one unicycle agent at (x, y, v, theta) driven by
    the per-step speed and heading noise mixtures given."""
    if len(w_v_steps) != len(w_theta_steps):
        raise ValidationError("speed and heading noise horizons differ")
    return agent_tables(ControlAgent(initial_state, tuple(zip(w_v_steps, w_theta_steps))), order)


@lru_cache(maxsize=None)
def _table_layout(order: int) -> Tuple[int, list, np.ndarray, np.ndarray]:
    """Base-moment degree the order's plan reads, the columns of E[x^a y^b]
    with 1 <= a + b <= order in its tracked set, and their (a, b)."""
    plan = _cached_dynamics(order).plan
    keys = [(a, deg - a) for deg in range(1, order + 1) for a in range(deg + 1)]
    cols = [plan.tracked.index(MultiIndex.of(x=a, y=b)) for a, b in keys]
    px, py = np.array(keys).T
    return max(sym.degree for sym in plan.base), cols, px, py


@lru_cache(maxsize=None)
def _cached_dynamics(order: int) -> MomentDynamics:
    return derive_position_moments(*dubins_system(), order, include_means=True)
