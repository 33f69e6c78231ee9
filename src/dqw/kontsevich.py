"""Compiling admissible graphs against a Poisson structure, and assembling
the graph expansion of the star product for linear structures.

`graph_to_operator` turns one graph into a bidifferential operator by summing
over edge colorings: vertex k with edges colored (i, j) contributes the
coefficient alpha^{ij}, differentiated once for every incoming edge's color;
edges into the grounds collect the derivative multi-indices acting on the two
arguments.  The search never differentiates a polynomial itself: it reads
the derivatives off the structure's table (`PoissonStructure.live_derivatives`,
filled once per multiset of derivative indices and kept for every later
graph).  A vertex factor is a key (i, j, I), meaning d^I alpha^{ij} with I
the sorted multiset of colors of its incoming edges.  A vertex looks its
entries up instead of filtering them.  It reads the entries live under its
pending I by first index (`live_rows`).  An edge into an already colored
vertex t with key (i', j', I') may only take the colors k under which
(i', j') stays live, read off `keeps_live(I', (i', j'))`; an edge into a
later vertex only the colors that leave some entry live under its grown
pending I (`grows_live`).  Both tables also give the grown multiset, so
nothing is sorted during the search, and on a linear structure a second
incoming derivative offers no color at all.  Polynomials are multiplied only
at a leaf.  The pair (L, R) travels as one int in `bidiff`'s packed layout
(`pair_keys`; the layout and why no digit carries are stated once in
`bidiff`'s module docstring): a digit counts the edges into one ground, so
the component size bounds it, an edge into a ground adds one of
`pair_keys`'s increments, and each component decodes its keys once, at the
end.  The search keeps one generator per colored vertex on an explicit
stack, so a long component needs no deep recursion.

Two exact steps run before and around the search.  A vertex with more
incoming edges than the structure's largest entry degree p carries a
derivative of order above p, so such a graph is zero before any search (on
a linear structure every aerial in-degree >= 2, on a constant one every
aerial edge).  Otherwise the graph is split into its aerial components
(`factorize`), and each component is searched alone: the colorings of
different components are independent, so the sum over them factorises.
The first component that compiles to zero ends the call; otherwise each
component becomes an operator at eps degree its size, and `symbol_mul`
combines them (derivative multi-indices add, coefficients multiply).

For a linear structure with strictly increasing brackets every graph falls
in one of three bins: graphs with an aerial in-degree >= 2 vanish by the
derivative count, graphs with a directed aerial cycle vanish because every
cyclic contraction of the structure constants is a trace of strictly
triangular matrices, and the rest — disjoint unions of rooted binary trees —
are exactly the graphs the symmetrized expansion generates.
`loop_vanishing_report` checks the loop bin on any algebra, one graph type
at a time (`graph_types`): relabelling a graph keeps its operator and
flipping a vertex's edge pair negates it, so a type's operator vanishes
exactly when every labelled graph of its orbit does.  Each loop type is
compiled once and counts its whole orbit as checked; a surviving type lists
every labelled graph of its orbit (`graph_orbit`).

`prime_type_table` lists the prime tree types, each with its coefficient
read off the Hausdorff series (grouped by canonical graph type with flip
signs).  `assemble_linear_star` builds the product as the symbol
exponential of the generator with one term per type.  `integral_omega`
gives the same coefficient from the integral weight engine (symmetry count
times weight times the half-structure normalisation) where the engine
covers the type.  `loop_types` refuses an algebra without strictly
increasing brackets and verifies that every canonical loop type with at
most three vertices compiles to zero; the build runs it first.  `dqw
assemble` compares the two coefficients row by row over the table and
counts the loop types; it never builds the product.
`assemble_xn_star_y` specialises to a power of a linear argument against a
linear argument, where only the chain types survive.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .bidiff import BiDiffOp, pair_keys
from .freelie import free_lie, hausdorff_series, lie_to_lgraph
from .graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    canonical_form,
    chain_graph,
    enumerate_graphs,
    factorize,
    format_graph,
    graph_orbit,
    graph_types,
    has_directed_cycle,
    symmetry_count,
)
from .liealg import PoissonStructure, StructureConstants, linear_poisson
from .poly import Polynomial
from .series import EpsSeries
from .star import StarProduct
from .weights import WeightError, normalized_weight, weight_w_computable

__all__ = [
    "KontsevichError",
    "graph_to_operator",
    "half_poisson",
    "loop_vanishing_report",
    "loop_types",
    "LoopReport",
    "assemble_xn_star_y",
    "prime_type_table",
    "integral_omega",
    "AssembledStar",
    "assemble_linear_star",
]


class KontsevichError(ValueError):
    pass


def half_poisson(c: StructureConstants) -> PoissonStructure:
    """The linear structure of the algebra with every entry halved (the
    normalisation the graph expansion contracts against)."""
    pi = linear_poisson(c)
    entries = tuple(
        tuple(p * Fraction(1, 2) for p in row) for row in pi.entries
    )
    return PoissonStructure(pi.dim, "linear", entries)


def graph_to_operator(g: AdmissibleGraph, pi: PoissonStructure, order: int) -> BiDiffOp:
    """Sum over edge colorings of the graph, contracted against `pi`.

    The result sits at eps degree g.n (with n = 0 giving the identity).
    """
    d = pi.dim
    n = g.n
    if n == 0:
        return BiDiffOp.identity(d, order)
    if n > order:
        return BiDiffOp.zero(d, order)
    in_degree = Counter(t for pair in g.edges for t in pair if t > 0)
    if max(in_degree.values(), default=0) > pi.max_entry_degree:
        return BiDiffOp.zero(d, order)
    tables = []
    for component in factorize(g):
        table = _coloring_table(component.edges, pi)
        if not table:
            return BiDiffOp.zero(d, order)
        tables.append({(component.n, left, right): p for (left, right), p in table.items()})
    op = BiDiffOp(d, order, tables[0])
    for terms in tables[1:]:
        op = op.symbol_mul(BiDiffOp(d, order, terms))
    return op


def _coloring_table(edges: tuple, pi: PoissonStructure) -> dict:
    """{(L, R): coefficient} of the colorings of one aerial component, its
    vertices labelled 1..len(edges); the zero coefficients are dropped."""
    n = len(edges)
    left, right, decode = pair_keys(pi.dim, n)
    bump = {GROUND_X: left, GROUND_Y: right}
    live, rows_of = pi.live_derivatives, pi.live_rows
    keeps, grows = pi.keeps_live, pi.grows_live
    keys: list = [None] * (n + 1)  # (i, j) of each colored vertex
    orders: list = [()] * (n + 1)  # each vertex's I, pending until it is colored
    terms: dict = {}

    def allowed(target: int, v: int):
        """The colors an edge of vertex v may take into `target`, each with
        the target's grown I, or None for a ground (any color)."""
        if target < 0:
            return None
        if target < v:
            return keeps(orders[target], keys[target])
        return grows(orders[target])

    def options(v: int, packed: int):
        """Color vertex v in every allowed way, yielding the (L, R) key of
        each coloring while keys[v] and its targets' I hold it."""
        first, second = edges[v - 1]
        rows = rows_of(orders[v])
        firsts, seconds = allowed(first, v), allowed(second, v)
        for i in rows if firsts is None else firsts:
            row = rows.get(i)
            if row is None:
                continue
            if firsts is None:
                packed_i = packed + bump[first][i]
            else:
                packed_i, saved_first = packed, orders[first]
                orders[first] = firsts[i]
            for j in row if seconds is None else seconds:
                if j not in row:
                    continue
                if seconds is None:
                    packed_ij = packed_i + bump[second][j]
                else:
                    packed_ij, saved_second = packed_i, orders[second]
                    orders[second] = seconds[j]
                keys[v] = (i, j)
                yield packed_ij
                if seconds is not None:
                    orders[second] = saved_second
            if firsts is not None:
                orders[first] = saved_first

    stack = [options(1, 0)]  # stack[v - 1] colors vertex v
    while stack:
        packed = next(stack[-1], None)
        if packed is None:
            stack.pop()
        elif len(stack) < n:
            stack.append(options(len(stack) + 1, packed))
        else:
            total = None
            for k in range(1, n + 1):
                poly = live(orders[k])[keys[k]]
                total = poly if total is None else total * poly
            acc = terms.get(packed)
            terms[packed] = total if acc is None else acc + total
    return {decode(key): p for key, p in terms.items() if p.terms}


# -- loop analysis ---------------------------------------------------------------


@dataclass
class LoopReport:
    max_n: int
    checked: int = 0
    nonzero: list[str] = field(default_factory=list)

    @property
    def all_vanish(self) -> bool:
        return not self.nonzero

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "check": "loops",
            "max_n": self.max_n,
            "checked": self.checked,
            "all_vanish": self.all_vanish,
            "nonzero": self.nonzero,
        }


def loop_vanishing_report(c: StructureConstants, max_n: int) -> LoopReport:
    """Check every loop graph with up to max_n vertices against the halved
    linear structure, compiling each loop type once, and record the labelled
    graphs that survive in `enumerate_graphs` order.  The first loop graphs
    have two vertices, so max_n < 2 would check nothing and is refused."""
    if max_n < 2:
        raise KontsevichError(f"max_n must be >= 2, got {max_n}")
    pi = half_poisson(c)
    report = LoopReport(max_n)
    for n in range(2, max_n + 1):
        survivors: list[AdmissibleGraph] = []
        for g, orbit in graph_types(n):
            if not has_directed_cycle(g):
                continue
            report.checked += orbit
            if not graph_to_operator(g, pi, n).is_zero():
                survivors.extend(graph_orbit(g))
        survivors.sort(key=lambda g: g.edges)
        report.nonzero.extend(format_graph(g) for g in survivors)
    return report


# -- chains against a linear second argument ------------------------------------------


def assemble_xn_star_y(
    c: StructureConstants,
    n: int,
    order: int,
    x: Polynomial | None = None,
    y: Polynomial | None = None,
) -> EpsSeries:
    """Graph expansion of (x)^n * y for linear x, y.

    With a linear second argument every graph holding a vertex pair aimed at
    it twice dies, aerial in-degree >= 2 dies on the linear structure, loops
    die by triangularity, and a branching tree would need two (X, Y) leaves;
    what survives at eps^m is the m-chain alone, counted symmetry * weight.
    """
    if not c.is_triangular_nilpotent():
        raise KontsevichError(
            "the chain reduction needs strictly increasing brackets"
        )
    d = c.dim
    if d < 2 and (x is None or y is None):
        raise KontsevichError("default x, y need dim >= 2")
    x = Polynomial.variable(d, 1) if x is None else x
    y = Polynomial.variable(d, 2) if y is None else y
    if max((sum(e) for e in y.terms), default=0) > 1:
        raise KontsevichError("second argument must be linear")
    pi = half_poisson(c)
    f = x**n
    total = EpsSeries.from_polynomial(f * y, order)
    for m in range(1, order + 1):
        chain = chain_graph(m)
        w = weight_w_computable(chain).weight
        if not w:
            continue
        count = symmetry_count(chain)
        op = graph_to_operator(chain, pi, order)
        total = total + op.apply(f, y) * (w * count)
    return total


# -- the assembled star product ---------------------------------------------------------


@lru_cache(maxsize=None)
def prime_type_table(order: int) -> tuple[tuple[AdmissibleGraph, Fraction, tuple], ...]:
    """Canonical prime tree types from the Hausdorff series up to eps^order.

    Rows are (canonical graph, summed signed coefficient, contributing words);
    degree-d Lyndon monomials land at eps degree d - 1.
    """
    fl = free_lie(("X", "Y"))
    H = hausdorff_series(order + 1)
    table: dict[AdmissibleGraph, Fraction] = {}
    words: dict[AdmissibleGraph, list] = {}
    for word, coeff in sorted(H.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if len(word) < 2:
            continue
        graph = lie_to_lgraph(fl.bracket_tree(word))
        canon, sign = canonical_form(graph)
        table[canon] = table.get(canon, Fraction(0)) + sign * coeff
        words.setdefault(canon, []).append("".join(word))
    return tuple(
        (graph, omega, tuple(words[graph]))
        for graph, omega in sorted(
            table.items(), key=lambda kv: (kv[0].n, kv[0].edges)
        )
    )


def integral_omega(graph: AdmissibleGraph) -> Fraction | None:
    """The generator coefficient of a prime type from the integral weight
    engine: symmetry * (integral / n!) * (1/2)^n, or None when the engine
    does not cover the type."""
    try:
        w = normalized_weight(graph)
    except WeightError:
        return None
    return symmetry_count(graph) * w.weight * Fraction(1, 2**graph.n)


@dataclass
class AssembledStar:
    """The assembled product.  It holds only `.star`; it stays a wrapper
    because the benchmark workloads read `assemble_linear_star(...).star`."""

    star: StarProduct


def loop_types(c: StructureConstants, order: int) -> list[AdmissibleGraph]:
    """Canonical loop types with up to min(order, 3) vertices, each verified
    to compile to zero on the algebra's halved structure.  The algebra must
    have strictly increasing brackets."""
    if not c.is_triangular_nilpotent():
        raise KontsevichError("assembly needs strictly increasing brackets")
    pi = half_poisson(c)
    types: dict[AdmissibleGraph, None] = {}
    for n in range(2, min(order, 3) + 1):
        for g in enumerate_graphs(n):
            if not has_directed_cycle(g):
                continue
            canon, _ = canonical_form(g)
            if canon in types:
                continue
            if not graph_to_operator(canon, pi, n).is_zero():
                raise KontsevichError(
                    f"loop type {format_graph(canon)} does not vanish on this algebra"
                )
            types[canon] = None
    return list(types)


def assemble_linear_star(c: StructureConstants, order: int) -> AssembledStar:
    """Star product as exp of the prime-type generator, every coefficient
    read off the Hausdorff series.  The algebra passes `loop_types` first."""
    loop_types(c, order)
    pi = linear_poisson(c)
    generator = BiDiffOp.zero(c.dim, order)
    for graph, omega, _ in prime_type_table(order):
        if omega:
            generator = generator + graph_to_operator(graph, pi, order).scale(omega)
    op = generator.exp()
    return AssembledStar(StarProduct("kontsevich", c.dim, order, op.apply, op))
