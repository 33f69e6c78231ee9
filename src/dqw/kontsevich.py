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
the sorted multiset of colors of its incoming edges.  A vertex iterates only
the entries live under the derivatives already pending on it; an edge into
an earlier vertex extends that vertex's I by one table lookup, and an edge
into a later vertex kills the branch at once when no entry is live under the
grown pending multiset — on a linear structure a second incoming derivative
ends the branch immediately.  Polynomials are multiplied only at a leaf.

Two exact steps run before and around the search.  A vertex with more
incoming edges than the structure's largest entry degree p carries a
derivative of order above p, so such a graph is zero before any search (on
a linear structure every aerial in-degree >= 2, on a constant one every
aerial edge).  Otherwise the graph is split into its aerial components
(`factorize`), and each component is searched alone: the colorings of
different components are independent, so the sum over them factorises.
The first component that compiles to zero ends the call; otherwise the
components' tables combine into one operator, (L1, R1) -> P1 and
(L2, R2) -> P2 giving (L1 + L2, R1 + R2) -> P1 * P2.

For a linear structure with strictly increasing brackets the compilation
sorts every graph into three bins: graphs with an aerial in-degree >= 2
vanish by the derivative count, graphs with a directed aerial cycle vanish
because every cyclic contraction of the structure constants is a trace of
strictly triangular matrices, and the rest — disjoint unions of rooted
binary trees — are exactly the graphs the symmetrized expansion generates.

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
from operator import add

from .bidiff import BiDiffOp
from .freelie import free_lie, hausdorff_series, lie_to_lgraph
from .graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    canonical_form,
    chain_graph,
    classify,
    enumerate_graphs,
    factorize,
    format_graph,
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
    "coverage_report",
    "CoverageReport",
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


def _bump(multi: tuple, idx: int) -> tuple:
    """The multi-index with its idx-th (1-based) exponent raised by one."""
    return multi[: idx - 1] + (multi[idx - 1] + 1,) + multi[idx:]


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
    table = None
    for component in factorize(g):
        factor = _coloring_table(component.edges, pi)
        if not factor:
            return BiDiffOp.zero(d, order)
        table = factor if table is None else _table_product(table, factor)
    return BiDiffOp(d, order, {(n, left, right): p for (left, right), p in table.items()})


def _coloring_table(edges: tuple, pi: PoissonStructure) -> dict:
    """{(L, R): coefficient} of the colorings of one aerial component, its
    vertices labelled 1..len(edges); the zero coefficients are dropped."""
    n = len(edges)
    live = pi.live_derivatives
    terms: dict = {}

    def color(v: int, factors: list, pending: tuple, left: tuple, right: tuple):
        # factors[k - 1] = (i, j, I): vertex k carries d^I alpha^{ij}
        if v > n:
            total = None
            for i, j, orders in factors:
                poly = live(orders)[i, j]
                total = poly if total is None else total * poly
            key = (left, right)
            acc = terms.get(key)
            terms[key] = total if acc is None else acc + total
            return
        orders = pending[v - 1]
        for i, j in live(orders):
            new_factors = factors + [(i, j, orders)]
            new_pending, new_left, new_right = pending, left, right
            for target, idx in zip(edges[v - 1], (i, j)):
                if target == GROUND_X:
                    new_left = _bump(new_left, idx)
                elif target == GROUND_Y:
                    new_right = _bump(new_right, idx)
                elif target < v:
                    ti, tj, t_orders = new_factors[target - 1]
                    t_orders = tuple(sorted(t_orders + (idx,)))
                    if (ti, tj) not in live(t_orders):
                        break
                    new_factors[target - 1] = (ti, tj, t_orders)
                else:
                    t_orders = tuple(sorted(new_pending[target - 1] + (idx,)))
                    if not live(t_orders):
                        break
                    new_pending = (
                        new_pending[: target - 1] + (t_orders,) + new_pending[target:]
                    )
            else:
                color(v + 1, new_factors, new_pending, new_left, new_right)

    zero = (0,) * pi.dim
    color(1, [], ((),) * n, zero, zero)
    return {key: p for key, p in terms.items() if p.terms}


def _table_product(a: dict, b: dict) -> dict:
    """The coloring table of two components side by side: derivative
    multi-indices add and coefficients multiply."""
    out: dict = {}
    for (l1, r1), p1 in a.items():
        for (l2, r2), p2 in b.items():
            key = (tuple(map(add, l1, l2)), tuple(map(add, r1, r2)))
            p = p1 * p2
            acc = out.get(key)
            out[key] = p if acc is None else acc + p
    return out


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
    """Compile every loop graph with up to max_n vertices against the halved
    linear structure and record the ones that survive.  The first loop graphs
    have two vertices, so max_n < 2 would check nothing and is refused."""
    if max_n < 2:
        raise KontsevichError(f"max_n must be >= 2, got {max_n}")
    pi = half_poisson(c)
    report = LoopReport(max_n)
    for n in range(2, max_n + 1):
        for g in enumerate_graphs(n):
            if not has_directed_cycle(g):
                continue
            report.checked += 1
            if not graph_to_operator(g, pi, n).is_zero():
                report.nonzero.append(format_graph(g))
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


# -- the classification actually exhausts the graphs -------------------------------------


@dataclass
class CoverageReport:
    n: int
    total: int = 0
    sym_admissible: int = 0
    loop: int = 0
    high_in_degree: int = 0
    loops_vanish: bool = True
    high_in_degree_vanishes: bool = True

    @property
    def consistent(self) -> bool:
        return (
            self.total == self.sym_admissible + self.loop + self.high_in_degree
            and self.loops_vanish
            and self.high_in_degree_vanishes
        )

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "check": "coverage",
            "n": self.n,
            "total": self.total,
            "sym_admissible": self.sym_admissible,
            "loop": self.loop,
            "high_in_degree": self.high_in_degree,
            "loops_vanish": self.loops_vanish,
            "high_in_degree_vanishes": self.high_in_degree_vanishes,
            "consistent": self.consistent,
        }


def coverage_report(c: StructureConstants, n: int) -> CoverageReport:
    """Sort all graphs with n aerial vertices into the three bins and verify
    that the two discarded bins compile to zero on the algebra."""
    pi = half_poisson(c)
    report = CoverageReport(n)
    for g in enumerate_graphs(n):
        report.total += 1
        cls = classify(g)
        if cls.sym_admissible:
            report.sym_admissible += 1
            continue
        if cls.loop:
            report.loop += 1
            if not graph_to_operator(g, pi, n).is_zero():
                report.loops_vanish = False
            continue
        report.high_in_degree += 1
        if not graph_to_operator(g, pi, n).is_zero():
            report.high_in_degree_vanishes = False
    return report
