"""Iterated-integral weights for the graphs whose feet make them integrable.

The engine evaluates weights by peeling: a vertex with feet (X, t) whose
incoming edges are all folded away multiplies its target's accumulator by the
transform T[g](u) = int_0^1 G(s) ds - G(u), where G is the antiderivative of
g pinned by G(0) = 0.  A base vertex (feet (X, Y)) terminates its component;
its contribution is the ground value int_0^1 G(s) ds of its accumulator.

Iterating T on the constant 1 produces, at step n, the degree-n polynomial
whose value matches the reflected Bernoulli polynomial over n factorial; in
particular the chain with n vertices weighs Bhat_n / n!.

Two conventions are reported side by side: `integral` is the raw iterated
integral of the graph, `weight` divides it by n! (the coefficient the graph
carries in the assembled product).

`normalized_weight` reaches the other integrable graphs through the sign
action: mirroring the grounds costs (-1)^n and flipping a vertex's edge pair
costs -1.  Neither changes the aerial digraph, so neither removes a loop;
they only move the grounds within the pairs, and a w-computable graph has X
first in every pair.  For each mirror choice the flips are therefore
forced: flip exactly the vertices whose second target is X.  Any other flip
set leaves some pair without X in front, so there is at most one candidate
per mirror choice, and `classify` decides whether it integrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    classify,
    decompose_nonloop,
    factorize,
    flip_edges,
    mirror,
)
from .poly import Polynomial

__all__ = [
    "Weight",
    "WeightError",
    "wedge_transform",
    "ground_integral",
    "pn_polynomial",
    "weight_w_computable",
    "iterated_integral_weight",
    "normalized_weight",
    "product_weight",
]


class WeightError(ValueError):
    pass


def _antiderivative(g: Polynomial) -> Polynomial:
    if g.dim != 1:
        raise WeightError("weight integrands live in one variable")
    return Polynomial(
        1, {(k + 1,): coeff / (k + 1) for (k,), coeff in g.terms.items()}
    )


def ground_integral(g: Polynomial) -> Fraction:
    """int_0^1 G(s) ds with G the antiderivative of g, G(0) = 0."""
    total = Fraction(0)
    for (k,), coeff in g.terms.items():
        total += coeff / ((k + 1) * (k + 2))
    return total


def wedge_transform(g: Polynomial) -> Polynomial:
    """T[g](u) = int_0^1 G(s) ds - G(u)."""
    G = _antiderivative(g)
    return Polynomial.constant(1, ground_integral(g)) - G


def pn_polynomial(n: int) -> Polynomial:
    """T iterated n times on the constant 1."""
    if n < 0:
        raise WeightError("n must be >= 0")
    p = Polynomial.one(1)
    for _ in range(n):
        p = wedge_transform(p)
    return p


@dataclass(frozen=True)
class Weight:
    n: int
    integral: Fraction
    weight: Fraction  # integral / n!

    @classmethod
    def of(cls, n: int, integral: Fraction) -> "Weight":
        return cls(n, integral, integral / factorial(n))


def _peel_weight(g: AdmissibleGraph) -> Fraction:
    """Fold every (X, aerial) vertex into its target; multiply base values."""
    acc: dict[int, Polynomial] = {v: Polynomial.one(1) for v in range(1, g.n + 1)}
    bases: list[int] = []
    total = Fraction(1)
    for v, pair in decompose_nonloop(g):
        if pair == (GROUND_X, GROUND_Y):
            bases.append(v)
            total *= ground_integral(acc[v])
            continue
        if pair[0] != GROUND_X or pair[1] < 1:
            raise WeightError(
                f"vertex {v} has feet {pair}; only (X, Y) or (X, aerial) integrate"
            )
        acc[pair[1]] = acc[pair[1]] * wedge_transform(acc[v])
    if not bases and g.n:
        raise WeightError("no base vertex with feet (X, Y)")
    return total


def weight_w_computable(g: AdmissibleGraph) -> Weight:
    """Weight of a graph whose shape is directly integrable (strict)."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    if not classify(g).w_computable:
        raise WeightError("graph is not w-computable; see normalized_weight")
    return Weight.of(g.n, _peel_weight(g))


def iterated_integral_weight(g: AdmissibleGraph) -> Weight:
    """Peel a disjoint union of integrable components in one pass.

    Independent of `product_weight`, which factorizes first and multiplies
    the factor integrals; the two must agree.
    """
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    if classify(g).loop:
        raise WeightError("loops carry no iterated integral here")
    return Weight.of(g.n, _peel_weight(g))


def normalized_weight(g: AdmissibleGraph) -> Weight:
    """Weight via the sign action: the one integrable image per mirror
    choice flips the vertices whose second target is X; the integral
    transforms by the sign."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    for use_mirror in (False, True):
        base, msign = mirror(g) if use_mirror else (g, 1)
        forced = [k for k, pair in enumerate(base.edges, start=1) if pair[1] == GROUND_X]
        candidate, fsign = flip_edges(base, forced)
        if classify(candidate).w_computable:
            integral = _peel_weight(candidate) * msign * fsign
            return Weight.of(g.n, integral)
    raise WeightError("no mirror/flip image of the graph is w-computable")


def product_weight(g: AdmissibleGraph) -> Weight:
    """Multiply the normalized integrals of the aerial components."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    total = Fraction(1)
    for part in factorize(g):
        total *= normalized_weight(part).integral
    return Weight.of(g.n, total)
