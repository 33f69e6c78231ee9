"""Iterated-integral weights for the graphs whose feet make them integrable.

The engine evaluates weights by peeling: a vertex with feet (X, t) whose
incoming edges are all folded away multiplies its target's accumulator by the
transform T[g](u) = int_0^1 G(s) ds - G(u), where G is the antiderivative of
g pinned by G(0) = 0.  A base vertex (feet (X, Y)) terminates its component;
its contribution is the ground value int_0^1 G(s) ds of its accumulator.

The peel runs on one integer kernel.  An accumulator in u is a list of int
numerators over one int denominator, divided by their gcd after every
update; without that reduction the denominators grow as products of
lcm(1..k) along a chain.  T and the ground value are each one pass over the
list, scaled by lcm(1..k + 2) for a degree-k accumulator, which every
(j + 1)(j + 2) with j <= k divides.  A product of accumulators is one int
convolution.  The base values multiply into one int numerator and one int
denominator, which `normalized_weight` and `product_weight` carry through
their factors, so each public call builds one Fraction.  T exists only there:
`wedge_transform`, `ground_integral` and `pn_polynomial` convert a
`Polynomial` to the kernel and back.

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
per mirror choice.

None of the entry points runs the full `classify`.  The feet shape is one
predicate, the one `classify` reads for `w_computable`, and the loop verdict
comes from the peel itself.  With integrable feet every vertex points at
one aerial vertex at most, so the peel counts each vertex's pending aerial
in-edges and folds a vertex once its count reaches zero (Kahn's order); a
vertex that is never folded lies on a loop.  So a call makes a few linear
passes over the graph's edges and runs no search.  Only a graph whose feet do
not integrate is walked in `decompose_nonloop`'s height order, to name its
error as the peel always has: the loop first, then the first vertex with
other feet.  In `normalized_weight` the first candidate with integrable
feet settles the call, because a loop in it is a loop in every image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from .graphs import (
    GROUND_X,
    GROUND_Y,
    AdmissibleGraph,
    GraphError,
    _w_feet,
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


# An accumulator in u is (numerators, denominator): the polynomial
# sum_k numerators[k] / denominator * u^k, kept reduced (gcd 1, positive
# denominator, no trailing zero numerator).  The zero polynomial is ([], 1).
_Acc = tuple[list[int], int]
_ONE: _Acc = ([1], 1)


def _reduced(nums: list[int], den: int) -> _Acc:
    while nums and not nums[-1]:
        nums.pop()
    common = gcd(*nums, den)
    if common > 1:
        nums = [a // common for a in nums]
        den //= common
    return nums, den


def _ground_sum(nums: list[int], scale: int) -> int:
    """scale * sum_k a_k / ((k + 1)(k + 2)), the numerator of int_0^1 G(s) ds
    over scale * denominator; scale = lcm(1..len(nums) + 1), which every
    (k + 1)(k + 2) divides."""
    return sum(a * (scale // ((k + 1) * (k + 2))) for k, a in enumerate(nums))


def _ground_parts(nums: list[int], den: int) -> tuple[int, int]:
    """int_0^1 G(s) ds with G the antiderivative of the accumulator, as
    (numerator, denominator), not reduced."""
    scale = lcm(*range(1, len(nums) + 2))
    return _ground_sum(nums, scale), den * scale


def _transform(nums: list[int], den: int) -> _Acc:
    """T[g](u) = int_0^1 G(s) ds - G(u), with G(u) = sum_k a_k u^(k+1) / (k + 1)."""
    scale = lcm(*range(1, len(nums) + 2))
    out = [_ground_sum(nums, scale)]
    out += [-a * (scale // (k + 1)) for k, a in enumerate(nums)]
    return _reduced(out, den * scale)


def _times(left: _Acc, right: _Acc) -> _Acc:
    (lnums, lden), (rnums, rden) = left, right
    if not lnums or not rnums:
        return [], 1
    out = [0] * (len(lnums) + len(rnums) - 1)
    for i, a in enumerate(lnums):
        if a:
            for j, b in enumerate(rnums):
                out[i + j] += a * b
    return _reduced(out, lden * rden)


def _from_polynomial(g: Polynomial) -> _Acc:
    if g.dim != 1:
        raise WeightError("weight integrands live in one variable")
    den = lcm(*(c.denominator for c in g.terms.values()))
    nums = [0] * (1 + max((k for (k,) in g.terms), default=-1))
    for (k,), coeff in g.terms.items():
        nums[k] = coeff.numerator * (den // coeff.denominator)
    return nums, den


def _to_polynomial(acc: _Acc) -> Polynomial:
    nums, den = acc
    return Polynomial(1, {(k,): Fraction(a, den) for k, a in enumerate(nums) if a})


def ground_integral(g: Polynomial) -> Fraction:
    """int_0^1 G(s) ds with G the antiderivative of g, G(0) = 0."""
    return Fraction(*_ground_parts(*_from_polynomial(g)))


def wedge_transform(g: Polynomial) -> Polynomial:
    """T[g](u) = int_0^1 G(s) ds - G(u)."""
    return _to_polynomial(_transform(*_from_polynomial(g)))


def pn_polynomial(n: int) -> Polynomial:
    """T iterated n times on the constant 1."""
    if n < 0:
        raise WeightError("n must be >= 0")
    acc = _ONE
    for _ in range(n):
        acc = _transform(*acc)
    return _to_polynomial(acc)


@dataclass(frozen=True)
class Weight:
    n: int
    integral: Fraction
    weight: Fraction  # integral / n!

    @classmethod
    def of(cls, n: int, integral: Fraction) -> "Weight":
        weight = Fraction(integral.numerator, integral.denominator * factorial(n))
        return cls(n, integral, weight)


def _integrable(pair: tuple[int, int]) -> bool:
    """Whether a vertex with these feet folds: (X, Y) or (X, aerial)."""
    return pair[0] == GROUND_X and (pair[1] > 0 or pair[1] == GROUND_Y)


def _fold_order(edges: tuple[tuple[int, int], ...]) -> list[int]:
    """Kahn's order of a graph whose every pair is integrable: a vertex comes
    after every vertex that points at it.  Each vertex points at one vertex
    at most, so a loop has no edge out of it, and its vertices, which never
    lose their last pending in-edge, are the ones missing from the order."""
    n = len(edges)
    pending = [0] * (n + 1)  # in-edges from the vertices not yet in the order
    for _, t in edges:
        if t > 0:
            pending[t] += 1
    stack = [v for v in range(1, n + 1) if not pending[v]]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        t = edges[v - 1][1]
        if t > 0:
            pending[t] -= 1
            if not pending[t]:
                stack.append(t)
    return order


def _refusal(g: AdmissibleGraph, loop_error: str) -> WeightError:
    """The error for a graph with feet that do not integrate: a loop first,
    then the first such vertex in `decompose_nonloop`'s height order."""
    try:
        peel = decompose_nonloop(g)
    except GraphError:
        return WeightError(loop_error)
    v, pair = next((v, pair) for v, pair in peel if not _integrable(pair))
    return WeightError(f"vertex {v} has feet {pair}; only (X, Y) or (X, aerial) integrate")


def _peel_weight(g: AdmissibleGraph, loop_error: str) -> tuple[int, int]:
    """Fold every (X, aerial) vertex into its target once its last source is
    folded; multiply the base values.  The integral comes back as (numerator,
    denominator), not reduced.  A loop graph raises `WeightError(loop_error)`.
    A graph without loops has a sink, whose pair holds both grounds, so a
    graph that passes the feet check has a base vertex."""
    edges = g.edges
    if not all(map(_integrable, edges)):
        raise _refusal(g, loop_error)
    order = _fold_order(edges)
    if len(order) < len(edges):
        raise WeightError(loop_error)
    acc: dict[int, _Acc] = {}
    num = den = 1
    for v in order:
        mine = acc.pop(v, _ONE)
        target = edges[v - 1][1]
        if target == GROUND_Y:
            top, bottom = _ground_parts(*mine)
            num *= top
            den *= bottom
            continue
        folded = _transform(*mine)
        acc[target] = _times(acc[target], folded) if target in acc else folded
    if acc:  # a vertex folded before one of its sources
        raise WeightError(f"internal: accumulators {sorted(acc)} were never folded")
    return num, den


_NOT_W_COMPUTABLE = "graph is not w-computable; see normalized_weight"
_NO_IMAGE = "no mirror/flip image of the graph is w-computable"


def weight_w_computable(g: AdmissibleGraph) -> Weight:
    """Weight of a graph whose shape is directly integrable (strict)."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    if not _w_feet(g):
        raise WeightError(_NOT_W_COMPUTABLE)
    return Weight.of(g.n, Fraction(*_peel_weight(g, _NOT_W_COMPUTABLE)))


def iterated_integral_weight(g: AdmissibleGraph) -> Weight:
    """Peel a disjoint union of integrable components in one pass.

    Independent of `product_weight`, which factorizes first and multiplies
    the factor integrals; the two must agree.  It is kept as that deliberate
    oracle (the C10 check) and has no caller in the library.
    """
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    integral = Fraction(*_peel_weight(g, "loops carry no iterated integral here"))
    return Weight.of(g.n, integral)


def _normalized(g: AdmissibleGraph) -> tuple[int, int]:
    """The signed integral of g's integrable image, as (numerator,
    denominator): per mirror choice, the one candidate flips the vertices
    whose second target is X."""
    for use_mirror in (False, True):
        base, sign = mirror(g) if use_mirror else (g, 1)
        forced = [k for k, pair in enumerate(base.edges, start=1) if pair[1] == GROUND_X]
        if forced:
            base, fsign = flip_edges(base, forced)
            sign *= fsign
        if _w_feet(base):
            num, den = _peel_weight(base, _NO_IMAGE)
            return sign * num, den
    raise WeightError(_NO_IMAGE)


def normalized_weight(g: AdmissibleGraph) -> Weight:
    """Weight via the sign action: the one integrable image per mirror
    choice flips the vertices whose second target is X; the integral
    transforms by the sign."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    return Weight.of(g.n, Fraction(*_normalized(g)))


def product_weight(g: AdmissibleGraph) -> Weight:
    """Multiply the normalized integrals of the aerial components."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    num = den = 1
    for part in factorize(g):
        top, bottom = _normalized(part)
        num *= top
        den *= bottom
    return Weight.of(g.n, Fraction(num, den))
