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
convolution, and each base value is a single Fraction.  T exists only there:
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
comes from the peel itself: `decompose_nonloop` reads its heights off one
pass over the aerial edges, and that pass refuses a loop.  So a call looks
at the graph's edges once for its feet and once for its peel.  In
`normalized_weight` the first candidate with integrable feet settles the
call, because a loop in it is a loop in every image.
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


def _ground(nums: list[int], den: int) -> Fraction:
    """int_0^1 G(s) ds with G the antiderivative of the accumulator."""
    scale = lcm(*range(1, len(nums) + 2))
    return Fraction(_ground_sum(nums, scale), den * scale)


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
    return _ground(*_from_polynomial(g))


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
        return cls(n, integral, integral / factorial(n))


def _peel_weight(g: AdmissibleGraph, loop_error: str) -> Fraction:
    """Fold every (X, aerial) vertex into its target; multiply base values.
    A loop graph raises `WeightError(loop_error)`.  A graph without loops
    has a sink, whose pair holds both grounds, so a graph that passes the
    feet check has a base vertex."""
    try:
        peel = decompose_nonloop(g)
    except GraphError:
        raise WeightError(loop_error) from None
    acc: dict[int, _Acc] = {}
    total = Fraction(1)
    for v, pair in peel:
        mine = acc.pop(v, _ONE)
        if pair == (GROUND_X, GROUND_Y):
            total *= _ground(*mine)
            continue
        if pair[0] != GROUND_X or pair[1] < 1:
            raise WeightError(
                f"vertex {v} has feet {pair}; only (X, Y) or (X, aerial) integrate"
            )
        folded = _transform(*mine)
        target = pair[1]
        acc[target] = _times(acc[target], folded) if target in acc else folded
    return total


_NOT_W_COMPUTABLE = "graph is not w-computable; see normalized_weight"
_NO_IMAGE = "no mirror/flip image of the graph is w-computable"


def weight_w_computable(g: AdmissibleGraph) -> Weight:
    """Weight of a graph whose shape is directly integrable (strict)."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    if not _w_feet(g):
        raise WeightError(_NOT_W_COMPUTABLE)
    return Weight.of(g.n, _peel_weight(g, _NOT_W_COMPUTABLE))


def iterated_integral_weight(g: AdmissibleGraph) -> Weight:
    """Peel a disjoint union of integrable components in one pass.

    Independent of `product_weight`, which factorizes first and multiplies
    the factor integrals; the two must agree.  It is kept as that deliberate
    oracle (the C10 check) and has no caller in the library.
    """
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    return Weight.of(g.n, _peel_weight(g, "loops carry no iterated integral here"))


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
        if _w_feet(candidate):
            integral = _peel_weight(candidate, _NO_IMAGE) * msign * fsign
            return Weight.of(g.n, integral)
    raise WeightError(_NO_IMAGE)


def product_weight(g: AdmissibleGraph) -> Weight:
    """Multiply the normalized integrals of the aerial components."""
    if g.n == 0:
        return Weight.of(0, Fraction(1))
    total = Fraction(1)
    for part in factorize(g):
        total *= normalized_weight(part).integral
    return Weight.of(g.n, total)
