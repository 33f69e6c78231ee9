"""Bernoulli numbers and polynomials, in the standard and sign-modified conventions.

Standard numbers follow the convention B_1 = -1/2, defined through the
binomial recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1 with B_0 = 1.
The modified sequence flips the sign of the odd entries: Bhat_k = (-1)^k B_k,
so Bhat_1 = +1/2 and everything else agrees (odd k > 1 vanish).

Polynomials: B_m(x) = sum_k C(m, k) B_{m-k} x^k, and the same shape with
Bhat coefficients for the modified variant.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, mul

from .poly import Polynomial

__all__ = ["BernoulliError", "bernoulli_number", "bernoulli_polynomial"]

_VARIANTS = ("standard", "modified")


class BernoulliError(ValueError):
    """A negative index or degree, or an unknown variant."""


# B_0, B_1, ... as far as any caller has asked, extended in place, so that
# B_0..B_N costs one pass of the recurrence rather than one per index.
_STANDARD: list[Fraction] = [Fraction(1)]
# Where the last extension stopped: (the table, den, nums, pascal), with
# B_j = nums[j] / den for every entry and pascal[j] = C(len(table), j).  An
# extension resumes from it when it still describes _STANDARD, and otherwise
# rebuilds it from the table's entries.
_RESUME: tuple[list[Fraction], int, list[int], list[int]] | None = None


def _standard(k: int) -> Fraction:
    """B_k from sum_{j=0}^{m} C(m+1, j) B_j = 0, solved for B_m at each m
    past the table: with the B_j as integer numerators over one denominator
    and C(m + 1, j) read off one Pascal row, extended once per m, each B_m
    is one integer sum and one Fraction."""
    global _RESUME
    values = _STANDARD
    start = len(values)
    if k < start:
        return values[k]
    if _RESUME and _RESUME[0] is values and len(_RESUME[2]) == start:
        _, den, nums, pascal = _RESUME
    else:
        den = lcm(*(b.denominator for b in values))
        nums = [b.numerator * (den // b.denominator) for b in values]
        pascal = [comb(start, j) for j in range(start + 1)]
    for m in range(start, k + 1):
        pascal = [1, *map(add, pascal, pascal[1:]), 1]  # C(m + 1, j)
        value = Fraction(-sum(map(mul, pascal, nums)), (m + 1) * den)
        values.append(value)
        if den % value.denominator:
            grow = lcm(den, value.denominator) // den
            nums = [a * grow for a in nums]
            den *= grow
        nums.append(value.numerator * (den // value.denominator))
    _RESUME = (values, den, nums, pascal)
    return values[k]


def bernoulli_number(k: int, variant: str = "standard") -> Fraction:
    if k < 0:
        raise BernoulliError("index must be >= 0")
    if variant not in _VARIANTS:
        raise BernoulliError(f"variant must be one of {_VARIANTS}")
    value = _standard(k)
    if variant == "modified" and k % 2 == 1:
        value = -value
    return value


def bernoulli_polynomial(m: int, variant: str = "standard") -> Polynomial:
    """Degree-m Bernoulli polynomial in one variable (x1)."""
    if m < 0:
        raise BernoulliError("degree must be >= 0")
    terms = {}
    for k in range(m + 1):
        coeff = comb(m, k) * bernoulli_number(m - k, variant)
        if coeff:
            terms[(k,)] = coeff
    return Polynomial(1, terms)
