"""Bidifferential operators with polynomial coefficients, graded by a formal
deformation parameter eps.

A term (m, L, R) -> P encodes eps^m * P(x) * (d^L tensor d^R): apply it to a
pair (f, g) and you get eps^m * P * (d^L f) * (d^R g).  L and R are derivative
multi-indices (one exponent per coordinate).

`symbol_mul` multiplies two operators by multiplying coefficients and adding
multi-indices — derivatives of one factor never act on the coefficients of
the other.  For constant coefficients this is genuine operator composition;
in general it is the product in which the exponentials appearing here are
taken, so `exp` is defined relative to it.

`apply` runs over an application plan built on its first call and kept
beside `terms` (it takes no part in `==` or `repr`): the terms grouped by
left multi-index L with the groups sorted by |L|, and each group's entries
sorted by |R|.  Since d^L f = 0 whenever |L| > deg f, or whenever L exceeds
the componentwise largest exponent of f, a call stops at the first group
with |L| > deg f and skips every L that exceeds f's largest exponents; the
same holds for R against g, with d^R g computed once per call.  Each eps
level is accumulated in one exponent dict, not one Polynomial per term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, itemgetter, le
from typing import Iterable, Mapping

from .poly import Polynomial
from .series import EpsSeries

Multi = tuple[int, ...]
Key = tuple[int, Multi, Multi]

__all__ = ["BiDiffOp", "BiDiffError", "wedge_operator"]


class BiDiffError(ValueError):
    pass


def _add_multi(a: Multi, b: Multi) -> Multi:
    return tuple(x + y for x, y in zip(a, b))


def _max_exponents(p: Polynomial) -> Multi:
    """Componentwise largest exponent of a nonzero polynomial."""
    return tuple(map(max, zip(*p.terms)))


def _accumulate(acc: dict, coeff: dict, df: dict, dg: dict) -> None:
    """acc += coeff * df * dg on exponent -> Fraction dicts; zeros are left
    for the Polynomial constructor to drop."""
    for e2, c2 in df.items():
        for e3, c3 in dg.items():
            e23 = tuple(map(add, e2, e3))
            c23 = c2 * c3
            for e1, c1 in coeff.items():
                key = tuple(map(add, e1, e23))
                acc[key] = acc.get(key, 0) + c1 * c23


class BiDiffOp:
    """eps-graded bidifferential operator; immutable once built."""

    __slots__ = ("dim", "order", "terms", "_plan")

    def __init__(self, dim: int, order: int, terms: Mapping[Key, Polynomial] | None = None):
        if dim < 1 or order < 0:
            raise BiDiffError("need dim >= 1 and order >= 0")
        clean: dict[Key, Polynomial] = {}
        if terms:
            for (m, left, right), poly in terms.items():
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.constant(dim, Fraction(poly))
                if poly.dim != dim:
                    raise BiDiffError("coefficient dimension mismatch")
                if m < 0:
                    raise BiDiffError("negative eps degree")
                if m > order or poly.is_zero():
                    continue
                left, right = tuple(left), tuple(right)
                if len(left) != dim or len(right) != dim:
                    raise BiDiffError("multi-index length must equal dim")
                if any(e < 0 for e in left + right):
                    raise BiDiffError("negative derivative order")
                key = (m, left, right)
                if key in clean:
                    acc = clean[key] + poly
                    if acc.is_zero():
                        del clean[key]
                    else:
                        clean[key] = acc
                else:
                    clean[key] = poly
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, name, value):
        raise AttributeError("BiDiffOp is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int) -> "BiDiffOp":
        return cls(dim, order)

    @classmethod
    def identity(cls, dim: int, order: int) -> "BiDiffOp":
        z = (0,) * dim
        return cls(dim, order, {(0, z, z): Polynomial.one(dim)})

    @classmethod
    def single(
        cls, dim: int, order: int, m: int, left: Multi, right: Multi, coeff: Polynomial | Fraction | int
    ) -> "BiDiffOp":
        return cls(dim, order, {(m, tuple(left), tuple(right)): coeff})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "BiDiffOp"):
        if self.dim != other.dim or self.order != other.order:
            raise BiDiffError("dim/order mismatch")

    def __eq__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return (
            self.dim == other.dim and self.order == other.order and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, poly in other.terms.items():
            acc = terms.get(key)
            acc = poly if acc is None else acc + poly
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return BiDiffOp(self.dim, self.order, terms)

    def __sub__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return self + other.scale(Fraction(-1))

    def scale(self, factor: Fraction | int | Polynomial) -> "BiDiffOp":
        if not isinstance(factor, Polynomial):
            factor = Polynomial.constant(self.dim, Fraction(factor))
        return BiDiffOp(
            self.dim, self.order, {key: poly * factor for key, poly in self.terms.items()}
        )

    def shift(self, k: int) -> "BiDiffOp":
        """Multiply by eps^k (terms pushed past the truncation order drop off)."""
        if k < 0:
            raise BiDiffError("negative shift")
        return BiDiffOp(
            self.dim,
            self.order,
            {(m + k, l, r): poly for (m, l, r), poly in self.terms.items() if m + k <= self.order},
        )

    def min_eps_degree(self) -> int | None:
        return min((m for (m, _, _) in self.terms), default=None)

    def symbol_mul(self, other: "BiDiffOp") -> "BiDiffOp":
        """Coefficients multiply, derivative multi-indices add."""
        self._check(other)
        terms: dict[Key, Polynomial] = {}
        for (m1, l1, r1), p1 in self.terms.items():
            for (m2, l2, r2), p2 in other.terms.items():
                m = m1 + m2
                if m > self.order:
                    continue
                key = (m, _add_multi(l1, l2), _add_multi(r1, r2))
                prod = p1 * p2
                acc = terms.get(key)
                acc = prod if acc is None else acc + prod
                if acc.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        return BiDiffOp(self.dim, self.order, terms)

    def exp(self) -> "BiDiffOp":
        """exp relative to symbol_mul; every term must have eps degree >= 1."""
        low = self.min_eps_degree()
        if low is not None and low < 1:
            raise BiDiffError("exp needs all terms at eps degree >= 1")
        total = BiDiffOp.identity(self.dim, self.order)
        power = BiDiffOp.identity(self.dim, self.order)
        for k in range(1, self.order + 1):
            power = power.symbol_mul(self)
            if power.is_zero():
                break
            total = total + power.scale(Fraction(1, factorial(k)))
        return total

    # -- action on polynomial pairs ---------------------------------------------

    def _apply_plan(self) -> tuple:
        """The terms as (|L|, L, entries) groups sorted by |L|, each group's
        entries (|R|, R, m, coefficient terms) sorted by |R|.  Built on the
        first `apply`; it shares the coefficient dicts with `terms`."""
        plan = self._plan
        if plan is None:
            groups: dict[Multi, list] = {}
            for (m, left, right), poly in self.terms.items():
                groups.setdefault(left, []).append((sum(right), right, m, poly.terms))
            plan = tuple(
                sorted(
                    (
                        (sum(left), left, tuple(sorted(entries, key=itemgetter(0))))
                        for left, entries in groups.items()
                    ),
                    key=itemgetter(0),
                )
            )
            object.__setattr__(self, "_plan", plan)
        return plan

    def apply(self, f: Polynomial, g: Polynomial) -> EpsSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise BiDiffError("argument dimension mismatch")
        if f.is_zero() or g.is_zero():
            return EpsSeries.zero(self.dim, self.order)
        deg_f, deg_g = f.total_degree(), g.total_degree()
        top_f, top_g = _max_exponents(f), _max_exponents(g)
        levels: list[dict] = [{} for _ in range(self.order + 1)]
        right_cache: dict[Multi, dict] = {}
        for left_deg, left, entries in self._apply_plan():
            if left_deg > deg_f:
                break
            if not all(map(le, left, top_f)):
                continue
            df = f.derive_multi(left).terms
            if not df:
                continue
            for right_deg, right, m, coeff in entries:
                if right_deg > deg_g:
                    break
                dg = right_cache.get(right)
                if dg is None:
                    dg = g.derive_multi(right).terms if all(map(le, right, top_g)) else {}
                    right_cache[right] = dg
                if dg:
                    _accumulate(levels[m], coeff, df, dg)
        return EpsSeries(self.dim, self.order, [Polynomial(self.dim, acc) for acc in levels])

    def max_derivative_order(self) -> int:
        return max((max(sum(l), sum(r)) for (_, l, r) in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Key, Polynomial]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        bits = []
        for (m, l, r), poly in self.sorted_terms()[:6]:
            bits.append(f"eps^{m}*({poly.to_text()})*d{l}⊗d{r}")
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"BiDiffOp({' + '.join(bits) or '0'}{more})"


def wedge_operator(
    dim: int,
    order: int,
    coefficients: Mapping[tuple[int, int], Polynomial | Fraction | int],
    eps_degree: int = 1,
    prefactor: Fraction = Fraction(1),
) -> BiDiffOp:
    """sum_{i,j} prefactor * a^{ij} d_i tensor d_j at one eps level.

    `coefficients` maps 1-based (i, j) to a^{ij}; both orientations should be
    supplied if the matrix is meant to be antisymmetric (nothing is filled in).
    """
    terms: dict[Key, Polynomial] = {}
    for (i, j), coeff in coefficients.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise BiDiffError(f"index pair ({i},{j}) out of range")
        if not isinstance(coeff, Polynomial):
            coeff = Polynomial.constant(dim, Fraction(coeff))
        left = tuple(1 if k == i else 0 for k in range(1, dim + 1))
        right = tuple(1 if k == j else 0 for k in range(1, dim + 1))
        key = (eps_degree, left, right)
        add = coeff * prefactor
        acc = terms.get(key)
        terms[key] = add if acc is None else acc + add
    return BiDiffOp(dim, order, terms)
