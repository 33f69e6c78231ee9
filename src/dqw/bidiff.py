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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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


class BiDiffOp:
    """eps-graded bidifferential operator; immutable once built."""

    __slots__ = ("dim", "order", "terms")

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

    def apply(self, f: Polynomial, g: Polynomial) -> EpsSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise BiDiffError("argument dimension mismatch")
        by_left: dict[Multi, list[tuple[int, Multi, Polynomial]]] = {}
        for (m, left, right), poly in self.terms.items():
            by_left.setdefault(left, []).append((m, right, poly))
        levels = [Polynomial.zero(self.dim) for _ in range(self.order + 1)]
        deg_f, deg_g = f.total_degree(), g.total_degree()
        right_cache: dict[Multi, Polynomial] = {}
        for left, entries in by_left.items():
            if sum(left) > deg_f:
                continue
            df = f.derive_multi(left)
            if df.is_zero():
                continue
            for m, right, poly in entries:
                if sum(right) > deg_g:
                    continue
                dg = right_cache.get(right)
                if dg is None:
                    dg = g.derive_multi(right)
                    right_cache[right] = dg
                if dg.is_zero():
                    continue
                levels[m] = levels[m] + poly * df * dg
        return EpsSeries(self.dim, self.order, levels)

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
