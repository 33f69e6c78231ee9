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

`symbol_mul` and `exp` share one product kernel on packed integers.  Each
term (m, L, R) -> P is split into one row per monomial of P, and the row
(m, L, R, x-exponent) becomes one int: the 3 * dim digits of L, R and the
exponent take `width` bits each, with m above them all.  Coefficients become
integer numerators over one common denominator.  A product of two rows is
then one addition of keys and one multiplication of numerators,
out[k1 + k2] += c1 * c2, and the result is unpacked once, through the
`Polynomial` and `BiDiffOp` constructors, into Fraction coefficients.

Why no carry corrupts a kept term: the second operand's keys are sorted, so
a row of the product stops at the first key sum that reaches the limit
(order + 1) << (3 * dim * width).  For `symbol_mul` the width holds the sum
of the two operands' largest digits, so no digit of a product carries.  For
`exp` it holds `order` times the generator's largest digit; every generator
term has m >= 1, so a product with m <= order has at most `order` factors
and none of its digits can carry.  A product with m > order has a key at or
above the limit whether or not a digit carried, because a carry only raises
a key, so it is dropped either way.

`apply` runs over an application plan built on its first call and kept
beside `terms` (it takes no part in `==` or `repr`): the terms indexed by
left multi-index L, then by right multi-index R, sharing the coefficient
dicts with `terms`.  d^L f is zero unless L <= top(f), f's componentwise
largest exponents, and |L| <= deg f, so a call only needs the L in that box.
It looks the box's points up in the index, or, when the box has more points
than the index has keys (a dense or high-degree f), scans the keys through
the same test, so a call visits at most min(box points, keys) keys.  R is
found the same way in each L's entries, against g.  Derivatives are taken
only for keys that hit, in one pass per key on integer numerators over the
argument's common denominator (x^e -> prod e_i! / (e_i - k_i)! x^(e - k)),
with d^R g kept for the rest of the call.  Each eps level accumulates in
one exponent dict and is divided by the two denominators once per
coefficient at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm, perm, prod
from operator import add, le, sub
from typing import Mapping

from .poly import Polynomial
from .series import EpsSeries

Multi = tuple[int, ...]
Key = tuple[int, Multi, Multi]

__all__ = ["BiDiffOp", "BiDiffError", "wedge_operator"]


class BiDiffError(ValueError):
    pass


def _flatten(op: "BiDiffOp") -> tuple[list, int, int]:
    """The terms of op one per coefficient monomial, as (m, digits, numerator)
    with digits = L + R + x-exponent and every numerator over den, the lcm of
    op's coefficient denominators.  Returns (rows, den, largest digit)."""
    den = 1
    for poly in op.terms.values():
        for c in poly.terms.values():
            den = lcm(den, c.denominator)
    rows, top = [], 0
    for (m, left, right), poly in op.terms.items():
        for exps, c in poly.terms.items():
            digits = left + right + exps
            top = max(top, *digits)
            rows.append((m, digits, c.numerator * (den // c.denominator)))
    return rows, den, top


def _pack_keys(rows: list, width: int) -> list[tuple[int, int]]:
    """(key, numerator) pairs: the digits packed width bits each below m."""
    out = []
    for m, digits, num in rows:
        key = m
        for d in digits:
            key = (key << width) | d
        out.append((key, num))
    return out


def _packed_product(left: list, right: list, limit: int) -> dict[int, int]:
    """out[k1 + k2] += c1 * c2 over every pair with k1 + k2 < limit.

    `right` must be sorted by key, so each row stops at the first sum that
    reaches the limit (the module docstring says why that drops no kept
    term and keeps no corrupted one)."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in left:
        for k2, c2 in right:
            key = k1 + k2
            if key >= limit:
                break
            out[key] = get(key, 0) + c1 * c2
    return out


def _packed_exp(dim: int, order: int, rows: list, den: int, width: int) -> "BiDiffOp":
    """sum_{k <= order} G^k / k! for the flattened generator G (all m >= 1).

    The k-th power is kept as integer numerators over den**k; adding it to
    the sum scales it to the common denominator den**order * order!.  The
    width must hold `order` times the largest digit of G.
    """
    gen = sorted(_pack_keys(rows, width))
    limit = (order + 1) << (3 * dim * width)
    common = den**order * factorial(order)
    total = {0: common}
    power = [(0, 1)]
    for k in range(1, order + 1):
        power = [(key, c) for key, c in _packed_product(power, gen, limit).items() if c]
        if not power:
            break
        weight = den ** (order - k) * (factorial(order) // factorial(k))
        for key, c in power:
            total[key] = total.get(key, 0) + c * weight
    return _unpack(dim, order, total, common, width)


class _MultiIndices(dict):
    """Packed multi-index -> tuple of its `dim` digits, decoded on first use."""

    def __init__(self, dim: int, width: int):
        super().__init__()
        self.dim, self.width, self.mask = dim, width, (1 << width) - 1

    def __missing__(self, packed: int) -> Multi:
        bits, digits = packed, []
        for _ in range(self.dim):
            digits.append(bits & self.mask)
            bits >>= self.width
        self[packed] = value = tuple(reversed(digits))
        return value


def _unpack(dim: int, order: int, packed: Mapping[int, int], den: int, width: int) -> "BiDiffOp":
    """The operator whose packed terms are key -> numerator / den."""
    span = dim * width
    mask = (1 << span) - 1
    multi = _MultiIndices(dim, width)
    grouped: dict[Key, dict] = {}
    for key, num in packed.items():
        exps = multi[key & mask]
        key >>= span
        right = multi[key & mask]
        key >>= span
        coeff = grouped.setdefault((key >> span, multi[key & mask], right), {})
        coeff[exps] = Fraction(num, den)
    return BiDiffOp(dim, order, {k: Polynomial(dim, c) for k, c in grouped.items()})


class _Box:
    """The multi-indices K with K <= top componentwise and |K| <= deg, for the
    componentwise largest exponents `top` and the degree `deg` of a nonzero
    polynomial: every other derivative d^K of it is zero."""

    __slots__ = ("top", "deg", "size", "_points")

    def __init__(self, p: Polynomial):
        self.top = tuple(map(max, zip(*p.terms)))
        self.deg = p.total_degree()
        self.size = prod(t + 1 for t in self.top)
        self._points = None

    def points(self) -> list[Multi]:
        """The multi-indices themselves.  Unless deg covers the whole box, a
        prefix is extended only while its sum stays within deg, so no more
        are built than are returned."""
        if self._points is None:
            if self.deg >= sum(self.top):
                points = list(product(*[range(t + 1) for t in self.top]))
            else:
                grown = [((), 0)]
                for t in self.top:
                    grown = [
                        (prefix + (k,), s + k)
                        for prefix, s in grown
                        for k in range(min(t, self.deg - s) + 1)
                    ]
                points = [prefix for prefix, _ in grown]
            self._points = points
        return self._points

    def within(self, index: Mapping) -> list[tuple]:
        """The (key, value) items of index whose key is in the box.  The box
        is looked up point by point unless it has more points than index has
        keys; then the keys are scanned instead."""
        if self.size <= len(index):
            get = index.get
            return [(k, v) for k in self.points() if (v := get(k)) is not None]
        top, deg = self.top, self.deg
        return [(k, v) for k, v in index.items() if sum(k) <= deg and all(map(le, k, top))]


def _numerators(p: Polynomial) -> tuple[int, list]:
    """(den, rows): p's terms as (exponents, integer numerator) over den, the
    lcm of p's coefficient denominators."""
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()]


def _derivative(rows: list, orders: Multi) -> dict[Multi, int]:
    """d^orders of the polynomial with these (exponents, numerator) rows, in
    one pass: x^e goes to prod_i e_i! / (e_i - k_i)! * x^(e - k), or to zero
    when some e_i < k_i.  Distinct e give distinct e - k, so nothing adds."""
    out = {}
    for exps, num in rows:
        for e, k in zip(exps, orders):
            if k:
                if e < k:
                    break
                num *= perm(e, k)
        else:
            out[tuple(map(sub, exps, orders))] = num
    return out


def _accumulate(acc: dict, coeff: dict, df: dict, dg: dict) -> None:
    """acc += coeff * df * dg on exponent -> coefficient dicts; zeros are
    left for the Polynomial constructor to drop."""
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
            terms[key] = poly if acc is None else acc + poly
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
        """Coefficients multiply, derivative multi-indices add.

        Runs on the packed kernel: each digit of a product is at most the sum
        of the two operands' largest digits, so that sum sets the width."""
        self._check(other)
        left, left_den, left_top = _flatten(self)
        right, right_den, right_top = _flatten(other)
        width = (left_top + right_top).bit_length()
        product = _packed_product(
            _pack_keys(left, width),
            sorted(_pack_keys(right, width)),
            (self.order + 1) << (3 * self.dim * width),
        )
        return _unpack(self.dim, self.order, product, left_den * right_den, width)

    def exp(self) -> "BiDiffOp":
        """exp relative to symbol_mul: the sum of G^k / k! for k <= order.

        Every term must have eps degree >= 1, so G^k starts at eps^k.  Runs on
        the packed kernel (`_packed_exp`), with the width taken from order
        times the largest digit of G.
        """
        low = self.min_eps_degree()
        if low is not None and low < 1:
            raise BiDiffError("exp needs all terms at eps degree >= 1")
        rows, den, top = _flatten(self)
        return _packed_exp(self.dim, self.order, rows, den, (self.order * top).bit_length())

    # -- action on polynomial pairs ---------------------------------------------

    def _apply_plan(self) -> dict:
        """The terms indexed as L -> R -> [(m, coefficient terms)].  Built on
        the first `apply`; it shares the coefficient dicts with `terms`."""
        plan = self._plan
        if plan is None:
            plan = {}
            for (m, left, right), poly in self.terms.items():
                plan.setdefault(left, {}).setdefault(right, []).append((m, poly.terms))
            object.__setattr__(self, "_plan", plan)
        return plan

    def apply(self, f: Polynomial, g: Polynomial) -> EpsSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise BiDiffError("argument dimension mismatch")
        if f.is_zero() or g.is_zero():
            return EpsSeries.zero(self.dim, self.order)
        f_den, f_rows = _numerators(f)
        g_den, g_rows = _numerators(g)
        g_box = _Box(g)
        levels: dict[int, dict] = {}  # only the eps levels this pair reaches
        right_cache: dict[Multi, dict] = {}
        for left, by_right in _Box(f).within(self._apply_plan()):
            df = None
            for right, entries in g_box.within(by_right):
                dg = right_cache.get(right)
                if dg is None:
                    dg = right_cache[right] = _derivative(g_rows, right)
                if not dg:
                    continue
                if df is None:
                    df = _derivative(f_rows, left)
                if not df:
                    break
                for m, coeff in entries:
                    acc = levels.get(m)
                    if acc is None:
                        acc = levels[m] = {}
                    _accumulate(acc, coeff, df, dg)
        den = f_den * g_den
        coeffs = [Polynomial.zero(self.dim)] * (self.order + 1)
        for m, acc in levels.items():
            if den != 1:
                acc = {e: c / den for e, c in acc.items()}
            coeffs[m] = Polynomial(self.dim, acc)
        return EpsSeries(self.dim, self.order, coeffs)

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
    prefactor: Fraction = Fraction(1),
) -> BiDiffOp:
    """sum_{i,j} prefactor * a^{ij} d_i tensor d_j at eps level 1.

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
        key = (1, left, right)
        add = coeff * prefactor
        acc = terms.get(key)
        terms[key] = add if acc is None else acc + add
    return BiDiffOp(dim, order, terms)
