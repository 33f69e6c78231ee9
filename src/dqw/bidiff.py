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

Packed keys.  Every kernel below, and the colouring search in
`kontsevich`, packs multi-indices into ints in one layout.  A key is m above
any number of fields of `dim` digits, each digit `width` bits, coordinate 1
highest in a field and the first field highest: m|L|R|e for a row of `exp`
and `symbol_mul` (e the exponent of one coefficient monomial), m|e for a
row of the application plan, and L|R, with m = 0, for a coloring.  `_pack`
builds a key and `_MultiIndices.split` reads it back.  The width is the
least whole number of bytes, at least MIN_PLAN_WIDTH, whose digit cap
2^(width - 1) - 1 holds `need`, the largest digit the kernel can produce;
the top bit of every digit is a guard bit that a packed digit leaves clear.

Why nothing carries: a digit of a sum of keys is the sum of the added
digits, so when that sum is at most the cap no digit carries into its
neighbour or into a guard bit, and m, above every digit, reads back intact.
Each kernel takes as `need` a bound on its output digits:
  - `symbol_mul`: the sum of the two operands' largest digits.
  - `exp`: `order` times the generator's largest digit.  Every generator
    term has m >= 1, so a product with m <= order has at most `order`
    factors.  A product with m > order has a key at or above the limit
    (order + 1) << (3 * dim * width) whether or not a digit carried,
    because a carry only raises a key, so it is dropped either way.
  - `apply`: top + max(f) + max(g), where top is the plan's largest digit
    over every L, R and coefficient monomial and max(f), max(g) are the
    arguments' largest exponents.  An output digit is a coefficient digit
    plus (f's digit - l) plus (g's digit - r).
  - the colouring: the component size, since a digit counts the edges into
    one ground, at most one per vertex.
Only `apply` reads the guard bits; for the others they are slack.

`symbol_mul` and `exp` share one product kernel.  Each term (m, L, R) -> P
is split into one row per monomial of P, packed m|L|R|e, and coefficients
become integer numerators over one common denominator.  A product of two
rows is then one addition of keys and one multiplication of numerators,
out[k1 + k2] += c1 * c2, and the result is unpacked once, through the
`Polynomial` and `BiDiffOp` constructors, into Fraction coefficients.  The
second operand's keys are sorted, so a row of the product stops at the
first key sum that reaches the limit.

`apply` runs on one application plan per operator, built from `terms` on
the first call and kept in the private `_plan` slot (it takes no part in
`==` or `repr`).  Each distinct multi-index is packed once, and a
coefficient monomial x^e at eps^m becomes the row key m|e, with an integer
numerator over the operator's common denominator.  The plan maps packed L
to (L, |L|, L's nonzero digits, entries), the entries sorted by |R|, each
one (|R|, packed R, R's nonzero digits, flat rows key, numerator, key,
numerator, ...).  A call whose arguments need a wider plan rebuilds it and
replaces it, so an operator keeps one plan, which never narrows.

d^L f is zero unless L <= top(f), f's componentwise largest exponents, and
|L| <= deg f.  A call looks the points of that box up among the L keys, or
scans the keys when the box has more points than the plan has L keys, so it
visits at most min(box points, keys) keys.  For each L it finds, it reads
the entries until |R| > deg g, and tests R <= top(g) with one masked
subtraction: in (top(g) | guard) - R, a digit with r <= t leaves guard +
(t - r) and one with r > t leaves guard - (r - t), below the guard bit but
above zero because r < guard, so no digit borrows from its neighbour and
every guard bit survives exactly when R <= top(g).  The same subtraction on
an argument row, (e | guard) - L, tells whether x^e survives d^L and, with
the guard bits cleared, gives e - L; the numerator takes the falling
factorials e_i! / (e_i - l_i)! over L's nonzero digits.  d^R g is kept for
the rest of the call.  The hits accumulate as out[k1 + k2 + k3] += c1 * c2
* c3 on ints, and each output key is decoded once, into its eps level and
exponent tuple, with one Fraction over the three denominators.  Levels
that no term reaches share one zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, perm, prod
from operator import itemgetter
from typing import Callable, Mapping

from .poly import Polynomial
from .series import EpsSeries

Multi = tuple[int, ...]
Key = tuple[int, Multi, Multi]

__all__ = ["BiDiffOp", "BiDiffError", "wedge_operator"]

# The least bits per packed digit: seven for the digit and one guard bit,
# enough for every operator and argument the checks build.
MIN_PLAN_WIDTH = 8


class BiDiffError(ValueError):
    pass


def _width(need: int) -> int:
    """Bits per packed digit for digits up to `need`: whole bytes, at least
    MIN_PLAN_WIDTH, with one guard bit above the digit."""
    return max(MIN_PLAN_WIDTH, -(-(need.bit_length() + 1) // 8) * 8)


def _pack(digits: Multi, width: int, m: int = 0) -> int:
    """m above the digits packed `width` bits each, the first digit highest."""
    if width == 8:
        return (m << 8 * len(digits)) | int.from_bytes(bytes(digits), "big")
    key = m
    for d in digits:
        key = (key << width) | d
    return key


class _MultiIndices(dict):
    """Packed field of `dim` digits -> tuple of its digits, decoded on first
    use; `split` reads a whole key."""

    def __init__(self, dim: int, width: int):
        super().__init__()
        self.width, self.span = width, dim * width
        self.mask = (1 << self.span) - 1

    def __missing__(self, packed: int) -> Multi:
        raw, step = packed.to_bytes(self.span // 8, "big"), self.width // 8
        if step == 1:
            self[packed] = value = tuple(raw)
        else:
            self[packed] = value = tuple(
                int.from_bytes(raw[i : i + step], "big") for i in range(0, len(raw), step)
            )
        return value

    def split(self, key: int, fields: int) -> list:
        """[m, field 1, ..., field `fields`] of a packed key."""
        mask, span = self.mask, self.span
        out = []
        for _ in range(fields):
            out.append(self[key & mask])
            key >>= span
        out.append(key)
        out.reverse()
        return out


def pair_keys(dim: int, need: int) -> tuple[list[int], list[int], Callable[[int], tuple]]:
    """The packed (L, R) keys, m = 0, for digits up to `need`: (left, right,
    decode), where left[i] and right[i] add one to coordinate i of L or of R
    (index 0 unused) and decode(key) gives (L, R)."""
    width = _width(need)
    units = [1 << (width * k) for k in reversed(range(2 * dim))]  # L_1 highest, R_dim lowest
    split = _MultiIndices(dim, width).split
    return [0, *units[:dim]], [0, *units[dim:]], lambda key: tuple(split(key, 2)[1:])


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


def _packed_mul(dim: int, order: int, left: list, right: list, den: int, width: int) -> "BiDiffOp":
    """The symbol product of two flattened operators, numerators over den.
    The width must hold the sum of their largest digits."""
    product = _packed_product(
        [(_pack(digits, width, m), c) for m, digits, c in left],
        sorted((_pack(digits, width, m), c) for m, digits, c in right),
        (order + 1) << (3 * dim * width),
    )
    return _unpack(dim, order, product, den, width)


def _packed_exp(dim: int, order: int, rows: list, den: int, width: int) -> "BiDiffOp":
    """sum_{k <= order} G^k / k! for the flattened generator G (all m >= 1).

    The k-th power is kept as integer numerators over den**k; adding it to
    the sum scales it to the common denominator den**order * order!.  The
    width must hold `order` times the largest digit of G.
    """
    gen = sorted((_pack(digits, width, m), c) for m, digits, c in rows)
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


def _unpack(dim: int, order: int, packed: Mapping[int, int], den: int, width: int) -> "BiDiffOp":
    """The operator whose packed m|L|R|e terms are key -> numerator / den."""
    split = _MultiIndices(dim, width).split
    grouped: dict[Key, dict] = {}
    for key, num in packed.items():
        m, left, right, exps = split(key, 3)
        grouped.setdefault((m, left, right), {})[exps] = Fraction(num, den)
    return BiDiffOp(dim, order, {k: Polynomial(dim, c) for k, c in grouped.items()})


def _nonzero_digits(multi: Multi) -> tuple[tuple[int, int], ...]:
    """(position, digit) for every nonzero digit of a multi-index."""
    return tuple((i, d) for i, d in enumerate(multi) if d)


def _box_points(top: Multi, deg: int, width: int) -> list[int]:
    """The packed multi-indices K <= top componentwise with |K| <= deg: every
    other derivative d^K of a polynomial with componentwise largest exponents
    `top` and degree `deg` is zero.  Unless deg covers the whole box, a
    prefix is extended only while its sum stays within deg."""
    if deg >= sum(top):
        points, shift = [0], width * len(top)
        for t in top:
            shift -= width
            if t:
                points = [p + (k << shift) for p in points for k in range(t + 1)]
        return points
    grown = [(0, 0)]
    for t in top:
        grown = [((p << width) | k, s + k) for p, s in grown for k in range(min(t, deg - s) + 1)]
    return [p for p, _ in grown]


def _argument(p: Polynomial, width: int, guard: int) -> tuple[int, list]:
    """(den, rows): p's terms as (exponents, packed exponents | guard, integer
    numerator) over den, the lcm of p's coefficient denominators."""
    if len(p.terms) == 1:
        ((e, c),) = p.terms.items()
        return c.denominator, [(e, _pack(e, width) | guard, c.numerator)]
    den = lcm(*[c.denominator for c in p.terms.values()])
    return den, [
        (e, _pack(e, width) | guard, c.numerator * (den // c.denominator))
        for e, c in p.terms.items()
    ]


def _derive(rows: list, orders: int, digits: tuple, guard: int) -> list[tuple[int, int]]:
    """d^orders of the argument with these rows, as (packed exponents,
    numerator) pairs.  A row survives when every guard bit of its capped key
    minus `orders` does, that is when e >= orders componentwise; x^e then
    goes to prod e_i! / (e_i - k_i)! x^(e - k) over the nonzero `digits`
    (i, k_i) of orders.  Distinct e give distinct e - k, so nothing adds."""
    out = []
    for exps, capped, num in rows:
        rest = capped - orders
        if rest & guard == guard:
            for i, k in digits:
                num *= perm(exps[i], k)
            out.append((rest ^ guard, num))
    return out


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
                left, right = tuple(left), tuple(right)
                if len(left) != dim or len(right) != dim:
                    raise BiDiffError("multi-index length must equal dim")
                if any(e < 0 for e in left + right):
                    raise BiDiffError("negative derivative order")
                if m > order or poly.is_zero():
                    continue
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
        width = _width(left_top + right_top)
        return _packed_mul(self.dim, self.order, left, right, left_den * right_den, width)

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
        return _packed_exp(self.dim, self.order, rows, den, _width(self.order * top))

    # -- action on polynomial pairs ---------------------------------------------

    def _build_plan(self, reach: int) -> tuple:
        """The application plan (width, guard, top, den, by_left), wide enough
        for arguments whose largest digits sum to `reach`; it replaces any
        narrower plan in `_plan`.  See the module docstring for the layout."""
        terms = self.terms
        coeffs = [poly.terms for poly in terms.values()]
        den = lcm(*[c.denominator for coeff in coeffs for c in coeff.values()])
        multis = set(map(itemgetter(1), terms)).union(map(itemgetter(2), terms))
        top = max(map(max, multis.union(*coeffs)), default=0)
        width = _width(top + reach)
        # multi-index -> (|K|, packed K, nonzero digits)
        index = {k: (sum(k), _pack(k, width), _nonzero_digits(k)) for k in multis}
        grouped: dict[Multi, dict[Multi, list]] = {}
        for (m, left, right), coeff in zip(terms, coeffs):
            rows = grouped.setdefault(left, {}).setdefault(right, [])
            for e, c in coeff.items():
                rows += (_pack(e, width, m), c.numerator * (den // c.denominator))
        shared: dict[tuple, tuple] = {}  # one tuple per distinct rows, shared between entries
        by_left = {}
        for left, by_right in grouped.items():
            entries = []
            for right, rows in by_right.items():
                rows = tuple(rows)
                entries.append((*index[right], shared.setdefault(rows, rows)))
            size, key, digits = index[left]
            by_left[key] = (key, size, digits, tuple(sorted(entries)))
        guard = _pack((1 << (width - 1),) * self.dim, width)
        plan = (width, guard, top, den, by_left)
        object.__setattr__(self, "_plan", plan)
        return plan

    def apply(self, f: Polynomial, g: Polynomial) -> EpsSeries:
        """The series sum eps^m * P * (d^L f) * (d^R g) over the terms
        (m, L, R) -> P.

        Runs on the packed plan built on the first call (module docstring):
        only the terms with L in f's box and R in g's box are visited, and
        only the eps levels the pair reaches get a polynomial of their own;
        the others share one zero polynomial."""
        dim, order = self.dim, self.order
        if f.dim != dim or g.dim != dim:
            raise BiDiffError("argument dimension mismatch")
        if not f.terms or not g.terms:
            return EpsSeries.zero(dim, order)
        f_top = tuple(map(max, zip(*f.terms)))
        g_top = tuple(map(max, zip(*g.terms)))
        reach = max(f_top) + max(g_top)
        plan = self._plan
        if plan is None or plan[2] + reach >= 1 << (plan[0] - 1):
            plan = self._build_plan(reach)
        width, guard, _, den, by_left = plan
        f_den, f_rows = _argument(f, width, guard)
        g_den, g_rows = _argument(g, width, guard)
        f_deg = max(map(sum, f.terms))
        g_deg = max(map(sum, g.terms))
        if prod(t + 1 for t in f_top) <= len(by_left):
            get = by_left.get
            hits = [v for k in _box_points(f_top, f_deg, width) if (v := get(k)) is not None]
        else:
            f_cap = _pack(f_top, width) | guard
            hits = [v for k, v in by_left.items() if v[1] <= f_deg and (f_cap - k) & guard == guard]
        g_cap = _pack(g_top, width) | guard
        acc: dict[int, int] = {}
        get = acc.get
        right_cache: dict[int, list] = {}
        for left, _, left_digits, entries in hits:
            df = None
            for size, right, right_digits, rows in entries:
                if size > g_deg:
                    break
                if (g_cap - right) & guard != guard:
                    continue
                dg = right_cache.get(right)
                if dg is None:
                    dg = right_cache[right] = _derive(g_rows, right, right_digits, guard)
                if not dg:
                    continue
                if df is None:
                    df = _derive(f_rows, left, left_digits, guard)
                    if not df:
                        break
                for k2, c2 in df:
                    for k3, c3 in dg:
                        k23, c23 = k2 + k3, c2 * c3
                        it = iter(rows)
                        for k1, c1 in zip(it, it):
                            key = k1 + k23
                            acc[key] = get(key, 0) + c1 * c23
        den *= f_den * g_den
        split = _MultiIndices(dim, width).split
        levels: dict[int, dict] = {}
        for key, c in acc.items():
            if c:
                m, exps = split(key, 1)
                level = levels.get(m)
                if level is None:
                    level = levels[m] = {}
                level[exps] = Fraction(c, den)
        coeffs = [Polynomial.zero(dim)] * (order + 1)
        for m, level in levels.items():
            coeffs[m] = Polynomial._unchecked(dim, level)
        return EpsSeries._unchecked(dim, order, tuple(coeffs))

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
