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
highest in a field and the first field highest: m|L|R|e for a row of an
operator (e the exponent of one coefficient monomial), m|e for a row of
the application plan, and L|R, with m = 0, for a coloring.  `_pack`
builds a key and `_MultiIndices.split` reads it back.  The width is the
least whole number of bytes, at least MIN_PLAN_WIDTH, whose digit cap
2^(width - 1) - 1 holds `need`, the largest digit the kernel can produce;
the top bit of every digit is a guard bit that a packed digit leaves clear.

Why nothing carries: a digit of a sum of keys is the sum of the added
digits, so when that sum is at most the cap no digit carries into its
neighbour or into a guard bit, and m, above every digit, reads back intact.
Each kernel takes as `need` a bound on its output digits, and an operand's
bound is its largest digit, or the `need` it came out of a kernel with:
  - `symbol_mul`: the sum of the two operands' bounds.
  - `exp`: `order` times the generator's bound.  Every generator
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

`symbol_mul` and `exp` share one product kernel on packed rows: one row
per coefficient monomial x^e of a term (m, L, R), keyed m|L|R|e, with an
integer numerator over one common denominator.  A product of two rows is
one addition of keys and one multiplication of numerators, out[k1 + k2] +=
c1 * c2.  The second operand's keys are sorted, so a row of the product
stops at the first key sum that reaches the limit.

Every operator holds only such rows, as (rows, den, need) in the private
`_rows` slot: packed at _width(need), zero numerators dropped and den the
least common denominator, so at one width two operators are equal exactly
when their rows and den are.  `==` compares at the wider of two widths, and
`+` adds numerators over the lcm of the two denominators there; rows packed
at another width than an operation needs are repacked field by field, each
distinct L, R or e once.  `terms` is a view, decoded from the rows on each
read, each m|L|R prefix once.

`apply` runs on one application plan per operator, built from the packed
rows on the first call and kept in the private `_plan` slot (it takes no
part in `==` or `repr`).  Only the distinct fields are decoded, for |K|,
the nonzero digits and `top`, the largest real digit; at the rows' own
width the fields and the row key m|e come from shifts and masks of each
key.  The plan maps packed L to (L, |L|, L's nonzero digits, entries), the
entries sorted by |R|, each one (|R|, packed R, R's nonzero digits, flat
rows key, numerator, key, numerator, ...).  A call whose arguments need a
wider plan rebuilds it and replaces it, so an operator keeps one plan,
which never narrows.

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
from math import factorial, gcd, lcm, perm, prod
from typing import Callable, Mapping

from .poly import Polynomial
from .series import EpsSeries

Multi = tuple[int, ...]
Key = tuple[int, Multi, Multi]

__all__ = ["BiDiffOp", "BiDiffError", "wedge_operator", "MAX_EXP_PAIRS"]

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


def _flatten(terms: list[tuple[Key, Polynomial]]) -> tuple[dict[int, int], int, int]:
    """The terms one row per coefficient monomial, packed m|L|R|e at the
    width of their largest digit, as (rows, den, largest digit): rows maps a
    key to the sum of its numerators over den, the lcm of the coefficient
    denominators."""
    den, top = 1, 0
    for (m, left, right), poly in terms:
        top = max(top, *left, *right)
        for exps, c in poly.terms.items():
            den = lcm(den, c.denominator)
            top = max(top, *exps)
    width = _width(top)
    rows: dict[int, int] = {}
    for (m, left, right), poly in terms:
        for exps, c in poly.terms.items():
            key = _pack(left + right + exps, width, m)
            rows[key] = rows.get(key, 0) + c.numerator * (den // c.denominator)
    return rows, den, top


def _fields(rows: Mapping[int, int], dim: int, width: int) -> _MultiIndices:
    """The distinct L, R and e fields of packed m|L|R|e keys, decoded."""
    fields = _MultiIndices(dim, width)
    span, mask = fields.span, fields.mask
    distinct = set()
    for key in rows:
        distinct.update((key & mask, (key >> span) & mask, (key >> 2 * span) & mask))
    for field in distinct:
        fields[field]
    return fields


def _repack(rows: Mapping[int, int], fields: _MultiIndices, width: int) -> tuple[dict, _MultiIndices]:
    """The same rows packed `width` bits a digit, with their fields decoded;
    `fields` must hold every field of the rows.  Each distinct field is packed
    once."""
    span, mask = fields.span, fields.mask
    wide = _MultiIndices(fields.span // fields.width, width)
    packed = {}
    for field, digits in fields.items():
        packed[field] = key = _pack(digits, width)
        wide[key] = digits
    step = wide.span
    out = {}
    for key, c in rows.items():
        e = packed[key & mask]
        key >>= span
        right = packed[key & mask]
        key >>= span
        left = packed[key & mask]
        m = key >> span
        out[(((m << step | left) << step | right) << step) | e] = c
    return out, wide


def _at_width(rows: dict[int, int], dim: int, need: int, width: int) -> dict[int, int]:
    """Rows packed at _width(need), packed `width` bits a digit instead."""
    if _width(need) == width:
        return rows
    return _repack(rows, _fields(rows, dim, _width(need)), width)[0]


def _packed_product(left, right: list, limit: int) -> dict[int, int]:
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


def _packed_mul(dim: int, order: int, left: dict, right: dict, den: int, need: int) -> "BiDiffOp":
    """The symbol product of two operators' rows, both packed at
    _width(need) with numerators over den; need must bound the sum of their
    largest digits."""
    width = _width(need)
    product = _packed_product(left.items(), sorted(right.items()), (order + 1) << (3 * dim * width))
    return BiDiffOp._unchecked(dim, order, _reduced(product, den, need))


# The most term pairs, len(power) * len(generator), that one power step of
# `exp` may multiply; a larger step is refused before it multiplies any.
# The largest step the test suite and the golden files build is 364,932
# pairs (the CBH exp of strictly_upper(5) at order 4), and the graph
# assembly of strictly_upper(4) at the CLI's MAX_ASSEMBLY_ORDER builds
# 147,840.  On a 2-vCPU host, the CBH exp of the 14-dimensional free
# nilpotent algebra of step 5 at order 4 reaches 8.0M pairs (0.4 s, 60 MB),
# while the order-2 Moyal exp of a generic 64 x 64 matrix reaches 16.3M
# pairs at G^2 and took 70 s and 2.4 GB.
MAX_EXP_PAIRS = 10_000_000


def _packed_exp(dim: int, order: int, gen: dict, den: int, need: int) -> "BiDiffOp":
    """sum_{k <= order} G^k / k! for the generator rows G (all m >= 1),
    packed at _width(need) with numerators over den; need must be `order`
    times a bound on G's digits.

    The k-th power is kept as integer numerators over den**k; adding it to
    the sum scales it to the common denominator den**order * order!.  A
    power step of more than MAX_EXP_PAIRS term pairs is refused before it
    multiplies any.
    """
    gen = sorted(gen.items())
    limit = (order + 1) << (3 * dim * _width(need))
    common = den**order * factorial(order)
    total = {0: common}
    power, k = gen, 1  # G^1 is G itself: no product before G^2
    while power:
        weight = den ** (order - k) * (factorial(order) // factorial(k))
        for key, c in power:
            total[key] = total.get(key, 0) + c * weight
        if k == order:
            break
        k += 1
        if len(power) * len(gen) > MAX_EXP_PAIRS:
            raise BiDiffError(
                f"exp power {k} of {len(power)} by {len(gen)} terms exceeds "
                f"the limit of {MAX_EXP_PAIRS} pairs"
            )
        power = [(key, c) for key, c in _packed_product(power, gen, limit).items() if c]
    return BiDiffOp._unchecked(dim, order, _reduced(total, common, need))


def _reduced(rows: dict[int, int], den: int, need: int) -> tuple[dict[int, int], int, int]:
    """(rows, den, need) with the zero numerators dropped and the rest and den
    divided by their gcd, so that den is the least common denominator."""
    rows = {key: c for key, c in rows.items() if c}
    common = gcd(den, *rows.values())
    if common > 1:
        den //= common
        rows = {key: c // common for key, c in rows.items()}
    return rows, den, need


def _decode(dim: int, rows: dict[int, int], den: int, need: int) -> dict[Key, Polynomial]:
    """The terms {(m, L, R): coefficient} of packed m|L|R|e rows over den,
    each m|L|R prefix decoded once."""
    fields = _MultiIndices(dim, _width(need))
    span, mask = fields.span, fields.mask
    grouped: dict[int, dict] = {}
    for key, num in rows.items():
        coeff = grouped.get(key >> span)
        if coeff is None:
            coeff = grouped[key >> span] = {}
        coeff[fields[key & mask]] = Fraction(num, den)
    return {
        tuple(fields.split(prefix, 2)): Polynomial._unchecked(dim, coeff)
        for prefix, coeff in grouped.items()
    }


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

    __slots__ = ("dim", "order", "_rows", "_plan")

    def __init__(self, dim: int, order: int, terms: Mapping[Key, Polynomial] | None = None):
        if dim < 1 or order < 0:
            raise BiDiffError("need dim >= 1 and order >= 0")
        kept: list[tuple[Key, Polynomial]] = []
        for (m, left, right), poly in (terms or {}).items():
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
            if m <= order and not poly.is_zero():
                kept.append(((m, left, right), poly))
        self._set(dim, order, _reduced(*_flatten(kept)) if kept else ({}, 1, 0))

    def _set(self, dim: int, order: int, rows: tuple):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_plan", None)

    @classmethod
    def _unchecked(cls, dim: int, order: int, rows: tuple):
        """The operator with these (rows, den, need): only for a caller that
        guarantees what the checking constructor would build (keys with m <=
        order packed at _width(need), no zero numerator, den least)."""
        op = object.__new__(cls)
        op._set(dim, order, rows)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("BiDiffOp is immutable")

    @property
    def terms(self) -> dict[Key, Polynomial]:
        """{(m, L, R): coefficient}, decoded from the packed rows on each
        read."""
        return _decode(self.dim, *self._rows)

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
        return not self._rows[0]

    def _check(self, other: "BiDiffOp"):
        if self.dim != other.dim or self.order != other.order:
            raise BiDiffError("dim/order mismatch")

    def _both_at(self, other: "BiDiffOp", need: int) -> tuple[dict, dict]:
        """The rows of both operators packed at _width(need)."""
        width = _width(need)
        return tuple(_at_width(op._rows[0], op.dim, op._rows[2], width) for op in (self, other))

    def __eq__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        if (self.dim, self.order, self._rows[1]) != (other.dim, other.order, other._rows[1]):
            return False
        left, right = self._both_at(other, max(self._rows[2], other._rows[2]))
        return left == right

    def __add__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        self._check(other)
        (_, left_den, left_need), (_, right_den, right_need) = self._rows, other._rows
        need = max(left_need, right_need)
        left, right = self._both_at(other, need)
        den = lcm(left_den, right_den)
        out = {key: c * (den // left_den) for key, c in left.items()}
        scale = den // right_den
        for key, c in right.items():
            out[key] = out.get(key, 0) + c * scale
        return BiDiffOp._unchecked(self.dim, self.order, _reduced(out, den, need))

    def __sub__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return self + other.scale(Fraction(-1))

    def scale(self, factor: Fraction | int | Polynomial) -> "BiDiffOp":
        if isinstance(factor, Polynomial):
            z = (0,) * self.dim
            return self.symbol_mul(BiDiffOp.single(self.dim, self.order, 0, z, z, factor))
        factor = Fraction(factor)
        rows, den, need = self._rows
        rows = {key: c * factor.numerator for key, c in rows.items()}
        den *= factor.denominator
        return BiDiffOp._unchecked(self.dim, self.order, _reduced(rows, den, need))

    def min_eps_degree(self) -> int | None:
        rows, _, need = self._rows
        return min(rows) >> (3 * self.dim * _width(need)) if rows else None

    def symbol_mul(self, other: "BiDiffOp") -> "BiDiffOp":
        """Coefficients multiply, derivative multi-indices add.

        Runs on the packed kernel: each digit of a product is at most the sum
        of the two operands' largest digits, so that sum sets the width."""
        self._check(other)
        need = self._rows[2] + other._rows[2]
        left, right = self._both_at(other, need)
        return _packed_mul(self.dim, self.order, left, right, self._rows[1] * other._rows[1], need)

    def exp(self) -> "BiDiffOp":
        """exp relative to symbol_mul: the sum of G^k / k! for k <= order.

        Every term must have eps degree >= 1, so G^k starts at eps^k.  Runs on
        the packed kernel (`_packed_exp`), with the width taken from order
        times G's digit bound.
        """
        low = self.min_eps_degree()
        if low is not None and low < 1:
            raise BiDiffError("exp needs all terms at eps degree >= 1")
        rows, den, need = self._rows
        gen = _at_width(rows, self.dim, need, _width(self.order * need))
        return _packed_exp(self.dim, self.order, gen, den, self.order * need)

    # -- action on polynomial pairs ---------------------------------------------

    def _build_plan(self, reach: int) -> tuple:
        """The application plan (width, guard, top, den, by_left), wide enough
        for arguments whose largest digits sum to `reach`; it replaces any
        narrower plan in `_plan`.  See the module docstring for the layout."""
        rows, den, need = self._rows
        width = _width(need)
        fields = _fields(rows, self.dim, width)
        top = max(map(max, fields.values()), default=0)
        if _width(top + reach) != width:  # repack each distinct field once
            width = _width(top + reach)
            rows, fields = _repack(rows, fields, width)
        span, mask = fields.span, fields.mask
        grouped: dict[int, dict[int, list]] = {}
        for key, c in rows.items():
            e = key & mask
            key >>= span
            right = key & mask
            key >>= span
            left = key & mask
            # m|L with L cleared, or'ed with e, is the row key m|e
            grouped.setdefault(left, {}).setdefault(right, []).extend(((key ^ left) | e, c))
        # packed K -> (|K|, packed K, nonzero digits)
        index = {k: (sum(digits), k, _nonzero_digits(digits)) for k, digits in fields.items()}
        shared: dict[tuple, tuple] = {}  # one tuple per distinct rows, shared between entries
        by_left = {}
        for left, by_right in grouped.items():
            entries = []
            for right, flat in by_right.items():
                flat = tuple(flat)
                entries.append((*index[right], shared.setdefault(flat, flat)))
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
        terms = self.sorted_terms()
        bits = [f"eps^{m}*({poly.to_text()})*d{l}⊗d{r}" for (m, l, r), poly in terms[:6]]
        more = "" if len(terms) <= 6 else f" ... ({len(terms)} terms)"
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
