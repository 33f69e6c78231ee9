"""Exact multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, monomials are exponent tuples stored
sparsely (zero coefficients are never kept).  Wherever an order matters --
text output, serialized results -- terms are sorted graded-lexicographically,
so identical inputs always render identically.

Variables are written ``x1 .. xd`` in text form.

Every sparse sum in the package (polynomials, words, Lyndon coordinates, PBW
elements, operator terms) keeps one rule: a stored coefficient is never
zero.  It is enforced where a value is built, not where it is summed.  The
constructors of `Polynomial`, `NCSeries`, `LieSeries` and `BiDiffOp` drop
zero coefficients, and a function that returns a raw dict passes it through
`nonzero` once on the way out.  Arithmetic in between accumulates freely
(``d[k] = d.get(k, 0) + v``), and a zero it leaves behind is harmless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

Rational = Fraction
Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

# Text parsers refuse parentheses, brackets and unary signs nested deeper
# than this, so deep input is bad input rather than a RecursionError.
MAX_NESTING = 100

# Text parsers refuse a digit run longer than this (Python's default limit
# for int() on text), so a long number is bad input rather than a ValueError.
MAX_DIGITS = 4300

# `parse_polynomial` refuses an exponent above MAX_EXPONENT and, when it
# infers the dimension, a variable index above MAX_VARIABLE_INDEX, so a huge
# power or dimension is bad input rather than a run out of time or memory.
MAX_EXPONENT = 100
MAX_VARIABLE_INDEX = 1000

# `parse_polynomial` refuses base^n when comb(n + t - 1, t - 1), an upper
# bound on the term count of a t-term base to the n, exceeds MAX_POWER_TERMS,
# so a power too large to expand in a few seconds is bad input.
MAX_POWER_TERMS = 2000

__all__ = [
    "MAX_DIGITS",
    "MAX_EXPONENT",
    "MAX_NESTING",
    "MAX_POWER_TERMS",
    "MAX_VARIABLE_INDEX",
    "Rational",
    "Polynomial",
    "PolyError",
    "ParseError",
    "parse_polynomial",
]


class PolyError(ValueError):
    pass


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def nonzero(terms: Mapping) -> dict:
    """The entries of a raw sparse sum whose value is not zero."""
    return {k: v for k, v in terms.items() if v}


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


class Polynomial:
    """A polynomial in x1..xd with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, Scalar] | None = None):
        if dim < 0:
            raise PolyError("dimension must be >= 0")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != dim or any(e < 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps!r} for dim {dim}")
                frac = _as_fraction(coeff)
                if frac:
                    clean[exps] = frac
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # keep instances effectively immutable
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # unpickling goes through the checking constructor
        return Polynomial, (self.dim, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _unchecked(cls, dim: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """The polynomial with exactly these terms, kept as given: only for a
        kernel that guarantees exponent tuples of length dim and nonzero
        Fraction coefficients, which the checking constructor would keep."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "Polynomial":
        return cls(dim, {(0,) * dim: _as_fraction(value)})

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        """x_index, 1-based."""
        if not 1 <= index <= dim:
            raise PolyError(f"variable index {index} out of range 1..{dim}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(dim))
        return cls(dim, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(dim, {tuple(exps): _as_fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Graded-lexicographic order, lowest degree first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise PolyError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            if not k:
                return Polynomial.zero(self.dim)
            return Polynomial(self.dim, {e: c * k for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return Polynomial(self.dim, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise PolyError("exponent must be a non-negative integer")
        result = Polynomial.one(self.dim)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def derive(self, index: int, times: int = 1) -> "Polynomial":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise PolyError(f"variable index {index} out of range 1..{self.dim}")
        poly = self
        for _ in range(times):
            terms: dict[Exponents, Fraction] = {}
            for exps, coeff in poly.terms.items():
                e = exps[index - 1]
                if e:
                    key = exps[: index - 1] + (e - 1,) + exps[index:]
                    terms[key] = terms.get(key, Fraction(0)) + coeff * e
            poly = Polynomial(self.dim, terms)
            if poly.is_zero():
                break
        return poly

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.dim:
            raise PolyError("evaluation point has wrong length")
        pt = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for base, e in zip(pt, exps):
                if e:
                    val *= base**e
            total += val
        return total

    def substitute(self, index: int, replacement: Union["Polynomial", Scalar]) -> "Polynomial":
        """Substitute x_index := replacement (a scalar or same-dim polynomial)."""
        if not 1 <= index <= self.dim:
            raise PolyError(f"variable index {index} out of range 1..{self.dim}")
        if isinstance(replacement, (int, Fraction)):
            replacement = Polynomial.constant(self.dim, replacement)
        self._check_dim(replacement)
        result = Polynomial.zero(self.dim)
        for exps, coeff in self.terms.items():
            e = exps[index - 1]
            rest = Polynomial.monomial(
                self.dim, exps[: index - 1] + (0,) + exps[index:], coeff
            )
            result = result + rest * replacement**e
        return result

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
            factors = []
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            if not factors:
                body = str(abs(coeff))
            else:
                mono = "*".join(factors)
                mag = abs(coeff)
                body = mono if mag == 1 else f"{mag}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Polynomial(d={self.dim}, {self.to_text()})"


# -- parsing ---------------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' INT)?
#   atom   := RATIONAL | VARIABLE | '(' expr ')' | ('+' | '-') factor
#   RATIONAL := INT ('/' INT)?     VARIABLE := 'x' INT
# Parentheses and unary signs nest at most MAX_NESTING deep, an INT has at
# most MAX_DIGITS digits, an exponent is at most MAX_EXPONENT, and a power
# may have at most MAX_POWER_TERMS terms by the bound above.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > MAX_DIGITS:
            raise ParseError(f"integer longer than {MAX_DIGITS} digits", start)
        return int(self.text[start : self.pos])


class _Parser:
    def __init__(self, text: str, dim: int):
        self.tok = _Tokenizer(text)
        self.dim = dim
        self.depth = 0

    def parse(self) -> Polynomial:
        value = self._expr()
        ch, pos = self.tok.peek()
        if ch is not None:
            raise ParseError(f"unexpected character {ch!r}", pos)
        return value

    def _expr(self) -> Polynomial:
        value = self._term()
        while True:
            ch, _ = self.tok.peek()
            if ch == "+":
                self.tok.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.tok.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self) -> Polynomial:
        value = self._factor()
        while True:
            ch, _ = self.tok.peek()
            if ch == "*":
                self.tok.pos += 1
                value = value * self._factor()
            else:
                return value

    def _factor(self) -> Polynomial:
        value = self._atom()
        ch, pos = self.tok.peek()
        if ch == "^":
            self.tok.pos += 1
            power = self.tok.take_int()
            if power > MAX_EXPONENT:
                raise ParseError(f"exponent {power} exceeds the limit {MAX_EXPONENT}", pos)
            base_terms = len(value.terms)
            if base_terms > 1 and comb(power + base_terms - 1, base_terms - 1) > MAX_POWER_TERMS:
                raise ParseError(
                    f"a {base_terms}-term base to the {power} may exceed the limit of "
                    f"{MAX_POWER_TERMS} terms",
                    pos,
                )
            value = value**power
        return value

    def _atom(self) -> Polynomial:
        ch, pos = self.tok.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch in "(+-":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
            self.tok.pos += 1
            self.depth += 1
            if ch == "(":
                value = self._expr()
                ch2, pos2 = self.tok.peek()
                if ch2 != ")":
                    raise ParseError("expected ')'", pos2)
                self.tok.pos += 1
            else:
                value = self._factor()
                if ch == "-":
                    value = -value
            self.depth -= 1
            return value
        if ch == "x":
            self.tok.pos += 1
            index = self.tok.take_int()
            if index < 1:
                raise ParseError("variable indices start at 1", pos)
            if index > self.dim:
                raise ParseError(f"variable x{index} exceeds dimension {self.dim}", pos)
            return Polynomial.variable(self.dim, index)
        if ch.isdecimal():
            num = self.tok.take_int()
            ch2, _ = self.tok.peek()
            if ch2 == "/":
                self.tok.pos += 1
                den_pos = self.tok.pos
                den = self.tok.take_int()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                return Polynomial.constant(self.dim, Fraction(num, den))
            return Polynomial.constant(self.dim, num)
        raise ParseError(f"unexpected character {ch!r}", pos)


# In text that parses, every 'x' starts a variable, so the largest index
# after an 'x' is the dimension the text needs.
_VARIABLE_INDEX = re.compile(r"x\s*(\d+)")


def parse_polynomial(text: str, dim: int | None = None) -> Polynomial:
    """Parse polynomial text (variables x1..xd, rationals p/q, operators + - * ^).

    With ``dim=None`` the dimension is inferred as the largest variable index
    present (0 for a constant); an index above MAX_VARIABLE_INDEX is refused.
    """
    if dim is None:
        dim = 0
        for match in _VARIABLE_INDEX.finditer(text):
            digits = match.group(1)
            if len(digits) > MAX_DIGITS or int(digits) > MAX_VARIABLE_INDEX:
                raise ParseError(
                    f"variable index exceeds the limit {MAX_VARIABLE_INDEX}", match.start(1)
                )
            dim = max(dim, int(digits))
    return _Parser(text, dim).parse()
