"""Truncated series: deformation series in eps and word series in non-commuting letters.

`EpsSeries` is a polynomial in the deformation parameter eps, truncated at an
explicit order N, with `Polynomial` coefficients.  Truncation is part of the
value: arithmetic requires matching orders.

`NCSeries` is a truncated series in the free associative algebra on a small
ordered alphabet (words are tuples of letters).  It carries exp and log for
series with the appropriate constant term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence, Union

from .poly import Polynomial

Scalar = Union[int, Fraction]
Word = tuple[str, ...]

__all__ = ["EpsSeries", "NCSeries", "nc_exp", "nc_log", "SeriesError"]


class SeriesError(ValueError):
    pass


class EpsSeries:
    """sum_{m=0}^{order} eps^m * coeffs[m], coefficients sharing one variable set."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: Sequence[Polynomial] | None = None):
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        levels = list(coeffs) if coeffs is not None else []
        if len(levels) > order + 1:
            raise SeriesError("more coefficients than the truncation order allows")
        while len(levels) < order + 1:
            levels.append(Polynomial.zero(dim))
        for p in levels:
            if not isinstance(p, Polynomial) or p.dim != dim:
                raise SeriesError("every coefficient must be a Polynomial of the stated dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(levels))

    def __setattr__(self, name, value):
        raise AttributeError("EpsSeries is immutable")

    @classmethod
    def _unchecked(cls, dim: int, order: int, coeffs: tuple[Polynomial, ...]) -> "EpsSeries":
        """The series with exactly these levels, kept as given: only for a
        kernel that guarantees order >= 0 and order + 1 Polynomials of
        dimension dim, which the checking constructor would keep."""
        s = object.__new__(cls)
        object.__setattr__(s, "dim", dim)
        object.__setattr__(s, "order", order)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "EpsSeries":
        return cls(p.dim, order, [p])

    @classmethod
    def zero(cls, dim: int, order: int) -> "EpsSeries":
        return cls(dim, order)

    def _check(self, other: "EpsSeries") -> None:
        if self.dim != other.dim:
            raise SeriesError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.order != other.order:
            raise SeriesError(f"truncation order mismatch: {self.order} vs {other.order}")

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return (self.dim, self.order) == (other.dim, other.order) and self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = EpsSeries.from_polynomial(other, self.order)
        if not isinstance(other, EpsSeries):
            return NotImplemented
        self._check(other)
        return EpsSeries(self.dim, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return EpsSeries(self.dim, self.order, [-p for p in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = EpsSeries.from_polynomial(other, self.order)
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EpsSeries(self.dim, self.order, [p * other for p in self.coeffs])
        if isinstance(other, Polynomial):
            return EpsSeries(self.dim, self.order, [p * other for p in self.coeffs])
        if not isinstance(other, EpsSeries):
            return NotImplemented
        self._check(other)
        levels = [Polynomial.zero(self.dim) for _ in range(self.order + 1)]
        for a, pa in enumerate(self.coeffs):
            if pa.is_zero():
                continue
            for b, pb in enumerate(other.coeffs):
                if a + b > self.order:
                    break
                if pb.is_zero():
                    continue
                levels[a + b] = levels[a + b] + pa * pb
        return EpsSeries(self.dim, self.order, levels)

    __rmul__ = __mul__

    def shift(self, k: int) -> "EpsSeries":
        """Multiply by eps^k (dropping levels beyond the truncation)."""
        if k < 0:
            raise SeriesError("shift must be >= 0")
        levels = [Polynomial.zero(self.dim)] * k + list(self.coeffs)
        return EpsSeries(self.dim, self.order, levels[: self.order + 1])

    def to_pairs(self) -> list[tuple[int, str]]:
        """Ordered (eps power, polynomial text) pairs for every level."""
        return [(m, p.to_text()) for m, p in enumerate(self.coeffs)]

    def __repr__(self):
        body = " ; ".join(f"eps^{m}: {t}" for m, t in self.to_pairs())
        return f"EpsSeries(order={self.order}, {body})"


class NCSeries:
    """Truncated series in the word algebra on an ordered alphabet."""

    __slots__ = ("alphabet", "order", "terms")

    def __init__(self, alphabet: Sequence[str], order: int, terms: Mapping[Word, Scalar] | None = None):
        alpha = tuple(alphabet)
        if len(set(alpha)) != len(alpha) or not alpha:
            raise SeriesError("alphabet must be a non-empty sequence of distinct letters")
        if list(alpha) != sorted(alpha):
            raise SeriesError("alphabet letters must be given in increasing order")
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if any(letter not in alpha for letter in word):
                    raise SeriesError(f"word {word!r} uses letters outside the alphabet")
                frac = Fraction(coeff)
                if frac and len(word) <= order:
                    clean[word] = frac
        object.__setattr__(self, "alphabet", alpha)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCSeries is immutable")

    @classmethod
    def one(cls, alphabet: Sequence[str], order: int) -> "NCSeries":
        return cls(alphabet, order, {(): Fraction(1)})

    @classmethod
    def letter(cls, alphabet: Sequence[str], order: int, letter: str) -> "NCSeries":
        return cls(alphabet, order, {(letter,): Fraction(1)})

    def _check(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet or self.order != other.order:
            raise SeriesError("alphabet/order mismatch")

    def coefficient(self, word: Sequence[str]) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NCSeries(self.alphabet, self.order, {(): Fraction(other)})
        if not isinstance(other, NCSeries):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return NCSeries(self.alphabet, self.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return NCSeries(self.alphabet, self.order, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NCSeries(self.alphabet, self.order, {(): Fraction(other)})
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return NCSeries(self.alphabet, self.order, {w: c * k for w, c in self.terms.items()})
        if not isinstance(other, NCSeries):
            return NotImplemented
        self._check(other)
        terms: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            room = self.order - len(w1)
            if room < 0:
                continue
            for w2, c2 in other.terms.items():
                if len(w2) > room:
                    continue
                key = w1 + w2
                terms[key] = terms.get(key, 0) + c1 * c2
        return NCSeries(self.alphabet, self.order, terms)

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"{c}*{''.join(w) or '1'}" for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return f"NCSeries(order={self.order}, {' + '.join(parts) or '0'})"


def nc_exp(s: NCSeries) -> NCSeries:
    """exp of a series with zero constant term."""
    if s.constant():
        raise SeriesError("exp requires a zero constant term")
    result = NCSeries.one(s.alphabet, s.order)
    power = NCSeries.one(s.alphabet, s.order)
    for k in range(1, s.order + 1):
        power = power * s
        if power.is_zero():
            break
        result = result + power * Fraction(1, factorial(k))
    return result


def nc_log(s: NCSeries) -> NCSeries:
    """log of a series with constant term 1."""
    if s.constant() != 1:
        raise SeriesError("log requires constant term exactly 1")
    u = s - 1
    result = NCSeries(s.alphabet, s.order)
    power = NCSeries.one(s.alphabet, s.order)
    for m in range(1, s.order + 1):
        power = power * u
        if power.is_zero():
            break
        sign = Fraction(1, m) if m % 2 == 1 else Fraction(-1, m)
        result = result + power * sign
    return result

