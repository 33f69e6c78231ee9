"""The enveloping algebra route to a star product on polynomials.

Elements of the (eps-scaled) enveloping algebra are stored in the ordered
basis: keys are (word, m) with `word` a non-decreasing tuple of 1-based
generator indices and m the eps degree.  The defining rewrite moves a descent
X^j X^i (j > i) to X^i X^j + eps * [X^j, X^i], so straightening a word of
length n spends at most n - 1 powers of eps.

The symmetrization sigma sends the monomial x_{i_1}...x_{i_n} to the average
of all orderings of X^{i_1} ... X^{i_n}; computed by the insertion recursion
sigma(w) = (1/n) * sum_p X^{i_p} sigma(w minus position p) rather than by
listing n! permutations.  Its inverse peels eps levels: the level-m leftover
is exactly a polynomial p_m, and subtracting sigma(p_m) eps^m clears it.

The star product is f * g = sigma^{-1}(sigma(f) sigma(g)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .liealg import StructureConstants
from .poly import Polynomial, nonzero
from .series import EpsSeries

Word = tuple[int, ...]  # non-decreasing generator indices, 1-based
Element = dict[tuple[Word, int], Fraction]

__all__ = [
    "EnvelopingAlgebra",
    "enveloping_algebra",
    "pbw_normal_form",
    "symmetrize",
    "inverse_symmetrize",
    "uea_star",
    "PBWError",
]


class PBWError(ValueError):
    pass


def word_of_monomial(exps: tuple[int, ...]) -> Word:
    out: list[int] = []
    for i, e in enumerate(exps, start=1):
        out.extend([i] * e)
    return tuple(out)


def monomial_of_word(dim: int, word: Word) -> tuple[int, ...]:
    exps = [0] * dim
    for i in word:
        exps[i - 1] += 1
    return tuple(exps)


class EnvelopingAlgebra:
    """Straightening, symmetrization and the induced star product for one algebra."""

    def __init__(self, c: StructureConstants):
        self.c = c
        self.dim = c.dim
        self._nf: dict[Word, Element] = {}
        self._sigma: dict[Word, Element] = {}

    # -- straightening -----------------------------------------------------------

    def normal_form(self, word: Word) -> Element:
        """Rewrite an arbitrary word into the ordered basis (untruncated)."""
        cached = self._nf.get(word)
        if cached is not None:
            return cached
        descent = next(
            (p for p in range(len(word) - 1) if word[p] > word[p + 1]), None
        )
        if descent is None:
            result: Element = {(word, 0): Fraction(1)}
        else:
            p = descent
            swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
            result = dict(self.normal_form(swapped))
            for k, coeff in self.c.bracket_basis(word[p], word[p + 1]).items():
                contracted = word[:p] + (k,) + word[p + 2 :]
                for (w, m), value in self.normal_form(contracted).items():
                    key = (w, m + 1)
                    result[key] = result.get(key, 0) + coeff * value
            result = nonzero(result)
        self._nf[word] = result
        return result

    def mul(self, a: Element, b: Element, order: int) -> Element:
        """Product in the algebra, truncated at eps^order."""
        out: Element = {}
        for (w1, m1), c1 in a.items():
            if m1 > order:
                continue
            for (w2, m2), c2 in b.items():
                base = m1 + m2
                if base > order:
                    continue
                scale = c1 * c2
                for (w, dm), value in self.normal_form(w1 + w2).items():
                    m = base + dm
                    if m <= order:
                        key = (w, m)
                        out[key] = out.get(key, 0) + scale * value
        return nonzero(out)

    # -- symmetrization ------------------------------------------------------------

    def sigma_word(self, word: Word) -> Element:
        """Symmetrized product of the (sorted) word's letters."""
        cached = self._sigma.get(word)
        if cached is not None:
            return cached
        n = len(word)
        if n <= 1:
            result: Element = {(word, 0): Fraction(1)}
        else:
            result = {}
            share = Fraction(1, n)
            seen: set[int] = set()
            for p, letter in enumerate(word):
                if letter in seen:
                    continue
                seen.add(letter)
                multiplicity = word.count(letter)
                rest = self.sigma_word(word[:p] + word[p + 1 :])
                weight = share * multiplicity
                for (w, m), value in rest.items():
                    for (w2, dm), v2 in self.normal_form((letter,) + w).items():
                        key = (w2, m + dm)
                        result[key] = result.get(key, 0) + weight * value * v2
            result = nonzero(result)
        self._sigma[word] = result
        return result

    def sigma_polynomial(self, p: Polynomial) -> Element:
        if p.dim != self.dim:
            raise PBWError("polynomial dimension mismatch")
        out: Element = {}
        for exps, coeff in p.terms.items():
            for key, value in self.sigma_word(word_of_monomial(exps)).items():
                out[key] = out.get(key, 0) + coeff * value
        return nonzero(out)

    def sigma_series(self, s: EpsSeries) -> Element:
        out: Element = {}
        for m, level in enumerate(s.coeffs):
            if level.is_zero():
                continue
            for (w, dm), value in self.sigma_polynomial(level).items():
                if m + dm <= s.order:
                    key = (w, m + dm)
                    out[key] = out.get(key, 0) + value
        return nonzero(out)

    def inverse_sigma(self, element: Element, order: int) -> EpsSeries:
        """Peel eps levels: level-m leftovers form p_m, subtract sigma(p_m) eps^m."""
        work: Element = {k: v for k, v in element.items() if k[1] <= order}
        levels: list[Polynomial] = []
        for m in range(order + 1):
            slice_terms = {
                monomial_of_word(self.dim, w): coeff
                for (w, mm), coeff in work.items()
                if mm == m
            }
            p_m = Polynomial(self.dim, slice_terms)
            levels.append(p_m)
            if p_m.is_zero():
                continue
            for exps, coeff in p_m.terms.items():
                for (w, dm), value in self.sigma_word(word_of_monomial(exps)).items():
                    mm = m + dm
                    if mm <= order:
                        key = (w, mm)
                        work[key] = work.get(key, 0) - coeff * value
        if any(work.values()):
            raise PBWError("symmetrization inverse left a remainder")
        return EpsSeries(self.dim, order, levels)

    # -- the star product ------------------------------------------------------------

    def star(
        self,
        f: Union[Polynomial, EpsSeries],
        g: Union[Polynomial, EpsSeries],
        order: int,
    ) -> EpsSeries:
        sf = self._lift(f, order)
        sg = self._lift(g, order)
        return self.inverse_sigma(self.mul(sf, sg, order), order)

    def _lift(self, f: Union[Polynomial, EpsSeries], order: int) -> Element:
        if isinstance(f, Polynomial):
            return self.sigma_polynomial(f)
        if isinstance(f, EpsSeries):
            if f.dim != self.dim:
                raise PBWError("series dimension mismatch")
            if f.order != order:
                f = EpsSeries(f.dim, order, list(f.coeffs[: order + 1]))
            return self.sigma_series(f)
        raise PBWError(f"cannot lift {type(f).__name__}")


@lru_cache(maxsize=None)
def enveloping_algebra(c: StructureConstants) -> EnvelopingAlgebra:
    return EnvelopingAlgebra(c)


def pbw_normal_form(c: StructureConstants, word: Word) -> Element:
    """Ordered-basis expansion of an arbitrary generator word."""
    return dict(enveloping_algebra(c).normal_form(tuple(word)))


def symmetrize(c: StructureConstants, p: Polynomial) -> Element:
    return dict(enveloping_algebra(c).sigma_polynomial(p))


def inverse_symmetrize(c: StructureConstants, element: Mapping, order: int) -> EpsSeries:
    return enveloping_algebra(c).inverse_sigma(dict(element), order)


def uea_star(
    c: StructureConstants,
    f: Union[Polynomial, EpsSeries],
    g: Union[Polynomial, EpsSeries],
    order: int,
) -> EpsSeries:
    return enveloping_algebra(c).star(f, g, order)
