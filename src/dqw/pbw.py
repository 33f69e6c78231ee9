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

The star product is f * g = sigma^{-1}(sigma(f) sigma(g)), on polynomial
factors.  `star` and `mul` share one product kernel, `_product`, which
refuses more than MAX_STAR_PAIRS term pairs before it straightens any.  A
series factor goes through `star.uea_product`, which extends the polynomial
product eps-bilinearly as the other routes' `StarProduct`s do.

Everything is computed on integer numerators.  D is the lcm of the
denominators of the structure constants; each rewrite spends one eps and one
structure constant, so an eps^m coefficient times D^m is an integer.  The
scalings are:

* the bracket table holds c_k^{ij} * D;
* `_nf[word]` maps (w, m) to NF(word)[(w, m)] * D^m;
* `_sigma[word]` maps (w, m) to sigma(word)[(w, m)] * n! * D^m, n = |word|;
* a lifted input sum_j f_j eps^j is a map (w, m) -> numerator over one
  denominator den, the lcm of denominator(c) * |w|! over its terms c x^w:
  sigma(f)[(w, m)] = numerator / (den * D^m);
* the product of two lifts has denominator den_f * den_g, again times D^m at
  level m;
* peeling level m subtracts num * S / (den * |w|! * D^(m + dm)) from level
  m + dm, with S = `_sigma[w]`[(u, dm)].  Beforehand level m, every later
  level and den are multiplied by F, the lcm of |w|! over the words of level
  m, so that each subtraction is num * (F / |w|!) * S on integers.

A `Fraction` is built once per output coefficient.  The public methods that
take or return `Element`s are views over the same integer caches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable

from .liealg import StructureConstants
from .poly import Polynomial
from .series import EpsSeries

Word = tuple[int, ...]  # non-decreasing generator indices, 1-based
Element = dict[tuple[Word, int], Fraction]
Numerators = dict[tuple[Word, int], int]  # (word, m) -> numerator, scaled as above
Term = tuple[int, Word, Fraction]  # c x^w eps^j as (j, w, c)

__all__ = [
    "EnvelopingAlgebra",
    "enveloping_algebra",
    "uea_star",
    "PBWError",
    "MAX_STAR_DEGREE",
    "MAX_STAR_PAIRS",
]


class PBWError(ValueError):
    pass


# Largest deg f + deg g that `star` accepts, and the longest word the other
# entry points take.  sigma's insertion recursion is one call deep per
# letter, and the words straightened multiply with the degree.  On a 2-vCPU
# host, on strictly_upper(4) at order 1, (x1+x2+x3+x4)^11 * x1 takes 0.5 s,
# and (x1+x2+x3+x4)^6 * (x1+x2+x3+x4)^6 takes 4.7 s at 259 MB peak RSS,
# against 19 s at 937 MB for the degree-14 product of two seventh powers.
MAX_STAR_DEGREE = 12

# Largest number of term pairs `star` and `mul` straighten: the degree bound
# above leaves wide factors unbounded, and each pair straightens a word of up
# to MAX_STAR_DEGREE letters.  On a 2-vCPU host, on strictly_upper(4) at
# order 1, (x1+x2+x3+x4)^6 lifts to 189 terms, and its square (35,721 pairs)
# takes 2.3 s; 189 by 315 pairs (59,535) take 5.2 s and 315 by 315 (99,225)
# take 10.4 s, about 0.1 ms a pair, while (x1+...+x6)^6 squared (658 by 658,
# 432,964 pairs) did not finish in 60 s.
MAX_STAR_PAIRS = 50_000


def _check_degree(degree: int, what: str) -> None:
    """Refuse a word longer than MAX_STAR_DEGREE before any recursion."""
    if degree > MAX_STAR_DEGREE:
        raise PBWError(f"{what} of degree {degree} exceeds the limit {MAX_STAR_DEGREE}")


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


def _factorial_lcm(lengths: Iterable[int]) -> int:
    """lcm of n! over the lengths: the rescale that keeps a peel integral."""
    return factorial(max(lengths, default=0))


class EnvelopingAlgebra:
    """Straightening, symmetrization and the induced star product for one algebra."""

    def __init__(self, c: StructureConstants):
        self.c = c
        self.dim = c.dim
        brackets = c.brackets
        self._d = lcm(1, *(v.denominator for col in brackets.values() for v in col.values()))
        # descent (j, i), j > i -> [(k, c_k^{ji} * D)]
        self._bracket = {
            (j, i): [(k, int(-v * self._d)) for k, v in column.items()]
            for (i, j), column in brackets.items()
        }
        self._nf: dict[Word, Numerators] = {}
        self._sigma: dict[Word, Numerators] = {}
        self._words: dict[tuple[int, ...], Word] = {}
        self._zero = Polynomial.zero(self.dim)

    # -- integer kernel --------------------------------------------------------------

    def _straighten(self, word: Word) -> Numerators:
        """Ordered-basis expansion of `word`, scaled by D^m."""
        cached = self._nf.get(word)
        if cached is not None:
            return cached
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                break
        else:
            p = -1
        if p < 0:
            result: Numerators = {(word, 0): 1}
        else:
            j, i = word[p], word[p + 1]
            head, tail = word[:p], word[p + 2 :]
            swapped = head + (i, j) + tail
            nf = self._nf
            result = dict(nf.get(swapped) or self._straighten(swapped))
            for k, coeff in self._bracket.get((j, i), ()):
                contracted = head + (k,) + tail
                for (w, m), value in (nf.get(contracted) or self._straighten(contracted)).items():
                    key = (w, m + 1)
                    result[key] = result.get(key, 0) + coeff * value
            result = {key: value for key, value in result.items() if value}
        self._nf[word] = result
        return result

    def _symmetrize(self, word: Word) -> Numerators:
        """sigma(word), scaled by |word|! * D^m."""
        cached = self._sigma.get(word)
        if cached is not None:
            return cached
        if len(word) <= 1:
            result: Numerators = {(word, 0): 1}
        else:
            # n! sigma(w) = sum over distinct letters of
            # multiplicity * X^letter * (n - 1)! sigma(w minus that letter)
            result = {}
            nf = self._nf
            seen: set[int] = set()
            for p, letter in enumerate(word):
                if letter in seen:
                    continue
                seen.add(letter)
                multiplicity = word.count(letter)
                for (w, m), value in self._symmetrize(word[:p] + word[p + 1 :]).items():
                    value *= multiplicity
                    word2 = (letter,) + w
                    for (w2, dm), v2 in (nf.get(word2) or self._straighten(word2)).items():
                        key = (w2, m + dm)
                        result[key] = result.get(key, 0) + value * v2
            result = {key: value for key, value in result.items() if value}
        self._sigma[word] = result
        return result

    def _terms(self, levels: list[Polynomial]) -> list[Term]:
        """(j, word, coefficient) for every term c x^w eps^j of sum_j levels[j] eps^j."""
        words = self._words
        out = []
        for j, p in enumerate(levels):
            if not isinstance(p, Polynomial):
                raise PBWError(f"cannot lift {type(p).__name__}: star takes polynomials")
            if p.dim != self.dim:
                raise PBWError("polynomial dimension mismatch")
            for exps, coeff in p.terms.items():
                word = words.get(exps)
                if word is None:
                    word = words[exps] = word_of_monomial(exps)
                out.append((j, word, coeff))
        return out

    def _lift(self, terms: list[Term], order: int) -> tuple[Numerators, int]:
        """sigma of the terms, truncated at eps^order, as numerators over one
        denominator den (times D^m at eps^m)."""
        weights = [c.denominator * factorial(len(w)) for _, w, c in terms]
        den = lcm(1, *weights)
        sigma = self._sigma
        out: Numerators = {}
        for (j, word, coeff), weight in zip(terms, weights):
            a = coeff.numerator * (den // weight) * self._d**j
            for (w, dm), value in (sigma.get(word) or self._symmetrize(word)).items():
                m = j + dm
                if m <= order:
                    key = (w, m)
                    out[key] = out.get(key, 0) + a * value
        return {key: value for key, value in out.items() if value}, den

    def _numerators(self, element: Element, order: int) -> tuple[Numerators, int]:
        """The eps^0..eps^order part of an element as numerators over one
        denominator den (times D^m at eps^m), the scaling `_lift` returns."""
        kept = {key: Fraction(v) for key, v in element.items() if key[1] <= order}
        den = lcm(1, *(v.denominator for v in kept.values()))
        return {
            (w, m): v.numerator * (den // v.denominator) * self._d**m for (w, m), v in kept.items()
        }, den

    def _product(self, a: Numerators, b: Numerators, order: int) -> list[dict[Word, int]]:
        """The eps levels of a * b up to eps^order: level m maps a word to its
        numerator over den_a * den_b * D^m.  Refuses more than MAX_STAR_PAIRS
        term pairs before it straightens any."""
        if len(a) * len(b) > MAX_STAR_PAIRS:
            raise PBWError(
                f"the UEA product of {len(a)} by {len(b)} lifted terms exceeds "
                f"the limit of {MAX_STAR_PAIRS} pairs"
            )
        levels: list[dict[Word, int]] = [{} for _ in range(order + 1)]
        nf = self._nf
        for (w1, m1), x in a.items():
            for (w2, m2), y in b.items():
                base = m1 + m2
                if base > order:
                    continue
                xy = x * y
                word = w1 + w2
                for (w, dm), value in (nf.get(word) or self._straighten(word)).items():
                    m = base + dm
                    if m <= order:
                        level = levels[m]
                        level[w] = level.get(w, 0) + xy * value
        return levels

    def _peel(self, levels: list[dict[Word, int]], den: int) -> EpsSeries:
        """sigma^{-1} of the element whose eps^m part is levels[m] over den * D^m.
        The levels are consumed.  Their words are non-decreasing, one per
        monomial, and only nonzero values are kept, so each level's
        polynomial is built unchecked; the series is checked, since the
        order comes from the caller."""
        order = len(levels) - 1
        sigma = self._sigma
        out: list[Polynomial] = []
        for m, level in enumerate(levels):
            items = [(w, v) for w, v in level.items() if v]
            if not items:
                out.append(self._zero)
                continue
            rescale = _factorial_lcm(len(w) for w, _ in items)
            if rescale > 1:
                den *= rescale
                for later in levels[m:]:
                    for w in later:
                        later[w] *= rescale
            scale = den * self._d**m
            out.append(
                Polynomial._unchecked(
                    self.dim,
                    {
                        monomial_of_word(self.dim, w): Fraction(v * rescale, scale)
                        for w, v in items
                    },
                )
            )
            for w, v in items:
                a = v * (rescale // factorial(len(w)))
                for (u, dm), s in (sigma.get(w) or self._symmetrize(w)).items():
                    mm = m + dm
                    if mm <= order:
                        target = levels[mm]
                        target[u] = target.get(u, 0) - a * s
        if any(any(level.values()) for level in levels):
            raise PBWError("symmetrization inverse left a remainder")
        return EpsSeries(self.dim, order, out)

    def _sigma_view(self, levels: list[Polynomial], order: int) -> Element:
        terms = self._terms(levels)
        _check_degree(max((len(w) for _, w, _ in terms), default=0), "a symmetrized monomial")
        return self._view(*self._lift(terms, order))

    def _view(self, nums: Numerators, den: int) -> Element:
        return {(w, m): Fraction(v, den * self._d**m) for (w, m), v in nums.items()}

    # -- straightening -----------------------------------------------------------

    def normal_form(self, word: Word) -> Element:
        """Rewrite an arbitrary word into the ordered basis (untruncated)."""
        _check_degree(len(word), "a word")
        return self._view(self._straighten(word), 1)

    def mul(self, a: Element, b: Element, order: int) -> Element:
        """Product in the algebra, truncated at eps^order."""
        (na, den_a), (nb, den_b) = self._numerators(a, order), self._numerators(b, order)
        if na and nb:
            _check_degree(max(len(w) for w, _ in na) + max(len(w) for w, _ in nb), "a product")
        levels = self._product(na, nb, order)
        return self._view(
            {(w, m): v for m, level in enumerate(levels) for w, v in level.items() if v},
            den_a * den_b,
        )

    # -- symmetrization ------------------------------------------------------------

    def sigma_word(self, word: Word) -> Element:
        """Symmetrized product of the (sorted) word's letters."""
        _check_degree(len(word), "a symmetrized word")
        return self._view(self._symmetrize(word), factorial(len(word)))

    def sigma_polynomial(self, p: Polynomial) -> Element:
        return self._sigma_view([p], max(p.total_degree(), 0))

    def sigma_series(self, s: EpsSeries) -> Element:
        return self._sigma_view(list(s.coeffs), s.order)

    def inverse_sigma(self, element: Element, order: int) -> EpsSeries:
        """Peel eps levels: level-m leftovers form p_m, subtract sigma(p_m) eps^m."""
        nums, den = self._numerators(element, order)
        _check_degree(max((len(w) for w, _ in nums), default=0), "a word")
        levels: list[dict[Word, int]] = [{} for _ in range(order + 1)]
        for (w, m), v in nums.items():
            levels[m][w] = v
        return self._peel(levels, den)

    # -- the star product ------------------------------------------------------------

    def star(self, f: Polynomial, g: Polynomial, order: int) -> EpsSeries:
        fl, gl = self._terms([f]), self._terms([g])
        degree = max((len(w) for _, w, _ in fl), default=-1) + max(
            (len(w) for _, w, _ in gl), default=-1
        )
        _check_degree(degree, "the UEA product")
        a, den_a = self._lift(fl, order)
        b, den_b = self._lift(gl, order)
        return self._peel(self._product(a, b, order), den_a * den_b)


@lru_cache(maxsize=None)
def enveloping_algebra(c: StructureConstants) -> EnvelopingAlgebra:
    return EnvelopingAlgebra(c)


def uea_star(c: StructureConstants, f: Polynomial, g: Polynomial, order: int) -> EpsSeries:
    return enveloping_algebra(c).star(f, g, order)
