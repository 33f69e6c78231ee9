"""Free Lie algebras with a Lyndon-word basis, and the Hausdorff series.

The basis element attached to a Lyndon word is its standard bracketing
(recursive bracketing of the standard factorization, letters ordered
X < Y < Z ...).  Arbitrary bracket expressions are rewritten into this basis
by expanding in the word algebra and eliminating against the triangular
system b(w) = w + (lexicographically larger words).

The word expansion of b(w) has integer coefficients: b(u v) = b(u) b(v) -
b(v) b(u) starts from single letters with coefficient 1.  `FreeLie` caches
each expansion once, as ints, and `basis_bracket` and `hausdorff_series`
eliminate on integers; the public `expansion` and every coordinate returned
are `Fraction`s.

The Hausdorff series H with exp(H) = exp(X) exp(Y) is computed in two steps
(after Casas & Murua, J. Math. Phys. 50 (2009)).  First, the coefficient of
a word in log(exp X exp Y) comes from a dynamic program over its prefixes:
exp(X) exp(Y) - 1 is the sum of the blocks X^a Y^b (a + b >= 1) with weight
1/(a! b!), so a word's coefficient sums (-1)^(k-1)/k times the product of
the block weights over its splittings into k blocks.  Second, because
b(u) = u + (larger words), the coordinate of a Lyndon word w is its word
coefficient minus the contributions of the smaller Lyndon words of its
degree, so only the Lyndon words' coefficients are ever needed.  The part
of H linear in Y is computed separately in the quotient of the word algebra
by words with two or more Y's, which is cheap enough for double-digit
degrees.

Bracket monomials are nested 2-tuples with letter leaves, e.g.
('X', ('X', 'Y')) for [X,[X,Y]]; text form "[X,[X,Y]]".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping, Sequence, Union

from .graphs import GROUND_X, GROUND_Y, AdmissibleGraph
from .poly import MAX_NESTING, nonzero

Word = tuple[str, ...]
BracketTree = Union[str, tuple]  # leaf letter or (left, right)
LieDict = dict[Word, Fraction]

__all__ = [
    "FreeLie",
    "LieSeries",
    "free_lie",
    "hausdorff_series",
    "hausdorff_linear_in_y",
    "lie_to_lgraph",
    "parse_bracket",
    "format_bracket",
    "tree_degree",
    "LieError",
]


class LieError(ValueError):
    pass


def _lyndon_words(alphabet: tuple[str, ...], max_len: int) -> list[Word]:
    """All Lyndon words of length <= max_len, lexicographically (Duval)."""
    k = len(alphabet)
    words: list[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        if w[-1] < k:
            words.append(tuple(alphabet[i] for i in w))
            m = len(w)
            while len(w) < max_len:
                w.append(w[len(w) - m])
        else:
            w.pop()
            continue
        while w and w[-1] == k - 1:
            w.pop()
        # next increment happens at loop head
    return sorted(words, key=lambda word: (len(word), word))


def _commutator(p: dict[Word, int], q: dict[Word, int]) -> dict[Word, int]:
    """pq - qp in the word algebra, zero coefficients dropped."""
    result: dict[Word, int] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            c = c1 * c2
            result[w1 + w2] = result.get(w1 + w2, 0) + c
            result[w2 + w1] = result.get(w2 + w1, 0) - c
    return {key: c for key, c in result.items() if c}


class FreeLie:
    """Lyndon-basis machinery over one ordered alphabet (letters sorted)."""

    def __init__(self, alphabet: Sequence[str]):
        alpha = tuple(alphabet)
        if list(alpha) != sorted(alpha) or len(set(alpha)) != len(alpha):
            raise LieError("alphabet must be strictly increasing letters")
        self.alphabet = alpha
        self._lyndon_cache: dict[int, list[Word]] = {}
        self._expansion: dict[Word, dict[Word, int]] = {}
        self._tree: dict[Word, BracketTree] = {}
        self._pair: dict[tuple[Word, Word], LieDict] = {}
        self._nested: dict[Word, LieDict] = {}

    # -- Lyndon words --------------------------------------------------------

    def lyndon_words(self, degree: int) -> list[Word]:
        if degree not in self._lyndon_cache:
            table: dict[int, list[Word]] = {d: [] for d in range(1, degree + 1)}
            for word in _lyndon_words(self.alphabet, degree):
                table[len(word)].append(word)
            for d, words in table.items():
                self._lyndon_cache.setdefault(d, sorted(words))
        return self._lyndon_cache[degree]

    @staticmethod
    def is_lyndon(word: Word) -> bool:
        return len(word) > 0 and all(word < word[i:] for i in range(1, len(word)))

    @staticmethod
    def standard_factorization(word: Word) -> tuple[Word, Word]:
        """w = u v with v the smallest (equivalently longest Lyndon) proper suffix."""
        if len(word) < 2:
            raise LieError("cannot factor a single letter")
        v = min(word[i:] for i in range(1, len(word)))
        return word[: len(word) - len(v)], v

    def bracket_tree(self, word: Word) -> BracketTree:
        """Standard bracketing of a Lyndon word."""
        if word in self._tree:
            return self._tree[word]
        if len(word) == 1:
            tree: BracketTree = word[0]
        else:
            u, v = self.standard_factorization(word)
            tree = (self.bracket_tree(u), self.bracket_tree(v))
        self._tree[word] = tree
        return tree

    def _integer_expansion(self, word: Word) -> dict[Word, int]:
        """Word-algebra expansion of b(word); the cache every route reads."""
        cached = self._expansion.get(word)
        if cached is not None:
            return cached
        if len(word) == 1:
            result = {word: 1}
        else:
            u, v = self.standard_factorization(word)
            result = _commutator(self._integer_expansion(u), self._integer_expansion(v))
        self._expansion[word] = result
        return result

    def expansion(self, word: Word) -> dict[Word, Fraction]:
        """Word-algebra expansion of the basis element b(word)."""
        return {w: Fraction(c) for w, c in self._integer_expansion(word).items()}

    # -- rewriting into the basis ---------------------------------------------

    def lyndon_coordinates(self, assoc: Mapping[Word, Fraction]) -> LieDict:
        """Coordinates of a Lie element given as a word-algebra polynomial.

        Works degree by degree: b(w) = w + (larger words), so scanning Lyndon
        words upward peels coefficients off triangularly.  Raises if a nonzero
        remainder survives (the input was not a Lie element).
        """
        by_degree: dict[int, dict[Word, Fraction]] = {}
        for word, coeff in assoc.items():
            if coeff:
                by_degree.setdefault(len(word), {})[word] = coeff
        coords: LieDict = {}
        for degree, residual in sorted(by_degree.items()):
            if degree == 0:
                raise LieError("constant terms are not Lie elements")
            for lw in self.lyndon_words(degree):
                coeff = residual.get(lw)
                if not coeff:
                    continue
                coords[lw] = coeff
                for word, c in self._integer_expansion(lw).items():
                    residual[word] = residual.get(word, 0) - coeff * c
            if any(residual.values()):
                raise LieError(f"not a Lie element (degree {degree} remainder)")
        return coords

    # -- brackets --------------------------------------------------------------

    def basis_bracket(self, u: Word, v: Word) -> LieDict:
        """[b(u), b(v)] in basis coordinates."""
        if u == v:
            return {}
        key = (u, v)
        if key in self._pair:
            return self._pair[key]
        if v < u:
            result = {w: -c for w, c in self.basis_bracket(v, u).items()}
        else:
            # integer coefficients in, integer coordinates out: the
            # triangular system has ones on its diagonal
            assoc = _commutator(self._integer_expansion(u), self._integer_expansion(v))
            result = {w: Fraction(c) for w, c in self.lyndon_coordinates(assoc).items()}
        self._pair[key] = result
        return result

    def bracket(self, a: Mapping[Word, Fraction], b: Mapping[Word, Fraction], max_degree: int | None = None) -> LieDict:
        out: LieDict = {}
        for u, ca in a.items():
            for v, cb in b.items():
                if max_degree is not None and len(u) + len(v) > max_degree:
                    continue
                for w, c in self.basis_bracket(u, v).items():
                    out[w] = out.get(w, 0) + ca * cb * c
        return nonzero(out)

    def left_nested(self, word: Word) -> LieDict:
        """[[..[w1,w2],w3]..,wn] in basis coordinates."""
        if word in self._nested:
            return self._nested[word]
        if len(word) == 1:
            result: LieDict = {word: Fraction(1)}
        else:
            head = self.left_nested(word[:-1])
            result = self.bracket(head, {(word[-1],): Fraction(1)})
        self._nested[word] = result
        return result

    def evaluate_tree(self, tree: BracketTree, assignment: Mapping[str, "LieSeries"], order: int) -> LieDict:
        if isinstance(tree, str):
            return dict(assignment[tree].terms)
        return self.bracket(
            self.evaluate_tree(tree[0], assignment, order),
            self.evaluate_tree(tree[1], assignment, order),
            max_degree=order,
        )


@lru_cache(maxsize=None)
def free_lie(alphabet: tuple[str, ...]) -> FreeLie:
    return FreeLie(alphabet)


class LieSeries:
    """Truncated element of the free Lie algebra in Lyndon-basis coordinates."""

    __slots__ = ("alphabet", "order", "terms")

    def __init__(self, alphabet: Sequence[str], order: int, terms: Mapping[Word, Fraction] | None = None):
        alpha = tuple(alphabet)
        fl = free_lie(alpha)
        if order < 0:
            raise LieError("truncation order must be >= 0")
        clean: LieDict = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if not fl.is_lyndon(word):
                    raise LieError(f"{word!r} is not a Lyndon word")
                if any(letter not in alpha for letter in word):
                    raise LieError(f"word {word!r} uses letters outside the alphabet")
                coeff = Fraction(coeff)
                if coeff and len(word) <= order:
                    clean[word] = coeff
        object.__setattr__(self, "alphabet", alpha)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LieSeries is immutable")

    def _check(self, other: "LieSeries"):
        if self.alphabet != other.alphabet or self.order != other.order:
            raise LieError("alphabet/order mismatch")

    def __eq__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return LieSeries(self.alphabet, self.order, terms)

    def __sub__(self, other):
        if not isinstance(other, LieSeries):
            return NotImplemented
        return self + (other * Fraction(-1))

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return LieSeries(self.alphabet, self.order, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

    def bracket(self, other: "LieSeries") -> "LieSeries":
        self._check(other)
        fl = free_lie(self.alphabet)
        return LieSeries(
            self.alphabet, self.order, fl.bracket(self.terms, other.terms, self.order)
        )

    def degree_component(self, degree: int) -> LieDict:
        return {w: c for w, c in self.terms.items() if len(w) == degree}

    def coefficient(self, word: Sequence[str]) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def substitute(self, assignment: Mapping[str, "LieSeries"]) -> "LieSeries":
        """Evaluate the series as a Lie-polynomial in its letters."""
        values = list(assignment.values())
        if not values:
            raise LieError("empty assignment")
        target_alpha = values[0].alphabet
        order = values[0].order
        for v in values:
            if v.alphabet != target_alpha or v.order != order:
                raise LieError("assignment values disagree on alphabet/order")
        if set(assignment) < set(self.alphabet):
            missing = set(self.alphabet) - set(assignment)
            raise LieError(f"assignment missing letters {sorted(missing)}")
        src = free_lie(self.alphabet)
        dst = free_lie(target_alpha)
        total: LieDict = {}
        for word, coeff in self.terms.items():
            tree = src.bracket_tree(word)
            value = dst.evaluate_tree(tree, assignment, order)
            for w, c in value.items():
                total[w] = total.get(w, 0) + coeff * c
        return LieSeries(target_alpha, order, total)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        fl = free_lie(self.alphabet)
        parts = [
            f"{c}*{format_bracket(fl.bracket_tree(w))}" for w, c in self.sorted_terms()
        ]
        return f"LieSeries(order={self.order}, {' + '.join(parts) or '0'})"


def _log_word_coefficient(word: Word) -> Fraction:
    """Coefficient of a word over X < Y in log(exp X exp Y).

    exp(X) exp(Y) - 1 is the sum of the blocks X^a Y^b (a + b >= 1) with
    weight 1/(a! b!), so the coefficient sums (-1)^(k-1)/k times the product
    of the block weights over the splittings of the word into k blocks.
    ways[j][k] holds that sum over the splittings of the first j letters
    into k blocks, scaled by j!: the scaled weights are the integers
    C(j, i) C(a + b, a) for a block word[i:j] = X^a Y^b.  The sum over k
    is one integer over lcm(1..n) n!, as every k <= n divides lcm(1..n).
    """
    n = len(word)
    # ends[i]: the largest j such that word[i:j] has no Y before an X
    ends = [n] * n
    for i in range(n - 2, -1, -1):
        ends[i] = i + 1 if (word[i], word[i + 1]) == ("Y", "X") else ends[i + 1]
    ways = [[0] * (n + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for i in range(n):
        row = ways[i]
        a = 0
        for j in range(i + 1, ends[i] + 1):
            a += word[j - 1] == "X"
            scale = comb(j, i) * comb(j - i, a)
            target = ways[j]
            for k in range(i + 1):
                if row[k]:
                    target[k + 1] += scale * row[k]
    scale = lcm(*range(1, n + 1))
    total = sum((c if k % 2 else -c) * (scale // k) for k, c in enumerate(ways[n]) if k)
    return Fraction(total, scale * factorial(n))


@lru_cache(maxsize=None)
def hausdorff_series(order: int) -> LieSeries:
    """H(X, Y) = log(exp X exp Y) as a LieSeries truncated at the given degree.

    Degree by degree, the Lyndon words w are visited in increasing order:
    b(u) = u + (larger words), so the coefficient of w in the word expansion
    of H involves only b(w) itself and the smaller Lyndon words u of its
    degree, and coord[w] = coeff(w) - sum_u coord[u] * b(u)[w], with coeff
    the word coefficient of the logarithm.  The elimination runs on
    numerators over the lcm of the degree's word-coefficient denominators.
    """
    if order < 1:
        raise LieError("order must be >= 1")
    alpha = ("X", "Y")
    fl = free_lie(alpha)
    total: LieDict = {}
    for degree in range(1, order + 1):
        words = fl.lyndon_words(degree)
        coeffs = {w: _log_word_coefficient(w) for w in words}
        den = lcm(*(c.denominator for c in coeffs.values()))
        residual = {w: c.numerator * (den // c.denominator) for w, c in coeffs.items()}
        for w in words:
            num = residual.pop(w)
            if not num:
                continue
            total[w] = Fraction(num, den)
            for word, c in fl._integer_expansion(w).items():
                if word in residual:
                    residual[word] -= num * c
    return LieSeries(alpha, order, total)


def hausdorff_linear_in_y(max_k: int) -> list[Fraction]:
    """Coefficients of ad_X^k(Y) in H(X,Y) for k = 1..max_k.

    Computed in the quotient of the word algebra by words with two or more
    Y's.  An element there is a pair (P(a), Q(a, b)): P collects the pure
    powers X^a, Q the words X^a Y X^b (a tracked by x1, b by x2).  In this
    quotient the coefficient of ad_X^k(Y) in a Lie element equals the
    coefficient of the word X^k Y, i.e. of the monomial x1^k in Q.  P and Q
    are {(a, b): coefficient} dicts, and a product never forms a term above
    the degree it keeps.
    """
    if max_k < 1:
        raise LieError("max_k must be >= 1")
    order = max_k + 1

    def mul(f: dict, g: dict, degree: int, out: dict) -> dict:
        # out += f * g, without the terms of total degree above `degree`
        for (a1, b1), c1 in f.items():
            room = degree - a1 - b1
            for (a2, b2), c2 in g.items():
                if a2 + b2 <= room:
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + c1 * c2
        return out

    def q_mul(p1: dict, q1: dict, p2: dict, q2: dict):
        # (p1, q1) * (p2, q2): pure parts multiply; a single Y survives either
        # from q1 (p2's X-power lands to the right of Y, tracked by x2) or
        # from q2 (p1's X-power lands on the left, tracked by x1).
        p2_right = {(0, a): c for (a, _), c in p2.items()}
        q = mul(p1, q2, order - 1, mul(q1, p2_right, order - 1, {}))
        return mul(p1, p2, order, {}), q

    # exp(X) exp(Y) = (E(x1), E(x1)) where E is the truncated exponential
    u_p = {(a, 0): Fraction(1, factorial(a)) for a in range(1, order + 1)}
    u_q = {(a, 0): Fraction(1, factorial(a)) for a in range(order)}
    log_q: dict = {}
    pow_p, pow_q = {(0, 0): Fraction(1)}, {}
    for m in range(1, order + 1):
        pow_p, pow_q = q_mul(pow_p, pow_q, u_p, u_q)
        sign = Fraction(1, m) if m % 2 == 1 else Fraction(-1, m)
        for key, c in pow_q.items():
            log_q[key] = log_q.get(key, 0) + c * sign
        if not any(pow_p.values()) and not any(pow_q.values()):
            break
    return [Fraction(log_q.get((k, 0), 0)) for k in range(1, max_k + 1)]


# -- bracket monomials <-> graphs and text ------------------------------------

def tree_degree(tree: BracketTree) -> int:
    if isinstance(tree, str):
        return 1
    return tree_degree(tree[0]) + tree_degree(tree[1])


def lie_to_lgraph(tree: BracketTree) -> AdmissibleGraph:
    """L-graph of a bracket monomial over letters X, Y.

    Every bracket becomes an aerial vertex (numbered in post-order, inner
    brackets first); its first edge points at the first argument's vertex,
    the second at the second argument's; X and Y leaves merge into the
    grounds.
    """
    if isinstance(tree, str):
        raise LieError("a bare generator has no L-graph")
    edges: list[tuple[int, int]] = []

    def build(node: BracketTree) -> int:
        if node == "X":
            return GROUND_X
        if node == "Y":
            return GROUND_Y
        if isinstance(node, str):
            raise LieError(f"leaf {node!r} is not X or Y")
        a = build(node[0])
        b = build(node[1])
        edges.append((a, b))
        return len(edges)

    build(tree)
    return AdmissibleGraph(tuple(edges))


def parse_bracket(text: str) -> BracketTree:
    """Parse bracket-monomial text like "[X,[X,Y]]" (at most MAX_NESTING deep)."""
    s = text.replace(" ", "")
    pos = 0

    def parse(depth: int) -> BracketTree:
        nonlocal pos
        if pos < len(s) and s[pos] == "[":
            if depth == MAX_NESTING:
                raise LieError(f"brackets nested deeper than {MAX_NESTING} at position {pos}")
            pos += 1
            left = parse(depth + 1)
            if pos >= len(s) or s[pos] != ",":
                raise LieError(f"expected ',' at position {pos} of {text!r}")
            pos += 1
            right = parse(depth + 1)
            if pos >= len(s) or s[pos] != "]":
                raise LieError(f"expected ']' at position {pos} of {text!r}")
            pos += 1
            return (left, right)
        if pos < len(s) and s[pos].isalpha():
            start = pos
            while pos < len(s) and s[pos].isalpha():
                pos += 1
            return s[start:pos]
        raise LieError(f"unexpected character at position {pos} of {text!r}")

    tree = parse(0)
    if pos != len(s):
        raise LieError(f"trailing characters at position {pos} of {text!r}")
    return tree


def format_bracket(tree: BracketTree) -> str:
    if isinstance(tree, str):
        return tree
    return f"[{format_bracket(tree[0])},{format_bracket(tree[1])}]"
