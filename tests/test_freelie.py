"""Tests for the Lyndon-basis free Lie algebra and the Hausdorff series."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from dqw import freelie
from dqw.bernoulli import bernoulli_number
from dqw.freelie import (
    FreeLie,
    LieError,
    LieSeries,
    format_bracket,
    free_lie,
    hausdorff_linear_in_y,
    hausdorff_series,
    lie_to_lgraph,
    parse_bracket,
    tree_degree,
    _log_word_coefficient,
)
from dqw.graphs import classify, format_graph
from dqw.poly import MAX_NESTING, Polynomial
from dqw.series import NCSeries, nc_exp, nc_log

F = Fraction
XY = ("X", "Y")


@lru_cache(maxsize=None)
def reference_hausdorff_series(order: int) -> LieSeries:
    """H through the associative logarithm over all 2^n words, projected by
    left bracketing: a degree-n word contributes coeff/n times its
    left-nested bracket."""
    fl = free_lie(XY)
    X = NCSeries.letter(XY, order, "X")
    Y = NCSeries.letter(XY, order, "Y")
    assoc_log = nc_log(nc_exp(X) * nc_exp(Y))
    total: dict = {}
    for word, coeff in assoc_log.terms.items():
        scale = coeff / len(word)
        for w, c in fl.left_nested(word).items():
            total[w] = total.get(w, 0) + scale * c
    return LieSeries(XY, order, total)


def block_dp(word, weight) -> Fraction:
    """The block dynamic program of _log_word_coefficient in plain Fractions:
    ways[j][k] sums the products of weight(a, b) over the splittings of
    word[:j] into k blocks X^a Y^b."""
    n = len(word)
    ways = [[F(0)] * (n + 1) for _ in range(n + 1)]
    ways[0][0] = F(1)
    for i in range(n):
        for j in range(i + 1, n + 1):
            block = word[i:j]
            a = block.count("X")
            if block != ("X",) * a + ("Y",) * (j - i - a):
                break
            for k in range(i + 1):
                ways[j][k + 1] += ways[i][k] * weight(a, j - i - a)
    return sum(F((-1) ** (k - 1), k) * ways[n][k] for k in range(1, n + 1))


def reference_log_word_coefficient(word) -> Fraction:
    """`_log_word_coefficient` before its sum over k ran on integers: the
    same block dynamic program, one Fraction per number of blocks."""
    n = len(word)
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
    total = sum(F(c if k % 2 else -c, k) for k, c in enumerate(ways[n]) if k and c)
    return total / factorial(n)


def exp_weight(a, b):
    return F(1, factorial(a) * factorial(b))


def reference_expansion(fl: FreeLie, word, memo: dict) -> dict:
    """b(word) in the word algebra by the Fraction recursion the integer
    cache replaced: b(u v) = b(u) b(v) - b(v) b(u)."""
    if word in memo:
        return memo[word]
    if len(word) == 1:
        result = {word: F(1)}
    else:
        u, v = fl.standard_factorization(word)
        pu, pv = reference_expansion(fl, u, memo), reference_expansion(fl, v, memo)
        result = {}
        for w1, c1 in pu.items():
            for w2, c2 in pv.items():
                for key, coeff in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2)):
                    result[key] = result.get(key, 0) + coeff
        result = {key: c for key, c in result.items() if c}
    memo[word] = result
    return result


def reference_hausdorff_linear_in_y(max_k: int) -> list[Fraction]:
    """hausdorff_linear_in_y on whole Polynomials: every product is formed
    in full and only then truncated.  Kept as the oracle of the truncating
    product."""
    order = max_k + 1

    def _truncate(p: Polynomial, degree: int) -> Polynomial:
        return Polynomial(2, {e: c for e, c in p.terms.items() if sum(e) <= degree})

    def q_mul(p1: Polynomial, q1: Polynomial, p2: Polynomial, q2: Polynomial):
        p2_right = Polynomial(2, {(0, e[0]): c for e, c in p2.terms.items()})
        p = _truncate(p1 * p2, order)
        q = _truncate(q1 * p2_right + p1 * q2, order - 1)
        return p, q

    E = Polynomial(2, {(a, 0): Fraction(1, factorial(a)) for a in range(order + 1)})
    one = Polynomial.one(2)
    u_p, u_q = _truncate(E - one, order), _truncate(E, order - 1)
    log_p, log_q = Polynomial.zero(2), Polynomial.zero(2)
    pow_p, pow_q = one, Polynomial.zero(2)
    for m in range(1, order + 1):
        pow_p, pow_q = q_mul(pow_p, pow_q, u_p, u_q)
        sign = Fraction(1, m) if m % 2 == 1 else Fraction(-1, m)
        log_p = log_p + pow_p * sign
        log_q = log_q + pow_q * sign
        if pow_p.is_zero() and pow_q.is_zero():
            break
    return [log_q.coefficient((k, 0)) for k in range(1, max_k + 1)]


def oracle_mismatches(build, degrees) -> list[int]:
    return [n for n in degrees if build(n) != reference_hausdorff_series(n)]


class TestLyndonWords:
    def test_counts(self):
        # binary Lyndon-word counts (necklace polynomial): 2,1,2,3,6,9
        fl = free_lie(XY)
        assert [len(fl.lyndon_words(d)) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]

    def test_membership(self):
        fl = free_lie(XY)
        assert fl.is_lyndon(("X",))
        assert fl.is_lyndon(("X", "X", "Y", "X", "Y"))
        assert not fl.is_lyndon(("Y", "X"))
        assert not fl.is_lyndon(("X", "Y", "X", "Y"))  # a square
        for d in range(1, 6):
            for w in fl.lyndon_words(d):
                assert fl.is_lyndon(w)

    def test_standard_factorization(self):
        fl = free_lie(XY)
        assert fl.standard_factorization(("X", "Y")) == (("X",), ("Y",))
        assert fl.standard_factorization(("X", "X", "Y")) == (("X",), ("X", "Y"))
        assert fl.standard_factorization(("X", "Y", "Y")) == (("X", "Y"), ("Y",))
        # both factors of a Lyndon word are Lyndon
        for d in range(2, 7):
            for w in fl.lyndon_words(d):
                u, v = fl.standard_factorization(w)
                assert fl.is_lyndon(u) and fl.is_lyndon(v) and u + v == w and u < v

    def test_bracket_tree(self):
        fl = free_lie(XY)
        assert format_bracket(fl.bracket_tree(("X", "X", "Y"))) == "[X,[X,Y]]"
        assert format_bracket(fl.bracket_tree(("X", "Y", "Y"))) == "[[X,Y],Y]"


class TestExpansionAndCoordinates:
    def test_expansion_triangular(self):
        # b(w) = w + strictly larger words of the same multidegree
        fl = free_lie(XY)
        for d in range(1, 6):
            for w in fl.lyndon_words(d):
                exp = fl.expansion(w)
                assert exp[w] == 1
                for word in exp:
                    assert word >= w and sorted(word) == sorted(w)

    @pytest.mark.parametrize("alphabet, degree", [(XY, 10), (("X", "Y", "Z"), 6)])
    def test_integer_cache_equals_fraction_recursion(self, alphabet, degree):
        fl, memo = FreeLie(alphabet), {}
        words = [w for d in range(1, degree + 1) for w in fl.lyndon_words(d)]
        for w in words:
            assert fl._integer_expansion(w) == reference_expansion(fl, w, memo), w
            assert all(type(c) is int for c in fl._integer_expansion(w).values())
            assert fl.expansion(w) == fl._integer_expansion(w)
            assert all(type(c) is Fraction for c in fl.expansion(w).values())

    def test_coordinates_round_trip(self):
        fl = free_lie(XY)
        element = {("X", "X", "Y"): F(3, 2), ("X", "Y"): F(-1), ("X",): F(2)}
        assoc: dict = {}
        for w, c in element.items():
            for word, k in fl.expansion(w).items():
                assoc[word] = assoc.get(word, F(0)) + c * k
        assert fl.lyndon_coordinates(assoc) == element

    def test_non_lie_element_rejected(self):
        fl = free_lie(XY)
        with pytest.raises(LieError):
            fl.lyndon_coordinates({("X", "Y"): F(1)})  # XY alone is not [X,Y]
        with pytest.raises(LieError):
            fl.lyndon_coordinates({(): F(1)})

    def test_antisymmetry_and_jacobi(self):
        fl = free_lie(XY)
        a, b, c = ("X",), ("Y",), ("X", "Y")
        ab = fl.basis_bracket(a, b)
        ba = fl.basis_bracket(b, a)
        assert {w: -k for w, k in ab.items()} == ba
        assert fl.basis_bracket(c, c) == {}

        def brk(p, q):
            return fl.bracket(p, q)

        one = lambda w: {w: F(1)}
        jacobi = {}
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            for w, k in brk(one(p), brk(one(q), one(r))).items():
                jacobi[w] = jacobi.get(w, F(0)) + k
        assert not {w: k for w, k in jacobi.items() if k}


class TestHausdorff:
    def test_low_degrees(self):
        H = hausdorff_series(4)
        assert H.degree_component(1) == {("X",): F(1), ("Y",): F(1)}
        assert H.degree_component(2) == {("X", "Y"): F(1, 2)}
        assert H.degree_component(3) == {
            ("X", "X", "Y"): F(1, 12),
            ("X", "Y", "Y"): F(1, 12),
        }
        assert H.degree_component(4) == {("X", "X", "Y", "Y"): F(1, 24)}

    def test_degree_four_against_direct_elimination(self):
        # independent route: take the associative log and read coordinates by
        # triangular elimination instead of the left-bracketing projection.
        order = 4
        fl = free_lie(XY)
        X = NCSeries.letter(XY, order, "X")
        Y = NCSeries.letter(XY, order, "Y")
        assoc = nc_log(nc_exp(X) * nc_exp(Y))
        coords = fl.lyndon_coordinates(dict(assoc.terms))
        H = hausdorff_series(order)
        assert coords == H.terms

    def test_exponential_identity(self):
        # exp(H) must reproduce exp(X) exp(Y) exactly, word by word.
        order = 5
        fl = free_lie(XY)
        H = hausdorff_series(order)
        assoc: dict = {}
        for w, c in H.terms.items():
            for word, k in fl.expansion(w).items():
                acc = assoc.get(word, F(0)) + c * k
                if acc:
                    assoc[word] = acc
                else:
                    assoc.pop(word, None)
        X = NCSeries.letter(XY, order, "X")
        Y = NCSeries.letter(XY, order, "Y")
        assert nc_exp(NCSeries(XY, order, assoc)) == nc_exp(X) * nc_exp(Y)

    def test_linear_in_y_values(self):
        got = hausdorff_linear_in_y(12)
        want = [
            bernoulli_number(k, variant="modified") / factorial(k) for k in range(1, 13)
        ]
        assert got == want
        assert got[0] == F(1, 2) and got[1] == F(1, 12) and got[2] == 0

    def test_linear_in_y_equals_reference_through_twenty(self):
        for max_k in range(1, 21):
            got = hausdorff_linear_in_y(max_k)
            assert got == reference_hausdorff_linear_in_y(max_k), max_k
            assert all(type(c) is Fraction for c in got)

    def test_linear_in_y_matches_full_series(self):
        H = hausdorff_series(6)
        lin = hausdorff_linear_in_y(5)
        for k in range(1, 6):
            word = ("X",) * k + ("Y",)
            assert H.coefficient(word) == lin[k - 1]


class TestLyndonRoute:
    """hausdorff_series against the 2^n-word logarithm it replaced."""

    def test_equals_reference_through_degree_ten(self):
        assert oracle_mismatches(hausdorff_series, range(1, 11)) == []

    def test_word_coefficients_on_every_word_through_degree_eight(self):
        order = 8
        X = NCSeries.letter(XY, order, "X")
        Y = NCSeries.letter(XY, order, "Y")
        assoc_log = nc_log(nc_exp(X) * nc_exp(Y))
        for n in range(1, order + 1):
            for word in product(XY, repeat=n):
                assert _log_word_coefficient(word) == assoc_log.coefficient(word), word

    def test_word_coefficients_equal_the_fraction_sum_through_twelve(self):
        for n in range(1, 13):
            for word in product(XY, repeat=n):
                assert _log_word_coefficient(word) == reference_log_word_coefficient(word), word

    def test_linear_in_y_tail_through_thirty(self):
        # X^k Y is the smallest Lyndon word of its degree, so its coordinate
        # in H is its word coefficient.
        lin = hausdorff_linear_in_y(30)
        for k in range(1, 31):
            assert _log_word_coefficient(("X",) * k + ("Y",)) == lin[k - 1], k
        H = hausdorff_series(10)
        for k in range(1, 10):
            assert H.coefficient(("X",) * k + ("Y",)) == lin[k - 1]

    def test_copy_of_the_dynamic_program_agrees(self, monkeypatch):
        monkeypatch.setattr(freelie, "_log_word_coefficient", lambda w: block_dp(w, exp_weight))
        assert oracle_mismatches(hausdorff_series.__wrapped__, range(1, 8)) == []

    def test_perturbed_block_weight_fails_the_oracle(self, monkeypatch):
        # negative control: the block XY weighs 2 instead of 1/(1! 1!)
        def perturbed(a, b):
            return exp_weight(a, b) * (2 if (a, b) == (1, 1) else 1)

        monkeypatch.setattr(freelie, "_log_word_coefficient", lambda w: block_dp(w, perturbed))
        assert oracle_mismatches(hausdorff_series.__wrapped__, range(1, 11)) == list(range(2, 11))


class TestLieSeries:
    def test_vector_space_ops(self):
        a = LieSeries(XY, 4, {("X", "Y"): F(1)})
        b = LieSeries(XY, 4, {("X", "Y"): F(2), ("X",): F(1)})
        assert (a + b).terms == {("X", "Y"): F(3), ("X",): F(1)}
        assert (b - a * 2).terms == {("X",): F(1)}
        assert (a * 0).terms == {}

    def test_truncation_and_validation(self):
        s = LieSeries(XY, 2, {("X", "X", "Y"): F(1), ("X",): F(1)})
        assert s.terms == {("X",): F(1)}
        with pytest.raises(LieError):
            LieSeries(XY, 4, {("Y", "X"): F(1)})

    @pytest.mark.parametrize("order", [1, 2])
    def test_terms_are_validated_before_the_order_drop(self, order):
        # at order 1 a two-letter word is dropped, but only after it passes
        # the same checks as at order 2; a zero coefficient is no excuse
        with pytest.raises(LieError, match="not a Lyndon word"):
            LieSeries(XY, order, {("Y", "X"): F(1)})
        with pytest.raises(LieError, match="not a Lyndon word"):
            LieSeries(XY, order, {("Y", "X"): F(0)})
        with pytest.raises(LieError, match="outside the alphabet"):
            LieSeries(XY, order, {("X", "Z"): F(1)})
        kept = LieSeries(XY, order, {("X", "Y"): F(1), ("Y",): F(0)}).terms
        assert kept == ({("X", "Y"): F(1)} if order == 2 else {})

    def test_negative_order_refused(self):
        with pytest.raises(LieError, match="order must be >= 0"):
            LieSeries(XY, -1)

    def test_bracket(self):
        x = LieSeries(XY, 3, {("X",): F(1)})
        y = LieSeries(XY, 3, {("Y",): F(1)})
        assert x.bracket(y).terms == {("X", "Y"): F(1)}
        assert x.bracket(x.bracket(y)).terms == {("X", "X", "Y"): F(1)}

    def test_substitution_associativity_seed(self):
        # H(H(X,Y),Z) = H(X,H(Y,Z)) in the free nilpotent algebra of class 4.
        order = 4
        alpha3 = ("X", "Y", "Z")
        H = hausdorff_series(order)

        def embed(letter: str) -> LieSeries:
            return LieSeries(alpha3, order, {(letter,): F(1)})

        X, Y, Z = map(embed, alpha3)
        HXY = H.substitute({"X": X, "Y": Y})
        HYZ = H.substitute({"X": Y, "Y": Z})
        left = H.substitute({"X": HXY, "Y": Z})
        right = H.substitute({"X": X, "Y": HYZ})
        assert left == right
        assert left.degree_component(1) == {(l,): F(1) for l in alpha3}


class TestBracketText:
    def test_parse_format_round_trip(self):
        for text in ["X", "Y", "[X,Y]", "[X,[X,Y]]", "[[X,[X,Y]],[X,Y]]"]:
            assert format_bracket(parse_bracket(text)) == text

    def test_whitespace_and_errors(self):
        assert parse_bracket("[ X , Y ]") == ("X", "Y")
        for bad in ["[X,Y", "[X Y]", "", "[X,Y]]", "[,Y]"]:
            with pytest.raises(LieError):
                parse_bracket(bad)

    def test_nesting_limit(self):
        deep = "[X," * MAX_NESTING + "Y" + "]" * MAX_NESTING
        assert tree_degree(parse_bracket(deep)) == MAX_NESTING + 1
        for text in ["[X," * (MAX_NESTING + 1) + "Y" + "]" * (MAX_NESTING + 1), "[" * 3000 + "X"]:
            with pytest.raises(LieError, match="nested deeper"):
                parse_bracket(text)

    def test_tree_degree(self):
        assert tree_degree("X") == 1
        assert tree_degree(parse_bracket("[[X,[X,Y]],[X,Y]]")) == 5


class TestLieToGraph:
    def test_examples(self):
        assert format_graph(lie_to_lgraph(parse_bracket("[X,Y]"))) == "1:(X,Y)"
        assert format_graph(lie_to_lgraph(parse_bracket("[X,[X,Y]]"))) == "1:(X,Y);2:(X,1)"
        assert (
            format_graph(lie_to_lgraph(parse_bracket("[[X,[X,Y]],[X,Y]]")))
            == "1:(X,Y);2:(X,1);3:(X,Y);4:(2,3)"
        )

    def test_first_edge_is_first_argument(self):
        g = lie_to_lgraph(parse_bracket("[[X,Y],X]"))
        assert format_graph(g) == "1:(X,Y);2:(1,X)"

    def test_bare_generator_rejected(self):
        with pytest.raises(LieError):
            lie_to_lgraph("X")

    def test_coincident_targets_rejected(self):
        # [X,X] needs an aerial vertex with both edges at the same ground;
        # as a Lie element it is zero anyway.
        with pytest.raises(Exception):
            lie_to_lgraph(parse_bracket("[X,X]"))

    def test_repeated_subtrees_get_distinct_vertices(self):
        g = lie_to_lgraph(parse_bracket("[[X,Y],[X,Y]]"))
        assert format_graph(g) == "1:(X,Y);2:(X,Y);3:(1,2)"

    def test_images_are_lie_admissible(self):
        fl = free_lie(XY)
        for d in range(2, 6):
            for w in fl.lyndon_words(d):
                g = lie_to_lgraph(fl.bracket_tree(w))
                c = classify(g)
                assert c.lie_admissible, format_graph(g)
