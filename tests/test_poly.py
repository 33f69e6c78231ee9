import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dqw.poly
from dqw.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_TERMS,
    MAX_VARIABLE_INDEX,
    ParseError,
    PolyError,
    Polynomial,
    parse_polynomial,
)


def P(text, dim=None):
    return parse_polynomial(text, dim)


class TestBasics:
    def test_zero_and_constant(self):
        z = Polynomial.zero(3)
        assert z.is_zero()
        assert z.total_degree() == -1
        c = Polynomial.constant(3, Fraction(2, 3))
        assert c.constant_term() == Fraction(2, 3)
        assert c.total_degree() == 0

    def test_variable(self):
        x2 = Polynomial.variable(3, 2)
        assert x2.coefficient((0, 1, 0)) == 1
        with pytest.raises(PolyError):
            Polynomial.variable(3, 4)

    def test_no_zero_terms_stored(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms

    def test_evaluate(self):
        p = P("x1^2 - x2", dim=2)
        assert p.evaluate((3, 2)) == 7

    def test_derive(self):
        p = P("x1^2*x2 + x2", dim=2)
        assert p.derive(1) == P("2*x1*x2", dim=2)
        assert p.derive(2) == P("x1^2 + 1", dim=2)
        assert p.derive(1, 3).is_zero()

    def test_substitute_scalar_and_poly(self):
        p = P("x1^2 + x2", dim=2)
        assert p.substitute(1, Fraction(2)) == P("4 + x2", dim=2)
        assert p.substitute(2, P("x1*x1", dim=2)) == P("2*x1^2", dim=2)

    def test_dim_mismatch(self):
        with pytest.raises(PolyError):
            P("x1", dim=1) + P("x1", dim=2)

    def test_pow(self):
        p = P("x1 + 1", dim=1)
        assert p**3 == P("x1^3 + 3*x1^2 + 3*x1 + 1", dim=1)
        assert p**0 == Polynomial.one(1)

    def test_pow_is_repeated_multiplication(self):
        p = P("x1 - 2*x2 + 1/3", dim=2)
        expected = Polynomial.one(2)
        for e in range(10):
            assert p**e == expected
            expected = expected * p

    def test_pow_squares_only_what_it_uses(self, monkeypatch):
        p = P("x1 + x2", dim=2)
        calls = []
        mul = Polynomial.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        p**20
        # 20 = 0b10100: four squarings and two products into the result
        assert len(calls) == 6


class TestPickle:
    def test_round_trip(self):
        p = P("x1^2*x3 - 3/7*x2 + 5", dim=3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(p, protocol)) == p
        assert pickle.loads(pickle.dumps(Polynomial.zero(0))) == Polynomial.zero(0)

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0)])
    def test_bad_payload_is_refused(self, exps):
        # negative control: the payload's callable is the checking constructor
        build, (dim, _) = Polynomial.variable(2, 1).__reduce__()

        class Forged:
            def __reduce__(self):
                return build, (dim, {exps: Fraction(1)})

        payload = pickle.dumps(Forged())
        with pytest.raises(PolyError, match="bad exponent tuple"):
            pickle.loads(payload)


class TestParsing:
    def test_rationals(self):
        assert P("2/3", dim=1) == Polynomial.constant(1, Fraction(2, 3))

    def test_precedence(self):
        assert P("2*x1^3 - 1/2", dim=1) == Polynomial(
            1, {(3,): Fraction(2), (0,): Fraction(-1, 2)}
        )

    def test_parens_and_unary(self):
        assert P("-(x1 - 2)*(x1 + 2)", dim=1) == P("4 - x1^2", dim=1)

    def test_whitespace_insignificant(self):
        assert P("  x1 +   2* x2 ", dim=2) == P("x1+2*x2", dim=2)

    def test_dim_inference(self):
        # the largest index written after an x, not the last or the count
        assert P("x3 + 1").dim == 3
        assert P("x12*x2 - x3").dim == 12
        assert P("x 4^2") == P("x4^2", dim=4)
        assert P("x2 - x2") == Polynomial.zero(2)
        assert P("3/4") == Polynomial.constant(0, Fraction(3, 4))
        assert P("x3 + 1", dim=5).dim == 5

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            P("x1 + ?")
        assert err.value.position == 5
        with pytest.raises(ParseError):
            P("x1 +")
        with pytest.raises(ParseError):
            P("x9", dim=2)
        with pytest.raises(ParseError):
            P("1/0")

    def test_nesting_limit(self):
        n = MAX_NESTING
        assert P("(" * n + "x1" + ")" * n) == P("x1")
        assert P("-" * n + "x1") == P("x1")
        assert P("-(" * (n // 2) + "x1" + ")" * (n // 2)) == P("x1")
        for text in ["(" * (n + 1) + "x1" + ")" * (n + 1), "-" * 3000 + "x1", "(" * 3000]:
            with pytest.raises(ParseError, match="nesting deeper"):
                P(text)

    def test_exponent_limit(self, monkeypatch):
        assert P(f"2^{MAX_EXPONENT}") == Polynomial.constant(0, 2**MAX_EXPONENT)
        assert P(f"x1^{MAX_EXPONENT}", dim=1).total_degree() == MAX_EXPONENT
        # one above the limit is refused before any power is taken
        monkeypatch.setattr(Polynomial, "__pow__", None)
        cases = [(f"2^{MAX_EXPONENT + 1}", 1), (f"x1 ^ {MAX_EXPONENT + 1}", 3), ("2^99999999", 1)]
        for text, position in cases:
            with pytest.raises(ParseError, match=f"exceeds the limit {MAX_EXPONENT}") as err:
                P(text, dim=1)
            assert err.value.position == position

    def test_power_term_limit(self, monkeypatch):
        # comb(23, 3) = 1771 terms is within the limit and expands in full
        assert len(P("(x1+x2+x3+x4)^20").terms) == 1771
        assert P(f"(x1*x2)^{MAX_EXPONENT}", dim=2).total_degree() == 2 * MAX_EXPONENT
        # the 66-term (x1+x2+1)^10 to the 10th is refused at the outer '^'
        with pytest.raises(ParseError, match=f"limit of {MAX_POWER_TERMS} terms") as err:
            P("((x1+x2+1)^10)^10")
        assert err.value.position == 14
        # comb(33, 3) = 5456 is refused before any power is taken
        monkeypatch.setattr(Polynomial, "__pow__", None)
        with pytest.raises(ParseError, match=f"limit of {MAX_POWER_TERMS} terms") as err:
            P("(x1+x2+x3+1)^30")
        assert err.value.position == 12

    def test_inferred_index_limit(self, monkeypatch):
        assert P(f"x{MAX_VARIABLE_INDEX}").dim == MAX_VARIABLE_INDEX
        assert P("x2 + x" + "0" * 10 + "1").dim == 2
        big = MAX_VARIABLE_INDEX + 1
        assert P(f"x{big}", dim=big) == Polynomial.variable(big, big)
        # one above the limit is refused before anything is parsed
        monkeypatch.setattr(dqw.poly, "_Parser", None)
        cases = [(f"x{big}", 1), ("x1 + x100000000", 6), ("x" + "1" * 5000, 1)]
        for text, position in cases:
            with pytest.raises(ParseError, match=f"exceeds the limit {MAX_VARIABLE_INDEX}") as err:
                P(text)
            assert err.value.position == position


def polys(dim=3, max_degree=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: Polynomial(dim, d)
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(3) == a
    assert a * Polynomial.one(3) == a


@settings(max_examples=60, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert parse_polynomial(p.to_text(), dim=3) == p


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_leibniz(a, b):
    assert (a * b).derive(1) == a.derive(1) * b + a * b.derive(1)
