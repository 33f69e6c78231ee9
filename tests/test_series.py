from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries, NCSeries, SeriesError, nc_exp, nc_log


def P(text, dim=2):
    return parse_polynomial(text, dim)


class TestEpsSeries:
    def test_padding_and_zero(self):
        s = EpsSeries(2, 3, [P("x1")])
        assert s.coeffs[0] == P("x1")
        assert all(p.is_zero() for p in s.coeffs[1:])
        assert EpsSeries.zero(2, 3).is_zero()

    def test_mul_truncates(self):
        s = EpsSeries(2, 2, [P("0"), P("x1")])  # eps*x1
        sq = s * s
        assert sq.coeffs[2] == P("x1^2")
        cube = sq * s
        assert cube.is_zero()  # eps^3 is beyond order 2

    def test_order_mismatch_errors(self):
        with pytest.raises(SeriesError):
            EpsSeries(2, 2) + EpsSeries(2, 3)
        with pytest.raises(SeriesError):
            EpsSeries(2, 2) * EpsSeries(3, 2)

    def test_shift(self):
        s = EpsSeries.from_polynomial(P("x1"), 2).shift(1)
        assert s.coeffs[1] == P("x1")

    def test_pairs_serialization(self):
        s = EpsSeries(2, 1, [P("x1*x2"), P("1/2")])
        assert s.to_pairs() == [(0, "x1*x2"), (1, "1/2")]


def nc(alphabet=("X", "Y"), order=4, terms=None):
    return NCSeries(alphabet, order, terms or {})


class TestNCSeries:
    def test_mul_concatenates(self):
        x = NCSeries.letter(("X", "Y"), 3, "X")
        y = NCSeries.letter(("X", "Y"), 3, "Y")
        assert (x * y).coefficient(("X", "Y")) == 1
        assert (x * y).coefficient(("Y", "X")) == 0

    def test_log_exp_example(self):
        # degree-2 slice of log(exp X exp Y) is the half-commutator
        X = NCSeries.letter(("X", "Y"), 2, "X")
        Y = NCSeries.letter(("X", "Y"), 2, "Y")
        L = nc_log(nc_exp(X) * nc_exp(Y))
        assert {w: c for w, c in L.terms.items() if len(w) == 2} == {
            ("X", "Y"): Fraction(1, 2),
            ("Y", "X"): Fraction(-1, 2),
        }

    def test_exp_log_preconditions(self):
        one = NCSeries.one(("X",), 2)
        with pytest.raises(SeriesError):
            nc_exp(one)  # nonzero constant term
        with pytest.raises(SeriesError):
            nc_log(one - 1)  # constant term 0, not 1

    def test_exp_log_round_trip(self):
        X = NCSeries.letter(("X", "Y"), 5, "X")
        assert nc_log(nc_exp(X)) == X

    @pytest.mark.parametrize("order", [1, 2])
    def test_terms_are_validated_before_the_order_drop(self, order):
        # at order 1 a two-letter word is dropped, but only after its letters
        # pass the same check as at order 2; a zero coefficient is no excuse
        with pytest.raises(SeriesError, match="outside the alphabet"):
            NCSeries(("X", "Y"), order, {("Z", "Z"): 1})
        with pytest.raises(SeriesError, match="outside the alphabet"):
            NCSeries(("X", "Y"), order, {("X", "Z"): 0})
        kept = NCSeries(("X", "Y"), order, {("X", "Y"): 1, ("Y",): 0}).terms
        assert kept == ({("X", "Y"): 1} if order == 2 else {})

    def test_negative_order_refused(self):
        with pytest.raises(SeriesError, match="order must be >= 0"):
            NCSeries(("X", "Y"), -1)


def small_nc_series(order=4):
    words = st.lists(st.sampled_from(["X", "Y"]), min_size=1, max_size=order).map(tuple)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.dictionaries(words, coeff, max_size=4).map(
        lambda d: NCSeries(("X", "Y"), order, d)
    )


@settings(max_examples=40, deadline=None)
@given(small_nc_series())
def test_log_exp_inverse(s):
    assert nc_log(nc_exp(s)) == s
    assert nc_exp(nc_log(s + 1)) == s + 1


@settings(max_examples=40, deadline=None)
@given(small_nc_series(), small_nc_series(), small_nc_series())
def test_nc_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
