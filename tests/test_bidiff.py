"""Tests for eps-graded bidifferential operators."""

from fractions import Fraction

import pytest

from dqw.bidiff import BiDiffError, BiDiffOp, wedge_operator
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries

F = Fraction


def _vars(dim):
    return [Polynomial.variable(dim, i) for i in range(1, dim + 1)]


class TestConstruction:
    def test_identity(self):
        op = BiDiffOp.identity(2, 3)
        f = parse_polynomial("x1^2 + x2", dim=2)
        g = parse_polynomial("x1*x2", dim=2)
        assert op.apply(f, g) == EpsSeries.from_polynomial(f * g, 3)

    def test_zero_terms_dropped(self):
        op = BiDiffOp(2, 2, {(1, (1, 0), (0, 0)): Polynomial.zero(2)})
        assert op.is_zero()
        a = BiDiffOp.single(2, 2, 1, (1, 0), (0, 0), F(1))
        assert (a - a).is_zero() and not a.is_zero()

    def test_validation(self):
        with pytest.raises(BiDiffError):
            BiDiffOp(2, 2, {(1, (1,), (0, 0)): F(1)})  # short multi-index
        with pytest.raises(BiDiffError):
            BiDiffOp(2, 2, {(-1, (0, 0), (0, 0)): F(1)})
        with pytest.raises(BiDiffError):
            BiDiffOp(2, 2, {(0, (0, 0), (0, 0)): Polynomial.one(3)})

    def test_order_truncation_drops_terms(self):
        op = BiDiffOp(2, 1, {(2, (1, 0), (0, 1)): F(1)})
        assert op.is_zero()


class TestAlgebra:
    def test_single_wedge_application(self):
        # alpha^{12} = 1 on dim 2: d_1 f d_2 g - d_2 f d_1 g
        op = wedge_operator(2, 2, {(1, 2): 1, (2, 1): -1})
        x1, x2 = _vars(2)
        out = op.apply(x1, x2)
        assert out.coeffs[1] == Polynomial.one(2)
        assert out.coeffs[0].is_zero()
        assert op.apply(x2, x1).coeffs[1] == Polynomial.constant(2, -1)

    def test_polynomial_coefficient_wedge(self):
        # alpha^{12} = x3: the linear structure of the three-dimensional
        # algebra with [X^1,X^2] = X^3
        x3 = Polynomial.variable(3, 3)
        op = wedge_operator(3, 2, {(1, 2): x3, (2, 1): x3 * -1})
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        assert op.apply(x1, x2).coeffs[1] == x3

    def test_symbol_mul_concatenates(self):
        a = BiDiffOp.single(2, 4, 1, (1, 0), (0, 1), F(1))
        b = BiDiffOp.single(2, 4, 1, (0, 1), (1, 0), F(3))
        ab = a.symbol_mul(b)
        assert ab.terms == {(2, (1, 1), (1, 1)): Polynomial.constant(2, 3)}

    def test_symbol_mul_never_differentiates_coefficients(self):
        # with true operator composition d_1 would hit the x1 coefficient;
        # the symbol product must not.
        x1 = Polynomial.variable(1, 1)
        a = BiDiffOp.single(1, 2, 1, (1,), (0,), F(1))
        b = BiDiffOp(1, 2, {(1, (0,), (1,)): x1})
        ab = a.symbol_mul(b)
        assert ab.terms == {(2, (1,), (1,)): x1}

    def test_shift_and_scale(self):
        op = BiDiffOp.single(2, 2, 0, (1, 0), (0, 1), F(2))
        assert op.shift(1).min_eps_degree() == 1
        assert op.shift(3).is_zero()
        assert op.scale(F(1, 2)).terms[(0, (1, 0), (0, 1))] == Polynomial.one(2)

    def test_add_sub(self):
        a = BiDiffOp.single(2, 2, 1, (1, 0), (0, 1), F(1))
        b = BiDiffOp.single(2, 2, 1, (0, 1), (1, 0), F(1))
        assert (a + b) - b == a
        assert (a - a).is_zero()


class TestExp:
    def test_exp_requires_positive_eps_degree(self):
        op = BiDiffOp.single(2, 2, 0, (1, 0), (0, 1), F(1))
        with pytest.raises(BiDiffError):
            op.exp()

    def test_exp_of_zero(self):
        assert BiDiffOp.zero(2, 3).exp() == BiDiffOp.identity(2, 3)

    def test_exp_matches_series(self):
        op = BiDiffOp.single(2, 3, 1, (1, 0), (0, 1), F(1))
        e = op.exp()
        ident = BiDiffOp.identity(2, 3)
        expect = ident + op + op.symbol_mul(op).scale(F(1, 2)) + op.symbol_mul(
            op
        ).symbol_mul(op).scale(F(1, 6))
        assert e == expect

    def test_exp_additive_on_commuting_terms(self):
        # symbol products always commute, so exp(a+b) = exp(a) exp(b)
        a = BiDiffOp.single(2, 4, 1, (1, 0), (0, 1), F(1, 2))
        b = BiDiffOp.single(2, 4, 2, (0, 1), (1, 0), F(-1, 3))
        assert (a + b).exp() == a.exp().symbol_mul(b.exp())


class TestApply:
    def test_dimension_mismatch(self):
        op = BiDiffOp.identity(2, 1)
        with pytest.raises(BiDiffError):
            op.apply(Polynomial.one(3), Polynomial.one(2))

    def test_derivative_orders(self):
        op = BiDiffOp.single(2, 1, 1, (2, 0), (0, 1), F(1))
        f = parse_polynomial("x1^3", dim=2)
        g = parse_polynomial("x2^2", dim=2)
        out = op.apply(f, g)
        assert out.coeffs[1] == parse_polynomial("12*x1*x2", dim=2)
        assert op.max_derivative_order() == 2

    def test_high_derivatives_annihilate(self):
        op = BiDiffOp.single(2, 1, 1, (3, 0), (0, 0), F(1))
        assert op.apply(parse_polynomial("x1^2", dim=2), Polynomial.one(2)).is_zero()
