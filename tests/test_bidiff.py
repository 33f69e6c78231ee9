"""Tests for eps-graded bidifferential operators."""

import random
from fractions import Fraction

import pytest

from dqw.bidiff import BiDiffError, BiDiffOp, wedge_operator
from dqw.kontsevich import assemble_linear_star
from dqw.liealg import strictly_upper
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries
from dqw.star import cbh_product, equivalence_pairs, moyal_product, random_polynomials

F = Fraction


def reference_apply(op: BiDiffOp, f: Polynomial, g: Polynomial) -> EpsSeries:
    """The term-by-term application `BiDiffOp.apply` replaced: every term,
    grouped by left multi-index on each call, one Polynomial product per
    live term.  Kept as the oracle for the planned fast path."""
    by_left = {}
    for (m, left, right), poly in op.terms.items():
        by_left.setdefault(left, []).append((m, right, poly))
    levels = [Polynomial.zero(op.dim) for _ in range(op.order + 1)]
    deg_f, deg_g = f.total_degree(), g.total_degree()
    right_cache = {}
    for left, entries in by_left.items():
        if sum(left) > deg_f:
            continue
        df = f.derive_multi(left)
        if df.is_zero():
            continue
        for m, right, poly in entries:
            if sum(right) > deg_g:
                continue
            dg = right_cache.get(right)
            if dg is None:
                dg = g.derive_multi(right)
                right_cache[right] = dg
            if dg.is_zero():
                continue
            levels[m] = levels[m] + poly * df * dg
    return EpsSeries(op.dim, op.order, levels)


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


# C07's generic antisymmetric 4x4 matrix
GENERIC_ALPHA = (
    (F(0), F(1), F(1, 2), F(-1)),
    (F(-1), F(0), F(2), F(1, 3)),
    (F(-1, 2), F(-2), F(0), F(1)),
    (F(1), F(-1, 3), F(-1), F(0)),
)


@pytest.fixture(scope="module")
def upper4_operators():
    c = strictly_upper(4)
    return {
        "cbh": cbh_product(c, 5).operator,
        "kontsevich": assemble_linear_star(c, 5).star.operator,
    }


def _stratified_c08_sample(dim: int, per_stratum: int, seed: int) -> list:
    """A seeded sample of the C08 monomial pairs, from every (deg f, deg g)."""
    strata: dict = {}
    for f, g in equivalence_pairs(dim, 5):
        strata.setdefault((f.total_degree(), g.total_degree()), []).append((f, g))
    rng = random.Random(seed)
    sample = []
    for key in sorted(strata):
        pairs = strata[key]
        sample.extend(rng.sample(pairs, min(per_stratum, len(pairs))))
    return sample


class TestApplyPlan:
    """The planned `apply` against `reference_apply`, at exact equality."""

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_c08_pairs_every_stratum(self, upper4_operators, route):
        op = upper4_operators[route]
        assert len(op.terms) == 2248
        sample = _stratified_c08_sample(op.dim, 6, seed=8)
        assert {(f.total_degree(), g.total_degree()) for f, g in sample} == {
            (a, b) for a in range(6) for b in range(6 - a)
        }
        for f, g in sample:
            assert op.apply(f, g) == reference_apply(op, f, g), (f, g)

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_dense_pairs(self, upper4_operators, route):
        op = upper4_operators[route]
        fs = random_polynomials(op.dim, 8, 5, 31, terms=6)
        gs = random_polynomials(op.dim, 8, 5, 32, terms=6)
        for f, g in zip(fs, gs):
            assert op.apply(f, g) == reference_apply(op, f, g), (f, g)

    def test_generic_moyal_order_6(self):
        op = moyal_product(GENERIC_ALPHA, 6).operator
        fs = random_polynomials(4, 12, 4, 41, terms=5)
        gs = random_polynomials(4, 12, 4, 42, terms=5)
        for f, g in zip(fs, gs):
            assert op.apply(f, g) == reference_apply(op, f, g), (f, g)

    def test_edge_cases(self, upper4_operators):
        op = upper4_operators["cbh"]
        d = op.dim
        x = [Polynomial.variable(d, i) for i in range(1, d + 1)]
        zero, three = Polynomial.zero(d), Polynomial.constant(d, 3)
        cases = [
            (zero, x[0]),
            (x[0], zero),
            (zero, zero),
            (three, x[0] * x[1]),
            (x[2] ** 2, three),
            (three, Polynomial.constant(d, F(-1, 2))),
            # deg f = 1 is below most |L|; x1^3 + x2 has top exponents (3, 1, 0, ...)
            (x[5], x[0] ** 2 * x[4] + x[1]),
            (x[0] ** 3 + x[1], x[3] * x[4] * x[5]),
        ]
        for f, g in cases:
            assert op.apply(f, g) == reference_apply(op, f, g), (f, g)
        assert op.apply(zero, x[0]).is_zero()

    def test_plan_is_invisible(self, upper4_operators):
        op = upper4_operators["kontsevich"]
        x = Polynomial.variable(op.dim, 1)
        op.apply(x, x)
        fresh = BiDiffOp(op.dim, op.order, op.terms)
        assert fresh == op and op == fresh
        assert repr(fresh) == repr(op)
        assert fresh.terms == op.terms
