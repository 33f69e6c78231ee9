"""Tests for eps-graded bidifferential operators."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dqw import bidiff
from dqw.bidiff import BiDiffError, BiDiffOp, wedge_operator
from dqw.kontsevich import assemble_linear_star
from dqw.liealg import heisenberg, solvable2, strictly_upper
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries
from dqw.star import (
    _cbh_generator,
    cbh_product,
    equivalence_pairs,
    moyal_product,
    random_polynomials,
)

F = Fraction


def reference_symbol_mul(a: BiDiffOp, b: BiDiffOp) -> BiDiffOp:
    """The term-by-term product `BiDiffOp.symbol_mul` replaced: one
    Polynomial product per pair of terms.  Kept as the oracle for the packed
    kernel."""
    assert a.dim == b.dim and a.order == b.order
    terms = {}
    for (m1, l1, r1), p1 in a.terms.items():
        for (m2, l2, r2), p2 in b.terms.items():
            m = m1 + m2
            if m > a.order:
                continue
            key = (m, tuple(x + y for x, y in zip(l1, l2)), tuple(x + y for x, y in zip(r1, r2)))
            prod = p1 * p2
            acc = terms.get(key)
            terms[key] = prod if acc is None else acc + prod
    return BiDiffOp(a.dim, a.order, terms)


def reference_exp(op: BiDiffOp) -> BiDiffOp:
    """The power-by-power exponential `BiDiffOp.exp` replaced, on
    `reference_symbol_mul`.  Kept as the oracle for the packed kernel."""
    total = BiDiffOp.identity(op.dim, op.order)
    power = BiDiffOp.identity(op.dim, op.order)
    for k in range(1, op.order + 1):
        power = reference_symbol_mul(power, op)
        if power.is_zero():
            break
        total = total + power.scale(F(1, factorial(k)))
    return total


def derive_multi(p: Polynomial, orders) -> Polynomial:
    """d^orders p as one `Polynomial.derive` call per variable.  Kept as the
    oracle for the one-pass integer derivatives inside `apply`."""
    assert len(orders) == p.dim
    for i, k in enumerate(orders, start=1):
        if k:
            p = p.derive(i, k)
            if p.is_zero():
                break
    return p


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
        df = derive_multi(f, left)
        if df.is_zero():
            continue
        for m, right, poly in entries:
            if sum(right) > deg_g:
                continue
            dg = right_cache.get(right)
            if dg is None:
                dg = derive_multi(g, right)
                right_cache[right] = dg
            if dg.is_zero():
                continue
            levels[m] = levels[m] + poly * df * dg
    return EpsSeries(op.dim, op.order, levels)


def reference_all_levels_apply(op: BiDiffOp, f: Polynomial, g: Polynomial) -> EpsSeries:
    """The planned `apply` before it kept only the eps levels a pair
    reaches: one accumulator and one Polynomial for each of the order + 1
    levels.  Kept as the oracle for the sparse levels."""
    if f.is_zero() or g.is_zero():
        return EpsSeries.zero(op.dim, op.order)
    f_den, f_rows = bidiff._numerators(f)
    g_den, g_rows = bidiff._numerators(g)
    g_box = bidiff._Box(g)
    levels = [{} for _ in range(op.order + 1)]
    right_cache = {}
    for left, by_right in bidiff._Box(f).within(op._apply_plan()):
        df = None
        for right, entries in g_box.within(by_right):
            dg = right_cache.get(right)
            if dg is None:
                dg = right_cache[right] = bidiff._derivative(g_rows, right)
            if not dg:
                continue
            if df is None:
                df = bidiff._derivative(f_rows, left)
            if not df:
                break
            for m, coeff in entries:
                bidiff._accumulate(levels[m], coeff, df, dg)
    den = f_den * g_den
    if den != 1:
        levels = [{e: c / den for e, c in acc.items()} for acc in levels]
    return EpsSeries(op.dim, op.order, [Polynomial(op.dim, acc) for acc in levels])


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

    def test_mixed_denominators(self):
        # operator, f and g each carry their own denominators, so the
        # integer numerators of d^L f and d^R g sit over different bases
        d = 3
        x1, x2, x3 = _vars(d)
        op = BiDiffOp(
            d,
            2,
            {
                (0, (0, 0, 0), (0, 0, 0)): F(1, 7),
                (1, (1, 0, 0), (0, 1, 0)): x3 * F(2, 5) + F(-1, 3),
                (1, (0, 1, 0), (1, 0, 0)): x3 * F(-2, 5),
                (2, (2, 0, 0), (0, 1, 1)): x1 * x2 * F(5, 11),
                (2, (1, 1, 0), (0, 0, 2)): F(3, 4),
            },
        )
        f = x1**2 * x2 * F(3, 4) + x1 * F(1, 6) + F(2, 9)
        g = x2 * x3**2 * F(-5, 8) + x2 * F(1, 10) + x1 * x3 * F(7, 3)
        for a, b in [(f, g), (g, f), (f, f), (g * F(1, 13), f * F(4, 15))]:
            assert op.apply(a, b) == reference_apply(op, a, b), (a, b)

    @pytest.mark.parametrize("order", [3, 4])
    def test_dense_f_box_exceeds_the_plan(self, order):
        # (x1+...+x5)^k has (k+1)^5 box points, more than the plan has L
        # keys, so the call scans the keys; g's box exceeds every R index
        op = cbh_product(strictly_upper(5), order).operator
        d = op.dim
        f = parse_polynomial(f"(x1 + x2 + x3 + 2/3*x4 + x5)^{order}", dim=d)
        g = parse_polynomial("(x1 + x5 - x8)^3 + 1/2*x9*x10", dim=d)
        plan = op._apply_plan()
        assert bidiff._Box(f).size > len(plan)
        assert bidiff._Box(g).size > max(map(len, plan.values()))
        for a, b in [(f, g), (g, f), (f, f)]:
            assert op.apply(a, b) == reference_apply(op, a, b)

    def test_visits_at_most_min_box_and_keys(self, upper4_operators, lookups):
        op = upper4_operators["kontsevich"]
        pairs = _stratified_c08_sample(op.dim, 2, seed=3)
        fs = random_polynomials(op.dim, 4, 5, 33, terms=6)
        pairs += list(zip(fs, [g for _, g in pairs[:4]]))
        dense = parse_polynomial("(x1 + x2 + x3 + x4)^5", dim=op.dim)
        pairs += [(dense, fs[0]), (fs[0], dense)]
        for f, g in pairs:
            op.apply(f, g)
        assert {size <= keys for size, keys, _, _ in lookups} == {True, False}
        for size, keys, points, looked in lookups:
            assert looked <= min(size, keys)
            assert looked == (points if size <= keys else keys)

    def test_box_rule_at_equal_size(self, lookups):
        # f = x1^2 + x2 has a 3 x 2 box but degree 2, so 5 of its 6 points
        # are derivatives that can be nonzero; with 6 L keys (and g's box the
        # size of each R index) the call looks up 5 points, not 6 keys
        multis = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        op = BiDiffOp(
            2,
            1,
            {(1, l, r): F(1 + i, 1 + j) for i, l in enumerate(multis) for j, r in enumerate(multis)},
        )
        f = parse_polynomial("x1^2 + x2", dim=2)
        g = parse_polynomial("3/2*x1^2 - x2", dim=2)
        assert op.apply(f, g) == reference_apply(op, f, g)
        assert [looked for _, _, _, looked in lookups] == [5] * 6


@pytest.fixture
def lookups(monkeypatch):
    """(box points, index keys, box points within the degree, keys looked up
    or scanned) for every `_Box.within` call `apply` makes."""
    seen = []
    real = bidiff._Box.within

    def counting(box, index):
        count = [0]
        found = real(box, _CountingIndex(index, count))
        seen.append((box.size, len(index), len(box.points()), count[0]))
        return found

    monkeypatch.setattr(bidiff._Box, "within", counting)
    return seen


class _CountingIndex(dict):
    """A copy of a plan index that counts the keys looked up or scanned."""

    def __init__(self, data, count):
        super().__init__(data)
        self.count = count

    def get(self, key, default=None):
        self.count[0] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.count[0] += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.count[0] += 1
        return super().__contains__(key)

    def items(self):
        for item in super().items():
            self.count[0] += 1
            yield item

def _operators(dim: int, order: int, min_eps: int):
    multi = st.tuples(*[st.integers(0, 6)] * dim)
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    coeff = st.dictionaries(exps, rationals, min_size=1, max_size=3)
    key = st.tuples(st.integers(min_eps, order), multi, multi)
    return st.dictionaries(key, coeff.map(lambda t: Polynomial(dim, t)), max_size=3).map(
        lambda t: BiDiffOp(dim, order, t)
    )


@st.composite
def operator_pairs(draw):
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    return draw(_operators(dim, order, 0)), draw(_operators(dim, order, 0))


@st.composite
def generators(draw):
    dim, order = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return draw(_operators(dim, order, 1))



def _polynomials(dim: int):
    exps = st.tuples(*[st.integers(0, 4)] * dim)
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    return st.dictionaries(exps, rationals, max_size=5).map(lambda t: Polynomial(dim, t))


@st.composite
def applications(draw):
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    op = draw(_operators(dim, order, 0))
    return op, draw(_polynomials(dim)), draw(_polynomials(dim))


class TestSparseLevels:
    """`apply` against the all-levels body it replaced, at exact equality."""

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_seeded_monomial_pairs(self, upper4_operators, route):
        op = upper4_operators[route]
        for f, g in _stratified_c08_sample(op.dim, 10, seed=22):
            assert op.apply(f, g) == reference_all_levels_apply(op, f, g), (f, g)

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_dense_pairs(self, upper4_operators, route):
        op = upper4_operators[route]
        fs = random_polynomials(op.dim, 8, 5, 221, terms=6)
        gs = random_polynomials(op.dim, 8, 5, 222, terms=6)
        for f, g in zip(fs, gs):
            assert op.apply(f, g) == reference_all_levels_apply(op, f, g), (f, g)

    def test_generic_moyal_order_6(self):
        op = moyal_product(GENERIC_ALPHA, 6).operator
        fs = random_polynomials(4, 12, 4, 223, terms=5)
        gs = random_polynomials(4, 12, 4, 224, terms=5)
        for f, g in zip(fs, gs):
            assert op.apply(f, g) == reference_all_levels_apply(op, f, g), (f, g)

    def test_unreached_levels_share_one_zero(self, upper4_operators):
        op = upper4_operators["cbh"]
        x = _vars(op.dim)
        out = op.apply(x[0], x[1])
        empty = [p for p in out.coeffs if p.is_zero()]
        assert len(empty) == op.order - 1
        assert all(p is empty[0] for p in empty)


class TestApplyRandom:
    """`apply` and its one-pass derivatives against the test oracles."""

    @settings(max_examples=200, deadline=None)
    @given(applications())
    def test_random_application(self, case):
        op, f, g = case
        assert op.apply(f, g) == reference_apply(op, f, g)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(_polynomials(d), st.tuples(*[st.integers(0, 6)] * d))
        )
    )
    def test_one_pass_derivative(self, case):
        # orders up to 6 against exponents up to 4, so many reach zero
        p, orders = case
        den, rows = bidiff._numerators(p)
        derived = bidiff._derivative(rows, orders)
        assert Polynomial(p.dim, {e: F(c, den) for e, c in derived.items()}) == derive_multi(p, orders)

    def test_derivative_reaching_zero(self):
        p = parse_polynomial("x1^2*x2 + 3/4*x2^3", dim=2)
        den, rows = bidiff._numerators(p)
        assert bidiff._derivative(rows, (3, 0)) == {}
        assert bidiff._derivative(rows, (1, 3)) == {}
        assert derive_multi(p, (3, 0)).is_zero() and derive_multi(p, (1, 3)).is_zero()
        assert bidiff._derivative(rows, (0, 3)) == {(0, 0): 3 * 6 * den // 4}


CBH_ALGEBRAS = {
    "heisenberg": heisenberg,
    "strictly_upper(3)": lambda: strictly_upper(3),
    "strictly_upper(4)": lambda: strictly_upper(4),
    "solvable2": solvable2,
}


class TestPackedKernel:
    """`exp` and `symbol_mul` against `reference_exp` and
    `reference_symbol_mul`, at exact equality."""

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("algebra", sorted(CBH_ALGEBRAS))
    def test_cbh_generators(self, algebra, order):
        gen = _cbh_generator(CBH_ALGEBRAS[algebra](), order, None)
        star = gen.exp()
        assert star == reference_exp(gen)
        assert gen.symbol_mul(gen) == reference_symbol_mul(gen, gen)
        assert star.symbol_mul(gen) == reference_symbol_mul(star, gen)

    def test_generic_moyal_order_6(self):
        coeffs = {
            (i + 1, j + 1): GENERIC_ALPHA[i][j] for i in range(4) for j in range(4) if i != j
        }
        wedge = wedge_operator(4, 6, coeffs, prefactor=F(1, 2))
        assert wedge.exp() == reference_exp(wedge)

    @settings(max_examples=150, deadline=None)
    @given(operator_pairs())
    def test_random_symbol_mul(self, pair):
        a, b = pair
        assert a.symbol_mul(b) == reference_symbol_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(generators())
    def test_random_exp(self, gen):
        assert gen.exp() == reference_exp(gen)

    def test_one_bit_narrower_packing_disagrees(self):
        # Heisenberg's generator has largest digit 1, so order 3 packs its
        # digits 2 bits wide; at 1 bit, eps d1^2 carries into the eps digit.
        gen = _cbh_generator(heisenberg(), 3, None)
        rows, den, top = bidiff._flatten(gen)
        width = (gen.order * top).bit_length()
        assert (top, width) == (1, 2)
        expected = reference_exp(gen)
        assert bidiff._packed_exp(gen.dim, gen.order, rows, den, width) == expected
        assert bidiff._packed_exp(gen.dim, gen.order, rows, den, width - 1) != expected
