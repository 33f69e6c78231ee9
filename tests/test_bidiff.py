"""Tests for eps-graded bidifferential operators."""

import importlib.util
import random
import time
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, perm, prod
from operator import add, le, sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dqw import bidiff
from dqw.bidiff import BiDiffError, BiDiffOp, wedge_operator
from dqw.graphs import enumerate_graphs
from dqw.kontsevich import assemble_linear_star, graph_to_operator, prime_type_table
from dqw.liealg import heisenberg, linear_poisson, solvable2, strictly_upper
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries
from dqw.star import (
    _cbh_generator,
    cbh_product,
    equivalence_pairs,
    moyal_product,
    random_polynomials,
    uea_product,
)

import test_kontsevich

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


class _Box:
    """The multi-indices K with K <= top componentwise and |K| <= deg, for the
    componentwise largest exponents `top` and the degree `deg` of a nonzero
    polynomial: every other derivative d^K of it is zero."""

    __slots__ = ("top", "deg", "size", "_points")

    def __init__(self, p: Polynomial):
        self.top = tuple(map(max, zip(*p.terms)))
        self.deg = p.total_degree()
        self.size = prod(t + 1 for t in self.top)
        self._points = None

    def points(self) -> list:
        """The multi-indices themselves.  Unless deg covers the whole box, a
        prefix is extended only while its sum stays within deg, so no more
        are built than are returned."""
        if self._points is None:
            if self.deg >= sum(self.top):
                points = list(product(*[range(t + 1) for t in self.top]))
            else:
                grown = [((), 0)]
                for t in self.top:
                    grown = [
                        (prefix + (k,), s + k)
                        for prefix, s in grown
                        for k in range(min(t, self.deg - s) + 1)
                    ]
                points = [prefix for prefix, _ in grown]
            self._points = points
        return self._points

    def within(self, index) -> list:
        """The (key, value) items of index whose key is in the box.  The box
        is looked up point by point unless it has more points than index has
        keys; then the keys are scanned instead."""
        if self.size <= len(index):
            get = index.get
            return [(k, v) for k in self.points() if (v := get(k)) is not None]
        top, deg = self.top, self.deg
        return [(k, v) for k, v in index.items() if sum(k) <= deg and all(map(le, k, top))]


def _numerators(p: Polynomial) -> tuple:
    """(den, rows): p's terms as (exponents, integer numerator) over den, the
    lcm of p's coefficient denominators."""
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()]


def _derivative(rows: list, orders) -> dict:
    """d^orders of the polynomial with these (exponents, numerator) rows, in
    one pass: x^e goes to prod_i e_i! / (e_i - k_i)! * x^(e - k), or to zero
    when some e_i < k_i.  Distinct e give distinct e - k, so nothing adds."""
    out = {}
    for exps, num in rows:
        for e, k in zip(exps, orders):
            if k:
                if e < k:
                    break
                num *= perm(e, k)
        else:
            out[tuple(map(sub, exps, orders))] = num
    return out


def _accumulate(acc: dict, coeff: dict, df: dict, dg: dict) -> None:
    """acc += coeff * df * dg on exponent -> coefficient dicts; zeros are
    left for the Polynomial constructor to drop."""
    for e2, c2 in df.items():
        for e3, c3 in dg.items():
            e23 = tuple(map(add, e2, e3))
            c23 = c2 * c3
            for e1, c1 in coeff.items():
                key = tuple(map(add, e1, e23))
                acc[key] = acc.get(key, 0) + c1 * c23


def reference_plan(op: BiDiffOp) -> dict:
    """The tuple-keyed plan the packed plan replaced: the terms indexed as
    L -> R -> [(m, coefficient terms)]."""
    plan = {}
    for (m, left, right), poly in op.terms.items():
        plan.setdefault(left, {}).setdefault(right, []).append((m, poly.terms))
    return plan


def reference_box_apply(op: BiDiffOp, f: Polynomial, g: Polynomial) -> EpsSeries:
    """`apply` on the tuple-keyed plan, before the packed plan: L and R found
    through `_Box.within`, derivatives as exponent dicts, and one Fraction
    accumulator per reached eps level.  Kept as the oracle for the packed
    plan."""
    if f.dim != op.dim or g.dim != op.dim:
        raise BiDiffError("argument dimension mismatch")
    if f.is_zero() or g.is_zero():
        return EpsSeries.zero(op.dim, op.order)
    f_den, f_rows = _numerators(f)
    g_den, g_rows = _numerators(g)
    g_box = _Box(g)
    levels: dict = {}
    right_cache: dict = {}
    for left, by_right in _Box(f).within(reference_plan(op)):
        df = None
        for right, entries in g_box.within(by_right):
            dg = right_cache.get(right)
            if dg is None:
                dg = right_cache[right] = _derivative(g_rows, right)
            if not dg:
                continue
            if df is None:
                df = _derivative(f_rows, left)
            if not df:
                break
            for m, coeff in entries:
                _accumulate(levels.setdefault(m, {}), coeff, df, dg)
    den = f_den * g_den
    coeffs = [Polynomial.zero(op.dim)] * (op.order + 1)
    for m, acc in levels.items():
        if den != 1:
            acc = {e: c / den for e, c in acc.items()}
        coeffs[m] = Polynomial(op.dim, acc)
    return EpsSeries(op.dim, op.order, coeffs)


def reference_all_levels_apply(op: BiDiffOp, f: Polynomial, g: Polynomial) -> EpsSeries:
    """The planned `apply` before it kept only the eps levels a pair
    reaches: one accumulator and one Polynomial for each of the order + 1
    levels.  Kept as the oracle for the sparse levels."""
    if f.is_zero() or g.is_zero():
        return EpsSeries.zero(op.dim, op.order)
    f_den, f_rows = _numerators(f)
    g_den, g_rows = _numerators(g)
    g_box = _Box(g)
    levels = [{} for _ in range(op.order + 1)]
    right_cache = {}
    for left, by_right in _Box(f).within(reference_plan(op)):
        df = None
        for right, entries in g_box.within(by_right):
            dg = right_cache.get(right)
            if dg is None:
                dg = right_cache[right] = _derivative(g_rows, right)
            if not dg:
                continue
            if df is None:
                df = _derivative(f_rows, left)
            if not df:
                break
            for m, coeff in entries:
                _accumulate(levels[m], coeff, df, dg)
    den = f_den * g_den
    if den != 1:
        levels = [{e: c / den for e, c in acc.items()} for acc in levels]
    return EpsSeries(op.dim, op.order, [Polynomial(op.dim, acc) for acc in levels])


def assert_applies_as_oracles(op: BiDiffOp, pairs) -> None:
    """`apply` equals `reference_apply` and `reference_box_apply` at `==` on
    every pair."""
    for f, g in pairs:
        out = op.apply(f, g)
        assert out == reference_apply(op, f, g), (f, g)
        assert out == reference_box_apply(op, f, g), (f, g)


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

    def test_keys_that_read_alike_are_summed(self):
        # distinct keys with the same multi-indices once read as tuples
        x1 = Polynomial.variable(1, 1)
        op = BiDiffOp(1, 1, {(1, (1,), (0,)): x1, (1, range(1, 2), (0,)): x1 * 2 + 1})
        assert op.terms == {(1, (1,), (0,)): x1 * 3 + 1}
        assert BiDiffOp(1, 1, {(1, (1,), (0,)): x1, (1, range(1, 2), (0,)): -x1}).is_zero()

    def test_order_truncation_drops_terms(self):
        op = BiDiffOp(2, 1, {(2, (1, 0), (0, 1)): F(1)})
        assert op.is_zero()

    @pytest.mark.parametrize("order", [1, 2])
    def test_terms_are_validated_before_the_order_drop(self, order):
        # at order 1 the eps^2 term is dropped, but only after its
        # multi-indices pass the same checks as at order 2
        with pytest.raises(BiDiffError, match="multi-index length must equal dim"):
            BiDiffOp(2, order, {(2, (1,), (0, 0, 0)): 1})
        with pytest.raises(BiDiffError, match="negative derivative order"):
            BiDiffOp(2, order, {(2, (1, -1), (0, 0)): 1})
        with pytest.raises(BiDiffError, match="multi-index length must equal dim"):
            BiDiffOp(2, order, {(1, (1,), (0, 0)): Polynomial.zero(2)})


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
        # eps shifts act on series (`EpsSeries.shift`), not on operators
        op = BiDiffOp.single(2, 2, 0, (1, 0), (0, 1), F(2))
        assert not hasattr(op, "shift")
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
    """The planned `apply` against `reference_apply` and
    `reference_box_apply`, at exact equality."""

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_c08_pairs_every_stratum(self, upper4_operators, route):
        op = upper4_operators[route]
        assert len(op.terms) == 2248
        sample = _stratified_c08_sample(op.dim, 6, seed=8)
        assert {(f.total_degree(), g.total_degree()) for f, g in sample} == {
            (a, b) for a in range(6) for b in range(6 - a)
        }
        assert_applies_as_oracles(op, sample)

    @pytest.mark.parametrize("route", ["cbh", "kontsevich"])
    def test_dense_pairs(self, upper4_operators, route):
        op = upper4_operators[route]
        fs = random_polynomials(op.dim, 8, 5, 31, terms=6)
        gs = random_polynomials(op.dim, 8, 5, 32, terms=6)
        assert_applies_as_oracles(op, zip(fs, gs))

    def test_generic_moyal_order_6(self):
        op = moyal_product(GENERIC_ALPHA, 6).operator
        fs = random_polynomials(4, 12, 4, 41, terms=5)
        gs = random_polynomials(4, 12, 4, 42, terms=5)
        assert_applies_as_oracles(op, zip(fs, gs))

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
        assert_applies_as_oracles(op, cases)
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
        assert_applies_as_oracles(op, [(f, g), (g, f), (f, f), (g * F(1, 13), f * F(4, 15))])

    @pytest.mark.parametrize("order", [3, 4])
    def test_dense_f_box_exceeds_the_plan(self, order):
        # (x1+...+x5)^k has (k+1)^5 box points, more than the plan has L
        # keys, so the call scans the keys; g's box exceeds every L's R
        # entries
        op = cbh_product(strictly_upper(5), order).operator
        d = op.dim
        f = parse_polynomial(f"(x1 + x2 + x3 + 2/3*x4 + x5)^{order}", dim=d)
        g = parse_polynomial("(x1 + x5 - x8)^3 + 1/2*x9*x10", dim=d)
        assert_applies_as_oracles(op, [(f, g), (g, f), (f, f)])
        by_left = op._plan[-1]
        assert _Box(f).size > len(by_left)
        assert _Box(g).size > max(len(entries) for *_, entries in by_left.values())

    def test_visits_at_most_min_box_and_keys(self, upper4_operators):
        op = upper4_operators["kontsevich"]
        pairs = _stratified_c08_sample(op.dim, 2, seed=3)
        fs = random_polynomials(op.dim, 4, 5, 33, terms=6)
        pairs += list(zip(fs, [g for _, g in pairs[:4]]))
        dense = parse_polynomial("(x1 + x2 + x3 + x4)^5", dim=op.dim)
        pairs += [(dense, fs[0]), (fs[0], dense)]
        rules, read_total, offered_total = set(), 0, 0
        for f, g in pairs:
            out, looked, read = count_visits(op, f, g)
            assert out == reference_box_apply(op, f, g), (f, g)
            by_left = op._plan[-1]
            box, keys = _Box(f), len(by_left)
            rules.add(box.size <= keys)
            assert looked <= min(box.size, keys)
            assert looked == (len(box.points()) if box.size <= keys else keys)
            for left, count in read.items():
                entries = by_left[left][-1]
                within = sum(1 for size, *_ in entries if size <= g.total_degree())
                assert count <= within + (within < len(entries))
                read_total += count
                offered_total += len(entries)
        assert rules == {True, False}
        assert read_total < offered_total

    def test_derived_rows_are_never_zero(self, upper4_operators, monkeypatch):
        # the guard-bit test admits a row exactly when e >= K digit by digit,
        # so every derived numerator is nonzero; a row admitted with some
        # e_i < k_i would carry the falling factorial 0
        real, numerators = bidiff._derive, []

        def recording(rows, orders, digits, guard):
            out = real(rows, orders, digits, guard)
            numerators.extend(num for _, num in out)
            return out

        monkeypatch.setattr(bidiff, "_derive", recording)
        fs = random_polynomials(6, 8, 5, 31, terms=6)
        gs = random_polynomials(6, 8, 5, 32, terms=6)
        pairs = _stratified_c08_sample(6, 3, seed=8) + list(zip(fs, gs))
        for op in upper4_operators.values():
            for f, g in pairs:
                op.apply(f, g)
        # x6 is central in strictly_upper(4), so its digit is never
        # differentiated there; the generic Moyal operator differentiates
        # every coordinate
        moyal = moyal_product(GENERIC_ALPHA, 6).operator
        fs = random_polynomials(4, 12, 4, 41, terms=5)
        gs = random_polynomials(4, 12, 4, 42, terms=5)
        for f, g in zip(fs, gs):
            moyal.apply(f, g)
        assert len(numerators) > 1000 and all(numerators)

    def test_box_rule_at_equal_size(self):
        # f = x1^2 + x2 has a 3 x 2 box but degree 2, so 5 of its 6 points
        # are derivatives that can be nonzero; with 6 L keys the call looks
        # up 5 points, not 6 keys.  g has degree 2, so each hit L reads its
        # 5 entries with |R| <= 2 and the one with |R| = 3 that ends the
        # scan, except L = (1, 1): d^L f = 0 ends it at the first live R
        multis = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        op = BiDiffOp(
            2,
            1,
            {(1, l, r): F(1 + i, 1 + j) for i, l in enumerate(multis) for j, r in enumerate(multis)},
        )
        f = parse_polynomial("x1^2 + x2", dim=2)
        g = parse_polynomial("3/2*x1^2 - x2", dim=2)
        out, looked, read = count_visits(op, f, g)
        assert out == reference_apply(op, f, g) == reference_box_apply(op, f, g)
        assert looked == 5
        assert sorted(read.values()) == [1, 6, 6, 6, 6]


def count_visits(op: BiDiffOp, f: Polynomial, g: Polynomial) -> tuple:
    """(result, L keys looked up or scanned, {hit L: R entries read}) of one
    `apply`, read through counting copies of op's plan.  A first call builds
    the plan at the width the pair needs."""
    op.apply(f, g)
    plan = op._plan
    *head, by_left = plan
    looked = [0]
    read: dict = {}
    counted = _CountingIndex(
        {
            key: (*value[:-1], _CountingEntries(value[-1], read.setdefault(key, [0])))
            for key, value in by_left.items()
        },
        looked,
    )
    object.__setattr__(op, "_plan", (*head, counted))
    try:
        out = op.apply(f, g)
    finally:
        object.__setattr__(op, "_plan", plan)
    return out, looked[0], {key: n[0] for key, n in read.items() if n[0]}


class _CountingIndex(dict):
    """A copy of a plan's L index that counts the keys looked up or scanned."""

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


class _CountingEntries(tuple):
    """A copy of one L's R entries that counts the entries read."""

    def __new__(cls, entries, count):
        self = super().__new__(cls, entries)
        self.count = count
        return self

    def __iter__(self):
        for entry in super().__iter__():
            self.count[0] += 1
            yield entry


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
        assert_applies_as_oracles(op, [(f, g)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(_polynomials(d), st.tuples(*[st.integers(0, 6)] * d))
        )
    )
    def test_one_pass_derivative(self, case):
        # orders up to 6 against exponents up to 4, so many reach zero
        p, orders = case
        den, rows = _numerators(p)
        derived = _derivative(rows, orders)
        assert Polynomial(p.dim, {e: F(c, den) for e, c in derived.items()}) == derive_multi(p, orders)

    def test_derivative_reaching_zero(self):
        p = parse_polynomial("x1^2*x2 + 3/4*x2^3", dim=2)
        den, rows = _numerators(p)
        assert _derivative(rows, (3, 0)) == {}
        assert _derivative(rows, (1, 3)) == {}
        assert derive_multi(p, (3, 0)).is_zero() and derive_multi(p, (1, 3)).is_zero()
        assert _derivative(rows, (0, 3)) == {(0, 0): 3 * 6 * den // 4}

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(_polynomials(d), st.tuples(*[st.integers(0, 6)] * d))
        )
    )
    def test_packed_derivative(self, case):
        # the guard-bit derivative of the packed plan against the exponent
        # dict one, at the least plan width
        p, orders = case
        width = bidiff.MIN_PLAN_WIDTH
        guard = bidiff._pack((1 << (width - 1),) * p.dim, width)
        den, rows = bidiff._argument(p, width, guard)
        packed = bidiff._derive(rows, bidiff._pack(orders, width), bidiff._nonzero_digits(orders), guard)
        decode = bidiff._MultiIndices(p.dim, width)
        assert (den, {decode[k]: c for k, c in packed}) == (
            _numerators(p)[0] if p.terms else 1,
            _derivative(_numerators(p)[1], orders),
        )


def _heisenberg_cbh(order: int) -> BiDiffOp:
    return cbh_product(heisenberg(), order).operator


class TestPlanWidth:
    """The plan widens when an argument's digits could reach its guard bits,
    and the wider plan gives the oracle's values."""

    def test_least_width_at_the_digit_cap(self):
        # largest plan digit 5 and argument digits 61 + 61: 127, the cap of
        # an 8-bit digit; one more and the plan widens to 16 bits
        x1, x2 = _vars(2)
        op = BiDiffOp(
            2,
            2,
            {
                (1, (5, 0), (0, 1)): x2 * F(2, 3),
                (1, (1, 0), (0, 1)): F(-1, 4),
                (2, (0, 2), (3, 1)): x1**2 + x2 * F(1, 5),
            },
        )
        f = x1**61 * x2**3 + x1**7 * F(5, 2)
        for g, width in ((x1**4 * x2**61, 8), (x1**4 * x2**62, 16)):
            fresh = BiDiffOp(op.dim, op.order, op.terms)
            assert_applies_as_oracles(fresh, [(f, g)])
            assert fresh._plan[0] == width

    def test_large_argument_digits(self):
        op = _heisenberg_cbh(3)
        x1, x2, x3 = _vars(3)
        pairs = [(x1**200, x2**300), (x1**200 * x3 + x2**5, x2**300 * F(3, 7) + x1 * x3**2)]
        assert_applies_as_oracles(op, pairs)
        assert op._plan[0] == 16

    def test_large_coefficient_digit(self):
        # a coefficient monomial with a 130 digit widens the plan however
        # small the arguments are
        x1, x2 = _vars(2)
        op = BiDiffOp(
            2,
            2,
            {
                (1, (1, 0), (0, 1)): x1**130 * F(3, 7) - x2,
                (2, (2, 0), (0, 2)): x2**3 + F(1, 2),
            },
        )
        assert_applies_as_oracles(op, [(x1**3 + x2, x1 * x2**2), (x1**2, x2**2 * F(2, 9))])
        assert op._plan[0] == 16

    def test_widening_replaces_the_plan(self):
        op = _heisenberg_cbh(3)
        x1, x2, _ = _vars(3)
        op.apply(x1, x2)
        narrow = op._plan
        assert narrow[0] == bidiff.MIN_PLAN_WIDTH
        op.apply(x1**200, x2**300)
        wide = op._plan
        assert wide[0] == 16 and wide is not narrow
        # a later small pair keeps the wide plan; the operator has no other
        # private slot that could hold a second one
        assert op.apply(x1, x2) == reference_box_apply(op, x1, x2)
        assert op._plan is wide
        # the one other private slot holds the packed (rows, den, need),
        # never a plan
        assert BiDiffOp.__slots__ == ("dim", "order", "_rows", "_plan")
        rows, den, need = op._rows
        assert isinstance(rows, dict) and isinstance(den, int) and isinstance(need, int)


def revalidated(series: EpsSeries) -> EpsSeries:
    """The same levels through the checking constructors."""
    return EpsSeries(series.dim, series.order, [Polynomial(p.dim, p.terms) for p in series.coeffs])


def assert_kernel_built(series: EpsSeries) -> None:
    """A value built by an unchecked constructor equals its re-validated
    copy: no zero coefficient, no stray key, Fraction values only."""
    assert series == revalidated(series)
    assert len(series.coeffs) == series.order + 1
    assert all(type(c) is F for p in series.coeffs for c in p.terms.values())


@pytest.fixture(scope="module")
def upper4_uea():
    return uea_product(strictly_upper(4), 5)


class TestKernelBuiltValues:
    """`apply` and the UEA star build their results without validation; the
    results equal their validated copies."""

    @pytest.mark.parametrize("route", ["uea", "cbh", "kontsevich"])
    def test_c08_sample_and_dense_pairs(self, upper4_operators, upper4_uea, route):
        product = upper4_uea if route == "uea" else upper4_operators[route].apply
        fs = random_polynomials(6, 8, 5, 31, terms=6)
        gs = random_polynomials(6, 8, 5, 32, terms=6)
        for f, g in _stratified_c08_sample(6, 6, seed=8) + list(zip(fs, gs)):
            assert_kernel_built(product(f, g))

    @settings(max_examples=200, deadline=None)
    @given(applications())
    def test_random_application(self, case):
        op, f, g = case
        assert_kernel_built(op.apply(f, g))

    def test_cancelling_terms_leave_no_zero(self):
        # d1 f d2 g - d2 f d1 g vanishes at f = g, term by term
        op = wedge_operator(2, 1, {(1, 2): 1, (2, 1): -1})
        x1, x2 = _vars(2)
        for f in (x1 * x2, x1**2 * x2 + x2**3 * F(1, 3)):
            out = op.apply(f, f)
            assert out.is_zero()
            assert_kernel_built(out)

    def test_a_kept_zero_coefficient_is_caught(self):
        # negative control: a kernel that kept a zero coefficient fails
        kept = Polynomial._unchecked(2, {(1, 0): F(0)})
        with pytest.raises(AssertionError):
            assert_kernel_built(EpsSeries._unchecked(2, 1, (kept, Polynomial.zero(2))))


class TestQuadraticGraphOperators:
    """Graph operators of a quadratic structure have polynomial coefficients
    of several monomials; `apply` on them against both oracles."""

    def test_two_vertex_graphs(self):
        pi = test_kontsevich.quadratic_alpha()
        ops = [graph_to_operator(g, pi, 3) for g in enumerate_graphs(2)]
        ops = [op for op in ops if not op.is_zero()]
        assert len(ops) > 10
        assert max(len(p.terms) for op in ops for p in op.terms.values()) > 1
        fs = random_polynomials(3, 4, 4, 251, terms=4)
        gs = random_polynomials(3, 4, 4, 252, terms=4)
        for op in ops:
            assert_applies_as_oracles(op, zip(fs, gs))


CBH_ALGEBRAS = {
    "heisenberg": heisenberg,
    "strictly_upper(3)": lambda: strictly_upper(3),
    "strictly_upper(4)": lambda: strictly_upper(4),
    "solvable2": solvable2,
}


def rebuilt(op: BiDiffOp) -> BiDiffOp:
    """op through the checking constructor, whose bound on the digits is the
    largest digit itself."""
    return BiDiffOp(op.dim, op.order, op.terms)


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
        # Heisenberg's generator times x1^86 has largest digit 86, so order 3
        # needs digits up to 258 and packs them 16 bits wide.  One width
        # narrower, 8 bits, the x1^258 of G^3 carries into R's last digit;
        # G^2 reaches only 172 and would still fit.
        x1 = Polynomial.variable(3, 1)
        gen = rebuilt(_cbh_generator(heisenberg(), 3, None).scale(x1**86))
        rows, den, top = gen._rows
        need = gen.order * top
        width = bidiff._width(need)
        assert (top, width) == (86, 16)
        expected = reference_exp(gen)
        wide = bidiff._at_width(rows, gen.dim, top, width)
        assert bidiff._packed_exp(gen.dim, gen.order, wide, den, need) == expected
        # rows packed at 8 bits, and a need of 127 keeps the kernel there
        assert bidiff._width(top) == 8
        assert bidiff._packed_exp(gen.dim, gen.order, rows, den, 127) != expected

    def test_one_width_narrower_symbol_mul_disagrees(self):
        # largest digits 130 and 126 sum to 256, so the product packs 16 bits
        # wide; at 8 bits the x1^256 of the product carries
        x1 = Polynomial.variable(3, 1)
        gen = _cbh_generator(heisenberg(), 3, None)
        a, b = rebuilt(gen.scale(x1**130)), rebuilt(gen.scale(x1**126))
        (left, left_den, left_top), (right, right_den, right_top) = a._rows, b._rows
        need = left_top + right_top
        assert (left_top, right_top, bidiff._width(need)) == (130, 126, 16)
        expected = reference_symbol_mul(a, b)
        args = (gen.dim, gen.order)
        den = left_den * right_den
        for width, bound in ((16, need), (8, 127)):
            left_rows = bidiff._at_width(left, gen.dim, left_top, width)
            right_rows = bidiff._at_width(right, gen.dim, right_top, width)
            product = bidiff._packed_mul(*args, left_rows, right_rows, den, bound)
            assert (product == expected) == (width == 16)
        assert a.symbol_mul(b) == expected


def reference_unpack(dim: int, order: int, packed: dict, den: int, width: int) -> BiDiffOp:
    """The decode `exp` and `symbol_mul` ran on every result before their
    operators kept the packed rows: each m|L|R|e row through the checking
    `Polynomial` and `BiDiffOp` constructors.  Kept as the oracle of the
    `terms` view."""
    split = bidiff._MultiIndices(dim, width).split
    grouped: dict = {}
    for key, num in packed.items():
        m, left, right, exps = split(key, 3)
        grouped.setdefault((m, left, right), {})[exps] = F(num, den)
    return BiDiffOp(dim, order, {k: Polynomial(dim, c) for k, c in grouped.items()})


def assert_decodes_as_oracle(op: BiDiffOp) -> None:
    """op's rows are reduced (no zero numerator, den least) and `terms`
    equals `reference_unpack` of them, with Fraction values and no zero
    coefficient; each read of `terms` decodes a fresh dict."""
    rows, den, need = op._rows
    assert all(rows.values()) and gcd(den, *rows.values()) == 1
    want = reference_unpack(op.dim, op.order, rows, den, bidiff._width(need))
    assert op.terms == want.terms and op == want and repr(op) == repr(want)
    assert op.terms is not op.terms
    assert all(type(c) is F and c for p in op.terms.values() for c in p.terms.values())


@pytest.fixture
def decoded(monkeypatch) -> list:
    """The arguments of every `bidiff._decode` call from here on."""
    calls = []
    real = bidiff._decode
    monkeypatch.setattr(bidiff, "_decode", lambda *args: calls.append(args) or real(*args))
    return calls


def _assembly_generator(c, order: int) -> BiDiffOp:
    """The generator `assemble_linear_star` exponentiates."""
    pi = linear_poisson(c)
    gen = BiDiffOp.zero(c.dim, order)
    for graph, omega, _ in prime_type_table(order):
        if omega:
            gen = gen + graph_to_operator(graph, pi, order).scale(omega)
    return gen


def _seeded_operator(rng: random.Random, dim: int, order: int, min_eps: int) -> BiDiffOp:
    """A few terms whose coefficients have up to three monomials with
    rational values of either sign."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (
            rng.randint(min_eps, order),
            tuple(rng.randint(0, 3) for _ in range(dim)),
            tuple(rng.randint(0, 3) for _ in range(dim)),
        )
        coeff = {
            tuple(rng.randint(0, 2) for _ in range(dim)): F(rng.randint(-4, 4), rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        }
        terms[key] = Polynomial(dim, coeff)
    return BiDiffOp(dim, order, terms)


class TestPackedRows:
    """An operator out of `exp` or `symbol_mul` keeps the kernel's rows;
    `terms` is decoded from them on each read, as `reference_unpack` did."""

    @pytest.mark.parametrize("route", ["moyal", "cbh", "assembly"])
    def test_exp_of_the_generators(self, route):
        c = strictly_upper(4)
        if route == "moyal":
            coeffs = {
                (i + 1, j + 1): GENERIC_ALPHA[i][j] for i in range(4) for j in range(4) if i != j
            }
            gen = wedge_operator(4, 6, coeffs, prefactor=F(1, 2))
        elif route == "cbh":
            gen = _cbh_generator(c, 5, None)
        else:
            gen = _assembly_generator(c, 5)
        op = gen.exp()
        assert_decodes_as_oracle(op)
        assert op == reference_exp(gen)

    def test_seeded_symbol_mul_pairs(self, decoded):
        rng = random.Random(28)
        for _ in range(60):
            dim, order = rng.randint(1, 3), rng.randint(1, 5)
            a, b = (_seeded_operator(rng, dim, order, 0) for _ in range(2))
            product = a.symbol_mul(b)
            assert_decodes_as_oracle(product)
            assert product == reference_symbol_mul(a, b)
            # a kernel-built operand is read from its rows
            again = a.symbol_mul(b)
            decoded.clear()
            chained = again.symbol_mul(again)
            assert decoded == []
            assert chained == reference_symbol_mul(product, product)

    def test_cancelling_numerators_are_dropped(self):
        # (d1 + d2) (d1 - d2) = d1^2 - d2^2: the kernel sums d1 d2 - d2 d1 to
        # a zero numerator
        x1, x2 = _vars(2)
        z = (0, 0)
        a = BiDiffOp(2, 1, {(0, (1, 0), z): x1, (0, (0, 1), z): x1})
        b = BiDiffOp(2, 1, {(0, (1, 0), z): x1, (0, (0, 1), z): -x1})
        product = a.symbol_mul(b)
        assert len(product._rows[0]) == 2
        assert_decodes_as_oracle(product)
        assert product == reference_symbol_mul(a, b)

    def test_kernel_operand_repacked_to_a_wider_product(self, decoded):
        # rows packed 8 bits a digit (need 3 * 41: the generator's bound 1
        # plus 40) times an operand whose bound is 11: the product packs 16
        # bits a digit
        x1 = Polynomial.variable(3, 1)
        gen = _cbh_generator(heisenberg(), 3, None).scale(x1**40)
        star = gen.exp()
        assert bidiff._width(star._rows[2]) == 8
        other = _cbh_generator(heisenberg(), 3, None).scale(x1**10)
        product = star.symbol_mul(other)
        assert bidiff._width(product._rows[2]) == 16
        assert decoded == []
        assert_decodes_as_oracle(product)
        assert product == reference_symbol_mul(star, other)

    def test_exp_of_a_kernel_built_generator(self, decoded):
        gen = _cbh_generator(strictly_upper(3), 4, None)
        built = gen.symbol_mul(BiDiffOp.identity(gen.dim, gen.order))
        star = built.exp()
        assert decoded == []
        assert star == reference_exp(gen)
        with pytest.raises(BiDiffError):
            BiDiffOp.identity(3, 2).symbol_mul(BiDiffOp.identity(3, 2)).exp()

    def test_is_zero_decodes_nothing(self, decoded):
        # every product term sits at eps^2, past order 1: a kernel-built zero
        wedge = wedge_operator(2, 1, {(1, 2): 1, (2, 1): -1})
        zero = wedge.symbol_mul(wedge)
        nonzero = wedge.exp()
        assert zero.is_zero() and not nonzero.is_zero()
        assert zero.min_eps_degree() is None and nonzero.min_eps_degree() == 0
        assert zero == BiDiffOp.zero(2, 1) and nonzero != zero
        assert decoded == []


def reference_add(a: BiDiffOp, b: BiDiffOp) -> BiDiffOp:
    """The term-by-term sum `BiDiffOp.__add__` replaced: one Polynomial sum
    per shared (m, L, R).  Kept as the oracle of the row sum."""
    assert a.dim == b.dim and a.order == b.order
    terms = dict(a.terms)
    for key, poly in b.terms.items():
        acc = terms.get(key)
        terms[key] = poly if acc is None else acc + poly
    return BiDiffOp(a.dim, a.order, terms)


def reference_scale(op: BiDiffOp, factor) -> BiDiffOp:
    """The term-by-term `BiDiffOp.scale` replaced: every coefficient times
    the factor.  Kept as the oracle of the row scaling."""
    if not isinstance(factor, Polynomial):
        factor = Polynomial.constant(op.dim, F(factor))
    return BiDiffOp(op.dim, op.order, {key: poly * factor for key, poly in op.terms.items()})


def reference_eq(a: BiDiffOp, b: BiDiffOp) -> bool:
    """The `BiDiffOp.__eq__` on decoded terms it replaced.  Kept as the
    oracle of the row comparison."""
    return a.dim == b.dim and a.order == b.order and a.terms == b.terms


def assert_arithmetic_as_oracles(a: BiDiffOp, b: BiDiffOp) -> None:
    """`+`, `-`, `scale` and `==` on a and b against the reference bodies,
    at `==` and through `terms`."""
    x1 = Polynomial.variable(a.dim, 1)
    want = reference_add(a, b)
    total = a + b
    assert total.terms == want.terms and total == want
    assert_decodes_as_oracle(total)
    assert (a - b).terms == reference_add(a, reference_scale(b, -1)).terms
    for op in (a, b):
        for factor in (F(0), F(-3, 4), 2, x1 * F(2, 3) - 1, Polynomial.zero(a.dim)):
            scaled, want = op.scale(factor), reference_scale(op, factor)
            assert scaled.terms == want.terms and scaled == want
    for left, right in ((a, b), (b, a), (a, a), (a, rebuilt(a)), (total - b, a)):
        assert (left == right) == reference_eq(left, right)
        assert (left != right) == (not reference_eq(left, right))


def _loose_bound_generator() -> BiDiffOp:
    """A generator whose exp has need 3 * 100, packed 16 bits a digit, but
    largest real digit 100: its eps^3 term has no partner within order 3."""
    x1, x2 = _vars(2)
    return BiDiffOp(
        2,
        3,
        {
            (1, (1, 0), (0, 1)): x2 * F(1, 2),
            (1, (0, 1), (1, 0)): F(-1, 3),
            (3, (0, 0), (0, 0)): x1**100 * F(2, 7),
        },
    )


class TestRowArithmetic:
    """`==`, `+` and `scale` read the packed rows; they agree with the
    term-by-term `reference_eq`, `reference_add` and `reference_scale`."""

    def test_seeded_operators(self):
        rng = random.Random(30)
        for _ in range(60):
            dim, order = rng.randint(1, 3), rng.randint(1, 4)
            a, b = (_seeded_operator(rng, dim, order, 0) for _ in range(2))
            for left, right in ((a, b), (a.symbol_mul(b), b), (a, a.symbol_mul(a))):
                assert_arithmetic_as_oracles(left, right)

    def test_mixed_width_generators(self):
        # the generators of TestPackedKernel's width controls: bounds 131
        # and 127 pack 16 and 8 bits a digit
        x1 = Polynomial.variable(3, 1)
        gen = _cbh_generator(heisenberg(), 3, None)
        a, b = gen.scale(x1**130), gen.scale(x1**126)
        assert [bidiff._width(op._rows[2]) for op in (a, b)] == [16, 8]
        assert_arithmetic_as_oracles(a, b)
        assert_arithmetic_as_oracles(b, a.exp())

    def test_kernel_built_equals_dict_built(self, decoded):
        kernel = _loose_bound_generator().exp()
        dict_built = rebuilt(kernel)
        # the largest real digit, 100, packs the dict-built rows 8 bits a
        # digit
        assert [bidiff._width(op._rows[2]) for op in (kernel, dict_built)] == [16, 8]
        decoded.clear()
        assert kernel == dict_built and dict_built == kernel
        assert decoded == []
        assert reference_eq(kernel, dict_built)
        assert_arithmetic_as_oracles(kernel, dict_built)

    def test_changed_rows_are_unequal(self):
        # negative controls on the rows themselves
        op = _cbh_generator(strictly_upper(3), 3, None).exp()
        rows, den, need = op._rows
        changed = dict(rows)
        key = min(changed)
        changed[key] += 1
        for other in (
            BiDiffOp._unchecked(op.dim, op.order, (changed, den, need)),  # one numerator
            BiDiffOp._unchecked(op.dim, op.order, (rows, 2 * den, need)),  # twice the den
        ):
            assert op != other and other != op and not reference_eq(op, other)

    def test_equal_rows_at_widths_8_and_16(self):
        narrow = _cbh_generator(strictly_upper(3), 3, None).exp()
        rows, den, need = narrow._rows
        wide = BiDiffOp._unchecked(
            narrow.dim, narrow.order, (bidiff._at_width(rows, narrow.dim, need, 16), den, 255)
        )
        assert (bidiff._width(need), bidiff._width(255)) == (8, 16)
        assert wide._rows[0] != rows
        assert wide == narrow and narrow == wide and reference_eq(wide, narrow)
        assert wide.terms == narrow.terms

    def test_mutating_the_terms_view(self):
        op = _cbh_generator(strictly_upper(3), 3, None)
        copy = rebuilt(op)
        view = op.terms
        before = dict(view)
        key = next(iter(view))
        view[key] = view[key] * 2
        del view[next(reversed(view))]
        view[(1, (5, 0, 0), (0, 0, 0))] = Polynomial.one(3)
        assert op.terms == before and op == copy

    def test_c08_operators_compare_without_decoding(self, upper4_operators, decoded):
        cbh, assembly = upper4_operators["cbh"], upper4_operators["kontsevich"]
        assert len(cbh._rows[0]) > 1000
        assert cbh == assembly and assembly == cbh
        # negative control: a changed Hausdorff coefficient the algebra sees
        changed = cbh_product(strictly_upper(4), 5, override={("X", "X", "Y"): F(1)}).operator
        assert changed != assembly
        assert decoded == []


class TestRowFedPlan:
    """The plan is built from packed rows for every operator: straight from
    a kernel's rows at their own width, repacked at any other width, and
    from the rows the checking constructor packs."""

    def test_kernel_and_dict_built_across_widths(self, decoded):
        # small arguments get an 8-bit plan from the 16-bit kernel rows
        x1, x2 = _vars(2)
        gen = _loose_bound_generator()
        cases = [
            ((x1**3 + x2, x1 * x2**2 * F(3, 5)), 8),
            ((x1**20 * x2, x2**10 + x1), 16),
            ((x1**200 + x2**3, x2**32700 * F(1, 9)), 24),
        ]
        for (f, g), width in cases:
            kernel = gen.exp()
            assert bidiff._width(kernel._rows[2]) == 16
            decoded.clear()
            out = kernel.apply(f, g)
            assert decoded == []
            assert kernel._plan[0] == width and kernel._plan[2] == 100
            dict_built = BiDiffOp(kernel.dim, kernel.order, kernel.terms)
            assert dict_built.apply(f, g) == out == reference_box_apply(kernel, f, g)
            assert dict_built._plan[:4] == kernel._plan[:4]

    def test_c08_operators_keep_their_plans(self, upper4_operators):
        # the packed plan of each C08 operator against the one built from a
        # dict-built copy of its terms: same width, top, denominator and L
        # keys, and apply gives the oracle's values on both
        pairs = _stratified_c08_sample(6, 2, seed=9)
        for op in upper4_operators.values():
            copy = BiDiffOp(op.dim, op.order, op.terms)
            for f, g in pairs:
                assert copy.apply(f, g) == op.apply(f, g) == reference_box_apply(op, f, g)
            assert copy._plan[:4] == op._plan[:4]
            assert copy._plan[4].keys() == op._plan[4].keys()


def _load_perfbench(name: str):
    """A perfbench module by file, without putting perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equiv_monomial_never_decodes_terms(decoded):
    # the seed-0 equiv-monomial set-up and all 776 items, in one process:
    # every product goes through `apply`, so no operator's `terms` is read
    gen, workloads = _load_perfbench("gen"), _load_perfbench("workloads")
    inputs = gen.generate("equiv-monomial", 0)
    state = workloads.setup("equiv-monomial", inputs)
    items = workloads.items("equiv-monomial", inputs, state)
    assert len(items) == 776
    assert all(run()[0] for _, run in items)
    assert len(decoded) == 0


class TestExpLimit:
    """`exp` refuses a power step of more than MAX_EXP_PAIRS term pairs
    before it multiplies any."""

    @staticmethod
    def _wide_generator(side: int) -> BiDiffOp:
        # one term whose coefficient has side^2 monomials: side^2 rows
        coeff = Polynomial(2, {(i, j): 1 for i in range(side) for j in range(side)})
        return BiDiffOp(2, 2, {(1, (1, 0), (0, 1)): coeff})

    def test_refused_before_any_product(self, monkeypatch):
        products = []
        real = bidiff._packed_product
        monkeypatch.setattr(
            bidiff, "_packed_product", lambda *args: products.append(1) or real(*args)
        )
        gen = self._wide_generator(60)  # 3600 rows, 12.96M pairs at G^2
        start = time.perf_counter()
        with pytest.raises(BiDiffError, match="exceeds the limit of 10000000 pairs"):
            gen.exp()
        assert time.perf_counter() - start < 1
        assert products == []

    def test_the_limit_itself_runs(self, monkeypatch):
        gen = self._wide_generator(4)  # 16 rows, 256 pairs at G^2
        monkeypatch.setattr(bidiff, "MAX_EXP_PAIRS", 256)
        assert gen.exp() == reference_exp(gen)
        monkeypatch.setattr(bidiff, "MAX_EXP_PAIRS", 255)
        with pytest.raises(BiDiffError):
            gen.exp()


@st.composite
def packed_keys(draw):
    """(width, dim, m, fields) with digits up to the width's cap, the caps
    127 and 32767 and the first 16-bit digit 128 drawn often."""
    width = draw(st.sampled_from([8, 16]))
    cap = (1 << (width - 1)) - 1
    dim = draw(st.integers(1, 4))
    digit = st.one_of(st.integers(0, cap), st.sampled_from([d for d in (0, 127, 128, cap) if d <= cap]))
    fields = draw(st.lists(st.tuples(*[digit] * dim), min_size=1, max_size=3))
    return width, dim, draw(st.integers(0, 1 << 40)), fields


class TestPackedLayout:
    """The one packer and its decoder, and the width rule every kernel
    shares."""

    def test_width_rule(self):
        assert [bidiff._width(need) for need in (0, 1, 127, 128, 32767, 32768)] == [8, 8, 8, 16, 16, 24]

    @settings(max_examples=300, deadline=None)
    @given(packed_keys())
    def test_round_trip(self, case):
        width, dim, m, fields = case
        assert bidiff._width(max(max(f) for f in fields)) <= width
        key = bidiff._pack(sum(fields, ()), width, m)
        assert bidiff._MultiIndices(dim, width).split(key, len(fields)) == [m, *fields]

    def test_pair_keys(self):
        left, right, decode = bidiff.pair_keys(3, 200)
        key = 2 * left[1] + left[3] + 200 * right[2]
        assert decode(key) == ((2, 0, 1), (0, 200, 0))
        assert left[0] == right[0] == 0
