"""Tests for the three star-product constructions and their agreement."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from dqw.bernoulli import bernoulli_number
from dqw.liealg import (
    constant_poisson,
    heisenberg,
    linear_poisson,
    moyal_trick,
    solvable2,
    strictly_upper,
)
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries
from dqw.star import (
    AssociativityReport,
    _monomials_up_to,
    StarError,
    bracket_monomial_operator,
    cbh_product,
    check_associativity,
    check_degree_drop,
    check_equivalence,
    equivalence_pairs,
    moyal_product,
    poisson_operator,
    random_polynomials,
    uea_product,
    xn_star_y,
    xn_star_y_coefficients,
)
from dqw.freelie import parse_bracket

F = Fraction
SYMPLECTIC2 = [[0, 1], [-1, 0]]


def reference_equivalence_pairs(dim, degree_bound):
    """Oracle: every pair of the monomials up to degree_bound, filtered."""
    monos = _monomials_up_to(dim, degree_bound)
    return [
        (f, g)
        for f in monos
        for g in monos
        if f.total_degree() + g.total_degree() <= degree_bound
    ]


class TestMoyal:
    def test_first_order(self):
        star = moyal_product(SYMPLECTIC2, 3)
        x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        assert star(x1, x2).to_pairs() == [(0, "x1*x2"), (1, "1/2"), (2, "0"), (3, "0")]
        assert star(x2, x1).to_pairs() == [(0, "x1*x2"), (1, "-1/2"), (2, "0"), (3, "0")]

    def test_defining_properties(self):
        star = moyal_product(SYMPLECTIC2, 4)
        pi = constant_poisson(SYMPLECTIC2)
        for f, g in zip(
            random_polynomials(2, 6, 3, seed=3), random_polynomials(2, 6, 3, seed=4)
        ):
            out = star(f, g)
            assert out.coeffs[0] == f * g
            swapped = star(g, f)
            assert out.coeffs[1] - swapped.coeffs[1] == pi.poisson_bracket(f, g)

    def test_associativity(self):
        star = moyal_product(SYMPLECTIC2, 5)
        polys = random_polynomials(2, 9, 3, seed=5)
        report = check_associativity(
            star, [tuple(polys[i : i + 3]) for i in range(0, 9, 3)]
        )
        assert report.ok and report.trials == 3

    def test_higher_dimension(self):
        alpha = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        star = moyal_product(alpha, 3)
        f = parse_polynomial("x1*x3", dim=4)
        g = parse_polynomial("x2*x4", dim=4)
        out = star(f, g)
        assert out.coeffs[0] == f * g
        assert out.coeffs[1] == parse_polynomial("1/2*x3*x4 + 1/2*x1*x2", dim=4)
        assert out.coeffs[2] == Polynomial.constant(4, F(1, 4))

    def test_poisson_structure_equals_matrix(self):
        alpha = [[0, 1, F(1, 2), -1], [-1, 0, 2, 0], [F(-1, 2), -2, 0, 1], [1, 0, -1, 0]]
        via_structure = moyal_product(constant_poisson(alpha), 3)
        via_matrix = moyal_product(alpha, 3)
        for f, g in zip(
            random_polynomials(4, 5, 3, seed=31), random_polynomials(4, 5, 3, seed=32)
        ):
            assert via_structure(f, g) == via_matrix(f, g)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(StarError):
            moyal_product([[0, 1], [1, 0]], 2)

    def test_rejects_linear_structure(self):
        with pytest.raises(StarError):
            moyal_product(linear_poisson(heisenberg()), 2)


class TestPoissonOperator:
    def test_matches_bracket(self):
        pi = linear_poisson(heisenberg())
        op = poisson_operator(pi, 2)
        f = parse_polynomial("x1^2", dim=3)
        g = Polynomial.variable(3, 2)
        assert op.apply(f, g).coeffs[1] == pi.poisson_bracket(f, g)


class TestBracketMonomialOperator:
    def test_single_bracket(self):
        c = heisenberg()
        op = bracket_monomial_operator(c, parse_bracket("[X,Y]"), 2)
        x3 = Polynomial.variable(3, 3)
        assert op.terms == {
            (1, (1, 0, 0), (0, 1, 0)): x3,
            (1, (0, 1, 0), (1, 0, 0)): x3 * -1,
        }

    def test_nested_bracket_second_slot_once(self):
        c = heisenberg()
        op = bracket_monomial_operator(c, parse_bracket("[X,[X,Y]]"), 3)
        # [X^i, [X^j, Y^k]] on this algebra: inner bracket makes X^3, outer
        # bracket with the central X^3 vanishes
        assert op.is_zero()

    def test_nested_bracket_solvable(self):
        c = solvable2()
        op = bracket_monomial_operator(c, parse_bracket("[X,[X,Y]]"), 3)
        # leaves sum over coordinates: [X^1,[X^1,X^2]] = X^2 survives, and so
        # does the inner pairing [X^2, X^1] = -X^2 against an outer X^1
        x2 = Polynomial.variable(2, 2)
        assert op.terms == {
            (2, (2, 0), (0, 1)): x2,
            (2, (1, 1), (1, 0)): x2 * -1,
        }

    def test_eps_degree_is_bracket_count(self):
        c = strictly_upper(3)
        op = bracket_monomial_operator(c, parse_bracket("[[X,Y],Y]"), 4)
        assert set(m for (m, _, _) in op.terms) <= {2}

    def test_bare_letter_rejected(self):
        with pytest.raises(StarError):
            bracket_monomial_operator(heisenberg(), "X", 2)


class TestCBH:
    def test_first_levels_match_uea(self):
        c = heisenberg()
        rep = check_equivalence(cbh_product(c, 4), uea_product(c, 4), 4)
        assert rep.ok and rep.pairs == 210

    def test_equivalence_strictly_upper(self):
        c = strictly_upper(3)
        rep = check_equivalence(cbh_product(c, 3), uea_product(c, 3), 3)
        assert rep.ok

    def test_associativity_beyond_nilpotent(self):
        # the Hausdorff route never used nilpotency; solvable2 still works
        star = cbh_product(solvable2(), 4)
        polys = random_polynomials(2, 12, 3, seed=9)
        report = check_associativity(
            star, [tuple(polys[i : i + 3]) for i in range(0, 12, 3)]
        )
        assert report.ok and report.trials == 4

    def test_override_breaks_associativity(self):
        star = cbh_product(solvable2(), 4, override={("X", "X", "Y"): F(1, 10)})
        polys = random_polynomials(2, 6, 2, seed=13)
        report = check_associativity(
            star, [tuple(polys[i : i + 3]) for i in range(0, 6, 3)]
        )
        assert not report.ok
        # the residual starts exactly at the perturbed eps level
        first = report.failures[0]["residual"]
        assert min(entry["eps"] for entry in first) == 2

    def test_override_validates_words(self):
        with pytest.raises(StarError):
            cbh_product(solvable2(), 3, override={("Y", "X"): F(1)})

    def test_override_of_a_word_longer_than_the_step_is_invisible(self):
        # strictly_upper(4) has nilpotency step 3, so every length-4 bracket
        # operator vanishes there: changing XXYY leaves the operator as it is
        c = strictly_upper(4)
        plain = cbh_product(c, 5).operator
        assert cbh_product(c, 5, override={("X", "X", "Y", "Y"): F(1, 7)}).operator == plain
        assert cbh_product(c, 5, override={("X", "X", "Y"): F(1, 7)}).operator != plain

    def test_second_level_operator_formula(self):
        # at eps^2 the generator holds (1/12)([X,[X,Y]] + [[X,Y],Y]) and the
        # exponential adds (1/2)(first level)^2; check extensionally
        c = solvable2()
        star = cbh_product(c, 2)
        half = bracket_monomial_operator(c, parse_bracket("[X,Y]"), 2).scale(F(1, 2))
        twelfth = (
            bracket_monomial_operator(c, parse_bracket("[X,[X,Y]]"), 2)
            + bracket_monomial_operator(c, parse_bracket("[[X,Y],Y]"), 2)
        ).scale(F(1, 12))
        manual = (
            half.symbol_mul(half).scale(F(1, 2)) + twelfth
        )
        for f in random_polynomials(2, 4, 3, seed=21):
            for g in random_polynomials(2, 4, 3, seed=22):
                assert star(f, g).coeffs[2] == manual.apply(f, g).coeffs[2]


class TestClosedForm:
    def test_coefficient_ladder(self):
        assert xn_star_y_coefficients(4, 4) == [F(1), F(2), F(1), F(0), F(-1, 30)]
        assert xn_star_y_coefficients(1, 5) == [F(1), F(1, 2)]
        for n in range(0, 7):
            # the same ladder in plain Bernoulli numbers: only B_1 changes sign
            standard = [
                comb(n, k) * (-bernoulli_number(k) if k == 1 else bernoulli_number(k))
                for k in range(min(n, 6) + 1)
            ]
            assert xn_star_y_coefficients(n, 6) == standard

    def test_matches_uea_and_cbh(self):
        for c in (heisenberg(), strictly_upper(3)):
            d = c.dim
            x1, x2 = Polynomial.variable(d, 1), Polynomial.variable(d, 2)
            uea = uea_product(c, 5)
            cbh = cbh_product(c, 5)
            for n in range(0, 6):
                closed = xn_star_y(c, n, 5)
                assert closed == uea(x1**n, x2)
                assert closed == cbh(x1**n, x2)

    def test_general_linear_arguments(self):
        c = solvable2()
        x = parse_polynomial("x1 + 2*x2", dim=2)
        y = parse_polynomial("x2 - x1", dim=2)
        star = cbh_product(c, 4)
        for n in (1, 2, 3):
            assert xn_star_y(c, n, 4, x=x, y=y) == star(x**n, y)

    def test_rejects_nonlinear(self):
        with pytest.raises(StarError):
            xn_star_y(heisenberg(), 2, 3, x=parse_polynomial("x1^2", dim=3))

    def test_bernoulli_tail(self):
        # on solvable2 ad_x1^k(x2) = x2 for every k, so the eps^k level of
        # x1^6 * x2 is binom(6,k) Bhat_k x1^(6-k) x2 on the nose
        c = solvable2()
        out = xn_star_y(c, 6, 6)
        x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        for k in range(7):
            b = bernoulli_number(k, variant="modified")
            assert out.coeffs[k] == x1 ** (6 - k) * x2 * (comb(6, k) * b)


class TestChecks:
    def test_equivalence_detects_difference(self):
        a = moyal_product(SYMPLECTIC2, 3)
        b = moyal_product([[0, 2], [-2, 0]], 3)
        rep = check_equivalence(a, b, 2)
        assert not rep.ok and rep.failures

    def test_equivalence_counts_every_pair_and_caps_failures(self):
        c = solvable2()
        bad = cbh_product(c, 4, override={("X", "X", "Y"): F(1, 10)})
        rep = check_equivalence(uea_product(c, 4), bad, 6)
        assert rep.pairs == len(equivalence_pairs(2, 6)) == 210
        assert len(rep.failures) == 5
        assert all(set(entry) == {"f", "g", "difference"} for entry in rep.failures)

    def test_equivalence_random_mode(self):
        c = heisenberg()
        rep = check_equivalence(
            cbh_product(c, 3), uea_product(c, 3), 3, mode="random", seed=1, trials=5
        )
        assert rep.ok and rep.pairs == 5

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_monomial_pairs_equal_square_filter(self, dim):
        for degree in range(7):
            pairs = equivalence_pairs(dim, degree)
            assert pairs == reference_equivalence_pairs(dim, degree)
            assert len(pairs) == comb(degree + 2 * dim, 2 * dim)

    def test_random_pairs_unchanged(self):
        pairs = equivalence_pairs(3, 4, mode="random", seed=5, trials=7)
        fs = random_polynomials(3, 7, 4, 5)
        gs = random_polynomials(3, 7, 4, 6)
        assert pairs == list(zip(fs, gs))

    def test_mode_validation(self):
        a = moyal_product(SYMPLECTIC2, 2)
        with pytest.raises(StarError):
            check_equivalence(a, a, 2, mode="fuzzy")

    def test_report_json_shape(self):
        a = moyal_product(SYMPLECTIC2, 2)
        rep = check_equivalence(a, a, 2)
        doc = rep.to_json()
        assert doc["ok"] is True and doc["check"] == "equivalence"
        assoc = check_associativity(a, [(Polynomial.one(2),) * 3])
        assert assoc.to_json()["trials"] == 1

    def test_degree_drop(self):
        star = uea_product(heisenberg(), 4)
        f = parse_polynomial("x1^2*x2", dim=3)
        g = parse_polynomial("x1*x3", dim=3)
        assert check_degree_drop(star, f, g)

    def test_degree_drop_fails_for_broken_product(self):
        # a fake product that pads level 1 with a degree-raising term
        base = moyal_product(SYMPLECTIC2, 2)

        def bad(f, g):
            out = base.on_polynomials(f, g)
            bump = Polynomial.variable(2, 1) ** (
                f.total_degree() + g.total_degree() + 1
            )
            return EpsSeries(2, 2, [out.coeffs[0], out.coeffs[1] + bump, out.coeffs[2]])

        from dqw.star import StarProduct

        fake = StarProduct("fake", 2, 2, bad, None)
        assert not check_degree_drop(
            fake, Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        )


class TestCentralExtensionBridge:
    def test_moyal_equals_uea_with_central_one(self):
        # the enveloping product of the one-higher central extension, with the
        # central coordinate frozen to 1, is the constant-coefficient product
        mt = moyal_trick(2)
        lifted = uea_product(mt, 3)
        flat = moyal_product(SYMPLECTIC2, 3)
        for ea, eb, ec, ed in itertools.product(range(3), repeat=4):
            if ea + eb > 3 or ec + ed > 3:
                continue
            f3 = Polynomial.monomial(3, (ea, eb, 0))
            g3 = Polynomial.monomial(3, (ec, ed, 0))
            lifted_out = lifted(f3, g3)
            specialised = [
                Polynomial(2, {e[:2]: v for e, v in p.substitute(3, F(1)).terms.items()})
                for p in lifted_out.coeffs
            ]
            flat_out = flat(
                Polynomial.monomial(2, (ea, eb)), Polynomial.monomial(2, (ec, ed))
            )
            assert specialised == list(flat_out.coeffs)
