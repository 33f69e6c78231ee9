"""Tests for the ordered-basis straightening and symmetrization machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dqw import pbw
from dqw.liealg import StructureConstants, heisenberg, solvable2, strictly_upper
from dqw.pbw import (
    MAX_STAR_DEGREE,
    MAX_STAR_PAIRS,
    EnvelopingAlgebra,
    PBWError,
    enveloping_algebra,
    monomial_of_word,
    uea_star,
    word_of_monomial,
)
from dqw.poly import Polynomial, nonzero, parse_polynomial
from dqw.series import EpsSeries
from dqw.star import StarError, equivalence_pairs, uea_product

F = Fraction


class ReferenceEnvelopingAlgebra:
    """The `Fraction` bodies `EnvelopingAlgebra` replaced with its integer
    kernel: straightening, sigma and its inverse on `Fraction` coefficients,
    one cache entry per word.  Kept as the oracle for the kernel."""

    def __init__(self, c: StructureConstants):
        self.c = c
        self.dim = c.dim
        self._nf: dict = {}
        self._sigma: dict = {}

    def normal_form(self, word):
        cached = self._nf.get(word)
        if cached is not None:
            return cached
        descent = next(
            (p for p in range(len(word) - 1) if word[p] > word[p + 1]), None
        )
        if descent is None:
            result = {(word, 0): Fraction(1)}
        else:
            p = descent
            swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
            result = dict(self.normal_form(swapped))
            for k, coeff in self.c.bracket_basis(word[p], word[p + 1]).items():
                contracted = word[:p] + (k,) + word[p + 2 :]
                for (w, m), value in self.normal_form(contracted).items():
                    key = (w, m + 1)
                    result[key] = result.get(key, 0) + coeff * value
            result = nonzero(result)
        self._nf[word] = result
        return result

    def mul(self, a, b, order):
        out = {}
        for (w1, m1), c1 in a.items():
            if m1 > order:
                continue
            for (w2, m2), c2 in b.items():
                base = m1 + m2
                if base > order:
                    continue
                scale = c1 * c2
                for (w, dm), value in self.normal_form(w1 + w2).items():
                    m = base + dm
                    if m <= order:
                        key = (w, m)
                        out[key] = out.get(key, 0) + scale * value
        return nonzero(out)

    def sigma_word(self, word):
        cached = self._sigma.get(word)
        if cached is not None:
            return cached
        n = len(word)
        if n <= 1:
            result = {(word, 0): Fraction(1)}
        else:
            result = {}
            share = Fraction(1, n)
            seen = set()
            for p, letter in enumerate(word):
                if letter in seen:
                    continue
                seen.add(letter)
                multiplicity = word.count(letter)
                rest = self.sigma_word(word[:p] + word[p + 1 :])
                weight = share * multiplicity
                for (w, m), value in rest.items():
                    for (w2, dm), v2 in self.normal_form((letter,) + w).items():
                        key = (w2, m + dm)
                        result[key] = result.get(key, 0) + weight * value * v2
            result = nonzero(result)
        self._sigma[word] = result
        return result

    def sigma_polynomial(self, p):
        if p.dim != self.dim:
            raise PBWError("polynomial dimension mismatch")
        out = {}
        for exps, coeff in p.terms.items():
            for key, value in self.sigma_word(word_of_monomial(exps)).items():
                out[key] = out.get(key, 0) + coeff * value
        return nonzero(out)

    def sigma_series(self, s):
        out = {}
        for m, level in enumerate(s.coeffs):
            if level.is_zero():
                continue
            for (w, dm), value in self.sigma_polynomial(level).items():
                if m + dm <= s.order:
                    key = (w, m + dm)
                    out[key] = out.get(key, 0) + value
        return nonzero(out)

    def inverse_sigma(self, element, order):
        work = {k: v for k, v in element.items() if k[1] <= order}
        levels = []
        for m in range(order + 1):
            slice_terms = {
                monomial_of_word(self.dim, w): coeff
                for (w, mm), coeff in work.items()
                if mm == m
            }
            p_m = Polynomial(self.dim, slice_terms)
            levels.append(p_m)
            if p_m.is_zero():
                continue
            for exps, coeff in p_m.terms.items():
                for (w, dm), value in self.sigma_word(word_of_monomial(exps)).items():
                    mm = m + dm
                    if mm <= order:
                        key = (w, mm)
                        work[key] = work.get(key, 0) - coeff * value
        if any(work.values()):
            raise PBWError("symmetrization inverse left a remainder")
        return EpsSeries(self.dim, order, levels)

    def star(self, f, g, order):
        return self.inverse_sigma(
            self.mul(self._lift(f, order), self._lift(g, order), order), order
        )

    def _lift(self, f, order):
        if isinstance(f, Polynomial):
            return self.sigma_polynomial(f)
        if f.order != order:
            f = EpsSeries(f.dim, order, list(f.coeffs[: order + 1]))
        return self.sigma_series(f)


class TestNormalForm:
    def test_sorted_words_fixed(self):
        c = heisenberg()
        assert enveloping_algebra(c).normal_form((1, 2, 3)) == {((1, 2, 3), 0): F(1)}
        assert enveloping_algebra(c).normal_form(()) == {((), 0): F(1)}

    def test_single_descent(self):
        c = heisenberg()
        # X^2 X^1 = X^1 X^2 + eps [X^2, X^1] = X^1 X^2 - eps X^3
        assert enveloping_algebra(c).normal_form((2, 1)) == {((1, 2), 0): F(1), ((3,), 1): F(-1)}

    def test_longer_word(self):
        c = heisenberg()
        assert enveloping_algebra(c).normal_form((2, 1, 1)) == {
            ((1, 1, 2), 0): F(1),
            ((1, 3), 1): F(-2),
        }

    def test_central_elements_commute_freely(self):
        c = heisenberg()
        assert enveloping_algebra(c).normal_form((3, 2, 1)) == {
            ((1, 2, 3), 0): F(1),
            ((3, 3), 1): F(-1),
        }

    def test_solvable(self):
        c = solvable2()
        # X^2 X^1 = X^1 X^2 - eps X^2
        assert enveloping_algebra(c).normal_form((2, 1)) == {((1, 2), 0): F(1), ((2,), 1): F(-1)}

    def test_order_independence_of_straightening(self):
        # straightening different presentations of the same product agrees:
        # assoc means NF(u + v) == NF(NF(u) * NF(v)) termwise
        c = strictly_upper(3)
        ua = enveloping_algebra(c)
        w1, w2 = (3, 1, 2), (2, 1)
        direct = ua.normal_form(w1 + w2)
        two_step = ua.mul(ua.normal_form(w1), ua.normal_form(w2), order=10)
        assert direct == two_step


class TestSymmetrize:
    def test_single_letters(self):
        c = heisenberg()
        x2 = Polynomial.variable(3, 2)
        assert enveloping_algebra(c).sigma_polynomial(x2) == {((2,), 0): F(1)}

    def test_square_times_letter(self):
        c = heisenberg()
        p = parse_polynomial("x1^2*x2", dim=3)
        assert enveloping_algebra(c).sigma_polynomial(p) == {((1, 1, 2), 0): F(1), ((1, 3), 1): F(-1)}

    def test_two_letters(self):
        c = heisenberg()
        p = parse_polynomial("x1*x2", dim=3)
        # (X1 X2 + X2 X1)/2 = X1 X2 - (eps/2) X3
        assert enveloping_algebra(c).sigma_polynomial(p) == {((1, 2), 0): F(1), ((3,), 1): F(-1, 2)}

    def test_linearity(self):
        c = solvable2()
        p = parse_polynomial("x1*x2 - 3*x2^2", dim=2)
        q = parse_polynomial("2*x1", dim=2)
        sp, sq = enveloping_algebra(c).sigma_polynomial(p), enveloping_algebra(c).sigma_polynomial(q)
        combined = enveloping_algebra(c).sigma_polynomial(p + q)
        manual = dict(sp)
        for k, v in sq.items():
            manual[k] = manual.get(k, F(0)) + v
        assert combined == {k: v for k, v in manual.items() if v}

    def test_inverse_round_trip_seeded(self):
        rng = random.Random(11)
        c = heisenberg()
        for _ in range(20):
            terms = {}
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                if sum(exps) > 5:
                    continue
                terms[exps] = F(rng.randint(-6, 6), rng.randint(1, 4))
            p = Polynomial(3, terms)
            back = enveloping_algebra(c).inverse_sigma(
                enveloping_algebra(c).sigma_polynomial(p), order=6
            )
            assert back == EpsSeries.from_polynomial(p, 6)

    def test_inverse_round_trip_series(self):
        c = strictly_upper(3)
        ua = enveloping_algebra(c)
        s = EpsSeries(
            3,
            3,
            [
                parse_polynomial("x1*x2", dim=3),
                parse_polynomial("x3", dim=3),
                Polynomial.zero(3),
                parse_polynomial("x1", dim=3),
            ],
        )
        assert ua.inverse_sigma(ua.sigma_series(s), 3) == s

    def test_inverse_rejects_garbage(self):
        c = heisenberg()
        with pytest.raises(PBWError):
            # (word, eps) content that no polynomial symmetrizes to
            enveloping_algebra(c).inverse_sigma({((2, 1), 0): F(1)}, order=2)


class TestStar:
    def test_spec_example(self):
        c = heisenberg()
        f = parse_polynomial("x1^2", dim=3)
        g = parse_polynomial("x2", dim=3)
        out = uea_star(c, f, g, 3)
        assert out.to_pairs() == [
            (0, "x1^2*x2"),
            (1, "x1*x3"),
            (2, "0"),
            (3, "0"),
        ]

    def test_commutator_is_eps_bracket(self):
        for c in (heisenberg(), solvable2(), strictly_upper(3)):
            d = c.dim
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    xi, xj = Polynomial.variable(d, i), Polynomial.variable(d, j)
                    comm = uea_star(c, xi, xj, 2) - uea_star(c, xj, xi, 2)
                    bracket = Polynomial(
                        d,
                        {
                            tuple(1 if m == k else 0 for m in range(1, d + 1)): v
                            for k, v in c.bracket_basis(i, j).items()
                        },
                    )
                    assert comm == EpsSeries(d, 2, [Polynomial.zero(d), bracket])

    def test_unit(self):
        c = solvable2()
        one = Polynomial.one(2)
        f = parse_polynomial("x1^2*x2 - x2", dim=2)
        assert uea_star(c, one, f, 3) == EpsSeries.from_polynomial(f, 3)
        assert uea_star(c, f, one, 3) == EpsSeries.from_polynomial(f, 3)

    def test_associativity_on_monomials(self):
        c = heisenberg()
        monos = [
            parse_polynomial(t, dim=3)
            for t in ("x1", "x2", "x3", "x1*x2", "x1^2", "x2*x3")
        ]
        star = uea_product(c, 4)  # the series factors go through StarProduct
        for f in monos[:4]:
            for g in monos[:4]:
                for h in monos[:4]:
                    assert star(star(f, g), h) == star(f, star(g, h))

    def test_eps_series_inputs(self):
        c = heisenberg()
        f = EpsSeries(3, 2, [Polynomial.variable(3, 1), Polynomial.variable(3, 3)])
        g = Polynomial.variable(3, 2)
        out = uea_product(c, 2)(f, g)
        assert out == ReferenceEnvelopingAlgebra(c).star(f, g, 2)
        # x1 * x2 = x1 x2 + (eps/2) x3; the eps-level x3 contributes x3 x2 at eps^1
        assert out.coeffs[0] == parse_polynomial("x1*x2", dim=3)
        assert out.coeffs[1] == parse_polynomial("1/2*x3 + x2*x3", dim=3)

    def test_word_of_monomial(self):
        assert word_of_monomial((2, 0, 1)) == (1, 1, 3)
        assert word_of_monomial((0, 0, 0)) == ()


# sl2 with basis h, e, f: not nilpotent, so straightening can cancel
SL2 = StructureConstants.from_brackets(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
# a nilpotent algebra whose structure constants have denominators 2 and 3
RATIONAL = StructureConstants.from_brackets(4, {(1, 2): {3: F(1, 2)}, (1, 3): {4: F(2, 3)}})
ALGEBRAS = {
    "heisenberg": heisenberg(),
    "solvable2": solvable2(),
    "strictly_upper(3)": strictly_upper(3),
    "strictly_upper(4)": strictly_upper(4),
    "sl2": SL2,
    "rational": RATIONAL,
}


def _c08_sample(dim: int, per_stratum: int, seed: int) -> list:
    """A seeded sample of the C08 monomial pairs (order 5), from every (deg f, deg g)."""
    strata: dict = {}
    for f, g in equivalence_pairs(dim, 5):
        strata.setdefault((f.total_degree(), g.total_degree()), []).append((f, g))
    rng = random.Random(seed)
    return [
        pair
        for key in sorted(strata)
        for pair in rng.sample(strata[key], min(per_stratum, len(strata[key])))
    ]


def _random_series(rng: random.Random, dim: int, order: int) -> EpsSeries:
    levels = []
    for _ in range(order + 1):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(dim))
            if sum(exps) <= 3:
                terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 6))
        levels.append(Polynomial(dim, terms))
    return EpsSeries(dim, order, levels)


class TestKernel:
    """The integer kernel against `ReferenceEnvelopingAlgebra`, at exact equality."""

    def test_rational_algebra_has_a_common_denominator(self):
        assert EnvelopingAlgebra(RATIONAL)._d == 6

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_c08_pairs_every_stratum(self, name):
        c = ALGEBRAS[name]
        alg, ref = EnvelopingAlgebra(c), ReferenceEnvelopingAlgebra(c)
        sample = _c08_sample(c.dim, 4, seed=13)
        assert {(f.total_degree(), g.total_degree()) for f, g in sample} == {
            (a, b) for a in range(6) for b in range(6 - a)
        }
        for f, g in sample:
            assert alg.star(f, g, 5) == ref.star(f, g, 5), (f, g)

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_series_inputs(self, name):
        c = ALGEBRAS[name]
        ref = ReferenceEnvelopingAlgebra(c)
        rng = random.Random(5)
        for _ in range(6):
            fs, gs = _random_series(rng, c.dim, 3), _random_series(rng, c.dim, 3)
            g = gs.coeffs[0]
            for order in (3, 2):  # the reference truncates a series of higher order
                star = uea_product(c, order)
                f_cut, g_cut = (EpsSeries(c.dim, order, s.coeffs[: order + 1]) for s in (fs, gs))
                assert star(f_cut, g_cut) == ref.star(fs, gs, order)
                assert star(g, f_cut) == ref.star(g, fs, order)

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_public_views(self, name):
        c = ALGEBRAS[name]
        alg, ref = EnvelopingAlgebra(c), ReferenceEnvelopingAlgebra(c)
        rng = random.Random(7)
        for _ in range(30):
            word = tuple(rng.randint(1, c.dim) for _ in range(rng.randint(0, 4)))
            assert alg.normal_form(word) == ref.normal_form(word)
            assert alg.sigma_word(word) == ref.sigma_word(word)
        s = _random_series(rng, c.dim, 3)
        a, b = ref.sigma_series(s), ref.sigma_polynomial(s.coeffs[1])
        assert alg.sigma_series(s) == a
        assert alg.sigma_polynomial(s.coeffs[1]) == b
        assert alg.mul(a, b, 3) == ref.mul(a, b, 3)
        assert alg.inverse_sigma(ref.mul(a, b, 4), 4) == ref.inverse_sigma(ref.mul(a, b, 4), 4)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_polynomials(self, data):
        c = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
        exps = st.tuples(*[st.integers(0, 2)] * c.dim).filter(lambda e: sum(e) <= 4)
        rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
        polys = st.dictionaries(exps, rationals, max_size=4).map(lambda t: Polynomial(c.dim, t))
        f, g, order = data.draw(polys), data.draw(polys), data.draw(st.integers(0, 4))
        assert EnvelopingAlgebra(c).star(f, g, order) == ReferenceEnvelopingAlgebra(c).star(
            f, g, order
        )

    def test_peel_without_the_factorial_rescale_fails(self, monkeypatch):
        # negative control: a level of length-3 words subtracts nothing
        # unless it is first scaled by 3!, so the remainder check fires
        f, g = parse_polynomial("x1*x2", dim=3), parse_polynomial("x2", dim=3)
        assert uea_star(heisenberg(), f, g, 2) == ReferenceEnvelopingAlgebra(heisenberg()).star(
            f, g, 2
        )
        monkeypatch.setattr(pbw, "_factorial_lcm", lambda lengths: 1)
        with pytest.raises(PBWError, match="remainder"):
            EnvelopingAlgebra(heisenberg()).star(f, g, 2)

    def test_output_without_the_power_of_d_differs(self):
        # negative control: the eps^1 numerators carry one factor D = 6
        f, g = parse_polynomial("x1^2", dim=4), parse_polynomial("x2", dim=4)
        expected = ReferenceEnvelopingAlgebra(RATIONAL).star(f, g, 3)
        assert EnvelopingAlgebra(RATIONAL).star(f, g, 3) == expected
        alg = EnvelopingAlgebra(RATIONAL)
        alg._d = 1
        assert alg.star(f, g, 3) != expected


def _word(n: int) -> tuple:
    """A word of n letters, x2's before x1's: the most descents it can have."""
    return (2,) * (n - n // 2) + (1,) * (n // 2)


def _word_poly(n: int) -> Polynomial:
    return Polynomial.variable(3, 1) ** (n // 2) * Polynomial.variable(3, 2) ** (n - n // 2)


LONG_WORD_ENTRY_POINTS = {
    # the shared algebra of the module-level cache, as `uea_star` reaches it
    "pbw_normal_form": lambda alg, n: enveloping_algebra(alg.c).normal_form(_word(n)),
    "symmetrize": lambda alg, n: enveloping_algebra(alg.c).sigma_polynomial(_word_poly(n)),
    "inverse_symmetrize": lambda alg, n: enveloping_algebra(alg.c).inverse_sigma(
        {(tuple(sorted(_word(n))), 0): F(1)}, 1
    ),
    "normal_form": lambda alg, n: alg.normal_form(_word(n)),
    "mul": lambda alg, n: alg.mul(
        {(_word(n - n // 2), 0): F(1)}, {(_word(n // 2), 0): F(1)}, 1
    ),
    "sigma_word": lambda alg, n: alg.sigma_word(tuple(sorted(_word(n)))),
    "sigma_polynomial": lambda alg, n: alg.sigma_polynomial(_word_poly(n)),
    "sigma_series": lambda alg, n: alg.sigma_series(
        EpsSeries(3, 1, [Polynomial.variable(3, 3), _word_poly(n)])
    ),
    "inverse_sigma": lambda alg, n: alg.inverse_sigma(
        {(tuple(sorted(_word(n))), 0): F(1)}, 1
    ),
}


class TestLongWordsRefused:
    @pytest.mark.parametrize("entry", sorted(LONG_WORD_ENTRY_POINTS))
    def test_refused_before_recursing(self, entry):
        call = LONG_WORD_ENTRY_POINTS[entry]
        assert call(EnvelopingAlgebra(heisenberg()), MAX_STAR_DEGREE)
        alg = EnvelopingAlgebra(heisenberg())
        for n in (MAX_STAR_DEGREE + 1, 1200):
            with pytest.raises(PBWError, match=f"degree {n} exceeds the limit {MAX_STAR_DEGREE}"):
                call(alg, n)
        assert not alg._nf and not alg._sigma

    def test_mul_measures_only_the_kept_levels(self):
        # a long word beyond the truncation order is never straightened
        alg = EnvelopingAlgebra(heisenberg())
        long = {(_word(40), 2): F(1), ((1,), 0): F(1)}
        assert alg.mul(long, {((2,), 0): F(1)}, 1) == {((1, 2), 0): F(1)}
        # a product with an empty factor is empty, however long the other
        assert alg.mul({}, {(_word(40), 0): F(1)}, 1) == {}


class TestStarInput:
    def test_degree_limit_is_checked_before_straightening(self):
        c = heisenberg()
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        alg = EnvelopingAlgebra(c)
        assert alg.star(x1 ** (MAX_STAR_DEGREE - 1), x2, 2).coeffs[0] == x1 ** (
            MAX_STAR_DEGREE - 1
        ) * x2
        alg = EnvelopingAlgebra(c)
        with pytest.raises(PBWError, match=f"exceeds the limit {MAX_STAR_DEGREE}"):
            alg.star(x1**MAX_STAR_DEGREE, x2, 2)
        assert not alg._nf and not alg._sigma

    def test_pair_limit_is_checked_before_straightening(self):
        # two wide factors within the degree limit: 658 lifted terms each
        c = strictly_upper(4)
        wide = parse_polynomial("(x1+x2+x3+x4+x5+x6)^6", dim=c.dim)
        alg = EnvelopingAlgebra(c)
        with pytest.raises(PBWError, match=f"658 by 658 lifted terms exceeds the limit of {MAX_STAR_PAIRS} pairs"):
            alg.star(wide, wide, 1)
        # only the lifts' words of six letters were straightened, no product word
        assert max(len(w) for w in alg._nf) <= 6

    def test_pair_limit_bounds_the_lifted_pairs(self, monkeypatch):
        # the limit is a bound on len(lift f) * len(lift g), inclusive
        c = heisenberg()
        f = parse_polynomial("x1*x2 + x3", dim=3)  # lifts to X1 X2, X3 and eps X3
        g = parse_polynomial("x1 + x2", dim=3)
        expected = ReferenceEnvelopingAlgebra(c).star(f, g, 2)
        monkeypatch.setattr(pbw, "MAX_STAR_PAIRS", 6)
        assert EnvelopingAlgebra(c).star(f, g, 2) == expected
        monkeypatch.setattr(pbw, "MAX_STAR_PAIRS", 5)
        with pytest.raises(PBWError, match="3 by 2 lifted terms exceeds the limit of 5 pairs"):
            EnvelopingAlgebra(c).star(f, g, 2)

    def test_mul_pair_limit_is_checked_before_straightening(self):
        # sigma((x1+...+x6)^6) has 765 terms, 658 of them at eps^0 and eps^1;
        # straightening their 432,964 pairs would take about 40 s
        c = strictly_upper(4)
        wide = parse_polynomial("(x1+x2+x3+x4+x5+x6)^6", dim=c.dim)
        a = EnvelopingAlgebra(c).sigma_polynomial(wide)
        assert len(a) == 765
        alg = EnvelopingAlgebra(c)
        with pytest.raises(PBWError, match=f"658 by 658 lifted terms exceeds the limit of {MAX_STAR_PAIRS} pairs"):
            alg.mul(a, a, 1)
        assert not alg._nf

    def test_mul_pair_limit_bounds_the_kept_pairs(self, monkeypatch):
        # the limit is a bound on the pairs of terms at eps^0..eps^order, inclusive
        c = heisenberg()
        ref = ReferenceEnvelopingAlgebra(c)
        a = ref.sigma_polynomial(parse_polynomial("x1*x2 + x3", dim=3))  # X1 X2, X3 and eps X3
        b = ref.sigma_polynomial(parse_polynomial("x1 + x2", dim=3))
        monkeypatch.setattr(pbw, "MAX_STAR_PAIRS", 6)
        assert EnvelopingAlgebra(c).mul(a, b, 2) == ref.mul(a, b, 2)
        monkeypatch.setattr(pbw, "MAX_STAR_PAIRS", 5)
        with pytest.raises(PBWError, match="3 by 2 lifted terms exceeds the limit of 5 pairs"):
            EnvelopingAlgebra(c).mul(a, b, 2)
        # a term above the truncation order is not counted
        monkeypatch.setattr(pbw, "MAX_STAR_PAIRS", 4)
        assert EnvelopingAlgebra(c).mul(a, b, 0) == ref.mul(a, b, 0)

    def test_pair_limit_admits_the_documented_product(self):
        # (x1+x2+x3+x4)^6 squared on strictly_upper(4), the README's example
        c = strictly_upper(4)
        alg = EnvelopingAlgebra(c)
        f = parse_polynomial("(x1+x2+x3+x4)^6", dim=c.dim)
        lifted, _ = alg._lift(alg._terms([f]), 1)
        assert len(lifted) == 189 and 189 * 189 <= MAX_STAR_PAIRS

    def test_degree_limit_reads_a_series_largest_level(self):
        # a series factor's levels are multiplied one pair at a time
        c = heisenberg()
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        s = EpsSeries(3, 2, [x1, Polynomial.zero(3), x1**MAX_STAR_DEGREE])
        with pytest.raises(PBWError, match="exceeds the limit"):
            uea_product(c, 2)(s, x2)
        # a level pair beyond the truncation order is skipped, not measured
        eps_x2 = EpsSeries(3, 2, [Polynomial.zero(3), x2])
        assert uea_product(c, 2)(s, eps_x2) == ReferenceEnvelopingAlgebra(c).star(s, eps_x2, 2)

    def test_truncated_series_refused(self):
        # the eps^2 and eps^3 levels are unknown, not zero
        x1, x2, x3 = (Polynomial.variable(3, i) for i in (1, 2, 3))
        with pytest.raises(StarError, match="series order must match"):
            uea_product(heisenberg(), 3)(EpsSeries(3, 1, [x1, x3]), x2)
        with pytest.raises(StarError, match="series order must match"):
            uea_product(heisenberg(), 2)(x2, EpsSeries(3, 1, [x1, x3]))

    def test_series_factor_refused(self):
        # `star` takes polynomials; a series is refused before any lift
        x2 = Polynomial.variable(3, 2)
        alg = EnvelopingAlgebra(heisenberg())
        with pytest.raises(PBWError, match="cannot lift EpsSeries"):
            alg.star(EpsSeries.from_polynomial(x2, 1), x2, 1)
        with pytest.raises(PBWError, match="cannot lift EpsSeries"):
            uea_star(heisenberg(), x2, EpsSeries.from_polynomial(x2, 1), 1)
        assert not alg._nf and not alg._sigma
