"""Tests for structure constants, builtin algebras, and Poisson structures."""

import json
from fractions import Fraction

import pytest

from dqw.cli import resolve_algebra
from dqw.liealg import (
    MAX_DIM,
    LieAlgebraError,
    PoissonStructure,
    StructureConstants,
    builtin_algebra,
    constant_poisson,
    cyclic_product,
    heisenberg,
    killing_matrix,
    linear_poisson,
    moyal_trick,
    index_from_json,
    rational_from_json,
    solvable2,
    strictly_upper,
    structure_from_json,
    structure_to_json,
    symplectic_matrix,
)
from dqw.poly import MAX_DIGITS, Polynomial, parse_polynomial

F = Fraction


class TestConstruction:
    def test_from_brackets_antisymmetry(self):
        c = heisenberg()
        assert c.c(3, 1, 2) == 1
        assert c.c(3, 2, 1) == -1
        assert c.bracket_basis(1, 2) == {3: F(1)}
        assert c.bracket_basis(2, 1) == {3: F(-1)}
        assert c.bracket_basis(1, 3) == {}

    def test_bad_keys(self):
        with pytest.raises(LieAlgebraError):
            StructureConstants.from_brackets(2, {(2, 1): {1: 1}})
        with pytest.raises(LieAlgebraError):
            StructureConstants.from_brackets(2, {(1, 2): {5: 1}})

    def test_bracket_vectors(self):
        c = heisenberg()
        out = c.bracket_vectors({1: F(2)}, {2: F(3), 3: F(7)})
        assert out == {3: F(6)}

    def test_hashable(self):
        assert len({heisenberg(), heisenberg(), solvable2()}) == 2


class TestValidation:
    def test_heisenberg(self):
        assert heisenberg().validate() == {
            "antisymmetric": True,
            "jacobi": True,
            "triangular_nilpotent": True,
        }

    def test_solvable2_not_nilpotent(self):
        report = solvable2().validate()
        assert report["antisymmetric"] and report["jacobi"]
        assert not report["triangular_nilpotent"]  # [X^1,X^2] = X^2, 2 is not > 2

    def test_strictly_upper(self):
        for n in (2, 3, 4):
            c = strictly_upper(n)
            assert c.dim == n * (n - 1) // 2
            assert c.validate() == {
                "antisymmetric": True,
                "jacobi": True,
                "triangular_nilpotent": True,
            }

    def test_strictly_upper3_explicit(self):
        # basis order for n=3: E12, E23 (level 1), E13 (level 2)
        c = strictly_upper(3)
        assert c.bracket_basis(1, 2) == {3: F(1)}  # [E12, E23] = E13
        assert c.bracket_basis(1, 3) == {}
        assert c.bracket_basis(2, 3) == {}

    def test_jacobi_failure_detected(self):
        # [X1,[X2,X3]] + [X2,[X3,X1]] + [X3,[X1,X2]] = -[X2,X1] = X3 here
        c = StructureConstants.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
        assert not c.satisfies_jacobi()

    def test_so3_jacobi(self):
        c = StructureConstants.from_brackets(
            3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
        )
        assert c.satisfies_jacobi()
        assert not c.is_triangular_nilpotent()

    def test_moyal_trick(self):
        c = moyal_trick(2)
        assert c.dim == 3
        assert c.bracket_basis(1, 2) == {3: F(1)}
        assert c.validate()["triangular_nilpotent"]
        c4 = moyal_trick([[0, 2], [-2, 0]])
        assert c4.bracket_basis(1, 2) == {3: F(2)}
        with pytest.raises(LieAlgebraError):
            moyal_trick(3)
        with pytest.raises(LieAlgebraError):
            moyal_trick([[0, 1], [1, 0]])

    def test_symplectic_pairings(self):
        one, zero, minus = F(1), F(0), F(-1)
        assert symplectic_matrix(4, "split") == (
            (zero, zero, one, zero),
            (zero, zero, zero, one),
            (minus, zero, zero, zero),
            (zero, minus, zero, zero),
        )
        assert symplectic_matrix(4, "adjacent") == (
            (zero, one, zero, zero),
            (minus, zero, zero, zero),
            (zero, zero, zero, one),
            (zero, zero, minus, zero),
        )
        assert resolve_algebra("symplectic(4)") == ("constant", symplectic_matrix(4, "split"))
        assert moyal_trick(4) == moyal_trick(symplectic_matrix(4, "adjacent"))
        for d in (0, 3, -2):
            with pytest.raises(LieAlgebraError, match="even integer"):
                symplectic_matrix(d, "split")

    def test_dimension_limit(self):
        assert StructureConstants.from_brackets(MAX_DIM, {}).dim == MAX_DIM
        assert symplectic_matrix(MAX_DIM, "split")[0][MAX_DIM // 2] == 1
        assert strictly_upper(11).dim == 55 <= MAX_DIM
        # one step above the limit, so that a lost check allocates little
        refused = [
            lambda: StructureConstants.from_brackets(MAX_DIM + 1, {}),
            lambda: strictly_upper(12),
            lambda: symplectic_matrix(MAX_DIM + 2, "split"),
            lambda: moyal_trick(MAX_DIM),
            lambda: structure_from_json({"dim": MAX_DIM + 1, "brackets": []}),
        ]
        for build in refused:
            with pytest.raises(LieAlgebraError, match=f"exceeds the limit {MAX_DIM}"):
                build()

    def test_strictly_upper_refuses_before_building(self, monkeypatch):
        # its bracket loop is quadratic in the dimension, so the limit is
        # checked before it, not only in from_brackets
        monkeypatch.setattr(StructureConstants, "from_brackets", None)
        with pytest.raises(LieAlgebraError, match=f"exceeds the limit {MAX_DIM}"):
            strictly_upper(12)

    def test_builtin_lookup(self):
        assert builtin_algebra("heisenberg") == heisenberg()
        assert builtin_algebra("strictly_upper(4)") == strictly_upper(4)
        assert builtin_algebra(" solvable2 ") == solvable2()
        with pytest.raises(LieAlgebraError):
            builtin_algebra("su(2)")


class TestAdAndInvariants:
    def test_ad_matrix(self):
        c = solvable2()
        # ad_{X^1}: X^1 -> 0, X^2 -> X^2
        assert c.ad_matrix(1) == ((F(0), F(0)), (F(0), F(1)))
        assert c.ad_matrix(2) == ((F(0), F(0)), (F(-1), F(0)))

    def test_killing_solvable2(self):
        # tr(ad1 ad1) = 1, others vanish
        K = killing_matrix(solvable2())
        assert K == ((F(1), F(0)), (F(0), F(0)))

    def test_killing_vanishes_on_nilpotent(self):
        for c in (heisenberg(), strictly_upper(3), strictly_upper(4)):
            K = killing_matrix(c)
            assert all(v == 0 for row in K for v in row)

    def test_killing_matches_trace_route(self):
        # killing_matrix contracts indices directly; cyclic_product multiplies
        # ad matrices and takes the trace.  Two code paths, same number.
        for c in (solvable2(), heisenberg(), strictly_upper(3), moyal_trick(2)):
            K = killing_matrix(c)
            for i in range(1, c.dim + 1):
                for j in range(1, c.dim + 1):
                    assert K[i - 1][j - 1] == cyclic_product(c, (i, j))

    def test_cyclic_products_vanish_when_triangular(self):
        import itertools

        for c in (heisenberg(), strictly_upper(3), moyal_trick(2)):
            for m in range(2, 5):
                for idx in itertools.product(range(1, c.dim + 1), repeat=m):
                    assert cyclic_product(c, idx) == 0

    def test_cyclic_product_nonzero_on_solvable2(self):
        assert cyclic_product(solvable2(), (1, 1)) == 1
        assert cyclic_product(solvable2(), (1, 1, 1)) == 1


class TestPoisson:
    def test_linear_poisson_heisenberg(self):
        pi = linear_poisson(heisenberg())
        assert pi.kind == "linear"
        assert pi.entry(1, 2) == parse_polynomial("x3", dim=3)
        assert pi.entry(2, 1) == parse_polynomial("-x3", dim=3)
        assert pi.entry(1, 3).is_zero()

    def test_poisson_bracket(self):
        pi = linear_poisson(heisenberg())
        x1 = Polynomial.variable(3, 1)
        x2 = Polynomial.variable(3, 2)
        assert pi.poisson_bracket(x1, x2) == parse_polynomial("x3", dim=3)
        assert pi.poisson_bracket(x2, x1) == parse_polynomial("-x3", dim=3)
        assert pi.poisson_bracket(x1 * x1, x2) == parse_polynomial("2*x1*x3", dim=3)

    def test_poisson_bracket_leibniz(self):
        pi = linear_poisson(strictly_upper(3))
        f = parse_polynomial("x1*x2", dim=3)
        g = parse_polynomial("x2 + x3^2", dim=3)
        h = parse_polynomial("x1 - 2*x2", dim=3)
        assert pi.poisson_bracket(f * g, h) == f * pi.poisson_bracket(
            g, h
        ) + pi.poisson_bracket(f, h) * g

    def test_constant_poisson(self):
        pi = constant_poisson([[0, 1], [-1, 0]])
        assert pi.kind == "constant"
        x1 = Polynomial.variable(2, 1)
        x2 = Polynomial.variable(2, 2)
        assert pi.poisson_bracket(x1, x2) == Polynomial.one(2)

    def test_kind_must_match_entry_degrees(self):
        # negative control: a linear bracket labelled "constant" was accepted,
        # and moyal_product of it dropped the bracket x3 from x1 * x2
        linear = linear_poisson(heisenberg()).entries
        with pytest.raises(LieAlgebraError, match="constant"):
            PoissonStructure(3, "constant", linear)
        constant = constant_poisson([[0, 1], [-1, 0]]).entries
        with pytest.raises(LieAlgebraError, match="linear"):
            PoissonStructure(2, "linear", constant)
        x1 = parse_polynomial("x1", dim=2)
        mixed = ((Polynomial.zero(2), x1 + 1), (-x1 - 1, Polynomial.zero(2)))
        for kind in ("constant", "linear"):
            with pytest.raises(LieAlgebraError):
                PoissonStructure(2, kind, mixed)
        assert PoissonStructure(2, "general", mixed).kind == "general"
        assert PoissonStructure(3, "general", linear).kind == "general"
        zero = tuple(tuple(Polynomial.zero(2) for _ in range(2)) for _ in range(2))
        assert PoissonStructure(2, "linear", zero).kind == "linear"
        assert PoissonStructure(2, "constant", zero).kind == "constant"

    def test_antisymmetry_enforced(self):
        with pytest.raises(LieAlgebraError):
            constant_poisson([[0, 1], [1, 0]])
        with pytest.raises(LieAlgebraError):
            PoissonStructure(
                2,
                "general",
                (
                    (Polynomial.zero(2), Polynomial.variable(2, 1)),
                    (Polynomial.variable(2, 1), Polynomial.zero(2)),
                ),
            )


class TestSerialisation:
    def test_round_trip(self, tmp_path):
        for c in (heisenberg(), solvable2(), strictly_upper(3), moyal_trick(2)):
            path = tmp_path / "alg.json"
            path.write_text(json.dumps(structure_to_json(c)), encoding="utf-8")
            assert resolve_algebra(str(path)) == ("lie", c)

    def test_document_shape(self):
        doc = structure_to_json(heisenberg())
        assert doc["dim"] == 3
        assert doc["brackets"] == [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]
        assert json.loads(json.dumps(doc)) == doc

    def test_fraction_coefficients(self):
        c = StructureConstants.from_brackets(2, {(1, 2): {2: F(-3, 7)}})
        doc = structure_to_json(c)
        assert doc["brackets"][0]["coeffs"] == {"2": "-3/7"}
        assert structure_from_json(doc) == c

    def test_malformed(self):
        with pytest.raises(LieAlgebraError):
            structure_from_json({"brackets": []})
        with pytest.raises(LieAlgebraError):
            structure_from_json({"dim": 2, "brackets": [{"i": 1}]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["2", "1"]}]},
            {"dim": True, "brackets": []},
            {"dim": float("inf"), "brackets": []},
            {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": float("inf")}}]},
            {"dim": 2, "brackets": "x"},
        ],
        ids=["coeffs-list", "bool-dim", "infinite-dim", "infinite-coefficient", "brackets-text"],
    )
    def test_malformed_shapes(self, doc):
        with pytest.raises(LieAlgebraError, match="malformed structure document"):
            structure_from_json(doc)

    @pytest.mark.parametrize(
        "value, expected",
        [(7, F(7)), ("-3", F(-3)), ("1/2", F(1, 2)), ("-0.25", F(-1, 4)), (0.5, F(1, 2)),
         (0.1, F(1, 10)), ("1" * MAX_DIGITS, F(int("1" * MAX_DIGITS)))],
        ids=["int", "integer-text", "fraction", "decimal", "float", "inexact-float", "longest"],
    )
    def test_rational_reader(self, value, expected):
        assert rational_from_json(value) == expected

    @pytest.mark.parametrize(
        "value",
        ["1e99999999", "2E-3", "1/2e3", 1e-05, 1e16, float("inf"), float("nan"), "1/0x",
         "1/" + "7" * (MAX_DIGITS - 1), True, None, [1]],
        ids=["huge-exponent", "negative-exponent", "denominator-exponent", "small-float",
             "large-float", "inf", "nan", "bad-text", "too-long", "bool", "null", "list"],
    )
    def test_rational_reader_refuses(self, value):
        with pytest.raises((TypeError, ValueError)):
            rational_from_json(value)
        doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": value}}]}
        with pytest.raises(LieAlgebraError, match="malformed structure document"):
            structure_from_json(doc)

    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3), (-1, -1), ("12", 12), ("1" * MAX_DIGITS, int("1" * MAX_DIGITS))],
        ids=["int", "negative-int", "digit-text", "longest"],
    )
    def test_index_reader(self, value, expected):
        assert index_from_json(value) == expected

    @pytest.mark.parametrize(
        "value",
        [1.9, 3.0, float("inf"), "1.9", "-1", " 2", "\u00b2", "1" * (MAX_DIGITS + 1), True,
         None, [1]],
        ids=["float", "integral-float", "inf", "decimal-text", "signed-text", "space",
             "superscript", "too-long", "bool", "null", "list"],
    )
    def test_index_reader_refuses(self, value):
        # int() would read 1.9 as 1 and "\u00b2" would pass str.isdigit alone
        with pytest.raises((TypeError, ValueError)):
            index_from_json(value)
        for doc in (
            {"dim": value, "brackets": []},
            {"dim": 3, "brackets": [{"i": value, "j": 2, "coeffs": {"3": "1"}}]},
            {"dim": 3, "brackets": [{"i": 1, "j": value, "coeffs": {"3": "1"}}]},
        ):
            with pytest.raises(LieAlgebraError, match="malformed structure document"):
                structure_from_json(doc)
