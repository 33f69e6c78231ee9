"""Tests for structure constants, builtin algebras, and Poisson structures."""

import json
from fractions import Fraction

import pytest

from dqw.liealg import (
    LieAlgebraError,
    PoissonStructure,
    StructureConstants,
    builtin_algebra,
    constant_poisson,
    cyclic_product,
    heisenberg,
    killing_matrix,
    linear_poisson,
    load_structure,
    moyal_trick,
    save_structure,
    solvable2,
    strictly_upper,
    structure_from_json,
    structure_to_json,
)
from dqw.poly import Polynomial, parse_polynomial

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
            save_structure(c, str(path))
            assert load_structure(str(path)) == c

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
