"""A sparse sum never stores a zero coefficient, even after a term cancels.

Each case below cancels a term at one place where a sparse value is built:
an arithmetic method of a value type (whose constructor drops zeros) or a
function that returns a raw dict (which passes it through `poly.nonzero`).
"""

from fractions import Fraction

import pytest

from dqw.bidiff import BiDiffOp
from dqw.freelie import FreeLie, LieSeries
from dqw.graphs import parse_graph
from dqw.kontsevich import graph_to_operator, half_poisson
from dqw.liealg import StructureConstants, heisenberg, solvable2, strictly_upper
from dqw.pbw import EnvelopingAlgebra, enveloping_algebra
from dqw.poly import Polynomial, parse_polynomial
from dqw.series import EpsSeries, NCSeries
from dqw.star import _contract_tree

F = Fraction
XY = ("X", "Y")
# sl2 with basis h, e, f: the one algebra here whose symmetrization cancels
SL2 = StructureConstants.from_brackets(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
X_PLUS_Y = {("X",): F(1), ("Y",): F(1)}
LOOP = parse_graph("1:(X,2);2:(Y,1)")


def P(text, dim):
    return parse_polynomial(text, dim)


def stored_coefficients(value) -> list:
    """Every coefficient a sparse value stores; a nested sum that is stored
    although it is empty counts as one zero coefficient."""
    out = []
    for v in getattr(value, "terms", value).values():
        if isinstance(v, (dict, Polynomial)):
            out.extend(stored_coefficients(v) or [F(0)])
        else:
            out.append(v)
    return out


def _nc_cancel():
    X = NCSeries.letter(XY, 3, "X")
    Y = NCSeries.letter(XY, 3, "Y")
    return X * Y - Y * X + Y * X


def _lie_cancel():
    a = LieSeries(XY, 3, {("X",): F(1), ("X", "Y"): F(2)})
    return a - a


def _bidiff_cancel():
    a = BiDiffOp.single(2, 2, 1, (1, 0), (0, 1), P("x1 + x2", 2))
    return a - a


def _symbol_mul_cancel():
    # (d1 + d2) x 1 times (d2 - d1) x 1: the two d1 d2 x 1 terms cancel
    one, z, e1, e2 = Polynomial.one(2), (0, 0), (1, 0), (0, 1)
    a = BiDiffOp(2, 2, {(1, e1, z): one, (1, e2, z): one})
    b = BiDiffOp(2, 2, {(1, e2, z): one, (1, e1, z): -one})
    return a.symbol_mul(b)


def _exp_cancel():
    # exp(eps d1 x 1 - eps^2/2 d1^2 x 1) to order 2: the eps^2 d1^2 x 1 terms cancel
    one, z = Polynomial.one(1), (0,)
    gen = BiDiffOp(1, 2, {(1, (1,), z): one, (2, (2,), z): one * F(-1, 2)})
    out = gen.exp()
    assert (2, (2,), z) not in out.terms and len(out.terms) == 2
    return out


def _uea_mul_cancel():
    # X2 X1 = X1 X2 - eps X4 in strictly_upper(4), and eps * X4 cancels it
    alg = EnvelopingAlgebra(strictly_upper(4))
    a = {((2,), 0): F(1), ((), 1): F(1)}
    b = {((1,), 0): F(1), ((4,), 0): F(1)}
    return alg.mul(a, b, 2)


def _sigma_series_cancel():
    # sigma(x1 x2) = X1 X2 - eps/2 X4, and eps * sigma(x4 / 2) cancels its tail
    s = EpsSeries(6, 1, [P("x1*x2", 6), P("1/2*x4", 6)])
    return EnvelopingAlgebra(strictly_upper(4)).sigma_series(s)


CASES = {
    "poly_add": lambda: P("x1^2 - 3*x2 + 1/2", 2) + P("-x1^2 + 3*x2 - 1/2", 2),
    "poly_mul": lambda: P("x1 + x2", 2) * P("x1 - x2", 2),
    "poly_parse": lambda: P("(x1 + x2)*(x1 - x2) + x2^2 - x1^2 + x1", 2),
    "nc_series": _nc_cancel,
    "lie_series": _lie_cancel,
    "freelie_expansion": lambda: FreeLie(XY).expansion(("X", "X", "Y", "Y")),
    "freelie_bracket": lambda: FreeLie(XY).bracket(X_PLUS_Y, X_PLUS_Y),
    "bracket_vectors": lambda: heisenberg().bracket_vectors({1: F(1), 2: F(1)}, {1: F(1), 2: F(1)}),
    "pbw_normal_form": lambda: enveloping_algebra(strictly_upper(4)).normal_form((3, 2, 1)),
    "pbw_mul": _uea_mul_cancel,
    "sigma_word": lambda: EnvelopingAlgebra(SL2).sigma_word((1, 2, 3)),
    "symmetrize": lambda: enveloping_algebra(strictly_upper(4)).sigma_polynomial(
        P("x1^2*x5 + 2*x1*x3*x4", 6)
    ),
    "sigma_series": _sigma_series_cancel,
    "contract_tree": lambda: _contract_tree(strictly_upper(5), (XY, XY)),
    "bidiff_add": _bidiff_cancel,
    "bidiff_symbol_mul": _symbol_mul_cancel,
    "bidiff_exp": _exp_cancel,
    "loop_graph": lambda: graph_to_operator(LOOP, half_poisson(solvable2()), 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cancellation_stores_no_zero(case):
    coeffs = stored_coefficients(CASES[case]())
    assert all(type(c) is Fraction and c != 0 for c in coeffs)
