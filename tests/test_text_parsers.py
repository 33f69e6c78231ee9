"""Any text given to a parser yields a value or the parser's domain error."""

from hypothesis import example, given, settings, strategies as st

from dqw.freelie import LieError, parse_bracket
from dqw.graphs import AdmissibleGraph, GraphError, parse_graph
from dqw.poly import ParseError, PolyError, Polynomial, parse_polynomial

ALPHABET = "xXY0123456789²()[],;:+-*^/ "

texts = st.text(alphabet=ALPHABET, max_size=40)


@settings(max_examples=300, deadline=None)
@given(texts)
@example("x²")
@example("x" + "1" * 5000)
@example("x100000000")
@example("2^99999999")
@example("1:(X,²)")
def test_parsers_return_a_value_or_a_domain_error(text):
    for dim in (3, None):
        try:
            assert isinstance(parse_polynomial(text, dim), Polynomial)
        except (ParseError, PolyError):
            pass
    try:
        assert isinstance(parse_graph(text), AdmissibleGraph)
    except GraphError:
        pass
    try:
        assert isinstance(parse_bracket(text), (str, tuple))
    except LieError:
        pass
