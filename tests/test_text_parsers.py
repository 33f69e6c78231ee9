"""Any text given to a parser, and any JSON document given to a reader,
yields a value or the reader's domain error."""

from hypothesis import example, given, settings, strategies as st

from dqw.cli import InputError, _alpha_matrix
from dqw.freelie import LieError, parse_bracket
from dqw.graphs import AdmissibleGraph, GraphError, parse_graph
from dqw.liealg import MAX_DIM, LieAlgebraError, StructureConstants, structure_from_json
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


# What json.load can return: scalars (floats include inf and nan, which it
# reads from Infinity and NaN), lists and objects with string keys.  Numbers
# stay small, so that a reader which lost its dimension limit allocates a
# small table here rather than a huge one (tests/test_liealg.py tests the
# limit), and short texts keep a rational's exponent small.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, MAX_DIM + 2)
    | st.floats(-100, 100)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.text(alphabet="0123456789-/.e x", max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["1", "2", "3", "i", "j", "x"]), inner, max_size=3),
    max_leaves=12,
)
small = st.integers(-1, 4) | json_values
structure_docs = json_values | st.fixed_dictionaries(
    {
        "dim": small,
        "brackets": st.lists(
            st.fixed_dictionaries(
                {
                    "i": small,
                    "j": small,
                    "coeffs": st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), small)
                    | json_values,
                }
            ),
            max_size=3,
        )
        | json_values,
    }
)
alpha_docs = st.fixed_dictionaries(
    {"dim": small, "alpha": st.lists(st.lists(small, max_size=3), max_size=3) | json_values}
)


@settings(max_examples=300, deadline=None)
@given(structure_docs, alpha_docs)
@example({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["2", "1"]}]}, {"dim": True, "alpha": [[0]]})
@example({"dim": float("inf")}, {"dim": float("inf"), "alpha": []})
@example({"dim": MAX_DIM + 1, "brackets": []}, {"dim": 2, "alpha": {"x": [0]}})
@example(
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1e99999999"}}]},
    {"dim": 2, "alpha": [[0, "1E999999"], [1e-05, 0]]},
)
@example(
    {"dim": 3.7, "brackets": [{"i": 1.9, "j": 2.2, "coeffs": {"3": "1"}}]},
    {"dim": 2.0, "alpha": [[0, 1], [-1, 0]]},
)
def test_json_readers_return_a_value_or_a_domain_error(structure, alpha):
    # Both readers refuse a bool or float dim, which int() would read as 0 or
    # 1 or truncate, and a rational with an exponent, which Fraction would
    # expand.
    try:
        algebra = structure_from_json(structure)
    except LieAlgebraError:
        pass
    else:
        assert isinstance(algebra, StructureConstants)
        entries = structure.get("brackets", [])
        indices = [structure["dim"]]
        indices += [x for e in entries for x in (e["i"], e["j"], *e["coeffs"])]
        assert all(_is_index(x) for x in indices)
        assert not any(_has_exponent(v) for e in entries for v in e["coeffs"].values())
    try:
        matrix = _alpha_matrix("doc.json", alpha)
    except (InputError, LieAlgebraError):
        pass
    else:
        assert isinstance(matrix, tuple) and all(isinstance(r, tuple) for r in matrix)
        assert _is_index(alpha["dim"])
        assert not any(_has_exponent(v) for r in alpha["alpha"] for v in r)


def _is_index(value) -> bool:
    """Whether a JSON value is an int (not a bool) or text of ASCII digits."""
    if isinstance(value, str):
        return value.isascii() and value.isdigit()
    return isinstance(value, int) and not isinstance(value, bool)


def _has_exponent(value) -> bool:
    """Whether a JSON value is read as text with an exponent."""
    if isinstance(value, float):
        value = repr(value)
    return isinstance(value, str) and "e" in value.lower()
