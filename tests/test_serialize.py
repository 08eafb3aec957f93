import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import serialize as S


def test_fraction_roundtrip():
    for x in (Fraction(3, 4), Fraction(-5), Fraction(0), Fraction(22, 7)):
        assert S.parse_fraction(S.fraction_str(x)) == x
    assert S.fraction_str(Fraction(4, 8)) == "1/2"
    assert S.fraction_str(Fraction(5, 1)) == "5"


def test_parse_fraction_rejects_garbage():
    with pytest.raises(ValueError):
        S.parse_fraction("a/b")
    with pytest.raises(ValueError):
        S.parse_fraction("1/0")


def test_parse_partition():
    assert S.parse_partition("3,1") == (3, 1)
    assert S.parse_partition("") == ()
    assert S.parse_partition("  ") == ()
    assert S.parse_partition(" 4 , 2 ") == (4, 2)
    with pytest.raises(ValueError):
        S.parse_partition("1,2")
    with pytest.raises(ValueError):
        S.parse_partition("x")


@pytest.mark.parametrize("text", ["3,,1", ",", "2,1,", ",2", " , ", "3, ,1", ",,"])
def test_parse_partition_refuses_an_empty_part(text):
    # an empty part is refused, not dropped: "3,,1" is not (3, 1)
    with pytest.raises(ValueError, match="not a partition"):
        S.parse_partition(text)


def test_partition_encodings():
    assert S.partition_key((3, 1)) == "[3,1]"
    assert S.partition_key(()) == "[]"


def test_poly_json():
    # f/den with integer f, divided only when formatted
    assert S.poly_json({(1, 0): 3, (0, 1): -1}, 3) == [
        {"exponents": [1, 0], "coeff": "1"},
        {"exponents": [0, 1], "coeff": "-1/3"},
    ]


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "é", "naïve ∑", " ", "},\n  {", '"]', "\x00\n\t\\"])
)
KEYS = st.text() | st.integers() | st.floats(allow_nan=True) | st.booleans() | st.none()
ROW = st.dictionaries(st.text(max_size=5), SCALARS, max_size=4) | st.lists(SCALARS, max_size=4)


def nested(children):
    return (
        st.lists(children, max_size=5)
        | st.tuples(children, children)
        | st.dictionaries(KEYS, children, max_size=5)
        # tables: rows of scalars of one kind, which are encoded in one call
        | st.lists(st.dictionaries(st.text(max_size=5), SCALARS, min_size=1, max_size=4), max_size=5)
        | st.lists(st.lists(SCALARS, min_size=1, max_size=4) | ROW, max_size=5)
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(SCALARS, nested, max_leaves=40))
def test_json_text_is_json_dumps_indent_2(value):
    assert S.json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_json_refuses():
    for value in ({(1, 2): 0}, {"a": [Fraction(1, 2)]}, [{"a": 1}, {"b": Fraction(1, 2)}]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            S.json_text(value)
