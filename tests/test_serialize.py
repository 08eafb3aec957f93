import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import partitions as P
from cherednik import serialize as S

PARTITIONS = st.integers(0, 12).flatmap(lambda n: st.sampled_from(P.enumerate_partitions(n)))


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


@pytest.mark.parametrize("text", ["1_0", "３,1", "+3,1", "3,-1", "1e1", "0x3", "2.0", "3 1"])
def test_parse_partition_refuses_anything_but_ascii_digits(text):
    # int() reads "1_0" as 10, "３" as 3 and "+3" as 3
    with pytest.raises(ValueError, match="not a partition"):
        S.parse_partition(text)


def test_parse_int_and_digits():
    assert S.parse_int(" -12 ") == -12
    assert S.parse_int("007") == 7
    assert S.parse_digits(" 4 ") == 4
    for text in ("2_3", "+4", "４", "- 4", "-", "", "1.0", "٣"):
        with pytest.raises(ValueError, match="not a plain decimal integer"):
            S.parse_int(text)
    for text in ("-4", "2_3", "+4", "４", ""):
        with pytest.raises(ValueError, match="not a plain decimal integer"):
            S.parse_digits(text)


@pytest.mark.parametrize("text", ["1_0/3", "10/3_0", "３/4", "1/٣", "1_0"])
def test_parse_fraction_refuses_underscores_and_non_ascii(text):
    with pytest.raises(ValueError, match="not a rational number"):
        S.parse_fraction(text)


@settings(max_examples=200, deadline=None)
@given(st.fractions())
def test_fraction_str_round_trip_on_random_fractions(x):
    assert S.parse_fraction(S.fraction_str(x)) == x
    assert S.parse_fraction(f" {S.fraction_str(x)}\t") == x


@settings(max_examples=200, deadline=None)
@given(PARTITIONS, st.sampled_from(["", " ", "\t "]))
def test_partition_round_trip_on_random_partitions(lam, pad):
    assert S.parse_partition(S.partition_key(lam)[1:-1]) == lam
    assert S.parse_partition(",".join(pad + str(p) + pad for p in lam)) == lam


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_int_round_trip_on_random_integers(k):
    assert S.parse_int(str(k)) == k


def test_partition_encodings():
    assert S.partition_key((3, 1)) == "[3,1]"
    assert S.partition_key(()) == "[]"
    assert S.partition_key((12, 10, 1)) == "[12,10,1]"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.just(()),
        PARTITIONS,
        st.lists(st.integers(1, 10**6), max_size=12).map(lambda ps: tuple(sorted(ps, reverse=True))),
    )
)
def test_partition_key_on_random_partitions(lam):
    # the key as it was first written, part by part
    assert S.partition_key(lam) == "[" + ",".join(str(p) for p in lam) + "]"
    assert S.parse_partition(S.partition_key(lam)[1:-1]) == lam


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
    assert "".join(S.json_text(value)) == json.dumps(value, indent=2)


def test_json_text_refuses_what_json_refuses():
    for value in ({(1, 2): 0}, {"a": [Fraction(1, 2)]}, [{"a": 1}, {"b": Fraction(1, 2)}]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            S.json_text(value)


@pytest.mark.parametrize("kind", [dict, list])
def test_table_across_encoder_calls(kind):
    # more rows than one encoder call takes, with strings that look like the
    # row boundaries the rows are split at
    n = 2 * S._TABLE_ROWS + 3
    cells = ["},\n  {", "],\n  [", "\u00e9", 1.5, None, True]
    rows = [{"k": k, "s": cells[k % 6]} if kind is dict else [k, cells[k % 6]] for k in range(n)]
    for value in (rows, {"rows": rows}, [rows[: S._TABLE_ROWS]], rows[: S._TABLE_ROWS + 1]):
        chunks = S.json_text(value)
        assert all(type(c) is str for c in chunks)
        assert "".join(chunks) == json.dumps(value, indent=2)
