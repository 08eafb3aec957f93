from fractions import Fraction

import pytest

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
    assert S.parse_partition(" 4 , 2 ") == (4, 2)
    with pytest.raises(ValueError):
        S.parse_partition("1,2")
    with pytest.raises(ValueError):
        S.parse_partition("x")


def test_partition_encodings():
    assert S.partition_key((3, 1)) == "[3,1]"
    assert S.partition_key(()) == "[]"
    assert S.partition_json((2, 2)) == [2, 2]


def test_poly_json():
    # f/den with integer f, divided only when formatted
    assert S.poly_json({(1, 0): 3, (0, 1): -1}, 3) == [
        {"exponents": [1, 0], "coeff": "1"},
        {"exponents": [0, 1], "coeff": "-1/3"},
    ]
