"""Lossless string and JSON encodings shared by the CLI and the tests.

Rationals cross the boundary as strings like "5/7" (plain integers stay
undivided), partitions as JSON integer arrays or compact "[3,1]" keys, and
polynomials as exponent/coefficient records.  JSON documents are written
exactly as ``json.dumps(value, indent=2)`` writes them.
"""

from __future__ import annotations

import json
import re
from functools import cache
from itertools import chain, repeat

from .errors import UsageError
from .partitions import Partition, check_partition


# int() and Fraction() also read '_' digit groups and non-ASCII digits, and
# int() a '+' sign; the command line takes plain ASCII decimal digits only
_DIGITS = re.compile("[0-9]+")
_INTEGER = re.compile("-?[0-9]+")


# fractions, which loads decimal, is imported by the three functions that
# use it, so that commands with no rational never load it
def fraction_str(x) -> str:
    from fractions import Fraction

    return str(Fraction(x))


def parse_fraction(text: str):
    """The rational number text writes, as a fractions.Fraction."""
    from fractions import Fraction

    if "_" in text or not text.isascii():
        raise UsageError(f"not a rational number: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def parse_digits(text: str) -> int:
    """A nonnegative integer in ASCII decimal digits; surrounding whitespace
    is dropped."""
    if not _DIGITS.fullmatch(text.strip()):
        raise UsageError(f"not a plain decimal integer: {text!r}")
    return int(text)


def parse_int(text: str) -> int:
    """An integer flag: ASCII decimal digits after an optional minus sign."""
    if not _INTEGER.fullmatch(text.strip()):
        raise UsageError(f"not a plain decimal integer: {text!r}")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Comma-separated parts, each of them ASCII decimal digits; the empty
    string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [parse_digits(tok) for tok in text.split(",")]
    except UsageError as exc:
        raise UsageError(f"not a partition: {text!r}") from exc
    return check_partition(parts)


def partition_key(lam: Partition) -> str:
    """The compact key "[3,1]"; repr writes a list of ints as "[3, 1]"."""
    return str(list(lam)).replace(" ", "")


def poly_json(f: dict[tuple[int, ...], int], den: int) -> list[dict]:
    """The polynomial f/den, for f with integer coefficients, leading term
    first."""
    from fractions import Fraction

    return [
        {"exponents": list(exp), "coeff": str(Fraction(f[exp], den))}
        for exp in sorted(f, reverse=True)
    ]


# encodes scalars exactly as json.dumps does, in C where json has it
_scalar = json.JSONEncoder().encode
_CONTAINERS = (dict, list, tuple)
_TABLE_ROWS = 512  # rows of a table per encoder call: no copy of a whole table


@cache
def _flat(depth: int):
    """Encoder of a container at nesting depth `depth` whose items are all
    scalars: the indentation of its items is folded into the item
    separator, so the C encoder writes them in one call.  A container of
    scalars, or of rows of scalars, holds no cycle to check for."""
    return json.JSONEncoder(
        separators=(",\n" + "  " * (depth + 1), ": "), check_circular=False
    ).encode


def _key(key) -> str:
    """An object key as json writes it, after the same conversions."""
    if isinstance(key, str):
        return _scalar(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _scalar(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _is_flat(value) -> bool:
    """True for a nonempty container that holds no container."""
    items = value.values() if isinstance(value, dict) else value
    return bool(value) and not any(map(isinstance, items, repeat(_CONTAINERS)))


def _chunks(value, depth: int, out: list[str]) -> None:
    """Append the text of value, nested in `depth` containers, to out."""
    if isinstance(value, dict):
        opening, closing, items = "{", "}", value.values()
    elif isinstance(value, (list, tuple)):
        opening, closing, items = "[", "]", value
    else:
        out.append(_scalar(value))
        return
    if not value:
        out.append(opening + closing)
        return
    close = "\n" + "  " * depth
    pad = close + "  "
    if _is_flat(value):
        out.append(opening + pad + _flat(depth)(value)[1:-1] + close + closing)
        return
    if closing == "]":
        kinds = set(map(type, value))
        cells = chain.from_iterable(map(dict.values, value) if kinds == {dict} else value)
        # all(map(_is_flat, value)), asking isinstance once per type of cell
        if (kinds == {dict} or kinds <= {list, tuple}) and all(value) and not any(
            issubclass(kind, _CONTAINERS) for kind in set(map(type, cells))
        ):
            # Rows of scalars, like a table: encode them _TABLE_ROWS to a call
            # with the rows' item separator, then indent the rows' own
            # brackets.  A row's closing bracket followed by a comma and a
            # newline marks where it ends, since a row holds no bracket
            # outside its strings and an encoded string holds no newline.
            start, end = ("{", "}") if dict in kinds else ("[", "]")
            inner = pad + "  "
            between = pad + end + "," + pad + start + inner
            for k in range(0, len(value), _TABLE_ROWS):
                text = _flat(depth + 1)(value[k : k + _TABLE_ROWS])[2:-2]
                out.append(between if k else opening + pad + start + inner)
                out.append(text.replace(end + "," + inner + start, between))
            out.append(pad + end + close + closing)
            return
    heads = [_key(key) + ": " for key in value] if closing == "}" else [""] * len(value)
    out.append(opening)
    sep = pad
    for head, v in zip(heads, items):
        out.append(sep + head)
        _chunks(v, depth + 1, out)
        sep = "," + pad
    out.append(close + closing)


def json_text(value) -> list[str]:
    """``json.dumps(value, indent=2)``, byte for byte, for acyclic values, as
    chunks to write in order, not joined into a second copy.

    Containers whose items are all scalars, and lists of such containers,
    go through the C encoder, not json's pure-Python indenting encoder;
    only the containers above them are walked here.
    """
    out: list[str] = []
    _chunks(value, 0, out)
    return out
