"""Lossless string and JSON encodings shared by the CLI and the tests.

Rationals cross the boundary as strings like "5/7" (plain integers stay
undivided), partitions as JSON integer arrays or compact "[3,1]" keys, and
polynomials as exponent/coefficient records.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, check_partition


def fraction_str(x) -> str:
    return str(Fraction(x))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Comma-separated parts; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"not a partition: {text!r}") from exc
    return check_partition(parts)


def partition_key(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def partition_json(lam: Partition) -> list[int]:
    return list(lam)


def poly_json(f: dict[tuple[int, ...], int], den: int) -> list[dict]:
    """The polynomial f/den, for f with integer coefficients, leading term
    first."""
    return [
        {"exponents": list(exp), "coeff": str(Fraction(f[exp], den))}
        for exp in sorted(f, reverse=True)
    ]
