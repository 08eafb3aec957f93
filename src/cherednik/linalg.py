"""Exact rational kernels in reduced row echelon form, by pure-Python
integer elimination.

Each row is cleared of denominators and kept as a primitive sparse integer
row {column: value}.  Rows are combined with gcd-scaled integer multiples
(fraction-free Gauss-Jordan), so the elimination never builds a fraction;
only the kernel vectors read off at the end are rational.  Only plain Python
ints and fractions.Fraction cross this boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction | int

IntRow = dict[int, int]


def _primitive(row: IntRow) -> IntRow:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: IntRow, pivot_row: IntRow, col: int) -> IntRow:
    """The primitive part of the integer combination of `row` and
    `pivot_row` that is zero at `col`."""
    g = gcd(row[col], pivot_row[col])
    a, b = pivot_row[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in pivot_row.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out) if out else out


def kernel_basis(rows: list[list[Rational]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} for the matrix A given by `rows`.

    Returns length-`ncols` Fraction tuples read off the reduced row echelon
    form of A: one vector per free (non-pivot) column, in increasing column
    order.  The vector for free column f is 1 at f, 0 at every other free
    column and 0 after f, so f is its last nonzero entry.  Callers rely on
    this normal form.  The empty matrix (no rows) has the standard basis as
    kernel.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    # pivot column -> integer row whose first nonzero entry is at the pivot
    # and which is zero at every other pivot column
    pivots: dict[int, IntRow] = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        r = {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
        if not r:
            continue
        r = _primitive(r)
        for col in [col for col in r if col in pivots]:
            r = _eliminate(r, pivots[col], col)
        if not r:
            continue
        p = min(r)
        for q, other in pivots.items():
            if p in other:
                pivots[q] = _eliminate(other, r, p)
        pivots[p] = r
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for p, r in pivots.items():
            x = r.get(f)
            if x:
                vec[p] = Fraction(-x, r[p])
        basis.append(tuple(vec))
    return basis
