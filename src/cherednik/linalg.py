"""Exact rational kernels in reduced row echelon form, by pure-Python
integer elimination.

The matrix comes in as rows of Python ints (a rational matrix is brought
there first by clearing each row's denominators, which leaves the kernel
unchanged).  Each row is kept as a primitive sparse integer row
{column: value}, and rows are combined with gcd-scaled integer multiples
(fraction-free Gauss-Jordan), so the elimination never builds a fraction,
and neither do the kernel vectors read off at the end: each is an integer
vector with one positive denominator.  Only ints go in or come out.
"""

from __future__ import annotations

from math import gcd, lcm

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


def kernel_basis(
    rows: list[list[int]], ncols: int
) -> list[tuple[tuple[int, ...], int]]:
    """Basis of {x : A x = 0} for the integer matrix A given by `rows`.

    Returns one (vec, den) pair per free (non-pivot) column of the reduced
    row echelon form of A, in increasing column order: `vec` is a
    length-`ncols` int tuple, den > 0, gcd(den, *vec) == 1, and vec/den is
    the RREF kernel vector.  The vector for free column f is den at f, 0 at
    every other free column and 0 after f, so f is its last nonzero entry.
    Callers rely on this normal form.  The empty matrix (no rows) has the
    standard basis as kernel.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    # pivot column -> integer row whose first nonzero entry is at the pivot
    # and which is zero at every other pivot column
    pivots: dict[int, IntRow] = {}
    for row in rows:
        r = {j: x for j, x in enumerate(row) if x}
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
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        # the RREF entry at pivot p is -r[f]/r[p]; den is the lcm of their
        # reduced denominators, so the vector comes out primitive
        meets = [(p, r[f], r[p]) for p, r in pivots.items() if f in r]
        den = lcm(*(y // gcd(x, y) for _, x, y in meets))
        vec = [0] * ncols
        vec[f] = den
        for p, x, y in meets:
            vec[p] = -x * den // y
        basis.append((tuple(vec), den))
    return basis
