"""Exact rational kernels in reduced row echelon form, by pure-Python
integer elimination.

The one matrix format is the sparse integer row {column: nonzero int}, on
the way in and on the way out (a rational matrix is brought there first by
clearing each row's denominators, which leaves the kernel unchanged).  Rows
are kept primitive and combined with gcd-scaled integer multiples
(fraction-free Gauss-Jordan), so the elimination never builds a fraction,
and neither do the kernel vectors read off at the end: each is a sparse
integer vector with one positive denominator.  Only ints go in or come out.
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


def kernel_basis(rows: list[IntRow], ncols: int) -> list[tuple[IntRow, int]]:
    """Basis of {x : A x = 0} for the integer matrix A given by `rows`, each
    a sparse row {column: nonzero int} with columns in range(ncols); an
    empty dict is a zero row.

    Returns one (vec, den) pair per free (non-pivot) column of the reduced
    row echelon form of A, in increasing column order: `vec` is a sparse
    int vector in increasing column order, den > 0, gcd(den, *vec.values())
    == 1, and vec/den is the RREF kernel vector.  The vector for free column
    f has den at f, no entry at any other free column and none after f, so
    f == max(vec).  Callers rely on this normal form.  The empty matrix (no
    rows) has the standard basis as kernel.
    """
    # pivot column -> integer row whose first nonzero entry is at the pivot
    # and which is zero at every other pivot column
    pivots: dict[int, IntRow] = {}
    for r in rows:
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
        meets = sorted((p, r[f], r[p]) for p, r in pivots.items() if f in r)
        den = lcm(*(y // gcd(x, y) for _, x, y in meets))
        vec = {p: -x * den // y for p, x, y in meets}
        vec[f] = den
        basis.append((vec, den))
    return basis
