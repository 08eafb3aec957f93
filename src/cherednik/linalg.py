"""Exact rational kernels in reduced row echelon form, backed by sympy's
DomainMatrix.

Only plain Python ints and fractions.Fraction cross this boundary; callers
never see sympy objects.  With gmpy2 installed sympy uses it as the ground
type, which is what makes the larger eliminations in :mod:`cherednik.hecke`
fast enough.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

Rational = Fraction | int


def _to_domain(rows: list[list[Rational]], ncols: int) -> DomainMatrix:
    data = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(data, (len(rows), ncols), QQ)


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
    if ncols == 0:
        return []
    if not rows or all(all(x == 0 for x in row) for row in rows):
        basis = []
        for j in range(ncols):
            vec = [Fraction(0)] * ncols
            vec[j] = Fraction(1)
            basis.append(tuple(vec))
        return basis
    null = _to_domain(rows, ncols).nullspace(divide_last=True).to_list()
    return [tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row) for row in null]

