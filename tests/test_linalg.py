import random
from fractions import Fraction

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from cherednik import hecke, linalg


def free_column(vec):
    return max(j for j, x in enumerate(vec) if x)


def random_matrix(rng, big):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
    if big:
        # dense with large numerators and denominators, where unnormalized
        # integer elimination would leave each vector scaled
        def entry():
            return Fraction(rng.randint(2**59, 2**60), rng.randint(2**10, 2**11))

    else:
        density = rng.choice((0.3, 0.7, 1.0))

        def entry():
            if rng.random() > density:
                return 0
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        # a dependent row
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


def sympy_kernel(rows, ncols):
    """The previous implementation of kernel_basis, kept as the oracle."""
    data = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]
    null = DomainMatrix(data, (len(rows), ncols), QQ).nullspace(divide_last=True)
    return [
        tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row)
        for row in null.to_list()
    ]


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_kernel_basis_is_the_rref_nullspace(seed, big):
    rng = random.Random(seed)
    rows, ncols = random_matrix(rng, big)
    kern = linalg.kernel_basis(rows, ncols)
    assert kern == sympy_kernel(rows, ncols)
    assert len(kern) == ncols - sympy.Matrix(rows).rank()
    free = [free_column(v) for v in kern]
    assert free == sorted(set(free))
    for v, f in zip(kern, free):
        assert len(v) == ncols
        assert v[f] == 1
        assert all(v[g] == 0 for g in free if g != f)
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_zero_and_empty_matrices():
    assert linalg.kernel_basis([], 0) == []
    assert linalg.kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert linalg.kernel_basis([[0, 0]], 2) == [(1, 0), (0, 1)]
    rows = [[0, Fraction(0), 0]] * 2
    assert linalg.kernel_basis(rows, 3) == sympy_kernel(rows, 3)
    assert linalg.kernel_basis([[1, 2]], 2) == [(-2, 1)]


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        linalg.kernel_basis([[1, 2], [3]], 2)


@pytest.mark.parametrize("seed", range(5))
def test_full_rank_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    # upper triangular with nonzero diagonal, then mixed by row operations
    rows = [
        [Fraction(rng.randint(1, 9), rng.randint(1, 4)) if j >= i else 0 for j in range(n)]
        for i in range(n)
    ]
    for i in range(1, n):
        rows[i] = [a + rng.randint(-3, 3) * b for a, b in zip(rows[i], rows[0])]
    extra = [[Fraction(rng.randint(-5, 5), 3) for _ in range(n)]]
    assert linalg.kernel_basis(rows, n) == sympy_kernel(rows, n) == []
    assert linalg.kernel_basis(rows + extra, n) == []


@pytest.mark.parametrize("p,m,rad_dim", [(4, 5, 0), (4, 3, 4)])
def test_hecke_gram_blowup_matches_sympy(p, m, rad_dim):
    # the dense restriction of scalars of the trace form, as the radical uses it
    H = hecke.HeckeAlgebra(p, m)
    rows = [row for row in H._blowup_rows(H.gram) if any(row)]
    ncols = H.dim * H.field.degree
    kern = linalg.kernel_basis(rows, ncols)
    assert kern == sympy_kernel(rows, ncols)
    assert len(kern) == rad_dim * H.field.degree
