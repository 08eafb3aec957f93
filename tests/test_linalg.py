import random
from fractions import Fraction

import pytest
import sympy

from cherednik import linalg


def free_column(vec):
    return max(j for j, x in enumerate(vec) if x)


def random_matrix(rng, big):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
    if big:
        # dense with large numerators and denominators: sympy's fraction-free
        # elimination, whose nullspace is not normalized by itself
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


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_kernel_basis_is_the_rref_nullspace(seed, big):
    rng = random.Random(seed)
    rows, ncols = random_matrix(rng, big)
    kern = linalg.kernel_basis(rows, ncols)
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
    assert linalg.kernel_basis([[1, 2]], 2) == [(-2, 1)]


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        linalg.kernel_basis([[1, 2], [3]], 2)
