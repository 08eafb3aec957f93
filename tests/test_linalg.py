import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from cherednik import hecke, linalg


def free_column(vec):
    return max(j for j, x in enumerate(vec) if x)


def rational(kern):
    """The kernel vectors vec/den as Fraction tuples."""
    return [tuple(Fraction(x, den) for x in vec) for vec, den in kern]


def integer_rows(rows):
    """Each row times the lcm of its denominators: an integer matrix with
    the same kernel."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


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
    kern = linalg.kernel_basis(integer_rows(rows), ncols)
    assert rational(kern) == sympy_kernel(rows, ncols)
    assert len(kern) == ncols - sympy.Matrix(rows).rank()
    free = [free_column(v) for v, _ in kern]
    assert free == sorted(set(free))
    for (v, den), f in zip(kern, free):
        assert len(v) == ncols
        assert v[f] == den
        assert all(v[g] == 0 for g in free if g != f)
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_zero_and_empty_matrices():
    assert linalg.kernel_basis([], 0) == []
    assert linalg.kernel_basis([], 2) == [((1, 0), 1), ((0, 1), 1)]
    assert linalg.kernel_basis([[0, 0]], 2) == [((1, 0), 1), ((0, 1), 1)]
    rows = [[0, Fraction(0), 0]] * 2
    assert rational(linalg.kernel_basis(integer_rows(rows), 3)) == sympy_kernel(rows, 3)
    assert linalg.kernel_basis([[1, 2]], 2) == [((-2, 1), 1)]
    assert linalg.kernel_basis([[2, 3]], 2) == [((-3, 2), 2)]


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
    assert linalg.kernel_basis(integer_rows(rows), n) == sympy_kernel(rows, n) == []
    assert linalg.kernel_basis(integer_rows(rows + extra), n) == []


@pytest.mark.parametrize("p,m,rad_dim", [(4, 5, 0), (4, 3, 4)])
def test_hecke_gram_blowup_matches_sympy(p, m, rad_dim):
    # the dense restriction of scalars of the trace form, as the radical uses it
    H = hecke.HeckeAlgebra(p, m)
    rows = [row for row in H.field._blowup_rows(H.gram) if any(row)]
    ncols = H.dim * H.field.degree
    kern = linalg.kernel_basis(rows, ncols)
    assert rational(kern) == sympy_kernel(rows, ncols)
    assert len(kern) == rad_dim * H.field.degree


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    if len(rows) > 1 and draw(st.booleans()):
        # a dependent row
        k = draw(st.integers(-3, 3))
        rows.append([a + k * b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_vectors_are_primitive_integer_vectors(case):
    rows, ncols = case
    kern = linalg.kernel_basis(integer_rows(rows), ncols)
    free = [free_column(vec) for vec, _ in kern]
    for (vec, den), f in zip(kern, free):
        assert type(den) is int and den > 0
        assert all(type(x) is int for x in vec)
        assert vec[f] == den
        assert gcd(den, *vec) == 1
        assert all(x == 0 for x in vec[f + 1 :])
        assert all(vec[g] == 0 for g in free if g != f)
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_integer_matrix_builds_no_fraction(monkeypatch):
    made = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    rng = random.Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(5)]
    rows.append([a - 3 * b for a, b in zip(rows[0], rows[1])])
    kern = linalg.kernel_basis(rows, 8)
    assert made == []
    assert len(kern) == 3
    assert any(den > 1 for _, den in kern)
    # the spy sees a Fraction built while it is installed
    Fraction(1, 3)
    assert made == [(1, 3)]
