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
from cherednik.linalg import IntRow, _eliminate, _primitive


# The dense kernel_basis that took and returned dense rows, verbatim, kept as
# the differential oracle of the sparse one.
def oracle_kernel_basis(
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


def oracle_blowup_rows(field, fmatrix):
    """The dense restriction of scalars that `blowup_rows` replaced: one row
    per (row, zeta-power), zero rows included."""
    d = field.degree
    zpows = field._powers[:d]
    zero_block = [field.zero] * d
    out = []
    for row in fmatrix:
        blocks = [
            zero_block if field.is_zero(entry) else [field.mul(entry, zp) for zp in zpows]
            for entry in row
        ]
        for t in range(d):
            out.append([block[k][t] for block in blocks for k in range(d)])
    return out


# CyclotomicField._blowup_rows and the blow-up CyclotomicField.kernel that
# the modular lift replaced, verbatim with the field as an argument, kept as
# the differential oracle of the lift.
def blowup_rows(field, fmatrix: list[list]) -> list[dict[int, int]]:
    """Restriction of scalars: one sparse rational row per (row,
    zeta-power) that is not zero, with column j*d + k for row[j] * zeta^k."""
    d = field.degree
    zpows = field._powers[:d]
    out = []
    for row in fmatrix:
        # coefficient t of row[j] * zeta^k goes to rational row t
        blown: list[dict[int, int]] = [{} for _ in range(d)]
        for j, entry in enumerate(row):
            if not field.is_zero(entry):
                for k, zp in enumerate(zpows):
                    for t, x in enumerate(field.mul(entry, zp)):
                        if x:
                            blown[t][j * d + k] = x
        out.extend(r for r in blown if r)
    return out


def blowup_kernel(field, fmatrix: list[list], ncols: int):
    """RREF kernel over the field via the rational blowup, as one common
    denominator den and (free column f, den * K_f) pairs with integer
    coefficients; den is the least that makes them integral.

    The rational kernel is closed under multiplication by zeta, so its
    free columns come in whole blocks (f, 0), ..., (f, d-1), and the
    vector for (f, 0) is the field's RREF kernel vector for column f."""
    d = field.degree
    kern = linalg.kernel_basis(blowup_rows(field, fmatrix), ncols * d)
    firsts = []
    for start in range(0, len(kern), d):
        # the free column of an RREF vector over Q is its largest column
        free = [max(v) for v, _ in kern[start : start + d]]
        f = free[0] // d
        if free != list(range(f * d, f * d + d)):
            raise ArithmeticError(
                f"free columns {free} of the rational kernel are not a whole block"
            )
        firsts.append((f, kern[start]))
    common = lcm(*(den for _, (_, den) in firsts))
    out = []
    for f, (vec, den) in firsts:
        s = common // den
        blocks = [[vec.get(j * d + k, 0) for k in range(d)] for j in range(ncols)]
        out.append((f, [tuple(s * x for x in c) if any(c) else field.zero for c in blocks]))
    return common, out


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def densify(vec, ncols):
    return tuple(vec.get(j, 0) for j in range(ncols))


def dense_kernel(rows, ncols):
    """linalg.kernel_basis on dense integer rows, with dense vectors out."""
    kern = linalg.kernel_basis([sparse(row) for row in rows], ncols)
    return [(densify(vec, ncols), den) for vec, den in kern]


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
    kern = dense_kernel(integer_rows(rows), ncols)
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
    assert linalg.kernel_basis([], 2) == [({0: 1}, 1), ({1: 1}, 1)]
    assert linalg.kernel_basis([{}], 2) == [({0: 1}, 1), ({1: 1}, 1)]
    rows = [[0, Fraction(0), 0]] * 2
    assert rational(dense_kernel(integer_rows(rows), 3)) == sympy_kernel(rows, 3)
    assert linalg.kernel_basis([{0: 1, 1: 2}], 2) == [({0: -2, 1: 1}, 1)]
    assert linalg.kernel_basis([{0: 2, 1: 3}], 2) == [({0: -3, 1: 2}, 2)]


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
    assert dense_kernel(integer_rows(rows), n) == sympy_kernel(rows, n) == []
    assert dense_kernel(integer_rows(rows + extra), n) == []


@pytest.mark.parametrize("p,m,rad_dim", [(4, 5, 0), (4, 3, 4)])
def test_hecke_gram_blowup_matches_sympy(p, m, rad_dim):
    # the restriction of scalars of the trace form, dense, against sympy
    H = hecke.HeckeAlgebra(p, m)
    ncols = H.dim * H.field.degree
    rows = oracle_blowup_rows(H.field, H.gram)
    kern = dense_kernel(rows, ncols)
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
    rows = integer_rows(rows)
    kern = linalg.kernel_basis([sparse(row) for row in rows], ncols)
    free = [max(vec) for vec, _ in kern]
    assert free == sorted(set(free))
    for (vec, den), f in zip(kern, free):
        assert type(den) is int and den > 0
        assert all(type(x) is int and x for x in vec.values())
        assert list(vec) == sorted(vec)
        assert vec[f] == den
        assert gcd(den, *vec.values()) == 1
        assert not any(g in vec for g in free if g != f)
        for row in rows:
            assert sum(row[j] * x for j, x in vec.items()) == 0


@st.composite
def sparse_matrices(draw):
    """Sparse integer rows, empty ones included; ncols may be 0, and there
    may be no rows."""
    ncols = draw(st.integers(0, 8))
    nonzero = st.integers(-9, 9).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero) if ncols else st.just({})
    rows = draw(st.lists(row, max_size=7))
    if len(rows) > 1 and draw(st.booleans()):
        # a dependent row
        k = draw(st.integers(-3, 3))
        combo = {j: rows[0].get(j, 0) + k * rows[1].get(j, 0) for j in range(ncols)}
        rows.append({j: x for j, x in combo.items() if x})
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_kernel_matches_the_dense_oracle(case):
    rows, ncols = case
    kern = linalg.kernel_basis(rows, ncols)
    expected = oracle_kernel_basis([list(densify(row, ncols)) for row in rows], ncols)
    assert [(densify(vec, ncols), den) for vec, den in kern] == expected


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
    kern = linalg.kernel_basis([sparse(row) for row in rows], 8)
    assert made == []
    assert len(kern) == 3
    assert any(den > 1 for _, den in kern)
    # the spy sees a Fraction built while it is installed
    Fraction(1, 3)
    assert made == [(1, 3)]
