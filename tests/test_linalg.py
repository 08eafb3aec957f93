import random
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from cherednik import cli, dunkl, hecke, linalg
from cherednik.linalg import IntRow


# The fraction-free kernel_basis that the modular lift replaced, with its two
# helpers, verbatim, kept as the differential oracle of the lift over Q.
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


def fraction_free_kernel_basis(rows: list[IntRow], ncols: int) -> list[tuple[IntRow, int]]:
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


# The dense RREF modulo l that the sparse linalg._rref_mod replaced,
# verbatim, kept as its differential oracle.
def dense_rref_mod(rows: list[list[int]], ncols: int, l: int) -> dict[int, list[int]]:
    """The RREF modulo the prime l of a matrix of residues, as {pivot column:
    the row's entries at the free columns}.  The rows are consumed."""
    echelon: dict[int, list[int]] = {}  # rows 1 at their pivot, 0 before it
    for row in rows:
        for col in sorted(echelon):
            if f := row[col]:
                row[col:] = [(a - f * b) % l for a, b in zip(row[col:], echelon[col][col:])]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, l)
            echelon[lead] = [x * inv % l for x in row]
    free = [j for j in range(ncols) if j not in echelon]
    reduced: dict[int, list[int]] = {}
    for p in sorted(echelon, reverse=True):  # the later pivots' rows are final
        tail = [echelon[p][j] for j in free]
        for q, done in reduced.items():
            if f := echelon[p][q]:
                tail = [(a - f * b) % l for a, b in zip(tail, done)]
        reduced[p] = tail
    return reduced


def sparse_rref_as_dense(rows: list[dict[int, int]], ncols: int, l: int) -> dict[int, list[int]]:
    """linalg._rref_mod in the format of dense_rref_mod."""
    echelon = linalg._rref_mod([dict(row) for row in rows], l)
    free = [j for j in range(ncols) if j not in echelon]
    return {p: [row.get(j, 0) for j in free] for p, row in echelon.items()}


def assert_rrefs_agree(field, fmatrix, ncols):
    """At each root of the first split prime, the sparse RREF of the image of
    `fmatrix` equals the dense one."""
    l, omega = linalg.split_prime(field.m)
    for e in range(1, field.m + 1):
        if gcd(e, field.m) == 1:
            pows = [pow(omega, e * k, l) for k in range(field.degree)]
            image = [[sum(map(mul, x, pows)) % l for x in row] for row in fmatrix]
            assert sparse_rref_as_dense(list(map(sparse, image)), ncols, l) == dense_rref_mod(
                image, ncols, l
            )


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
# the differential oracle of the lift; the rational kernel of the blow-up is
# the fraction-free one, so the oracle shares no code with the lift.
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
    kern = fraction_free_kernel_basis(blowup_rows(field, fmatrix), ncols * d)
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


def dense_view(field, value, ncols):
    """The dense form that `gram`, `_radical`, `_center` and
    `CyclotomicField.kernel` gave before they went sparse.  Sparse rows
    {column: element} become lists with the field's zero at the columns
    they lack; a kernel (D, {f: D K_f at the pivots}) becomes (D, [(f, D K_f
    at every column)]), in increasing f, with D at f."""
    if isinstance(value, list):
        return [[row.get(c, field.zero) for c in range(ncols)] for row in value]
    D, vectors = value
    at_f = field.scale(field.one, D)
    return D, [
        (f, dense_view(field, [vec | {f: at_f}], ncols)[0]) for f, vec in sorted(vectors.items())
    ]


def sparse_field_rows(rows):
    """Dense rows over the field as the sparse rows `CyclotomicField.kernel`
    takes."""
    return [{c: x for c, x in enumerate(row) if any(x)} for row in rows]


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


def test_kernel_of_1000_bit_entries():
    # reconstructing b/a takes split primes multiplying past 2 a b, over
    # 2000 bits: some 70 primes near 2^29, which the cap derived from the
    # row must allow
    rng = random.Random(1000)
    a = b = 2
    while gcd(a, b) != 1:
        a, b = (rng.getrandbits(1000) | 1 << 999 for _ in range(2))
    assert linalg.kernel_basis([{0: a, 1: b}], 2) == [({0: -b, 1: a}, a)]
    F = hecke.CyclotomicField(3)
    assert F.kernel([{0: (a, 0), 1: (b, 0)}], 2) == (a, {1: {0: (-b, 0)}})


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
    # the restriction of scalars of the trace form, dense, against sympy;
    # the lifted kernel of the algebra's gram, the columns C T_w, is the
    # same, so the radical of the trace form is the annihilator of C
    from test_hecke import trace_form

    H = hecke.HeckeAlgebra(p, m)
    ncols = H.dim * H.field.degree
    rows = oracle_blowup_rows(H.field, trace_form(H))
    kern = dense_kernel(rows, ncols)
    assert rational(kern) == sympy_kernel(rows, ncols)
    assert len(kern) == rad_dim * H.field.degree
    gram_rows = oracle_blowup_rows(H.field, dense_view(H.field, H.gram, H.dim))
    assert dense_kernel(gram_rows, ncols) == kern


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
    assert kern == fraction_free_kernel_basis([sparse(row) for row in rows], ncols)
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
    kern = linalg.kernel_basis([dict(row) for row in rows], ncols)
    assert kern == fraction_free_kernel_basis(rows, ncols)
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


@st.composite
def residue_matrices(draw):
    """(rows, ncols, l): sparse rows of residues modulo a small prime or a
    split prime, zero rows and dependent rows included."""
    l = draw(st.sampled_from([2, 3, 7, 13, linalg.split_prime(1)[0]]))
    ncols = draw(st.integers(0, 8))
    entry = st.integers(1, l - 1)
    row = st.dictionaries(st.integers(0, ncols - 1), entry) if ncols else st.just({})
    rows = draw(st.lists(row, max_size=7))
    if len(rows) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, l - 1))
        combo = {j: (rows[0].get(j, 0) + k * rows[1].get(j, 0)) % l for j in range(ncols)}
        rows.append({j: x for j, x in combo.items() if x})
    return rows, ncols, l


@settings(max_examples=300, deadline=None)
@given(residue_matrices())
def test_sparse_rref_mod_matches_the_dense_one(case):
    rows, ncols, l = case
    dense = [list(densify(row, ncols)) for row in rows]
    assert sparse_rref_as_dense(rows, ncols, l) == dense_rref_mod(dense, ncols, l)


@cache
def singular_matrix(n, c, d):
    """The rows and width that `singular` hands to kernel_basis."""
    seen = []
    real = linalg.kernel_basis
    linalg.kernel_basis = lambda rows, ncols: seen.append(([dict(r) for r in rows], ncols)) or real(rows, ncols)
    try:
        dunkl.singular_vectors(dunkl.EngineConfig(n, Fraction(c)), d)
    finally:
        linalg.kernel_basis = real
    [(rows, ncols)] = seen
    return rows, ncols


# singular vectors whose entries need two split primes and CRT
CRT_CASES = [(2, "21/2", 21), (4, "9/4", 9)]
# the split primes a lift of each that never certifies tries before it
# gives up
GIVE_UP = {CRT_CASES[0]: 16, CRT_CASES[1]: 131}


class TestLiftOverQ:
    """The lift at m = 1, where Phi_1 = x - 1 has the one root 1: faults
    injected into it must end in the fraction-free kernel or in an
    ArithmeticError."""

    @pytest.fixture(params=CRT_CASES, ids=lambda case: "n{}-c{}-d{}".format(*case).replace("/", "_"))
    def lift(self, request):
        """The lift of a `singular` matrix, built before the test patches
        anything, and its fraction-free kernel."""
        rows, ncols = singular_matrix(*request.param)
        expected = fraction_free_kernel_basis(rows, ncols)

        def run():
            return linalg.kernel_basis([dict(r) for r in rows], ncols), expected

        run.case, run.rows, run.ncols = request.param, rows, ncols
        return run

    def test_the_root_of_phi_1_is_1(self):
        l, omega = linalg.split_prime(1)
        assert omega == 1 and sympy.isprime(l) and 2**29 < l < 2**30

    def test_entries_that_need_two_primes(self, monkeypatch, lift):
        real = linalg.split_prime
        primes = []
        monkeypatch.setattr(linalg, "split_prime", lambda m, *after: primes.append(m) or real(m, *after))
        kern, expected = lift()
        assert kern == expected
        assert primes == [1, 1]
        # an entry needs both primes: it is larger than the first prime alone
        # can reconstruct
        assert max(abs(x) for vec, _ in kern for x in vec.values()) ** 2 * 2 > real(1)[0]

    def test_tiny_first_prime_gives_the_fraction_free_kernel(self, monkeypatch, lift):
        # 7 is the least prime above 6: the lift combines many primes by CRT
        real_prime, real_rational = linalg.split_prime, linalg._rational
        primes, moduli = [], set()
        monkeypatch.setattr(
            linalg, "split_prime", lambda m, after=6: primes.append(real_prime(m, after)[0]) or real_prime(m, after)
        )
        monkeypatch.setattr(linalg, "_rational", lambda u, L: moduli.add(L) or real_rational(u, L))
        kern, expected = lift()
        assert kern == expected
        assert primes[:3] == [7, 11, 13]
        assert any(not sympy.isprime(L) for L in moduli)

    def test_pivot_dropped_at_the_first_prime(self, monkeypatch, lift):
        real = linalg._rref_mod
        primes = []

        def dropped(rows, l):
            out = real(rows, l)
            primes.append(l)
            if len(primes) == 1:
                del out[max(out)]
            return out

        monkeypatch.setattr(linalg, "_rref_mod", dropped)
        kern, expected = lift()
        assert kern == expected
        # the first prime's residues are dropped, and two more primes follow
        assert len(primes) == 3

    @staticmethod
    def drop_a_new_pivot_at_every_prime(monkeypatch):
        """The k-th prime loses its k-th pivot, so no two primes agree on the
        pivots, and no one prime reconstructs the CRT_CASES entries."""
        real = linalg._rref_mod
        primes = []

        def dropped(rows, l):
            out = real(rows, l)
            del out[sorted(out)[len(primes) % len(out)]]
            primes.append(l)
            return out

        monkeypatch.setattr(linalg, "_rref_mod", dropped)
        return primes

    def test_pivot_dropped_at_every_prime_is_an_error(self, monkeypatch, lift):
        primes = self.drop_a_new_pivot_at_every_prime(monkeypatch)
        with pytest.raises(ArithmeticError, match="no checked kernel") as excinfo:
            lift()
        assert len(set(primes)) == len(primes)
        assert str(excinfo.value) == f"no checked kernel from {len(primes)} split primes"
        # the lift gives up at the first prime whose product passes the cap,
        # whose Hadamard bound takes the Euclidean length of each row
        lengths = [isqrt(sum(x * x for x in r.values())) + 1 for r in lift.rows]
        cap = linalg.prime_cap(1, lengths, lift.ncols)
        assert prod(primes[:-1]) <= cap < prod(primes)
        assert len(primes) == GIVE_UP[lift.case]

    def test_pivot_dropped_at_every_prime_exits_3(self, monkeypatch, capsys):
        self.drop_a_new_pivot_at_every_prime(monkeypatch)
        code = cli.main(["singular", "--n", "2", "--c", "21/2", "--degree", "21"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: ArithmeticError('no checked kernel")
