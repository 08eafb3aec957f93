import pytest

from cherednik import fock as F
from cherednik import partitions as P


# The operators as the library had them on dict vectors {partition: coeff},
# kept as a differential oracle for the multiplicity-vector form.


def basis_vector(lam):
    return {tuple(lam): 1}


def _scaled(v, factor):
    return {k: c * factor for k, c in v.items()} if factor else {}


def _accumulate(acc, v):
    for k, c in v.items():
        new = acc.get(k, 0) + c
        if new:
            acc[k] = new
        else:
            acc.pop(k, None)


def dict_create(i, v):
    """Creation in mode i: insert one part i into every basis partition."""
    out = {}
    for lam, coeff in v.items():
        _accumulate(out, {tuple(sorted(lam + (i,), reverse=True)): coeff})
    return out


def dict_annihilate(i, v):
    """Annihilation in mode i: on a basis partition with k parts equal to i,
    produce i*k times the partition with one such part removed."""
    out = {}
    for lam, coeff in v.items():
        k = lam.count(i)
        if k == 0:
            continue
        removed = list(lam)
        removed.remove(i)
        _accumulate(out, {tuple(removed): coeff * i * k})
    return out


def dict_weight_operator(m, v):
    top = max((lam[0] for lam in v if lam), default=0)
    out = {}
    for i in range(1, top // m + 1):
        _accumulate(out, dict_create(i * m, dict_annihilate(i * m, v)))
    return out


def as_partition(k):
    """The partition whose multiplicity vector is k."""
    return tuple(i for i in range(len(k) - 1, 0, -1) for _ in range(k[i]))


def annihilated(i, lam):
    """Library annihilation on the basis vector lam, as a dict vector."""
    k = F.multiplicity_vector(lam)
    c = F.annihilate(i, k)
    return {as_partition(k): c} if c else {}


def created(i, lam):
    """Library creation on the basis vector lam, as a dict vector."""
    k = F.multiplicity_vector(lam)
    F.create(i, k)
    return {as_partition(k): 1}


class TestLadderOperators:
    def test_annihilate_examples(self):
        assert annihilated(1, ()) == {}
        assert annihilated(2, (2,)) == {(): 2}
        assert annihilated(2, (2, 2)) == {(2,): 4}
        k = F.multiplicity_vector((3, 1))
        assert F.annihilate(2, k) == 0
        assert k == [0, 1, 0, 1]

    def test_create_examples(self):
        assert created(3, ()) == {(3,): 1}
        assert created(1, (2,)) == {(2, 1): 1}
        k = F.multiplicity_vector((2,))
        assert F.annihilate(2, k) == 2
        F.create(2, k)
        assert k == F.multiplicity_vector((2,))

    def test_coefficients_are_ints(self):
        k = F.multiplicity_vector((3, 1))
        F.create(2, k)
        F.create(2, k)
        assert all(type(entry) is int for entry in k)
        assert type(F.weight_operator(2, k)) is int
        assert type(F.annihilate(2, k)) is int

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            F.create(0, [0])
        with pytest.raises(ValueError):
            F.annihilate(-1, [0])
        with pytest.raises(ValueError, match="m must be positive"):
            F.weight_operator(0, [0])

    def test_heisenberg_commutator(self):
        # [a_i, a_{-j}] = i delta_{ i j } on every basis vector of degree <= 12
        modes = range(1, 13)
        for n in range(13):
            for lam in P.enumerate_partitions(n):
                for i in modes:
                    for j in modes:
                        k = F.multiplicity_vector(lam)
                        F.create(j, k)
                        c = F.annihilate(i, k)
                        lhs = {as_partition(k): c} if c else {}
                        k = F.multiplicity_vector(lam)
                        c = F.annihilate(i, k)
                        F.create(j, k)
                        diff = {as_partition(k): c} if c else {}
                        for key, coeff in lhs.items():
                            new = diff.get(key, 0) - coeff
                            if new:
                                diff[key] = new
                            else:
                                diff.pop(key, None)
                        if i == j:
                            expected = {lam: -i}
                        else:
                            expected = {}
                        assert diff == expected, (lam, i, j)


class TestDictOracle:
    def test_ladder_operators_agree(self):
        for n in range(13):
            for lam in P.enumerate_partitions(n):
                v = basis_vector(lam)
                for i in range(1, 13):
                    assert annihilated(i, lam) == dict_annihilate(i, v), (lam, i)
                    assert created(i, lam) == dict_create(i, v), (lam, i)

    def test_weight_operator_agrees(self):
        for n in range(13):
            for lam in P.enumerate_partitions(n):
                for m in range(1, 13):
                    k = F.multiplicity_vector(lam)
                    coeff = F.weight_operator(m, k)
                    assert as_partition(k) == lam
                    expected = dict_weight_operator(m, basis_vector(lam))
                    assert _scaled(basis_vector(lam), coeff) == expected, (lam, m)


class TestWeightOperator:
    def test_examples(self):
        k = F.multiplicity_vector((3, 1))
        assert F.weight_operator(2, k) == 0
        assert k == F.multiplicity_vector((3, 1))
        assert F.weight_operator(2, F.multiplicity_vector((2, 2))) == 4
        for lam in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            k = F.multiplicity_vector(lam)
            assert F.weight_operator(1, k) == 4
            assert as_partition(k) == lam

    def test_diagonal_with_closed_form_eigenvalue(self):
        for n in range(15):
            for lam in P.enumerate_partitions(n):
                for m in (1, 2, 3):
                    k = F.multiplicity_vector(lam)
                    assert F.weight_operator(m, k) == F.divisible_weight(lam, m)
                    assert k == F.multiplicity_vector(lam)

    def test_eigenspace_examples(self):
        assert F.eigenspace_dimension(4, 2, 4) == 2
        assert F.eigenspace_dimension(4, 2, 2) == 1
        assert F.eigenspace_dimension(4, 2, 0) == 2

    def test_eigenspaces_exhaust_each_degree(self):
        for n in range(16):
            for m in (2, 3, 4):
                total = sum(
                    F.eigenspace_dimension(n, m, e) for e in range(n + 1)
                )
                assert total == P.count_partitions(n)


class TestSeries:
    def test_trace_examples(self):
        ts = F.trace_series(2, 8)
        assert ts.coeff(0, 0) == 1
        assert ts.coeff(4, 4) == 2
        for n in range(9):
            for e in range(n + 1):
                if e % 2 == 1:
                    assert ts.coeff(n, e) == 0

    def test_product_examples(self):
        ps = F.product_series(2, 8)
        assert ps.coeff(4, 4) == 2
        assert ps.coeff(4, 2) == 1
        for n in range(9):
            assert ps.coeff(n, 0) == P.count_m_regular(n, 2)

    def test_triangle_storage(self):
        ts = F.trace_series(3, 5)
        assert ts.coeff(4, 5) == 0
        with pytest.raises(ValueError):
            ts.coeff(6, 0)
        rows = ts.rows()
        assert rows[0] == (0, 0, 1)
        assert len(rows) == sum(n + 1 for n in range(6))

    def test_trace_equals_product_to_12(self):
        for m in (2, 3, 4, 5):
            ts = F.trace_series(m, 12)
            ps = F.product_series(m, 12)
            assert ts.coeffs == ps.coeffs


class TestCensus:
    def test_one_pass_counts_the_strata(self):
        for n in range(13):
            for m in (2, 3, 5):
                census = F._eigenvalue_census(n, m)
                assert census.invariants == {q: len(g) for q, g in P.strata(n, m).items()}
                assert sum(census.eigenvalues.values()) == P.count_partitions(n)

    def test_m_1_has_no_strata(self):
        census = F._eigenvalue_census(4, 1)
        assert census.eigenvalues == {4: 5}
        assert census.invariants == {}


class TestVerify:
    def test_stratified_counts_for_n4_m2(self):
        rows = F.verify_bo(4, 2)
        assert [(r.q, r.count_qm) for r in rows] == [(0, 2), (1, 1), (2, 2)]
        assert all(r.ok for r in rows)

    def test_single_partition(self):
        rows = F.verify_bo(1, 5)
        assert len(rows) == 1
        assert rows[0].count_qm == 1
        assert rows[0].ok

    def test_strata_sum_to_partition_count(self):
        rows = F.verify_bo(6, 3)
        assert sum(r.count_qm for r in rows) == P.count_partitions(6)
        assert all(r.ok for r in rows)

    def test_sweep_small(self):
        for m in (2, 3):
            trace = F.trace_series(m, 10)
            product = F.product_series(m, 10)
            for n in range(11):
                for row in F.verify_bo(n, m, trace, product):
                    assert row.ok, (n, m, row)
