import pytest

from cherednik import fock as F
from cherednik import partitions as P


class TestLadderOperators:
    def test_annihilate_examples(self):
        assert F.annihilate(1, {(): 1}) == {}
        assert F.annihilate(2, F.basis_vector((2,))) == {(): 2}
        assert F.annihilate(2, F.basis_vector((2, 2))) == {(2,): 4}

    def test_create_examples(self):
        assert F.create(3, {(): 1}) == {(3,): 1}
        assert F.create(1, F.basis_vector((2,))) == {(2, 1): 1}
        assert F.create(2, F.annihilate(2, F.basis_vector((2,)))) == {
            (2,): 2
        }

    def test_coefficients_are_ints(self):
        v = F.create(2, F.create(2, F.basis_vector((3, 1))))
        for image in (v, F.annihilate(2, v), F.weight_operator(2, v)):
            assert image and all(type(coeff) is int for coeff in image.values())

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            F.create(0, {(): 1})
        with pytest.raises(ValueError):
            F.annihilate(-1, {(): 1})

    def test_heisenberg_commutator(self):
        # [a_i, a_{-j}] = i delta_{ i j } on every basis vector of degree <= 12
        modes = range(1, 13)
        for n in range(13):
            for lam in P.enumerate_partitions(n):
                v = F.basis_vector(lam)
                for i in modes:
                    for j in modes:
                        lhs = F.annihilate(i, F.create(j, v))
                        rhs = F.create(j, F.annihilate(i, v))
                        diff = dict(rhs)
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


class TestWeightOperator:
    def test_examples(self):
        assert F.weight_operator(2, F.basis_vector((3, 1))) == {}
        assert F.weight_operator(2, F.basis_vector((2, 2))) == {(2, 2): 4}
        for lam in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            assert F.weight_operator(1, F.basis_vector(lam)) == {lam: 4}

    def test_diagonal_with_closed_form_eigenvalue(self):
        for n in range(15):
            for lam in P.enumerate_partitions(n):
                for m in (1, 2, 3):
                    image = F.weight_operator(m, F.basis_vector(lam))
                    eig = F.divisible_weight(lam, m)
                    expected = {lam: eig} if eig else {}
                    assert image == expected

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
