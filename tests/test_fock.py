import json
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import fock as F
from cherednik import hecke as Hk
from cherednik import partitions as P
from cherednik.partitions import dimension
from cherednik.errors import IdentityViolation

FIXTURES = Path(__file__).parent / "fixtures"


def multiplicity_vector(lam):
    """The basis vector of lam: entry i counts the parts equal to i, up to
    the largest part."""
    k = [0] * (lam[0] + 1 if lam else 1)
    for p in lam:
        k[p] += 1
    return k


def divisible_weight(lam, m):
    """Total size of the parts divisible by m: the eigenvalue of the mode-m
    weight operator on lam."""
    return sum(p for p in lam if not p % m)


def oracle_census(n, m):
    """The census as the library had it before the walk, kept as a
    differential oracle: one ZS1 pass over the partitions of n, each basis
    vector built from scratch, checked against the weight operator, and its
    eigenvalue and (for m >= 2) support invariant tallied."""
    eigenvalues, invariants = {}, {}
    for lam in P.enumerate_partitions(n):
        k = multiplicity_vector(lam)
        before = k[:]
        eig = divisible_weight(lam, m)
        assert F.weight_operator(m, k) == eig and k == before, lam
        eigenvalues[eig] = eigenvalues.get(eig, 0) + 1
        if m > 1:
            q = P.support_invariant(lam, m)
            invariants[q] = invariants.get(q, 0) + 1
    return eigenvalues, invariants


def walk_census(n, m, truncation=None):
    """The walk's tallies at degree n: the eigenvalues as a dict of the
    nonzero counts, the strata as the row of its triangle."""
    census = F._walk(m, n if truncation is None else truncation)
    eigenvalues = {e: c for e, c in enumerate(census.eigenvalues[n]) if c}
    return eigenvalues, census.invariants[n]


def strata_row(n, m, counts):
    """Stratum counts at degree n, a dict as the oracle and the record keep
    them, as row n of the walk's triangle; at m = 1, where they tally
    nothing, all p(n) partitions of n sit at q = n."""
    row = [0] * (n + 1)
    for q, c in counts.items():
        row[q] = c
    if m == 1:
        row[n] = P.count_partitions(n)
    return row


def oracle_rows(n, m):
    """The oracle census at degree n in the form of walk_census."""
    eigenvalues, invariants = oracle_census(n, m)
    return eigenvalues, strata_row(n, m, invariants)


def carried_invariant(lam, m):
    """The support invariant sum_i i * ((lam_i - lam_{i+1}) // m) that the
    walk carries and tallies; at m = 1 the sum is the size."""
    return sum(lam) if m == 1 else P.support_invariant(lam, m)


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
    k = multiplicity_vector(lam)
    c = F.annihilate(i, k)
    return {as_partition(k): c} if c else {}


def created(i, lam):
    """Library creation on the basis vector lam, as a dict vector."""
    k = multiplicity_vector(lam)
    F.create(i, k)
    return {as_partition(k): 1}


class TestLadderOperators:
    def test_annihilate_examples(self):
        assert annihilated(1, ()) == {}
        assert annihilated(2, (2,)) == {(): 2}
        assert annihilated(2, (2, 2)) == {(2,): 4}
        k = multiplicity_vector((3, 1))
        assert F.annihilate(2, k) == 0
        assert k == [0, 1, 0, 1]

    def test_create_examples(self):
        assert created(3, ()) == {(3,): 1}
        assert created(1, (2,)) == {(2, 1): 1}
        k = multiplicity_vector((2,))
        assert F.annihilate(2, k) == 2
        F.create(2, k)
        assert k == multiplicity_vector((2,))

    def test_coefficients_are_ints(self):
        k = multiplicity_vector((3, 1))
        F.create(2, k)
        F.create(2, k)
        assert all(type(entry) is int for entry in k)
        assert type(F.weight_operator(2, k)) is int
        assert type(F.annihilate(2, k)) is int

    def test_heisenberg_commutator(self):
        # [a_i, a_{-j}] = i delta_{ i j } on every basis vector of degree <= 12
        modes = range(1, 13)
        for n in range(13):
            for lam in P.enumerate_partitions(n):
                for i in modes:
                    for j in modes:
                        k = multiplicity_vector(lam)
                        F.create(j, k)
                        c = F.annihilate(i, k)
                        lhs = {as_partition(k): c} if c else {}
                        k = multiplicity_vector(lam)
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
                    k = multiplicity_vector(lam)
                    coeff = F.weight_operator(m, k)
                    assert as_partition(k) == lam
                    expected = dict_weight_operator(m, basis_vector(lam))
                    assert _scaled(basis_vector(lam), coeff) == expected, (lam, m)


class TestWeightOperator:
    def test_examples(self):
        k = multiplicity_vector((3, 1))
        assert F.weight_operator(2, k) == 0
        assert k == multiplicity_vector((3, 1))
        assert F.weight_operator(2, multiplicity_vector((2, 2))) == 4
        for lam in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            k = multiplicity_vector(lam)
            assert F.weight_operator(1, k) == 4
            assert as_partition(k) == lam

    def test_diagonal_with_closed_form_eigenvalue(self):
        for n in range(15):
            for lam in P.enumerate_partitions(n):
                for m in (1, 2, 3):
                    k = multiplicity_vector(lam)
                    assert F.weight_operator(m, k) == divisible_weight(lam, m)
                    assert k == multiplicity_vector(lam)

    def test_eigenspace_examples(self):
        assert F._walk(2, 4).eigenvalues[4] == [2, 0, 1, 0, 2]
        assert oracle_census(4, 2)[0] == {0: 2, 2: 1, 4: 2}

    def test_eigenspaces_exhaust_each_degree(self):
        for m in (2, 3, 4):
            census = F._walk(m, 15)
            for n in range(16):
                assert len(census.eigenvalues[n]) == n + 1
                assert sum(census.eigenvalues[n]) == P.count_partitions(n)
                assert sum(oracle_census(n, m)[0].values()) == P.count_partitions(n)


class TestSeries:
    def test_trace_examples(self):
        ts = F.trace_series(2, 8)
        assert ts[0][0] == 1
        assert ts[4][4] == 2
        for n in range(9):
            for e in range(n + 1):
                if e % 2 == 1:
                    assert ts[n][e] == 0

    def test_product_examples(self):
        ps = F.product_series(2, 8)
        assert ps[4][4] == 2
        assert ps[4][2] == 1
        for n in range(9):
            assert ps[n][0] == P.count_m_regular(n, 2)

    def test_triangle_storage(self):
        # row n holds the coefficients of s^n t^e for e = 0..n, as lists
        for series in (F.trace_series(3, 5), F.product_series(3, 5)):
            assert series[0] == [1]
            assert [len(row) for row in series] == [n + 1 for n in range(6)]
            assert all(type(row) is list for row in series)

    def test_trace_equals_product_to_12(self):
        for m in (2, 3, 4, 5):
            assert F.trace_series(m, 12) == F.product_series(m, 12)

    def test_verify_bo_walks_once(self, monkeypatch):
        # one walk gives the census, the eigenspace dimensions and the trace
        # coefficients; none is read from an earlier call
        calls, walk = [], F._walk

        def spy(m, truncation):
            calls.append((m, truncation))
            return walk(m, truncation)

        monkeypatch.setattr(F, "_walk", spy)
        F.verify_bo(3, 12)
        assert calls == [(3, 12)]


class TestCensus:
    def test_one_pass_counts_the_strata(self):
        for m in (2, 3, 5):
            census = F._walk(m, 12)
            for n in range(13):
                assert census.invariants[n] == strata_row(n, m, oracle_census(n, m)[1])
                assert sum(census.eigenvalues[n]) == P.count_partitions(n)

    def test_m_1_puts_every_partition_at_q_n(self):
        # at m = 1 the support invariant of a partition is its size
        census = F._walk(1, 12)
        for n in range(13):
            assert census.invariants[n] == [0] * n + [P.count_partitions(n)]
        assert walk_census(4, 1) == ({4: 5}, [0, 0, 0, 0, 5])

    def test_walk_matches_the_recorded_census(self):
        # tallies recorded from the ZS1 census before the walk replaced it
        recorded = json.loads((FIXTURES / "fock_census.json").read_text())
        assert len(recorded["census"]) == 6 * 23
        for entry in recorded["census"]:
            n, m = entry["n"], entry["m"]
            expected = (dict(entry["eigenvalues"]), strata_row(n, m, dict(entry["invariants"])))
            assert walk_census(n, m, recorded["n_max"]) == expected, (n, m)
            assert oracle_rows(n, m) == expected, (n, m)

    def test_walk_does_not_depend_on_its_truncation(self):
        for m in (1, 2, 3):
            for n in range(11):
                assert walk_census(n, m) == walk_census(n, m, 10) == oracle_rows(n, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_carried_values(self, monkeypatch, m):
        # every vector checked, the vacuum included, carries the degree,
        # eigenvalue and support invariant of the partition whose vector it
        # holds, and every node of the recursion its length and smallest part
        checked, visited = [], []
        check, visit = F._check, F._visit

        def check_spy(m, k, before, n, eig, q, *tallies):
            lam = as_partition(k)
            checked.append(lam)
            assert k == before == multiplicity_vector(lam), lam
            assert before is not k, lam
            assert (n, eig) == (sum(lam), divisible_weight(lam, m)), lam
            assert q == carried_invariant(lam, m), lam
            check(m, k, before, n, eig, q, *tallies)

        def visit_spy(m, truncation, k, n, last, length, eig, q, *tallies):
            lam = as_partition(k)
            visited.append(lam)
            assert k == multiplicity_vector(lam), lam
            assert (n, len(lam), eig) == (sum(lam), length, divisible_weight(lam, m)), lam
            assert last == (lam[-1] if lam else 0), lam
            assert q == carried_invariant(lam, m), lam
            visit(m, truncation, k, n, last, length, eig, q, *tallies)

        monkeypatch.setattr(F, "_check", check_spy)
        monkeypatch.setattr(F, "_visit", visit_spy)
        F._walk(m, 20)
        basis = sorted(lam for n in range(21) for lam in P.enumerate_partitions(n))
        assert sorted(checked) == basis
        # the recursion reaches the partitions with no part 1, and (1,); the
        # partitions that end in 1 are checked by the loop of the node they
        # extend, so the recursion goes one level per part of 2 or more
        assert sorted(visited) == sorted([(1,)] + [lam for lam in basis if 1 not in lam])

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda op, m, k: op(m, k) + (k == [0, 0, 2]), "operator has eigenvalue 5 on (2, 2), not 4"),
            (
                lambda op, m, k: op(m, k) if k != [0, 1, 1] else F.annihilate(2, k),
                "operator is not diagonal on (2, 1): it moved [0, 1, 1] to [0, 1, 0]",
            ),
        ],
        ids=["eigenvalue", "moved"],
    )
    def test_violation_names_the_partition(self, monkeypatch, fault, message):
        operator = F.weight_operator
        monkeypatch.setattr(F, "weight_operator", lambda m, k: fault(operator, m, k))
        with pytest.raises(IdentityViolation) as info:
            F._walk(2, 6)
        assert str(info.value) == message


class TestVerify:
    def test_stratified_counts_for_n4_m2(self):
        rows = [r for r in F.verify_bo(2, 4) if r.n == 4]
        assert [(r.q, r.count_qm) for r in rows] == [(0, 2), (1, 1), (2, 2)]
        assert all(r.ok for r in rows)

    def test_single_partition(self):
        rows = [r for r in F.verify_bo(5, 1) if r.n == 1]
        assert len(rows) == 1
        assert rows[0].count_qm == 1
        assert rows[0].ok

    def test_strata_sum_to_partition_count(self):
        rows = [r for r in F.verify_bo(3, 6) if r.n == 6]
        assert sum(r.count_qm for r in rows) == P.count_partitions(6)
        assert all(r.ok for r in rows)

    def test_sweep_small(self):
        for m in (2, 3):
            rows = F.verify_bo(m, 10)
            assert [(r.n, r.q) for r in rows] == [(n, q) for n in range(11) for q in range(n // m + 1)]
            for row in rows:
                assert row.ok, (m, row)

    def test_a_wrong_product_count_fails_only_its_column(self, monkeypatch):
        # the eigenspace and census columns come from the walk, not from the
        # partition counts they are compared with; the product series the
        # walk checks its table on is expanded before the counts go wrong,
        # since it checks itself on them
        product = F.product_series(3, 9)
        monkeypatch.setattr(F, "product_series", lambda m, truncation: product)
        regular = F.count_m_regular
        monkeypatch.setattr(F, "count_m_regular", lambda n, m: regular(n, m) + 1)
        rows = F.verify_bo(3, 9)
        assert len(rows) == sum(n // 3 + 1 for n in range(10))
        for row in rows:
            assert not row.ok
            assert row.count_product != row.count_qm
            assert row.count_qm == row.dim_eigenspace


# (p, e) -> (rad_dim, simples, block_dims) of H_p(zeta_e): the rows that
# test_hecke.py pins for the regular path, and six rows for p = 6, 7 that
# only the LLT basis and Specht-module Gram ranks reached when recorded
LLT_REFERENCE = {
    (1, 2): (0, 1, [1]),
    (1, 3): (0, 1, [1]),
    (1, 4): (0, 1, [1]),
    (1, 5): (0, 1, [1]),
    (1, 6): (0, 1, [1]),
    (2, 2): (1, 1, [1]),
    (2, 3): (0, 2, [1, 1]),
    (2, 4): (0, 2, [1, 1]),
    (2, 5): (0, 2, [1, 1]),
    (2, 6): (0, 2, [1, 1]),
    (3, 2): (1, 2, [4, 1]),
    (3, 3): (4, 2, [1, 1]),
    (3, 4): (0, 3, [4, 1, 1]),
    (3, 5): (0, 3, [4, 1, 1]),
    (3, 6): (0, 3, [4, 1, 1]),
    (4, 2): (19, 2, [4, 1]),
    (4, 3): (4, 4, [9, 9, 1, 1]),
    (4, 4): (14, 4, [4, 4, 1, 1]),
    (4, 5): (0, 5, [9, 9, 4, 1, 1]),
    (4, 6): (0, 5, [9, 9, 4, 1, 1]),
    (5, 2): (78, 3, [25, 16, 1]),
    (5, 3): (50, 5, [36, 16, 16, 1, 1]),
    (5, 4): (34, 6, [36, 16, 16, 16, 1, 1]),
    (6, 2): (422, 4, [256, 25, 16, 1]),
    (6, 3): (488, 7, [81, 81, 36, 16, 16, 1, 1]),
    (6, 4): (180, 9, [256, 100, 100, 25, 25, 16, 16, 1, 1]),
    (6, 5): (290, 10, [100, 100, 64, 64, 25, 25, 25, 25, 1, 1]),
    (7, 2): (4170, 5, [441, 196, 196, 36, 1]),
    (7, 3): (3778, 9, [400, 225, 225, 169, 169, 36, 36, 1, 1]),
}


def e_core(lam, e):
    """The e-core of lam: remove rim e-hooks, as moves b -> b - e on the
    beta-set, until none is left."""
    beta = {part + len(lam) - 1 - i for i, part in enumerate(lam)}
    while True:
        movable = [b for b in beta if b >= e and b - e not in beta]
        if not movable:
            break
        beta.remove(movable[0])
        beta.add(movable[0] - e)
    ordered = sorted(beta, reverse=True)
    parts = (b - (len(ordered) - 1 - i) for i, b in enumerate(ordered))
    return tuple(x for x in parts if x)


def check_decomposition_matrix(p, e):
    """The properties of the decomposition matrix at (p, e)."""
    d = Hk._decomposition_numbers(p, e)
    dims = Hk.simple_dimensions(p, e)
    regular = [lam for lam in P.enumerate_partitions(p) if P.is_m_regular(lam, e)]
    assert list(dims) == regular
    assert sorted(d) == sorted(regular)
    for mu, column in d.items():
        assert column[mu] == 1
        for lam, x in column.items():
            assert x > 0
            assert P.dominates(mu, lam)
            assert e_core(lam, e) == e_core(mu, e)
    assert all(type(x) is int and x > 0 for x in dims.values())
    # the solve reads only the e-regular rows; the others must agree too
    for lam in P.enumerate_partitions(p):
        assert dimension(lam) == sum(column.get(lam, 0) * dims[mu] for mu, column in d.items())


class TestLLTOracle:
    @pytest.mark.parametrize("p,e", sorted(LLT_REFERENCE))
    def test_reference_rows(self, p, e):
        dims = Hk.simple_dimensions(p, e)
        blocks = sorted((d * d for d in dims.values()), reverse=True)
        assert (factorial(p) - sum(blocks), len(dims), blocks) == LLT_REFERENCE[p, e]

    def test_two_row_example(self):
        # e = 2, p = 3: S^(2,1) stays simple and S^(1,1,1) is the sign
        # representation, which equals D^(3) at q = -1
        assert Hk._decomposition_numbers(3, 2) == {
            (2, 1): {(2, 1): 1},
            (3,): {(3,): 1, (1, 1, 1): 1},
        }
        assert Hk.simple_dimensions(3, 2) == {(3,): 1, (2, 1): 2}

    def test_counting_addable_nodes_below_breaks_coefficient_one(self, monkeypatch):
        # v^(a - b) with a, b counted below gamma instead of above it
        real = Hk._i_nodes
        monkeypatch.setattr(Hk, "_i_nodes", lambda lam, i, e: real(lam, i, e)[::-1])
        with pytest.raises(IdentityViolation, match=r"^\(3,\) has coefficient \{1: 1\} in A"):
            Hk._decomposition_numbers(3, 2)

    def test_column_first_ladders_break_coefficient_one(self, monkeypatch):
        # ladders c + (e - 1) r: (2, 1, 1) does not occur in A((2, 1, 1))
        monkeypatch.setattr(Hk, "_ladder", lambda r, c, e: c + (e - 1) * r)
        with pytest.raises(IdentityViolation, match=r"^\(2, 1, 1\) has coefficient \{\} in A"):
            Hk._decomposition_numbers(4, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(2, 6))
    def test_decomposition_matrix(self, p, e):
        check_decomposition_matrix(p, e)

    def test_bar_invariant_correction(self):
        # at e = 2, p = 12 is the least size where a coefficient to correct
        # has terms of negative degree: without their mirror images in
        # alpha, one dimension comes out as -25
        check_decomposition_matrix(12, 2)

