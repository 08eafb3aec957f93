from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import partitions as P


def conjugate_by_columns(lam):
    """Independent oracle: count boxes column by column."""
    out = []
    j = 1
    while True:
        col = sum(1 for p in lam if p >= j)
        if col == 0:
            return tuple(out)
        out.append(col)
        j += 1


def oracle_strata(n, m):
    """Independent oracle: the partitions of n grouped by the stratum index
    sum over i of i * floor((lam_i - lam_{i+1}) / m), lam padded with a zero,
    in increasing q, each group in the order of enumerate_partitions."""
    groups = {}
    for lam in P.enumerate_partitions(n):
        padded = lam + (0,)
        q = sum((i + 1) * ((padded[i] - padded[i + 1]) // m) for i in range(len(lam)))
        groups.setdefault(q, []).append(lam)
    return dict(sorted(groups.items()))


@st.composite
def partitions_to_60(draw):
    """A partition of some n <= 60: distinct part sizes, each drawn with a
    multiplicity that keeps the size at most 60, so that long runs of equal
    parts are as likely as many distinct parts."""
    parts = []
    for p in draw(st.lists(st.integers(1, 60), unique=True, max_size=12)):
        parts += [p] * draw(st.integers(0, (60 - sum(parts)) // p))
    return tuple(sorted(parts, reverse=True))


def gen_partitions(n, max_part):
    """Independent oracle: the recursive generator the library used before its
    iterative enumeration, largest first part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in gen_partitions(n - k, k):
            yield (k,) + rest


class TestConjugate:
    def test_examples(self):
        assert P.conjugate(()) == ()
        assert P.conjugate((3, 1)) == (2, 1, 1)
        assert P.conjugate((2, 2)) == (2, 2)

    def test_column_count_oracle(self):
        for n in range(9):
            for lam in P.enumerate_partitions(n):
                assert P.conjugate(lam) == conjugate_by_columns(lam)

    def test_involution(self):
        for n in range(9):
            for lam in P.enumerate_partitions(n):
                assert P.conjugate(P.conjugate(lam)) == lam


class TestRegularity:
    def test_examples(self):
        assert P.is_m_regular((2,), 2)
        assert not P.is_m_regular((1, 1), 2)
        assert P.is_m_regular((3, 3, 1), 3)

    def test_counts_match_enumeration(self):
        for n in range(15):
            for m in (2, 3, 4):
                assert len(P.enumerate_m_regular(n, m)) == P.count_m_regular(n, m)

    def test_regular_means_small_multiplicity(self):
        for lam in P.enumerate_partitions(7):
            mult = max(P.multiplicities(lam).values())
            for m in (2, 3, 4):
                assert P.is_m_regular(lam, m) == (mult < m)


class TestSupportInvariant:
    def test_examples(self):
        assert P.support_invariant((1,), 2) == 0
        assert P.support_invariant((3, 1), 2) == 1
        assert P.support_invariant((2, 2), 2) == 2

    def test_matches_decomposition_size(self):
        for n in range(13):
            for m in (2, 3, 4):
                for lam in P.enumerate_partitions(n):
                    mu, _ = P.decompose(lam, m)
                    assert P.support_invariant(lam, m) == P.size(mu)

    def test_scaled_bound(self):
        # q * m never exceeds the size, exhaustively to 30
        for n in range(31):
            for lam in P.enumerate_partitions(n):
                for m in (2, 3, 4, 5, 6):
                    assert P.support_invariant(lam, m) * m <= n


class TestDecompose:
    def test_examples(self):
        assert P.decompose((3, 1), 2) == ((1,), (1, 1))
        assert P.decompose((1,), 3) == ((), (1,))
        assert P.decompose((4,), 2) == ((2,), ())

    def test_recombination_and_regularity(self):
        for n in range(13):
            for m in (2, 3, 4):
                for lam in P.enumerate_partitions(n):
                    mu, nu = P.decompose(lam, m)
                    assert P.add(P.scale(m, mu), nu) == lam
                    assert P.is_m_regular(P.conjugate(nu), m)

    def test_uniqueness_brute_force(self):
        # the decomposition is the only componentwise splitting whose second
        # part has m-regular conjugate
        m = 2
        for n in range(9):
            for lam in P.enumerate_partitions(n):
                found = []
                for q in range(n // m + 1):
                    for mu in P.enumerate_partitions(q):
                        for nu in P.enumerate_partitions(n - m * q):
                            if P.add(P.scale(m, mu), nu) == lam and P.is_m_regular(
                                P.conjugate(nu), m
                            ):
                                found.append((mu, nu))
                assert found == [P.decompose(lam, m)]

    def test_parts_regular_variant(self):
        for n in range(11):
            for m in (2, 3):
                for lam in P.enumerate_partitions(n):
                    mu, nu = P.decompose_regular_parts(lam, m)
                    assert P.is_m_regular(nu, m)
                    assert P.recombine_regular_parts(mu, nu, m) == lam

    def test_splitting_recombines_on_both_sides(self):
        for n in range(11):
            for m in (2, 3):
                for lam in P.enumerate_partitions(n):
                    assert P.splitting(lam, m, "transpose") == (*P.decompose(lam, m), True)
                    assert P.splitting(lam, m, "parts") == (*P.decompose_regular_parts(lam, m), True)

    def test_splitting_verdict_sees_a_wrong_recombination(self, monkeypatch):
        monkeypatch.setattr(P, "recombine_regular_parts", lambda mu, nu, m: nu)
        assert P.splitting((2, 2, 1), 2, "parts") == ((2,), (1,), False)
        monkeypatch.setattr(P, "scale", lambda m, mu: mu)
        assert P.splitting((4, 2), 2, "transpose") == ((2, 1), (), False)

    def test_two_conventions_count_the_same_strata(self):
        # both splittings distribute partitions of n over |mu| identically
        for n in range(12):
            for m in (2, 3):
                by_transpose: dict[int, int] = {}
                by_parts: dict[int, int] = {}
                for lam in P.enumerate_partitions(n):
                    q1 = P.size(P.decompose(lam, m)[0])
                    q2 = P.size(P.decompose_regular_parts(lam, m)[0])
                    by_transpose[q1] = by_transpose.get(q1, 0) + 1
                    by_parts[q2] = by_parts.get(q2, 0) + 1
                assert by_transpose == by_parts


class TestArithmetic:
    def test_examples(self):
        assert P.add((2, 1), (1,)) == (3, 1)
        assert P.scale(2, (1, 1)) == (2, 2)
        assert P.add((), (3,)) == (3,)

    def test_union(self):
        assert P.union((3, 1), (2, 1)) == (3, 2, 1, 1)
        assert P.union((), ()) == ()

    def test_check_partition(self):
        assert P.check_partition([3, 1, 0, 0]) == (3, 1)
        with pytest.raises(ValueError):
            P.check_partition([1, 2])
        with pytest.raises(ValueError):
            P.check_partition([2, -1])
        # a part is taken with operator.index, never truncated or parsed
        for parts in [(2.7, 1), ("3", "1"), (3.0,), (Fraction(2), 1)]:
            with pytest.raises(ValueError, match="integers"):
                P.check_partition(parts)


class TestDominance:
    def test_examples(self):
        assert P.dominates((3, 1), (2, 2)) and not P.dominates((2, 2), (3, 1))
        assert P.dominates((2, 2), (2, 2))
        assert not P.dominates((3, 1, 1, 1), (2, 2, 2))
        assert not P.dominates((2, 2, 2), (3, 1, 1, 1))

    def test_partial_order_axioms(self):
        # reflexivity, antisymmetry and transitivity, and conjugation
        # reversing the order, exhaustively to n = 8
        for n in range(9):
            parts = P.enumerate_partitions(n)
            for a in parts:
                assert P.dominates(a, a)
            for a, b in combinations(parts, 2):
                assert not (P.dominates(a, b) and P.dominates(b, a))
                assert P.dominates(a, b) == P.dominates(P.conjugate(b), P.conjugate(a))
            for a in parts:
                for b in parts:
                    for c in parts:
                        if P.dominates(a, b) and P.dominates(b, c):
                            assert P.dominates(a, c)


class TestEnumeration:
    def test_examples(self):
        assert len(P.enumerate_partitions(4)) == 5
        assert P.enumerate_m_regular(4, 2) == [(4,), (3, 1)]
        assert P.enumerate_partitions(0) == [()]

    def test_reverse_lex_order(self):
        assert P.enumerate_partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        for n in range(10):
            seq = P.enumerate_partitions(n)
            assert seq == sorted(seq, reverse=True)

    def test_counts(self):
        # partition numbers 1, 1, 2, 3, 5, 7, 11, ...
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, expected in enumerate(known):
            assert P.count_partitions(n) == expected
            assert len(P.enumerate_partitions(n)) == expected
        assert P.count_partitions(30) == 5604

    def test_matches_recursive_generator(self):
        for n in range(26):
            assert P.enumerate_partitions(n) == list(gen_partitions(n, n)), n

    def test_returns_a_list(self):
        assert isinstance(P.enumerate_partitions(5), list)
        with pytest.raises(ValueError):
            P.enumerate_partitions(-1)


class TestSupportLevelAndLabels:
    def test_support_level_examples(self):
        # (q, mu, nu): the stratum and the splitting of lam, or of its conjugate
        assert P.support_level((2,), 2, 1) == (1, (1,), ())
        assert P.support_level((1, 1), 2, 1) == (0, (), (1, 1))
        assert P.support_level((1, 1), 2, -1) == (1, (1,), ())

    def test_negative_sign_is_conjugation(self):
        for lam in P.enumerate_partitions(8):
            for m in (2, 3):
                assert P.support_level(lam, m, -1) == P.support_level(
                    P.conjugate(lam), m, 1
                )

    def test_label_examples(self):
        assert P.label_from_pair((1,), (2,), 2) == (3, 1)
        assert P.label_from_pair((), (2, 1), 3) == (2, 1)
        # at negative parameter the label is the conjugate
        assert P.conjugate(P.label_from_pair((1,), (2,), 2)) == (2, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(partitions_to_60(), st.integers(2, 7), st.sampled_from([1, -1]))
    def test_round_trip_on_random_partitions(self, lam, m, sign):
        # beyond the exhaustive tests, which stop at n = 10 to 12
        mu, nu = P.decompose(lam, m)
        assert P.check_partition(mu) == mu and P.check_partition(nu) == nu
        assert P.add(P.scale(m, mu), nu) == lam
        assert P.size(mu) == P.support_invariant(lam, m)
        assert P.is_m_regular(P.conjugate(nu), m)
        label = lam if sign > 0 else P.conjugate(lam)
        positive = P.label_from_pair(mu, P.conjugate(nu), m)
        assert (positive if sign > 0 else P.conjugate(positive)) == label
        assert P.support_level(label, m, sign) == (P.size(mu), mu, nu)

    def test_stratum_counts(self):
        # number of partitions at stratum q is p(q) * p_regular(n - q*m)
        for n in range(16):
            for m in (2, 3, 4):
                census: dict[int, int] = {}
                for lam in P.enumerate_partitions(n):
                    q = P.support_invariant(lam, m)
                    census[q] = census.get(q, 0) + 1
                for q in range(n // m + 1):
                    expected = P.count_partitions(q) * P.count_m_regular(n - q * m, m)
                    assert census.get(q, 0) == expected

    def test_label_bijection_small(self):
        for n in range(11):
            for m in (2, 3):
                for q in range(n // m + 1):
                    labels = set()
                    for mu in P.enumerate_partitions(q):
                        for nu in P.enumerate_m_regular(n - q * m, m):
                            lam = P.label_from_pair(mu, nu, m)
                            assert P.support_level(lam, m, 1)[0] == q
                            labels.add(lam)
                    stratum = {
                        lam
                        for lam in P.enumerate_partitions(n)
                        if P.support_invariant(lam, m) == q
                    }
                    assert labels == stratum


class TestStrata:
    def test_example(self):
        assert oracle_strata(4, 2) == {0: [(2, 1, 1), (1, 1, 1, 1)], 1: [(3, 1)], 2: [(4,), (2, 2)]}
        assert oracle_strata(0, 3) == {0: [()]}
        census, ok = P.stratum_census(4, 2)
        assert ok
        assert census == {
            0: [((2, 1, 1), (), (2, 1, 1)), ((1, 1, 1, 1), (), (1, 1, 1, 1))],
            1: [((3, 1), (1,), (1, 1))],
            2: [((4,), (2,), ()), ((2, 2), (1, 1), ())],
        }

    def test_groups_partition_the_enumeration(self):
        for n in range(13):
            for m in (2, 3, 5):
                census, _ = P.stratum_census(n, m)
                groups = {q: [t[0] for t in triples] for q, triples in census.items()}
                assert list(groups) == sorted(groups)
                for q, members in groups.items():
                    assert all(P.support_invariant(lam, m) == q for lam in members)
                flat = sorted((lam for members in groups.values() for lam in members), reverse=True)
                assert flat == P.enumerate_partitions(n)

    def test_census_verdict_and_splittings(self):
        for n in range(15):
            for m in (2, 3, 4, 5):
                census, ok = P.stratum_census(n, m)
                assert ok, (n, m)
                assert {q: [t[0] for t in triples] for q, triples in census.items()} == oracle_strata(n, m)
                for q, triples in census.items():
                    for lam, mu, nu in triples:
                        assert P.size(mu) == q
                        assert P.add(P.scale(m, mu), nu) == lam

    def test_census_verdict_sees_a_wrong_count(self, monkeypatch):
        monkeypatch.setattr(P, "count_m_regular", lambda n, m: 1)
        assert not P.stratum_census(8, 2)[1]

    def test_census_verdict_sees_a_wrong_label(self, monkeypatch):
        label = P.label_from_pair
        monkeypatch.setattr(P, "label_from_pair", lambda mu, nu, m: P.conjugate(label(mu, nu, m)))
        assert not P.stratum_census(8, 2)[1]

    def test_census_verdict_sees_an_irregular_splitting(self, monkeypatch):
        # (mu, nu) = ((), lam) labels lam back, but conjugate(nu) is 2-regular
        # only for lam with distinct columns
        monkeypatch.setattr(P, "decompose", lambda lam, m: ((), lam))
        assert not P.stratum_census(4, 2)[1]
