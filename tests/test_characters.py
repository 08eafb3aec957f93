import json
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import characters as C
from cherednik import cli
from cherednik import partitions as P

# frozen character table of S_3, columns indexed by cycle type
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}


def _beta_to_partition(beta):
    # beta is strictly decreasing; undo the staircase shift
    n = len(beta)
    lam = tuple(b - (n - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in lam if p > 0)


@cache
def _mn(lam, mu):
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    n = len(lam)
    beta = tuple(lam[i] + (n - 1 - i) for i in range(n))
    betaset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in betaset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = tuple(sorted([c for c in beta if c != b] + [nb], reverse=True))
        total += (-1) ** height * _mn(_beta_to_partition(newbeta), rest)
    return total


def character_value(lam, cycle_type):
    """Oracle: the character of the irreducible labelled by lam at the class
    of the given cycle type, by Murnaghan-Nakayama border-strip removal."""
    if P.size(lam) != P.size(cycle_type):
        raise ValueError(f"cycle type {cycle_type} does not match |{lam}| = {P.size(lam)}")
    return _mn(lam, tuple(sorted(cycle_type, reverse=True)))


def _contains(nu, lam):
    if len(lam) > len(nu):
        return False
    return all(nu[i] >= lam[i] for i in range(len(lam)))


def oracle_lr_count(nu, lam, mu):
    """Oracle: the Littlewood-Richardson fillings of the skew shape nu/lam
    with content mu, filled one cell at a time.

    Cells are visited in reverse reading order (rows top to bottom, right to
    left inside a row), which makes the lattice-word condition a running
    prefix check on the content counts.
    """
    cells = []
    for r in range(len(nu)):
        lo = lam[r] if r < len(lam) else 0
        for col in range(nu[r] - 1, lo - 1, -1):
            cells.append((r, col))
    if len(cells) != P.size(mu):
        return 0
    if not cells:
        return 1
    grid = {}
    counts = [0] * len(mu)

    def fill(idx):
        if idx == len(cells):
            return 1
        r, col = cells[idx]
        above = grid.get((r - 1, col), 0)
        right = grid.get((r, col + 1))
        total = 0
        for v in range(1, len(mu) + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue  # reverse reading word must stay a lattice word
            if v <= above:
                continue  # strict down the column
            if right is not None and v > right:
                continue  # weak along the row
            counts[v - 1] += 1
            grid[(r, col)] = v
            total += fill(idx + 1)
            del grid[(r, col)]
            counts[v - 1] -= 1
        return total

    return fill(0)


def oracle_lr_induce(lam, mu):
    """Oracle: the induction product from one skew filling count per
    partition nu of |lam| + |mu| that contains lam."""
    out = {}
    for nu in P.enumerate_partitions(P.size(lam) + P.size(mu)):
        if _contains(nu, lam):
            coeff = oracle_lr_count(nu, lam, mu)
            if coeff:
                out[nu] = coeff
    return out


def centralizer_order(cycle_type):
    z = 1
    mult = {}
    for k in cycle_type:
        mult[k] = mult.get(k, 0) + 1
    for k, a in mult.items():
        z *= k**a * factorial(a)
    return z


def class_size(cycle_type):
    """Size of the conjugacy class, the weight of row orthogonality."""
    return factorial(P.size(cycle_type)) // centralizer_order(cycle_type)


def is_horizontal_strip(nu, lam):
    """nu/lam is a horizontal strip: at most one box per column."""
    if len(lam) > len(nu):
        return False
    padded = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(n < l for n, l in zip(nu, padded)):
        return False
    return all(nu[i + 1] <= padded[i] for i in range(len(nu) - 1))


class TestLowestWeight:
    def test_examples(self):
        for c in (Fraction(1, 2), Fraction(5, 7), Fraction(-2, 3)):
            assert C.lowest_weight((1,), c) == 0
            assert C.lowest_weight((2,), c) == -c
            assert C.lowest_weight((1, 1), c) == c

    def test_row_formula_agrees_with_contents_everywhere(self):
        # the function computes both and raises on mismatch; sweep n <= 20
        for n in range(21):
            for lam in P.enumerate_partitions(n):
                C.lowest_weight(lam, Fraction(5, 7))

    def test_conjugation_negates_contents(self):
        for lam in P.enumerate_partitions(9):
            assert C.content_sum(lam) == -C.content_sum(P.conjugate(lam))


class TestCharacterValues:
    def test_examples(self):
        for n in range(1, 7):
            for mu in P.enumerate_partitions(n):
                assert character_value((n,), mu) == 1
        assert character_value((1, 1), (2,)) == -1
        assert character_value((2, 1), (1, 1, 1)) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character_value((2, 1), (2, 2))

    def test_s3_table(self):
        for lam, row in S3_TABLE.items():
            for mu, value in row.items():
                assert character_value(lam, mu) == value

    def test_dimension_against_murnaghan_nakayama(self):
        # the hook length formula against the character at the identity
        for n in range(11):
            for lam in P.enumerate_partitions(n):
                assert C.dimension(lam) == character_value(lam, (1,) * n)

    def test_column_orthogonality_at_identity(self):
        for n in range(1, 9):
            total = sum(
                character_value(lam, (1,) * n) ** 2
                for lam in P.enumerate_partitions(n)
            )
            assert total == factorial(n)

    def test_row_orthogonality(self):
        for n in range(1, 7):
            parts = P.enumerate_partitions(n)
            for lam in parts:
                for nu in parts:
                    inner = sum(
                        class_size(mu)
                        * character_value(lam, mu)
                        * character_value(nu, mu)
                        for mu in parts
                    )
                    assert inner == (factorial(n) if lam == nu else 0)

    def test_sign_twist_of_characters(self):
        # conjugating the label multiplies by the sign of the class
        for n in range(1, 7):
            for lam in P.enumerate_partitions(n):
                for mu in P.enumerate_partitions(n):
                    sign = (-1) ** (n - len(mu))
                    assert character_value(P.conjugate(lam), mu) == sign * character_value(lam, mu)


PARTITIONS = st.integers(0, 8).flatmap(lambda n: st.sampled_from(P.enumerate_partitions(n)))


def drop_one_tableau(monkeypatch, shape):
    """Make the strip step lose the first strip onto the given shape that a
    later letter adds.  Each state the first letter makes counts one
    tableau, so for a mu of two parts exactly one tableau goes."""
    real = C._strips
    dropped = []

    def lossy(current, prev, boxes, room):
        out = real(current, prev, boxes, room)
        hits = [k for k, (nu, _) in enumerate(out) if nu == shape]
        if prev and hits and not dropped:
            dropped.append(out.pop(hits[0]))
        return out

    monkeypatch.setattr(C, "_strips", lossy)
    return dropped


class TestLittlewoodRichardson:
    def test_examples(self):
        assert C.lr_induce((1,), (1,)) == {(2,): 1, (1, 1): 1}
        assert C.lr_induce((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}

    def test_pieri_single_row(self):
        # inducing with a single row hits exactly the horizontal strips
        for a in range(1, 6):
            for b in range(1, 5):
                if a + b > 8:
                    continue
                for lam in P.enumerate_partitions(a):
                    product = C.lr_induce(lam, (b,))
                    for nu in P.enumerate_partitions(a + b):
                        expected = 1 if is_horizontal_strip(nu, lam) else 0
                        assert product.get(nu, 0) == expected

    def test_pieri_single_column(self):
        for a in range(1, 6):
            for b in range(1, 4):
                if a + b > 8:
                    continue
                for lam in P.enumerate_partitions(a):
                    product = C.lr_induce(lam, (1,) * b)
                    for nu in P.enumerate_partitions(a + b):
                        expected = (
                            1
                            if is_horizontal_strip(P.conjugate(nu), P.conjugate(lam))
                            else 0
                        )
                        assert product.get(nu, 0) == expected

    def test_induced_dimension(self):
        # sum of multiplicities times dimensions matches the induced module
        for a in range(1, 5):
            for b in range(1, 5):
                for lam in P.enumerate_partitions(a):
                    for mu in P.enumerate_partitions(b):
                        product = C.lr_induce(lam, mu)
                        total = sum(
                            coeff * C.dimension(nu) for nu, coeff in product.items()
                        )
                        expected = (
                            comb(a + b, a) * C.dimension(lam) * C.dimension(mu)
                        )
                        assert total == expected

    def test_leading_coefficient_and_dominance(self):
        for total in range(0, 9):
            for a in range(total + 1):
                for lam in P.enumerate_partitions(a):
                    for mu in P.enumerate_partitions(total - a):
                        product = C.lr_induce(lam, mu)
                        target = P.add(lam, mu)
                        assert product.get(target) == 1
                        for nu in product:
                            assert P.dominates(target, nu)

    def test_symmetry(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for lam in P.enumerate_partitions(a):
                    for mu in P.enumerate_partitions(b):
                        assert C.lr_induce(lam, mu) == C.lr_induce(mu, lam)

    @settings(max_examples=150, deadline=None)
    @given(PARTITIONS, PARTITIONS)
    def test_strip_pass_matches_the_filling_oracle(self, lam, mu):
        product = C.lr_induce(lam, mu)
        assert product == oracle_lr_induce(lam, mu)
        assert list(product) == sorted(product, reverse=True)
        # c^nu_{lam mu} = c^nu_{mu lam} and c^{nu'}_{lam' mu'} = c^nu_{lam mu}
        assert C.lr_induce(mu, lam) == product
        conjugated = {P.conjugate(nu): coeff for nu, coeff in product.items()}
        assert C.lr_induce(P.conjugate(lam), P.conjugate(mu)) == conjugated


class TestLeadingTerm:
    def test_examples(self):
        verdict = C.induction_verdict((1,), (1,), Fraction(1, 2))
        assert verdict == C.InductionVerdict(
            {(2,): 1, (1, 1): 1}, (2,), Fraction(-1, 2), True
        )
        verdict = C.induction_verdict((2,), (2,), Fraction(1, 3))
        assert (verdict.leading, verdict.weight, verdict.ok) == ((4,), Fraction(-2), True)
        verdict = C.induction_verdict((1,), (), Fraction(1, 2))
        assert (verdict.leading, verdict.weight, verdict.ok) == ((1,), 0, True)
        verdict = C.induction_verdict((2, 1), (1,), None)
        assert (verdict.leading, verdict.weight, verdict.ok) == ((3, 1), None, True)

    def test_requires_positive_parameter(self):
        with pytest.raises(ValueError):
            C.induction_verdict((1,), (1,), Fraction(-1, 2))

    def test_strict_minimality_small(self):
        c = Fraction(5, 7)
        for a in range(1, 5):
            for b in range(1, 5):
                for lam in P.enumerate_partitions(a):
                    for mu in P.enumerate_partitions(b):
                        verdict = C.induction_verdict(lam, mu, c)
                        assert verdict.ok
                        assert verdict.product == C.lr_induce(lam, mu)
                        assert verdict.leading == P.add(lam, mu)
                        assert verdict.weight == C.lowest_weight(verdict.leading, c)

    @pytest.mark.parametrize("c", [None, Fraction(1, 2)])
    def test_wrong_product_fails_the_verdict(self, monkeypatch, c):
        # a leading coefficient of 2 is reported in the verdict, not raised
        monkeypatch.setattr(C, "lr_induce", lambda lam, mu: {(3, 1): 2, (2, 2): 1})
        assert not C.induction_verdict((2, 1), (1,), c).ok

    def test_dropped_tableau_fails_only_the_dimension_identity(self, monkeypatch):
        # (3,2,1) has two LR tableaux in (2,1) x (2,1); with one of them lost
        # the leading term still looks right
        dropped = drop_one_tableau(monkeypatch, (3, 2, 1))
        verdict = C.induction_verdict((2, 1), (2, 1), Fraction(1, 2))
        assert len(dropped) == 1
        assert verdict.product[(3, 2, 1)] == 1
        assert verdict.product[verdict.leading] == 1
        assert all(P.dominates(verdict.leading, nu) for nu in verdict.product)
        assert not verdict.ok

    def test_dropped_tableau_makes_lr_exit_1(self, monkeypatch, capsys):
        drop_one_tableau(monkeypatch, (3, 2, 1))
        code = cli.main(["lr", "--lambda", "2,1", "--mu", "2,1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False and payload["result"]["ok"] is False
        assert payload["result"]["product"]["[3,2,1]"] == 1
        assert payload["result"]["leading"] == [4, 2]

    def test_product_is_computed_once(self, monkeypatch):
        calls = []
        real = C.lr_induce
        monkeypatch.setattr(C, "lr_induce", lambda lam, mu: calls.append(1) or real(lam, mu))
        assert C.induction_verdict((3, 2, 1), (2, 1), Fraction(1, 2)).ok
        assert len(calls) == 1


def weights_of(n, c):
    return {lam: C.lowest_weight(lam, c) for lam in P.enumerate_partitions(n)}


def all_pairs_verdict(weights, c):
    """Reference for c != 0: compare every strictly dominance-comparable pair."""
    for alpha in weights:
        for beta in weights:
            if alpha != beta and P.dominates(alpha, beta):
                ha, hb = weights[alpha], weights[beta]
                if not (ha < hb if c > 0 else ha > hb):
                    return False
    return True


class TestDominanceMonotonicity:
    def test_small_exhaustive(self):
        # the one-box verdict agrees with the all-pairs reference
        for c in (Fraction(1, 2), Fraction(-5, 7)):
            for n in range(13):
                weights, ok = C.dominance_weight_consistent(n, c)
                assert weights == weights_of(n, c)
                assert list(weights) == P.enumerate_partitions(n)
                reference = all_pairs_verdict(weights, c)
                assert reference, (n, c)
                assert ok == reference, (n, c)

    def test_swapped_pair_is_caught(self, monkeypatch):
        # negative control: exchange the weights of one comparable pair
        parts = P.enumerate_partitions(6)
        pairs = [
            (alpha, beta)
            for alpha in parts
            for beta in parts
            if alpha != beta and P.dominates(alpha, beta)
        ]
        assert len(pairs) > 40
        real = {c: weights_of(6, c) for c in (Fraction(1, 2), Fraction(-5, 7))}
        for c in real:
            for alpha, beta in pairs:
                weights = dict(real[c])
                weights[alpha], weights[beta] = weights[beta], weights[alpha]
                assert not all_pairs_verdict(weights, c)
                monkeypatch.setattr(C, "lowest_weight", lambda lam, c: weights[lam])
                assert not C.dominance_weight_consistent(6, c)[1], (alpha, beta, c)

    def test_equal_weights_are_caught(self, monkeypatch):
        # the inequality is strict: constant weights fail for both signs
        monkeypatch.setattr(C, "lowest_weight", lambda lam, c: Fraction(0))
        for c in (Fraction(1, 2), Fraction(-5, 7)):
            assert not C.dominance_weight_consistent(5, c)[1]
