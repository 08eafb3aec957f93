"""Acceptance suite: every criterion runs at its stated exact tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import time
from fractions import Fraction
from functools import wraps

from cherednik import characters as C
from cherednik import dunkl as D
from cherednik import fock as F
from cherednik import hecke as Hk
from cherednik import partitions as P


def criterion(number, description):
    def decorate(fn):
        @wraps(fn)
        def wrapper():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d}: FAIL ({time.time() - start:.1f}s) {description}")
                raise
            print(f"criterion {number:2d}: PASS ({time.time() - start:.1f}s) {description}")

        return wrapper

    return decorate


@criterion(1, "five stratum counts agree for n <= 25, m in 2..6")
def test_c01_counting_identity():
    for m in range(2, 7):
        rows = F.verify_bo(m, 25)
        for row in rows:
            assert row.ok, (m, row)
        for n in range(26):
            assert sum(row.count_qm for row in rows if row.n == n) == P.count_partitions(n)


@criterion(2, "trace series equals product series to bidegree 20 for m in 2..5")
def test_c02_generating_function_identity():
    for m in (2, 3, 4, 5):
        assert F.trace_series(m, 20) == F.product_series(m, 20)


@criterion(3, "defining relations hold on all monomials of degree <= 4, n in 2..5")
def test_c03_relation_suite():
    cs = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), Fraction(-1, 2)]
    for n in (2, 3, 4, 5):
        for c in cs:
            report = D.verify_relations(D.EngineConfig(n, c), 4)
            assert report.ok, (n, c, report.violations[:3])


@criterion(4, "Euler operator has the single eigenvalue d - c*n(n-1)/2 per degree")
def test_c04_euler_spectrum():
    cs = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 7), Fraction(-1, 2)]
    for n in (2, 3, 4):
        for c in cs:
            cfg = D.EngineConfig(n, c)
            for d in range(6):
                expected = C.lowest_weight((n,), c) + d
                assert expected == d - c * Fraction(n * (n - 1), 2)
                # euler_apply is s times the Euler operator, for c = r/s
                scaled = c.denominator * d - c.numerator * n * (n - 1) // 2
                assert scaled == c.denominator * expected
                for mon in D.monomials(n, d):
                    f = {mon: 1}
                    assert D.euler_apply(f, cfg) == D.combine((scaled, f))


@criterion(5, "joint kernel has dimension n-1 at c=1/n and 0 at c=1/(n+1)")
def test_c05_singular_vectors():
    for n in (2, 3, 4):
        at_special = D.singular_vectors(D.EngineConfig(n, Fraction(1, n)), 1)
        assert len(at_special) == n - 1
        off_special = D.singular_vectors(D.EngineConfig(n, Fraction(1, n + 1)), 1)
        assert len(off_special) == 0


@criterion(6, "stratum ideals are operator-stable at c=1/m; control at c=1/3 fails")
def test_c06_ideal_stability():
    # (4, 2, 1) glues every pair, so its ideal starts with the Vandermonde
    # product in degree 6; below that every slice is zero and nothing is checked
    for n, m, q, degree in [(2, 2, 1, 3), (3, 3, 1, 3), (4, 2, 1, 6), (4, 2, 2, 3)]:
        report = D.ideal_stability_check(n, m, q, degree)
        assert report.stable, (n, m, q, report.failures)
    control = D.ideal_stability_check(2, 2, 1, 1, c=Fraction(1, 3))
    assert not control.stable


@criterion(7, "strict dominance forces strictly smaller weight, n <= 12, c > 0")
def test_c07_dominance_monotonicity():
    for c in (Fraction(1, 2), Fraction(5, 7)):
        for n in range(2, 13):
            parts = P.enumerate_partitions(n)
            weights = {lam: C.lowest_weight(lam, c) for lam in parts}
            for alpha in parts:
                for beta in parts:
                    if alpha == beta:
                        continue
                    if P.dominates(alpha, beta):
                        assert weights[alpha] < weights[beta], (alpha, beta, c)


@criterion(8, "componentwise sum leads the induction product, |lambda|+|mu| <= 10")
def test_c08_lr_leading_term():
    c = Fraction(5, 7)
    for total in range(11):
        for a in range(total + 1):
            for lam in P.enumerate_partitions(a):
                for mu in P.enumerate_partitions(total - a):
                    product = C.lr_induce(lam, mu)
                    target = P.add(lam, mu)
                    assert product.get(target) == 1, (lam, mu)
                    w0 = C.lowest_weight(target, c)
                    for nu in product:
                        if nu != target:
                            assert C.lowest_weight(nu, c) > w0, (lam, mu, nu)


@criterion(9, "simple-module count equals m-regular count for p <= 5, m in 2..4")
def test_c09_hecke_simple_count():
    for p in (2, 3, 4, 5):
        for m in (2, 3, 4):
            report = Hk.count_simples(p, m)
            assert report.split_audit, (p, m)
            assert report.simples == P.count_m_regular(p, m), (p, m, report)
            assert sum(report.block_dims) == report.dim - report.rad_dim


@criterion(10, "stratum labels biject with pairs for n <= 20, m in 2..5")
def test_c10_label_bijection():
    for n in range(21):
        for m in (2, 3, 4, 5):
            strata: dict[int, set] = {}
            for lam in P.enumerate_partitions(n):
                q = P.support_level(lam, m, 1)[0]
                strata.setdefault(q, set()).add(lam)
            for q in range(n // m + 1):
                labels = []
                for mu in P.enumerate_partitions(q):
                    for nu in P.enumerate_m_regular(n - q * m, m):
                        labels.append(P.label_from_pair(mu, nu, m))
                assert len(labels) == len(set(labels)), (n, m, q)
                assert set(labels) == strata.get(q, set()), (n, m, q)
