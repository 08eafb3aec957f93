import ast
import json
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import cli
from cherednik import dunkl as D
from cherednik import partitions as P
from cherednik.dunkl import EngineConfig


def var(i, n):
    return {tuple(int(k == i) for k in range(n)): 1}


def const(k, n=2):
    """k times the constant polynomial 1."""
    return {(0,) * n: k} if k else {}


def mul(f, g):
    """Product of two integer polynomials."""
    return D.combine(
        *((a * b, {tuple(map(sum, zip(e, h))): 1}) for e, a in f.items() for h, b in g.items())
    )


def total_degree(f):
    """Total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in f), default=-1)


def span_equal(basis_a, basis_b, n, degree):
    """Compare spans of two lists of homogeneous polynomials exactly."""
    from cherednik import linalg

    cols = D.monomials(n, degree)
    index = {m: k for k, m in enumerate(cols)}

    def rows(basis):
        return [{index[exp]: coeff for exp, coeff in f.items()} for f in basis]

    def rank(matrix):
        return len(cols) - len(linalg.kernel_basis(matrix, len(cols)))

    ra, rb = rows(basis_a), rows(basis_b)
    if rank(ra) != rank(rb):
        return False
    return rank(ra + rb) == rank(ra)


def fraction_dunkl_apply(i, terms, cfg):
    """D_i f on a {exponent: Fraction} polynomial: the Fraction engine that
    the integral s D_i replaced, kept as its differential oracle."""
    n, c = cfg.n, cfg.c
    out = {}
    for exp, coeff in terms.items():
        a = exp[i]
        if a:
            e2 = exp[:i] + (a - 1,) + exp[i + 1 :]
            new = out.get(e2, 0) + a * coeff
            if new:
                out[e2] = new
            else:
                out.pop(e2, None)
        for j in range(n):
            if j == i:
                continue
            b = exp[j]
            if a == b:
                continue
            base = -c * coeff if a > b else c * coeff
            tot = a + b - 1
            work = list(exp)
            for t in range(min(a, b), max(a, b)):
                work[i] = t
                work[j] = tot - t
                e2 = tuple(work)
                new = out.get(e2, 0) + base
                if new:
                    out[e2] = new
                else:
                    out.pop(e2, None)
    return out


def oracle_verify_relations(cfg, max_degree):
    """dunkl.verify_relations as it was, on exponent tuples and with a
    permutation per check: the differential oracle of the indexed sweep."""
    n, r, s = cfg.n, cfg.c.numerator, cfg.c.denominator
    checked = 0
    violations = []

    basis = [m for d in range(max_degree + 2) for m in D.monomials(n, d)]
    table = {(i, m): D.dunkl_apply(i, {m: 1}, cfg) for m in basis for i in range(n)}

    def dunkl_linear(i, f):
        return D.combine(*((coeff, table[(i, exp)]) for exp, coeff in f.items()))

    def commutator(i, j, mon):
        raised = mon[:j] + (mon[j] + 1,) + mon[j + 1 :]
        return D.combine((1, table[(i, raised)]), (-1, D.times_variable(j, table[(i, mon)])))

    def record(kind, mon, detail, lhs, rhs):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            violations.append(
                f"{kind} on x^{mon} {detail}, both sides times s={s}: {lhs!r} != {rhs!r}"
            )

    swaps = [D.transposition(i, j, n) for i in range(n) for j in range(i + 1, n)]
    adjacent = [D.transposition(k, k + 1, n) for k in range(n - 1)]

    for d in range(max_degree + 1):
        for mon in D.monomials(n, d):
            f = {mon: 1}
            perms = {w: D.permute(w, f) for w in swaps}
            for i in range(n):
                others = [
                    perms[D.transposition(min(i, k), max(i, k), n)] for k in range(n) if k != i
                ]
                rhs = D.combine((s, f), *((-r, g) for g in others))
                record("[D,X] diagonal", mon, f"i={i}", commutator(i, i, mon), rhs)
                for j in range(n):
                    if j != i:
                        rhs = D.combine((r, perms[D.transposition(min(i, j), max(i, j), n)]))
                        lhs = commutator(i, j, mon)
                        record("[D,X] off-diagonal", mon, f"i={i},j={j}", lhs, rhs)
            for i in range(n):
                for j in range(i + 1, n):
                    record(
                        "[D,D]",
                        mon,
                        f"i={i},j={j}",
                        dunkl_linear(i, table[(j, mon)]),
                        dunkl_linear(j, table[(i, mon)]),
                    )
                    record(
                        "[X,X]",
                        mon,
                        f"i={i},j={j}",
                        D.times_variable(i, D.times_variable(j, f)),
                        D.times_variable(j, D.times_variable(i, f)),
                    )
            for w in adjacent:
                wf = D.permute(w, f)
                for i in range(n):
                    record(
                        "conjugation",
                        mon,
                        f"w={w},i={i}",
                        D.permute(w, table[(i, mon)]),
                        dunkl_linear(w[i], wf),
                    )
    return checked, violations


def read_violation(text):
    """A violation as (head, lhs, rhs), with both sides read back as
    {exponent: coeff} dicts."""
    head, sides = text.split(": ", 1)
    lhs, rhs = sides.split(" != ")
    return head, ast.literal_eval(lhs), ast.literal_eval(rhs)


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def oracle_singular_vectors(cfg, d):
    """dunkl.singular_vectors with its rows in their built order."""
    from cherednik import linalg

    n = cfg.n
    cols = D.monomials(n, d)
    target_index = {m: k for k, m in enumerate(D.monomials(n, d - 1))}
    rows = [[0] * len(cols) for _ in range(n * len(target_index))]
    for k, mon in enumerate(cols):
        for i in range(n):
            for exp, coeff in D.dunkl_apply(i, {mon: 1}, cfg).items():
                rows[i * len(target_index) + target_index[exp]][k] = coeff
    return [
        ({cols[k]: v for k, v in vec.items()}, den)
        for vec, den in linalg.kernel_basis([sparse(row) for row in rows], len(cols))
    ]


@pytest.fixture
def apply_calls(monkeypatch):
    """Every (i, f) that dunkl.dunkl_apply is called on."""
    calls = []
    real = D.dunkl_apply

    def spy(i, f, cfg):
        calls.append((i, f))
        return real(i, f, cfg)

    monkeypatch.setattr(D, "dunkl_apply", spy)
    return calls


def oracle_glue_substitution(f, pattern, n):
    """The glue that rebuilt its block-to-variable map on every call, kept
    as the differential oracle of the stratum glue table."""
    q = len(pattern)
    blocked = {i for block in pattern for i in block}
    mapping = {}
    for k, block in enumerate(pattern):
        for i in block:
            mapping[i] = k
    free = [i for i in range(n) if i not in blocked]
    for rank, i in enumerate(free):
        mapping[i] = q + rank
    target_n = q + len(free)
    out = {}
    for exp, coeff in f.items():
        new = [0] * target_n
        for i, e in enumerate(exp):
            new[mapping[i]] += e
        key = tuple(new)
        out[key] = out.get(key, 0) + coeff
    return {exp: coeff for exp, coeff in out.items() if coeff}


def table_glue(f, n, m, q):
    """f glued through the stratum glue table of (n, m, q): one
    {glued exponent: coeff} dict per translate, each id read back as the
    (translate, glued exponent) pair it numbers."""
    glue = D._stratum_glue(n, m, q)
    # look every term up first, since a lookup can number new pairs
    rows = [(glue[exp], coeff) for exp, coeff in f.items()]
    names = {k: key for key, k in glue.ids.items()}
    # the ids number the pairs one-to-one, as 0, 1, 2, ...
    assert sorted(names) == list(range(len(glue.ids)))
    out = [{} for _ in D.block_patterns(n, m, q)]
    for row, coeff in rows:
        assert len(row) == len(out)
        for pid, k in enumerate(row):
            tid, exp = names[k]
            assert tid == pid
            out[pid][exp] = out[pid].get(exp, 0) + coeff
    return [{exp: coeff for exp, coeff in g.items() if coeff} for g in out]


def oracle_stratum_ideal_basis(n, m, q, d):
    """dunkl.stratum_ideal_basis as it was, on the oracle glue."""
    from cherednik import linalg

    cols = D.monomials(n, d)
    row_index = {}
    rows = []
    for pid, pattern in enumerate(D.block_patterns(n, m, q)):
        for k, mon in enumerate(cols):
            ((exp, _),) = oracle_glue_substitution({mon: 1}, pattern, n).items()
            if (pid, exp) not in row_index:
                row_index[(pid, exp)] = len(rows)
                rows.append([0] * len(cols))
            rows[row_index[(pid, exp)]][k] = 1
    return [
        {cols[k]: v for k, v in vec.items()}
        for vec, _ in linalg.kernel_basis([sparse(row) for row in rows], len(cols))
    ]


def oracle_in_stratum_ideal(f, n, m, q):
    """dunkl.in_stratum_ideal as it was, on the oracle glue."""
    return not any(oracle_glue_substitution(f, p, n) for p in D.block_patterns(n, m, q))


def generic(n, max_degree):
    """Every monomial of degree at most max_degree, with distinct positive
    coefficients: no glued term cancels, and a monomial glued to the wrong
    place changes some coefficient."""
    mons = [mon for d in range(max_degree + 1) for mon in D.monomials(n, d)]
    return {mon: k + 1 for k, mon in enumerate(mons)}


def strata(max_n):
    """Every (n, m, q) with 2 <= m and 1 <= q <= n // m, for n <= max_n."""
    return [
        (n, m, q)
        for n in range(2, max_n + 1)
        for m in range(2, n + 1)
        for q in range(1, n // m + 1)
    ]


@st.composite
def stratum_and_polynomial(draw, max_n=6):
    """(n, m, q, f) with f a sparse integer polynomial in n variables whose
    small coefficients and exponents make cancellations under gluing likely."""
    n, m, q = draw(st.sampled_from(strata(max_n)))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.integers(-2, 2).filter(bool)
    f = draw(st.dictionaries(exps, coeffs, max_size=8))
    return n, m, q, f


@st.composite
def config_and_polynomial(draw, max_n=4):
    """(cfg, f) with c a small rational, zero included, and f a sparse
    integer polynomial in n variables."""
    n = draw(st.integers(2, max_n))
    c = draw(st.fractions(-3, 3, max_denominator=7))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    f = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=6))
    return EngineConfig(n, c), f


@pytest.fixture
def unscaled_derivative(monkeypatch):
    """A fault in the engine: the derivative term loses its factor s."""
    real = D.dunkl_apply

    def faulty(i, f, cfg):
        derivative = real(i, f, EngineConfig(cfg.n, 0))
        return D.combine((1, real(i, f, cfg)), (1 - cfg.c.denominator, derivative))

    monkeypatch.setattr(D, "dunkl_apply", faulty)


@pytest.fixture
def first_without_reflections(monkeypatch):
    """A fault in the engine: s D_1 loses its reflection part."""
    real = D.dunkl_apply

    def faulty(i, f, cfg):
        if i:
            return real(i, f, cfg)
        return D.combine((cfg.c.denominator, real(0, f, EngineConfig(cfg.n, 0))))

    monkeypatch.setattr(D, "dunkl_apply", faulty)


class TestSparsePolynomial:
    # polynomials are sparse {exponent: int} dicts; x_i f and integer
    # linear combinations are the only arithmetic the engine needs
    def test_arithmetic(self):
        n = 3
        x, y = var(0, n), var(1, n)
        f = D.combine((1, D.times_variable(0, x)), (-1, D.times_variable(1, y)))
        assert f == {(2, 0, 0): 1, (0, 2, 0): -1}
        assert f == mul(D.combine((1, x), (1, y)), D.combine((1, x), (-1, y)))
        assert D.combine((1, f), (-1, f)) == {}
        assert D.combine((2, f)) == {(2, 0, 0): 2, (0, 2, 0): -2}
        assert D.times_variable(0, y) == D.times_variable(1, x) == {(1, 1, 0): 1}
        assert total_degree(f) == 2
        assert total_degree({}) == -1
        assert D.times_variable(2, {}) == {}

    def test_monomial_enumeration(self):
        for n in (1, 2, 3, 4):
            for d in range(5):
                mons = D.monomials(n, d)
                assert len(mons) == comb(n + d - 1, d)
                assert len(set(mons)) == len(mons)
                assert mons == sorted(mons, reverse=True)

    def test_zero_coefficients_dropped(self):
        f = D.combine((1, {(1, 0): 1, (0, 1): 2}), (-1, {(1, 0): 1}))
        assert f == {(0, 1): 2}
        # x1 - x2 at c = 1/2: the derivative and the divided difference cancel
        assert D.dunkl_apply(0, {(1, 0): 1, (0, 1): -1}, EngineConfig(2, Fraction(1, 2))) == {}


class TestPermute:
    def test_examples(self):
        x1, x2 = var(0, 2), var(1, 2)
        assert D.permute((1, 0), x1) == x2
        assert D.permute((0, 1), mul(x1, x2)) == mul(x1, x2)
        assert D.permute((1, 0), mul(x1, x2)) == mul(x1, x2)

    def test_action_composition(self):
        n = 3
        f = {(2, 0, 0): 1, (0, 1, 0): 3}
        perms = [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0)]
        # x_1 -> x_3, x_2 -> x_1
        assert D.permute((2, 0, 1), f) == {(0, 0, 2): 1, (1, 0, 0): 3}
        for v in perms:
            for w in perms:
                vw = tuple(v[w[i]] for i in range(n))
                assert D.permute(vw, f) == D.permute(v, D.permute(w, f))


class TestDunklApply:
    def test_degree_zero_kernel(self):
        cfg = EngineConfig(2, Fraction(1, 2))
        assert D.dunkl_apply(0, const(1), cfg) == {}

    def test_hand_evaluations(self):
        # s D_1 x_1 = s - r and s D_1 x_2 = r at n = 2, c = r/s
        for c in (Fraction(1, 2), Fraction(5, 7), Fraction(-1, 3)):
            cfg = EngineConfig(2, c)
            r, s = c.numerator, c.denominator
            assert D.dunkl_apply(0, var(0, 2), cfg) == const(s - r)
            assert D.dunkl_apply(0, var(1, 2), cfg) == const(r)

    def test_lowers_degree_and_is_linear(self):
        cfg = EngineConfig(3, Fraction(2, 5))
        f = {(2, 1, 0): 1}
        g = {(0, 0, 3): 1}
        for i in range(3):
            assert total_degree(D.dunkl_apply(i, f, cfg)) <= total_degree(f) - 1
            lhs = D.dunkl_apply(i, D.combine((1, f), (1, g)), cfg)
            assert lhs == D.combine((1, D.dunkl_apply(i, f, cfg)), (1, D.dunkl_apply(i, g, cfg)))

    def test_divided_difference_is_exact_division(self):
        # at n = 2 the reflection part is a single divided difference, so
        # multiplying back by (x_1 - x_2) must reproduce f - s(f)
        cfg = EngineConfig(2, Fraction(1))
        x1_minus_x2 = {(1, 0): 1, (0, 1): -1}
        swap = (1, 0)
        for d in range(6):
            for mon in D.monomials(2, d):
                f = {mon: 1}
                derivative_part = D.dunkl_apply(0, f, EngineConfig(2, Fraction(0)))
                reflection = D.combine((1, derivative_part), (-1, D.dunkl_apply(0, f, cfg)))
                assert mul(x1_minus_x2, reflection) == D.combine((1, f), (-1, D.permute(swap, f)))

    @pytest.mark.parametrize(
        "c", [Fraction(1, 2), Fraction(5, 7), Fraction(-1, 3), Fraction(0), Fraction(2)]
    )
    def test_scaled_operator_matches_fraction_oracle(self, c):
        for n in (2, 3, 4):
            cfg = EngineConfig(n, c)
            s = c.denominator
            for d in range(5):
                for mon in D.monomials(n, d):
                    for i in range(n):
                        image = D.dunkl_apply(i, {mon: 1}, cfg)
                        oracle = fraction_dunkl_apply(i, {mon: Fraction(1)}, cfg)
                        assert image == {e: s * x for e, x in oracle.items()}, (n, mon, i)
                        assert all(type(x) is int for x in image.values())

    @settings(max_examples=100, deadline=None)
    @given(config_and_polynomial())
    def test_commutation_on_random_polynomials(self, cfg_and_f):
        # [sD_i, sD_j] f = 0 and [sD_i, x_j] f = r s_ij f for j != i, c = r/s
        cfg, f = cfg_and_f
        n, r = cfg.n, cfg.c.numerator
        image = [D.dunkl_apply(i, f, cfg) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                ij = D.dunkl_apply(i, image[j], cfg)
                assert D.combine((1, ij), (-1, D.dunkl_apply(j, image[i], cfg))) == {}
                raised = D.dunkl_apply(i, D.times_variable(j, f), cfg)
                lhs = D.combine((1, raised), (-1, D.times_variable(j, image[i])))
                assert lhs == D.combine((r, D.permute(D.transposition(i, j, n), f)))

    def test_engine_builds_no_fraction(self, monkeypatch):
        cfg = EngineConfig(3, Fraction(1, 3))
        made = []
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
        assert D.verify_relations(cfg, 2).ok
        assert len(D.singular_vectors(cfg, 1)) == 2
        basis = D.stratum_ideal_basis(4, 2, 1, 3)
        assert all(D.in_stratum_ideal(f, 4, 2, 1) for f in basis)
        assert made == []
        # the spy sees a Fraction built while it is installed
        Fraction(1, 3)
        assert made == [(1, 3)]


class TestRelations:
    @pytest.mark.parametrize(
        "n,c",
        [(2, Fraction(1, 2)), (3, Fraction(5, 7)), (2, Fraction(-1, 2)), (3, Fraction(1, 3))],
    )
    def test_all_relations_hold(self, n, c):
        report = D.verify_relations(EngineConfig(n, c), 3)
        assert report.ok, report.violations[:3]
        assert report.checked > 0

    def test_diagonal_commutator_on_constants(self):
        # [sD_1, X_1] applied to 1 equals (s - r) times 1 at n = 2
        for c in (Fraction(1, 2), Fraction(3, 4)):
            cfg = EngineConfig(2, c)
            r, s = c.numerator, c.denominator
            one = const(1)
            lhs = D.dunkl_apply(0, var(0, 2), cfg)
            assert lhs == const(s - r)
            swapped = D.permute((1, 0), one)
            assert lhs == D.combine((s, one), (-r, swapped))

    def test_unscaled_derivative_is_reported(self, unscaled_derivative):
        report = D.verify_relations(EngineConfig(3, Fraction(1, 2)), 2)
        assert not report.ok
        assert report.checked == D.verify_relations(EngineConfig(3, Fraction(1)), 2).checked
        assert all("both sides times s=2" in v for v in report.violations)
        assert any(v.startswith("[D,X] diagonal") for v in report.violations)

    def test_unscaled_derivative_exits_1(self, unscaled_derivative, capsys):
        code = cli.main(["dunkl-check", "--n", "3", "--c", "1/2", "--degree", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["result"]["violations"]

    def test_each_monomial_image_is_expanded_once(self, apply_calls):
        n, degree = 4, 3
        report = D.verify_relations(EngineConfig(n, Fraction(-2, 3)), degree)
        assert report.ok
        assert len(apply_calls) == n * comb(n + degree + 1, degree + 1)
        assert all(len(f) == 1 for _, f in apply_calls)
        assert max(Counter((i, *f) for i, f in apply_calls).values()) == 1


C_GRID = [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(1), Fraction(0)]


class TestRelationsOracle:
    """The indexed sweep against the sweep on exponent tuples."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c", C_GRID)
    def test_matches_oracle(self, n, c):
        for degree in (1, 2, 3):
            cfg = EngineConfig(n, c)
            checked, violations = oracle_verify_relations(cfg, degree)
            report = D.verify_relations(cfg, degree)
            assert report.checked == checked == comb(n + degree, degree) * (3 * n * n - 2 * n)
            assert report.violations == violations == []

    # each fault against whether it changes the operator at c
    FAULTS = {
        "unscaled_derivative": lambda c: c.denominator > 1,
        "first_without_reflections": lambda c: c != 0,
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c", C_GRID)
    def test_faulty_engine_matches_oracle(self, request, fault, n, c):
        request.getfixturevalue(fault)
        for degree in (1, 2, 3):
            cfg = EngineConfig(n, c)
            checked, violations = oracle_verify_relations(cfg, degree)
            report = D.verify_relations(cfg, degree)
            assert report.checked == checked
            assert [read_violation(v) for v in report.violations] == [
                read_violation(v) for v in violations
            ]
            assert bool(violations) is self.FAULTS[fault](c)


class TestEuler:
    def test_examples(self):
        # s times the Euler operator, at c = r/s = 2/7 and n = 2
        cfg = EngineConfig(2, Fraction(2, 7))
        one = const(1)
        x1, x2 = var(0, 2), var(1, 2)
        assert D.euler_apply(one, cfg) == const(-2)
        assert D.euler_apply(x1, cfg) == D.combine((5, x1))
        assert D.euler_apply(D.combine((1, x1), (1, x2)), cfg) == D.combine((5, x1), (5, x2))

    def test_homogeneous_spectrum(self):
        for n in (2, 3):
            for c in (Fraction(1, 2), Fraction(5, 7)):
                cfg = EngineConfig(n, c)
                for d in range(5):
                    expected = c.denominator * d - c.numerator * n * (n - 1) // 2
                    for mon in D.monomials(n, d):
                        f = {mon: 1}
                        assert D.euler_apply(f, cfg) == D.combine((expected, f))

    def test_grading_commutators(self):
        # [s eu, X_i] = s X_i and [s eu, s D_i] = -s (s D_i) up to degree 4
        n, c = 3, Fraction(4, 9)
        cfg = EngineConfig(n, c)
        s = c.denominator
        for d in range(5):
            for mon in D.monomials(n, d):
                f = {mon: 1}
                for i in range(n):
                    xi_f = D.times_variable(i, f)
                    lhs = D.combine(
                        (1, D.euler_apply(xi_f, cfg)),
                        (-1, D.times_variable(i, D.euler_apply(f, cfg))),
                    )
                    assert lhs == D.combine((s, xi_f))
                    lhs = D.combine(
                        (1, D.euler_apply(D.dunkl_apply(i, f, cfg), cfg)),
                        (-1, D.dunkl_apply(i, D.euler_apply(f, cfg), cfg)),
                    )
                    assert lhs == D.combine((-s, D.dunkl_apply(i, f, cfg)))


class TestSingularVectors:
    def test_examples(self):
        basis = [f for f, _ in D.singular_vectors(EngineConfig(2, Fraction(1, 2)), 1)]
        x1, x2 = var(0, 2), var(1, 2)
        assert span_equal(basis, [D.combine((1, x1), (-1, x2))], 2, 1)
        assert D.singular_vectors(EngineConfig(2, Fraction(1, 3)), 1) == []
        basis = [f for f, _ in D.singular_vectors(EngineConfig(3, Fraction(1, 3)), 1)]
        expected = [
            D.combine((1, var(0, 3)), (-1, var(1, 3))),
            D.combine((1, var(1, 3)), (-1, var(2, 3))),
        ]
        assert span_equal(basis, expected, 3, 1)

    def test_dimensions_at_special_parameters(self):
        for n in (2, 3, 4):
            assert len(D.singular_vectors(EngineConfig(n, Fraction(1, n)), 1)) == n - 1
            assert len(D.singular_vectors(EngineConfig(n, Fraction(1, n + 1)), 1)) == 0

    def test_kernel_elements_are_killed(self):
        cfg = EngineConfig(3, Fraction(1, 3))
        for f, den in D.singular_vectors(cfg, 1):
            # f/den in the normal form of linalg.kernel_basis
            assert den > 0 and gcd(den, *f.values()) == 1
            for i in range(3):
                assert D.dunkl_apply(i, f, cfg) == {}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_kernel_of_rows_in_built_order(self, n):
        for c in C_GRID + [Fraction(1, n), Fraction(1, n + 1), Fraction(1, 4)]:
            cfg = EngineConfig(n, c)
            for d in range(1, 6 - n // 2):
                assert D.singular_vectors(cfg, d) == oracle_singular_vectors(cfg, d), (c, d)

    def test_support_corroboration(self):
        # the trivial label at n = 2 sits one stratum up at denominator 2,
        # matching the proper submodule found by the engine at c = 1/2
        assert P.support_level((2,), 2, 1)[0] == 1
        assert len(D.singular_vectors(EngineConfig(2, Fraction(1, 2)), 1)) == 1
        assert P.support_level((1, 1), 2, 1)[0] == 0


class TestStratumIdeal:
    def test_block_pattern_counts(self):
        assert len(D.block_patterns(4, 2, 1)) == 6
        assert len(D.block_patterns(4, 2, 2)) == 3
        assert len(D.block_patterns(6, 3, 1)) == 20
        assert len(D.block_patterns(6, 3, 2)) == 10

    def test_substitution(self):
        # the first translate of one glued pair in 4 variables glues x1 = x2
        assert D.block_patterns(4, 2, 1)[0] == ((0, 1),)
        f = D.combine((1, var(0, 4)), (-1, var(1, 4)))
        assert table_glue(f, 4, 2, 1)[0] == {}
        f = D.combine((1, var(0, 4)), (-1, var(2, 4)))
        assert table_glue(f, 4, 2, 1)[0] == {(1, 0, 0): 1, (0, 1, 0): -1}

    def test_membership(self):
        x1, x2 = var(0, 2), var(1, 2)
        diff, total = D.combine((1, x1), (-1, x2)), D.combine((1, x1), (1, x2))
        assert D.in_stratum_ideal(diff, 2, 2, 1)
        assert not D.in_stratum_ideal(total, 2, 2, 1)
        assert D.in_stratum_ideal(mul(diff, total), 2, 2, 1)

    def test_graded_dims_for_one_glued_pair(self):
        # ideal of the single hyperplane x1 = x2: degree d slice has
        # codimension (number of monomials in the 1-variable image)
        for d in range(1, 4):
            basis = D.stratum_ideal_basis(2, 2, 1, d)
            assert len(basis) == len(D.monomials(2, d)) - 1
            assert all(gcd(*f.values()) == 1 for f in basis)

    def test_stability_examples(self):
        assert D.ideal_stability_check(2, 2, 1, 3).stable
        assert D.ideal_stability_check(3, 3, 1, 2).stable
        report = D.ideal_stability_check(2, 2, 1, 1, c=Fraction(1, 3))
        assert not report.stable
        assert report.failures

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            D.ideal_stability_check(4, 2, 3, 2)

    @pytest.mark.parametrize("degree", [0, -3])
    def test_degree_below_one_is_refused(self, degree):
        with pytest.raises(ValueError, match="max_degree must be at least 1"):
            D.ideal_stability_check(4, 2, 1, degree)

    @pytest.mark.parametrize("n,m,q,degree", [(6, 2, 2, 3), (4, 2, 1, 5), (4, 2, 1, 1)])
    def test_all_zero_slices_are_refused(self, n, m, q, degree):
        # no generator means no operator image is checked: a vacuous pass
        match = f"no nonzero element of degree at most {degree}"
        with pytest.raises(ValueError, match=match):
            D.ideal_stability_check(n, m, q, degree)
        with pytest.raises(ValueError, match=match):
            D.ideal_stability_check(n, m, q, degree, c=Fraction(1, 3))

    def test_first_nonzero_slice_is_checked(self):
        report = D.ideal_stability_check(4, 2, 1, 6)
        assert report.graded_dims == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1}
        assert report.stable

    @pytest.mark.parametrize("c", [None, Fraction(1, 4)])
    def test_each_monomial_image_is_expanded_once(self, apply_calls, c):
        n, m, q, degree = 6, 3, 2, 3
        report = D.ideal_stability_check(n, m, q, degree, c)
        assert report.stable is (c is None)
        assert all(len(f) == 1 for _, f in apply_calls)
        assert max(Counter((i, *f) for i, f in apply_calls).values()) == 1
        bases = [D.stratum_ideal_basis(n, m, q, d) for d in range(1, degree + 1)]
        used = {mon for basis in bases for f in basis for mon in f}
        assert len(apply_calls) == n * len(used)

    @pytest.mark.parametrize("m", [0, 1])
    def test_m_below_two_is_refused(self, m):
        # m = 0 divided by zero; m = 1 gave zero ideal slices, a vacuous pass
        with pytest.raises(ValueError, match="m must be at least 2"):
            D.ideal_stability_check(4, m, 1, 1)


class TestGlue:
    """The glue table against the glue that rebuilt its map on every call."""

    @pytest.mark.parametrize("n,m,q", strata(6))
    def test_every_pattern_matches_oracle(self, n, m, q):
        f = generic(n, 3)
        patterns = D.block_patterns(n, m, q)
        for pattern, glued in zip(patterns, table_glue(f, n, m, q)):
            assert glued == oracle_glue_substitution(f, pattern, n)
        for mon in f:
            for pattern, glued in zip(patterns, table_glue({mon: -2}, n, m, q)):
                assert glued == oracle_glue_substitution({mon: -2}, pattern, n), (pattern, mon)

    def test_same_pattern_on_two_numbers_of_variables(self):
        # the free coordinates follow the blocks, so the glue depends on n as
        # well as on the pattern; a table keyed on the pattern alone is wrong
        pattern = ((0, 1),)
        for n in (4, 6, 4, 3, 6):
            assert D.block_patterns(n, 2, 1)[0] == pattern
            f = generic(n, 2)
            assert table_glue(f, n, 2, 1)[0] == oracle_glue_substitution(f, pattern, n)
        assert table_glue(var(5, 6), 6, 2, 1)[0] == {(0, 0, 0, 0, 1): 1}
        assert table_glue(var(3, 4), 4, 2, 1)[0] == {(0, 0, 1): 1}
        for n in (4, 6):
            f = D.combine((1, var(0, n)), (-1, var(n - 1, n)))
            assert D.in_stratum_ideal(f, n, 2, 1) is oracle_in_stratum_ideal(f, n, 2, 1) is False

    @settings(max_examples=200, deadline=None)
    @given(stratum_and_polynomial())
    def test_random_polynomials_match_oracle(self, case):
        n, m, q, f = case
        for pattern, glued in zip(D.block_patterns(n, m, q), table_glue(f, n, m, q)):
            assert glued == oracle_glue_substitution(f, pattern, n)
        assert D.in_stratum_ideal(f, n, m, q) == oracle_in_stratum_ideal(f, n, m, q)

    @settings(max_examples=50, deadline=None)
    @given(stratum_and_polynomial(max_n=5))
    def test_random_ideal_elements_are_members(self, case):
        # x_a - x_b vanishes on a translate whose first block holds a and b,
        # so the product over every translate lies in the ideal, times any g
        n, m, q, g = case
        pairs = {pattern[0][:2] for pattern in D.block_patterns(n, m, q)}
        f = {(0,) * n: 1}
        for a, b in sorted(pairs):
            f = mul(f, D.combine((1, var(a, n)), (-1, var(b, n))))
        f = mul(f, g)
        assert D.in_stratum_ideal(f, n, m, q) is oracle_in_stratum_ideal(f, n, m, q) is True

    @pytest.mark.parametrize("n,m,q", strata(6))
    def test_ideal_basis_matches_oracle(self, n, m, q):
        for d in range(1, 4 if n < 6 else 3):
            assert D.stratum_ideal_basis(n, m, q, d) == oracle_stratum_ideal_basis(n, m, q, d)

    @pytest.mark.parametrize("n,m,q,degree", [(4, 2, 2, 3), (3, 3, 1, 3), (6, 3, 2, 3)])
    def test_membership_of_operator_images_matches_oracle(self, n, m, q, degree):
        # off c = 1/m some images leave the ideal and some stay
        cfg = EngineConfig(n, Fraction(1, m + 1))
        seen = set()
        for d in range(1, degree + 1):
            for f in D.stratum_ideal_basis(n, m, q, d):
                for i in range(n):
                    img = D.dunkl_apply(i, f, cfg)
                    verdict = D.in_stratum_ideal(img, n, m, q)
                    assert verdict == oracle_in_stratum_ideal(img, n, m, q)
                    seen.add(verdict)
        assert seen == {True, False}

    def test_each_monomial_is_glued_once_per_translate(self, monkeypatch):
        # one table lookup miss glues a monomial under every translate
        calls = []
        real = D._StratumGlue.__missing__

        def spy(glue, exp):
            calls.append(exp)
            return real(glue, exp)

        monkeypatch.setattr(D._StratumGlue, "__missing__", spy)
        D._stratum_glue.cache_clear()
        n, m, q = 7, 3, 2
        f = generic(n, 2)
        assert not D.in_stratum_ideal(f, n, m, q)
        assert sorted(calls) == sorted(f)
        glue = D._stratum_glue(n, m, q)
        assert all(len(glue[mon]) == len(D.block_patterns(n, m, q)) for mon in f)
        # every monomial of degree 2 is a term of f, so nothing is glued again
        D.in_stratum_ideal(f, n, m, q)
        D.stratum_ideal_basis(n, m, q, 2)
        assert len(calls) == len(f)


class TestSignTwist:
    def test_conjugate_relabelling_matches(self):
        assert P.support_level((2,), 2, 1)[0] == P.support_level((1, 1), 2, -1)[0] == 1


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(1, Fraction(1, 2))
        cfg = EngineConfig(2, "1/2")
        assert cfg.c == Fraction(1, 2)
