import hashlib
import json
import random
import sys
import weakref
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, gcd, isqrt, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherednik import cli, linalg
from cherednik import hecke as Hk
from cherednik.errors import IdentityViolation
from cherednik.partitions import count_m_regular, count_partitions
import test_linalg
from test_linalg import assert_rrefs_agree, blowup_kernel, dense_view, sparse_field_rows


@cache
def shared_algebra(p, m):
    """One algebra per (p, m) for the tests that only read it.  A test
    that monkeypatches builds its own: a patch does not reach a
    cached_property that is already filled."""
    return Hk.HeckeAlgebra(p, m)


# permutation helpers, kept here as oracles for the reduced words that the
# algebra's tree of factorizations spells, and for the inverses and lengths
# that place the trace form


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_inverse(w):
    return tuple(sorted(range(len(w)), key=w.__getitem__))


def reduced_word(w):
    """Reduced word by bubble sorting descents: the product of the adjacent
    transpositions s_{word[0]} ... s_{word[-1]} equals w."""
    work = list(w)
    collected = []
    while True:
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                collected.append(i)
                break
        else:
            return tuple(reversed(collected))


def element(H, terms):
    """The term dict of {permutation: coefficient}, keyed by basis index."""
    return {H.perms.index(w): c for w, c in terms.items()}


def unit(H):
    return element(H, {tuple(range(H.p)): H.field.one})


def gen(H, i):
    return H.lmul_gen(i, unit(H))


def combine(H, *pairs):
    """The term dict of sum c * x over (scalar c, term dict x) pairs."""
    F = H.field
    out = {}
    for c, x in pairs:
        for w, a in x.items():
            out[w] = F.add(out.get(w, F.zero), F.mul(c, a))
    return {w: a for w, a in out.items() if not F.is_zero(a)}


def mul(H, a, b):
    """The general product a b: the sum over b's terms of b_w (a T_w), read
    off one right sweep of a."""
    F = H.field
    out = {}
    for w, t in H.sweep(a, H.rmul_gen):
        if w in b:
            for x, c in t.items():
                out[x] = F.add(out.get(x, F.zero), F.mul(c, b[w]))
    return {x: c for x, c in out.items() if not F.is_zero(c)}


def quadratic_relation(H, t):
    """(T - 1)(T + q) for the term dict T, as a general product."""
    F = H.field
    one = unit(H)
    return mul(
        H, combine(H, (F.one, t), (F.scale(F.one, -1), one)), combine(H, (F.one, t), (H.q, one))
    )


def left_sweep(H, b):
    """All products T_v b, swept up the weak order: T_v b = T_i (T_v' b)
    for v = s_i v' longer than v'."""
    out = {0: b}
    for v in sorted(range(H.dim), key=lambda v: perm_length(H.perms[v]))[1:]:
        i = reduced_word(H.perms[v])[0]
        out[v] = H.lmul_gen(i, out[H._left[i][v][0]])
    return out


def sweep_trace(H):
    """The regular trace theta(T_v) = sum_w (T_v T_w)_w, one left sweep of
    each basis element: the oracle for the trace form from the Casimir
    element."""
    F = H.field
    theta = [F.zero] * H.dim
    for w in range(H.dim):
        for v, y in left_sweep(H, {w: F.one}).items():
            if w in y:
                theta[v] = F.add(theta[v], y[w])
    return theta


def trace_form(H):
    """The regular trace form theta(T_v T_w) = q^l(v) M[v^-1][w] as dense
    rows, placed from the algebra's M[x][w] = (C T_w)_x by the permutation
    oracles."""
    F = H.field
    M = dense_view(F, H.gram, H.dim)
    return [
        [F.mul(F.zeta(perm_length(v)), x) for x in M[H.perms.index(perm_inverse(v))]]
        for v in H.perms
    ]


def radical_elements(H):
    """The RREF radical basis, each vector times the common denominator D, as
    integral term dicts."""
    F = H.field
    return [
        {w: c for w, c in enumerate(vec) if not F.is_zero(c)}
        for _, vec in dense_view(F, H._radical, H.dim)[1]
    ]


def rational_view(kernel):
    """A kernel over the field as (free column, [Fraction tuples]) pairs,
    the form the radical and the center had before they were integral."""
    den, pairs = kernel
    return [(f, [tuple(Fraction(x, den) for x in c) for c in vec]) for f, vec in pairs]


def fixture_key(key):
    """(p, m) of a digest key "p,m,r", r the power in q = zeta_m^r: every
    entry is at q = zeta_m."""
    p, m, r = map(int, key.split(","))
    assert r == 1, key
    return p, m


# sha256 of repr() of the dense trace form keyed "p,m,1", recorded from the
# gram that the regular trace by left sweeps gave before the Casimir element
# replaced it
GRAM_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "hecke_gram_digests.json").read_text()
)["digests"]

# sha256 of repr() of the rational view of the radical and the center,
# recorded from the Fraction-valued kernels
KERNEL_FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "hecke_kernel_digests.json").read_text()
)


# Q(zeta_m) for 2 <= m <= 12, and sympy's m-th cyclotomic polynomial, built
# once each
FIELDS = {m: Hk.CyclotomicField(m) for m in range(2, 13)}
X = sympy.symbols("x")
MODULI = {m: sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ") for m in FIELDS}


@st.composite
def field_elements(draw):
    """(field, a, b): two elements of Q(zeta_m), 2 <= m <= 12, with small
    rational coefficients."""
    field = FIELDS[draw(st.integers(2, 12))]
    coeff = st.fractions(-20, 20, max_denominator=6)
    element = st.lists(coeff, min_size=field.degree, max_size=field.degree).map(tuple)
    return field, draw(element), draw(element)


def sympy_element(a):
    """The coefficient tuple a over the power basis of zeta_m, as a sympy
    polynomial in x = zeta_m."""
    return sympy.Poly(
        [sympy.Rational(x.numerator, x.denominator) for x in reversed(a)], X, domain="QQ"
    )


def sympy_reduce(field, poly):
    """The coefficient tuple of the sympy polynomial poly in x = zeta_m,
    reduced modulo the m-th cyclotomic polynomial by sympy."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.rem(MODULI[field.m]).all_coeffs()]
    return tuple(coeffs[::-1] + [Fraction(0)] * (field.degree - len(coeffs)))


class TestCyclotomicField:
    @settings(max_examples=200, deadline=None)
    @given(field_elements())
    def test_arithmetic_matches_sympy_remainder(self, case):
        field, a, b = case
        pa, pb = sympy_element(a), sympy_element(b)
        assert field.mul(a, b) == sympy_reduce(field, pa * pb)
        assert field.add(a, b) == sympy_reduce(field, pa + pb)
        assert field.sub(a, b) == sympy_reduce(field, pa - pb)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(-40, 40), st.integers(-40, 40))
    def test_powers_of_zeta_multiply(self, m, j, k):
        field = FIELDS[m]
        assert field.mul(field.zeta(j), field.zeta(k)) == field.zeta(j + k)
        assert field.zeta(m) == field.one
        assert field.zeta(j) == sympy_reduce(field, sympy.Poly(X ** (j % m), X, domain="QQ"))

    def test_cyclotomic_polynomials_against_sympy(self):
        x = sympy.symbols("x")
        for m in range(1, 13):
            ours = Hk.cyclotomic_polynomial(m)
            ref = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
            assert list(ours) == [int(c) for c in reversed(ref)]

    def test_examples(self):
        f2 = Hk.CyclotomicField(2)
        assert f2.zeta() == (-1,)
        f3 = Hk.CyclotomicField(3)
        z = f3.zeta()
        assert f3.mul(z, z) == (-1, -1)
        f4 = Hk.CyclotomicField(4)
        z = f4.zeta()
        assert f4.mul(f4.add(f4.one, z), f4.sub(f4.one, z)) == (2, 0)

    def test_zeta_has_order_m(self):
        for m in (2, 3, 4, 5, 6, 8, 12):
            field = Hk.CyclotomicField(m)
            acc = field.one
            for k in range(1, m):
                acc = field.mul(acc, field.zeta())
                assert field.zeta(k) == acc
                assert acc != field.one
            assert field.mul(acc, field.zeta()) == field.one
            # zeta is a root of the m-th cyclotomic polynomial, by Horner
            # with mul and add alone
            value = field.zero
            for c in reversed(Hk.cyclotomic_polynomial(m)):
                value = field.add(field.mul(value, field.zeta()), field.scale(field.one, c))
            assert value == field.zero

    def test_inverses(self):
        rng = random.Random(7)
        for m in (2, 3, 4, 5, 6):
            field = Hk.CyclotomicField(m)
            for _ in range(10):
                a = tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(field.degree)
                )
                if field.is_zero(a):
                    continue
                assert field.mul(a, field.inv(a)) == field.one

    def test_inverse_of_zero(self):
        field = Hk.CyclotomicField(3)
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


class TestPermutations:
    def test_perms_are_in_lexicographic_order(self):
        # a basis index is the position of w in the lexicographic list
        for p in range(1, 7):
            H = Hk.HeckeAlgebra(p, 2)
            assert H.perms == sorted(H.perms)
            assert len(H.perms) == factorial(p)

    def test_reduced_words_recompose(self):
        # T_{word[0]} ... T_{word[-1]} applied to the unit is T_w exactly when
        # the word multiplies out to w without a length drop; w's path down
        # the algebra's tree of factorizations spells the oracle's word
        for p in (2, 3, 4, 5):
            H = Hk.HeckeAlgebra(p, 3)
            paths = dict(H.sweep((), lambda j, word: word + (j,)))
            assert len(paths) == H.dim
            for w, perm in enumerate(H.perms):
                word = paths[w]
                assert word == reduced_word(perm)
                assert len(word) == perm_length(perm)
                acc = unit(H)
                for i in reversed(word):
                    acc = H.lmul_gen(i, acc)
                assert acc == {w: H.field.one}

    @pytest.mark.parametrize("p,peak", [(4, 7), (5, 11), (6, 16)])
    def test_sweep_holds_few_translates(self, p, peak):
        # count what the real sweep holds: every product is a tracked dict,
        # and the consumer drops each translate as it goes.  The peak is
        # l(w_0) + 1, the start element included (all p! would be 24, 120
        # and 720; a sweep in order of length held 8, 24 and 103)
        H = Hk.HeckeAlgebra(p, 2)

        class Translate(dict):
            __hash__ = object.__hash__  # by identity, for the WeakSet

        held = weakref.WeakSet()
        most = 0
        gen_mul = H._gen_mul

        def tracked(act, elem):
            nonlocal most
            t = Translate(gen_mul(act, elem))
            held.add(t)
            most = max(most, len(held))
            return t

        H._gen_mul = tracked
        start = Translate({0: H.field.one})
        held.add(start)
        sweep = H.sweep(start, H.rmul_gen)
        del start
        seen = []
        for w, t in sweep:
            seen.append(w)
            del t
        assert sorted(seen) == list(range(H.dim))
        assert most <= peak

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_sweep_walks_the_factorization_tree(self, p):
        # every non-identity index is exactly one node's child, each edge
        # is a length-raising right step that extends the oracle's reduced
        # word of the parent, and the sweep yields every index once, with
        # its translate of the unit
        H = Hk.HeckeAlgebra(p, 3)
        children = []
        for parent, edges in enumerate(H._children):
            for child, j in edges:
                assert H._right[j][parent] == (child, True)
                assert reduced_word(H.perms[child]) == reduced_word(H.perms[parent]) + (j,)
                children.append(child)
        assert sorted(children) == list(range(1, H.dim))
        seen = []
        for w, t in H.sweep(unit(H), H.rmul_gen):
            assert t == {w: H.field.one}
            seen.append(w)
        assert sorted(seen) == list(range(H.dim))


class TestMultiplication:
    def test_quadratic_rearranged(self):
        # T_i * T_i = (1 - q) T_i + q T_e
        for m in (2, 3, 4):
            H = Hk.HeckeAlgebra(3, m)
            for i in range(2):
                t = gen(H, i)
                expected = combine(H, (H.one_minus_q, t), (H.q, unit(H)))
                assert mul(H, t, t) == expected
                assert H.lmul_gen(i, t) == H.rmul_gen(i, t) == expected

    def test_identity_is_neutral(self):
        H = Hk.HeckeAlgebra(3, 3)
        one = unit(H)
        for w in range(H.dim):
            b = {w: H.field.one}
            assert mul(H, one, b) == b
            assert mul(H, b, one) == b

    def test_braid_on_basis(self):
        H = Hk.HeckeAlgebra(3, 2)
        t1, t2 = gen(H, 0), gen(H, 1)
        lhs = mul(H, mul(H, t1, t2), t1)
        rhs = mul(H, t1, mul(H, t2, t1))
        assert lhs == rhs
        # both equal the basis element of the longest element
        assert lhs == element(H, {(2, 1, 0): H.field.one})

    def test_word_products_give_basis_elements(self):
        # multiplying generators along a reduced word lands on T_w
        for m in (2, 5):
            H = Hk.HeckeAlgebra(4, m)
            for w, perm in enumerate(H.perms):
                acc = unit(H)
                for i in reduced_word(perm):
                    acc = mul(H, acc, gen(H, i))
                assert acc == {w: H.field.one}

    def test_associativity_exhaustive_rank3(self):
        H = Hk.HeckeAlgebra(3, 3)
        basis = [{w: H.field.one} for w in range(H.dim)]
        for a in basis:
            for b in basis:
                ab = mul(H, a, b)
                for c in basis:
                    assert mul(H, ab, c) == mul(H, a, mul(H, b, c))

    @pytest.mark.parametrize("p,m", [(4, 2), (4, 3), (5, 3)])
    def test_associativity_sampled(self, p, m):
        H = shared_algebra(p, m)
        rng = random.Random(11)
        for _ in range(8):
            a, b, c = ({rng.randrange(H.dim): H.field.one} for _ in range(3))
            assert mul(H, mul(H, a, b), c) == mul(H, a, mul(H, b, c))


class TestPresentation:
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_presentation_families(self, p, m):
        # general products, independent of the word-by-word check_relations
        H = shared_algebra(p, m)
        gens = [gen(H, i) for i in range(p - 1)]
        for t in gens:
            assert quadratic_relation(H, t) == {}
        for a, b in zip(gens, gens[1:]):
            assert mul(H, mul(H, a, b), a) == mul(H, mul(H, b, a), b)
        for i, a in enumerate(gens):
            for b in gens[i + 2 :]:
                assert mul(H, a, b) == mul(H, b, a)
        Hk.check_relations(H)

    def test_p2_m2_quadratic_degenerates(self):
        # at q = -1 the quadratic relation reads (T - 1)^2 = 0
        H = Hk.HeckeAlgebra(2, 2)
        F = H.field
        x = combine(H, (F.one, gen(H, 0)), (F.scale(F.one, -1), unit(H)))
        assert mul(H, x, x) == {}


class TestRelationCheck:
    """Negative controls: one fault per relation family, each touching only
    table entries that the earlier families do not read, and one in the
    right action table, which only the right-hand words read."""

    def test_corrupted_one_minus_q_fails_the_quadratic_relation(self, monkeypatch):
        H = Hk.HeckeAlgebra(3, 2)
        monkeypatch.setattr(H, "one_minus_q", H.field.one)
        with pytest.raises(IdentityViolation, match="^quadratic relation fails at T_0$"):
            Hk.check_relations(H)

    def test_corrupted_action_fails_the_braid_relation(self):
        # T_0 fixes T_{s_1 s_0} instead of lengthening it
        H = Hk.HeckeAlgebra(3, 2)
        s1s0 = H._left[1][H._left[0][0][0]][0]
        H._left[0][s1s0] = (s1s0, True)
        with pytest.raises(IdentityViolation, match="^braid relation fails at T_0, T_1$"):
            Hk.check_relations(H)

    def test_corrupted_action_fails_the_commuting_relation(self):
        # T_0 fixes T_{s_2}, which no quadratic or braid word passes it
        H = Hk.HeckeAlgebra(4, 2)
        s2 = H._left[2][0][0]
        H._left[0][s2] = (s2, True)
        with pytest.raises(IdentityViolation, match="^T_0 and T_2 do not commute$"):
            Hk.check_relations(H)

    def test_corrupted_right_action_fails_the_quadratic_relation(self, monkeypatch, capsys):
        # T_e T_0 on the right keeps T_0 but takes the length-lowering branch;
        # unchecked, the fault reaches only the LLT cross-check ("LLT gives
        # 2 simples, the center 0")
        def corrupt(H):
            H._right[0][0] = (H._right[0][0][0], False)

        H = Hk.HeckeAlgebra(3, 2)
        corrupt(H)
        with pytest.raises(IdentityViolation, match="^quadratic relation fails at T_0$"):
            Hk.check_relations(H)
        real_init = Hk.HeckeAlgebra.__init__

        def corrupted(self, *args):
            real_init(self, *args)
            corrupt(self)

        monkeypatch.setattr(Hk.HeckeAlgebra, "__init__", corrupted)
        code = cli.main(["hecke-simples", "--p", "3", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["ok"] is False and "result" not in doc
        assert doc["error"]["kind"] == "identity violation"
        assert doc["error"]["message"] == "quadratic relation fails at T_0"
        assert captured.err == "identity violation: quadratic relation fails at T_0\n"


class TestRadical:
    def test_p2_m2(self):
        H = Hk.HeckeAlgebra(2, 2)
        F = H.field
        basis = radical_elements(H)
        assert len(basis) == 1
        v = basis[0]
        assert mul(H, v, v) == {}  # the radical line is nilpotent
        one, minus_one = F.one, F.scale(F.one, -1)
        assert v in (
            element(H, {(0, 1): one, (1, 0): minus_one}),
            element(H, {(0, 1): minus_one, (1, 0): one}),
        )
        # and it is exactly the line through T_1 - T_e
        line = combine(H, (one, gen(H, 0)), (minus_one, unit(H)))
        assert H.reduce(line) == {}

    def test_semisimple_cases_have_zero_radical(self):
        assert Hk.HeckeAlgebra(2, 3)._radical == (1, {})
        assert Hk.HeckeAlgebra(3, 4)._radical == (1, {})
        assert Hk.HeckeAlgebra(3, 5)._radical == (1, {})

    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_radical_is_a_two_sided_ideal(self, p, m):
        H = Hk.HeckeAlgebra(p, m)
        for r in radical_elements(H):
            for i in range(p - 1):
                assert H.reduce(H.lmul_gen(i, r)) == {}
                assert H.reduce(H.rmul_gen(i, r)) == {}

    def test_gram_is_symmetric(self):
        H = Hk.HeckeAlgebra(3, 3)
        G = trace_form(H)
        for i in range(H.dim):
            for j in range(H.dim):
                assert G[i][j] == G[j][i]

    @pytest.mark.parametrize("p,m", [(3, 3), (4, 2), (4, 5)])
    def test_gram_is_the_trace_of_each_product(self, p, m):
        # the trace form recomputed directly: G[v][w] = sum_x (T_v T_w)_x theta[x]
        H = Hk.HeckeAlgebra(p, m)
        F = H.field
        theta = sweep_trace(H)
        gram = trace_form(H)
        for v in range(H.dim):
            for w in range(H.dim):
                acc = F.zero
                for x, c in mul(H, {v: F.one}, {w: F.one}).items():
                    acc = F.add(acc, F.mul(c, theta[x]))
                assert gram[v][w] == acc

    def test_trace_of_identity(self):
        H = Hk.HeckeAlgebra(4, 3)
        (e,) = unit(H)
        assert sweep_trace(H)[e] == H.gram[e][e] == (24, 0)

    @pytest.mark.parametrize("p,m", [(3, 5), (4, 3), (4, 5), (5, 3), (5, 4)])
    def test_gram_row_e_is_the_swept_trace(self, p, m):
        # row e of M is row e of the trace form: (C T_w)_e = tau(C T_w) = theta(T_w)
        H = shared_algebra(p, m)
        theta = sweep_trace(H)
        gram = dense_view(H.field, H.gram, H.dim)
        (e,) = unit(H)
        assert gram[e] == theta

    @pytest.mark.parametrize("key", sorted(GRAM_DIGESTS))
    def test_gram_matches_recorded_digest(self, key):
        p, m = fixture_key(key)
        H = shared_algebra(p, m)
        digest = hashlib.sha256(repr(trace_form(H)).encode()).hexdigest()
        assert digest == GRAM_DIGESTS[key]


class TestCountSimples:
    def test_examples(self):
        assert Hk.count_simples(2, 2).simples == 1
        assert Hk.count_simples(2, 3).simples == 2
        assert Hk.count_simples(3, 2).simples == 2

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_m_regular_count(self, p, m):
        report = Hk.count_simples(p, m)
        assert report.ok
        assert report.simples == count_m_regular(p, m)
        assert report.split_audit
        assert sum(report.block_dims) == report.dim - report.rad_dim

    def test_generic_semisimplicity(self):
        # parameter not a small root of unity: group-algebra counts
        for p, m in [(2, 5), (3, 4), (3, 5), (3, 7)]:
            report = Hk.count_simples(p, m)
            assert report.rad_dim == 0
            assert report.simples == count_partitions(p) == count_m_regular(p, m)

    def test_block_dims_p3_m2(self):
        # quotient of dimension 5 must split as 4 + 1
        report = Hk.count_simples(3, 2)
        assert report.block_dims == [4, 1]


# (p, m) -> (rad_dim, simples, block_dims), recorded with the echelon-based
# radical and center that the RREF kernels replaced
REFERENCE = {
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
}


class TestReference:
    @pytest.mark.parametrize("p,m", sorted(REFERENCE))
    def test_count_simples(self, p, m):
        report = Hk.count_simples(p, m)
        assert (report.rad_dim, report.simples, report.block_dims) == REFERENCE[p, m]
        assert report.split_audit
        assert report.audit_note is None

    @pytest.mark.parametrize("p,m", sorted(REFERENCE))
    def test_algebra_dimensions(self, p, m):
        rad_dim, simples, _ = REFERENCE[p, m]
        H = shared_algebra(p, m)
        assert H.radical_dimension() == rad_dim
        assert H.center_dimension() == simples


class TestCasimir:
    @pytest.mark.parametrize("p,m", [(3, 2), (4, 3), (4, 5), (5, 4)])
    def test_commutes_with_every_generator(self, p, m):
        H = shared_algebra(p, m)
        C = H.casimir
        assert C
        for i in range(p - 1):
            assert H.lmul_gen(i, C) == H.rmul_gen(i, C)

    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_two_generator_products_per_edge(self, p):
        # C is summed down the tree of factorizations, T_j on each side per
        # edge: 2(p! - 1) generator products
        H = Hk.HeckeAlgebra(p, 2)
        calls = 0

        def counted(gen_mul):
            def wrapper(i, elem):
                nonlocal calls
                calls += 1
                return gen_mul(i, elem)

            return wrapper

        H.lmul_gen, H.rmul_gen = counted(H.lmul_gen), counted(H.rmul_gen)
        assert H.casimir
        assert calls == 2 * (factorial(p) - 1)

    def test_perm_inverse(self):
        # the oracle inverses, and the Casimir element built as it was from
        # them: each q^-l(w) T_w T_(w^-1) is the scaled T_(w^-1) times the
        # generators of w's word from the left, from its right end
        cases = [(p, m) for p in (2, 3, 4, 5) for m in (2, 3, 5, 7)] + [(6, 2)]
        for p, m in cases:
            H = Hk.HeckeAlgebra(p, m)
            F = H.field
            terms = []
            for perm in H.perms:
                v = perm_inverse(perm)
                identity = tuple(range(p))
                assert tuple(perm[v[i]] for i in range(p)) == tuple(v[perm[i]] for i in range(p)) == identity
                assert perm_length(v) == perm_length(perm)
                term = element(H, {v: F.zeta(-perm_length(perm))})
                for i in reversed(reduced_word(perm)):
                    term = H.lmul_gen(i, term)
                terms.append((F.one, term))
            assert H.casimir == combine(H, *terms)


class TestKernels:
    @pytest.mark.parametrize("p,m", [(3, 3), (4, 2), (4, 4)])
    def test_radical_basis_is_in_rref_over_the_field(self, p, m):
        H = Hk.HeckeAlgebra(p, m)
        F = H.field
        # sparse: each vector holds nonzero entries at the pivots only
        for vec in H._radical[1].values():
            assert set(vec) <= set(H.quotient_columns)
            assert not any(F.is_zero(x) for x in vec.values())
        D, radical = dense_view(F, H._radical, H.dim)
        free = [f for f, _ in radical]
        assert sorted(free + H.quotient_columns) == list(range(H.dim))
        # D is the least common denominator
        assert D > 0
        assert gcd(D, *(x for _, vec in radical for c in vec for x in c)) == 1
        for f, vec in radical:
            assert vec[f] == F.scale(F.one, D)
            assert all(F.is_zero(vec[g]) for g in free if g != f)
            assert all(F.is_zero(x) for x in vec[f + 1 :])
            for row in trace_form(H):
                acc = F.zero
                for a, x in zip(row, vec):
                    acc = F.add(acc, F.mul(a, x))
                assert F.is_zero(acc)

    def test_normal_form(self):
        # reduce gives D times the normal form
        H = Hk.HeckeAlgebra(4, 3)
        F = H.field
        D = H._radical[0]
        for c in H.quotient_columns:
            assert H.reduce({c: F.one}) == {c: F.scale(F.one, D)}
        # a free column f reduces to -D K_f, which lives on the pivots
        for f, vec in H._radical[1].items():
            assert H.reduce({f: F.one}) == {p: F.scale(x, -1) for p, x in vec.items()}
        for r in radical_elements(H):
            assert H.reduce(r) == {}

    @pytest.mark.parametrize(
        "flat", [[({1: 1}, 1)], [({1: 1}, 1), ({2: 1}, 1)]]
    )
    def test_fkernel_rejects_free_columns_that_split_a_block(self, monkeypatch, flat):
        # the blow-up oracle checks that the rational kernel is a field kernel
        field = Hk.CyclotomicField(3)
        monkeypatch.setattr(test_linalg, "fraction_free_kernel_basis", lambda rows, ncols: flat)
        with pytest.raises(ArithmeticError):
            blowup_kernel(field, [[field.zero, field.zero]], 2)


class TestKernelDigests:
    @pytest.mark.parametrize("key", sorted(KERNEL_FIXTURE["radical"]))
    def test_radical_and_center_match_recorded_digests(self, key):
        H = shared_algebra(*fixture_key(key))
        for name, kernel, ncols in (
            ("radical", H._radical, H.dim),
            ("center", H._center, len(H.quotient_columns)),
        ):
            dense = dense_view(H.field, kernel, ncols)
            digest = hashlib.sha256(repr(rational_view(dense)).encode()).hexdigest()
            assert digest == KERNEL_FIXTURE[name][key], name

    def test_center_basis_is_integral_over_its_denominator(self):
        # at (4, 4) the RREF center basis has halves
        H = Hk.HeckeAlgebra(4, 4)
        F = H.field
        DZ, center = dense_view(F, H._center, len(H.quotient_columns))
        assert DZ == 2
        assert len(center) == H.center_dimension() == 4
        assert gcd(DZ, *(x for _, vec in center for c in vec for x in c)) == 1
        for f, vec in center:
            assert vec[f] == F.scale(F.one, DZ)
            assert all(type(x) is int for c in vec for x in c)


def hook_dimension(lam):
    """f^lambda by the hook length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


@st.composite
def field_matrix(draw, planted):
    """(field, rows, ncols): a small integral matrix over Z[zeta_m], m <= 12.
    With `planted` it is square and one row is a Z[zeta]-combination of the
    others; without, it has 0 to 5 rows."""
    F = FIELDS[draw(st.integers(2, 12))]
    n = draw(st.integers(1, 4))
    entry = st.tuples(*[st.integers(-3, 3)] * F.degree)
    nrows = n if planted else draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=nrows, max_size=nrows))
    if planted:
        k = draw(st.integers(0, n - 1))
        others = rows[:k] + rows[k + 1 :]
        coeffs = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        combo = [F.zero] * n
        for c, row in zip(coeffs, others):
            combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, row)]
        rows[k] = combo
    return F, rows, n


class TestCertificate:
    """The kernel lifted from RREFs modulo split primes is the kernel of the
    rational blow-up; a full-rank image certifies it zero."""

    @pytest.mark.parametrize(
        "p,m", [(p, m) for p in (2, 3, 4) for m in range(2, 9)] + [(5, 2), (5, 3), (5, 4)]
    )
    def test_radical_equals_the_blowup_kernel(self, p, m):
        H = shared_algebra(p, m)
        # H is semisimple exactly when m > p, and the certificate fires there
        assert (H._radical == (1, {})) == (m > p)
        dense = dense_view(H.field, H._radical, H.dim)
        assert dense == blowup_kernel(H.field, dense_view(H.field, H.gram, H.dim), H.dim)

    @pytest.mark.parametrize("m", [6, 7])
    def test_rank_5_semisimple_blocks_are_squared_hook_dimensions(self, m):
        report = Hk.count_simples(5, m)
        partitions_of_5 = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1,) * 5]
        assert report.rad_dim == 0
        assert report.split_audit
        assert report.block_dims == sorted(
            (hook_dimension(lam) ** 2 for lam in partitions_of_5), reverse=True
        )

    @settings(max_examples=150, deadline=None)
    @given(field_matrix(planted=True))
    def test_planted_dependency_is_never_certified(self, case):
        F, rows, n = case
        kernel = F.kernel(sparse_field_rows(rows), n)
        assert dense_view(F, kernel, n) == blowup_kernel(F, rows, n)
        assert kernel[1]
        assert_rrefs_agree(F, rows, n)

    @settings(max_examples=150, deadline=None)
    @given(field_matrix(planted=False))
    @example((FIELDS[3], [], 3))
    @example((FIELDS[5], [], 0))
    @example((FIELDS[4], [[(0, 0), (0, 0)]], 2))
    @example((FIELDS[6], [[(1, 2), (0, 1)], [(0, 0), (0, 0)], [(2, 4), (0, 2)]], 2))
    def test_certified_matrix_has_an_empty_blowup_kernel(self, case):
        # the kernel equals the blow-up's, the certificate (1, []) included
        F, rows, n = case
        assert dense_view(F, F.kernel(sparse_field_rows(rows), n), n) == blowup_kernel(F, rows, n)
        assert_rrefs_agree(F, rows, n)

    def test_split_prime_has_a_root_of_exact_order_m(self):
        for m in range(2, 61):
            p, omega = linalg.split_prime(m)
            assert sympy.isprime(p) and p % m == 1 and 2**29 < p < 2**30
            assert pow(omega, m, p) == 1
            assert all(pow(omega, m // q, p) != 1 for q in sympy.primefactors(m))
            # the next split prime, for a lift that needs one
            nxt, _ = linalg.split_prime(m, p)
            assert sympy.isprime(nxt) and nxt % m == 1
            assert not any(sympy.isprime(k) for k in range(p + m, nxt, m))

    def test_singular_gram_takes_the_lifted_kernel(self, monkeypatch, capsys):
        # at (4, 5) the gram has full rank; with row 0 replaced by the sum of
        # rows 1 and 2 it has rank 23, so no image is full rank and the lift
        # finds the one kernel vector
        real_gram = vars(Hk.HeckeAlgebra)["gram"].func
        real_kernel = Hk.CyclotomicField.kernel
        kernel_widths = []

        def singular(self):
            F = self.field
            rows = real_gram(self)
            total = {c: F.add(rows[1].get(c, F.zero), rows[2].get(c, F.zero)) for c in rows[1] | rows[2]}
            rows[0] = {c: x for c, x in total.items() if not F.is_zero(x)}
            return rows

        def spy(self, fmatrix, ncols):
            kernel_widths.append(ncols)
            return real_kernel(self, fmatrix, ncols)

        gram = cached_property(singular)
        gram.__set_name__(Hk.HeckeAlgebra, "gram")
        monkeypatch.setattr(Hk.HeckeAlgebra, "gram", gram)
        monkeypatch.setattr(Hk.CyclotomicField, "kernel", spy)
        H = Hk.HeckeAlgebra(4, 5)
        assert len(H._radical[1]) == 1
        dense = dense_view(H.field, H._radical, H.dim)
        assert dense == blowup_kernel(H.field, dense_view(H.field, H.gram, H.dim), H.dim)
        kernel_widths.clear()
        code = cli.main(["hecke-simples", "--p", "4", "--m", "5"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert kernel_widths[0] == 24
        assert code == 1
        assert result["rad_dim"] == 1
        assert result["audit_note"] == "LLT gives 5 simples, the center 4"

    def test_omega_off_the_cyclotomic_polynomial_is_an_internal_error(self, monkeypatch, capsys):
        p, omega = linalg.split_prime(5)
        bad = omega + 1
        assert sum(c * pow(bad, k, p) for k, c in enumerate(Hk.cyclotomic_polynomial(5))) % p
        monkeypatch.setattr(linalg, "split_prime", lambda m: (p, bad))
        with pytest.raises(ArithmeticError):
            Hk.HeckeAlgebra(4, 5)._radical
        code = cli.main(["hecke-simples", "--p", "4", "--m", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: ArithmeticError(")


def field_height(F):
    """The largest coefficient of a power of zeta in the power basis."""
    return max(max(map(abs, z)) for z in F._powers)


def gram_lengths(H):
    """The lengths the field's kernel passes the lift for the gram: the
    degree entries of a blow-up row at column c are at most |G_rc|_1 times
    the height, so (isqrt(degree sum_c |G_rc|_1^2) + 1) height per row."""
    d, height = H.field.degree, field_height(H.field)
    return [(isqrt(d * sum(sum(map(abs, x)) ** 2 for x in row.values())) + 1) * height for row in H.gram]


# the images(l, w) each count_simples(p, m) lifts, over the gram and the
# center of the quotient
COUNT_IMAGES = {
    (4, 3): 4, (4, 4): 4, (4, 5): 5, (4, 6): 3,
    (5, 2): 2, (5, 3): 4, (5, 4): 4, (5, 5): 8, (5, 6): 3,
}


class TestLift:
    """Faults injected into the modular lift: each must end in the true
    kernel, from another prime, or in an ArithmeticError."""

    @pytest.mark.parametrize("p,m", sorted(COUNT_IMAGES))
    def test_images_per_count(self, monkeypatch, p, m):
        # a looser certificate would take more primes, and so more images
        real = Hk.lift_kernel
        seen = []

        def counted(m, images, *rest):
            return real(m, lambda l, w: seen.append(l) or images(l, w), *rest)

        monkeypatch.setattr(Hk, "lift_kernel", counted)
        assert Hk.count_simples(p, m).ok
        assert len(seen) == COUNT_IMAGES[p, m]

    @pytest.mark.parametrize("p,m", [(4, 3), (5, 3)])
    def test_cap_below_the_one_norm_cap(self, p, m):
        # the cap from 1-norms: a blow-up row of row r has length at most
        # degree height |G_r|_1, and the certificate took 2 max_r |G_r|_1
        # height times degree H for the lucky primes
        H = shared_algebra(p, m)
        d, height = H.field.degree, field_height(H.field)
        norms = sorted((sum(sum(map(abs, x)) for x in row.values()) for row in H.gram), reverse=True)
        hbits = d * sum((d * height * n).bit_length() for n in norms[: H.dim])
        one_norm = 1 << (hbits + max(2 * hbits + 1, (2 * norms[0] * height * d).bit_length() + hbits))
        assert linalg.prime_cap(d, gram_lengths(H), H.dim) < one_norm

    @pytest.mark.parametrize("p,m", [(4, 3), (5, 3), (4, 4)])
    def test_pivot_dropped_at_one_root_takes_the_next_prime(self, monkeypatch, p, m):
        real = linalg._rref_mod
        primes = []

        def dropped(rows, l):
            out = real(rows, l)
            primes.append(l)
            if len(primes) == 2:
                # the second root of the first prime
                del out[max(out)]
            return out

        monkeypatch.setattr(linalg, "_rref_mod", dropped)
        H = Hk.HeckeAlgebra(p, m)
        assert H._radical == shared_algebra(p, m)._radical
        assert primes[0] == primes[1] < primes[2]

    def test_pivot_dropped_at_every_prime_is_an_error(self, monkeypatch):
        real = linalg._rref_mod
        primes = []

        def dropped(rows, l):
            out = real(rows, l)
            primes.append(l)
            if primes.count(l) == 2:
                del out[max(out)]
            return out

        monkeypatch.setattr(linalg, "_rref_mod", dropped)
        H = Hk.HeckeAlgebra(4, 3)
        with pytest.raises(ArithmeticError, match="no checked kernel") as excinfo:
            H._radical
        tried = sorted(set(primes))
        assert len(tried) == len(primes) // 2
        assert str(excinfo.value) == f"no checked kernel from {len(tried)} split primes"
        # the lift gives up at the first prime whose product passes the cap
        cap = linalg.prime_cap(H.field.degree, gram_lengths(H), H.dim)
        assert prod(tried[:-1]) <= cap < prod(tried)

    def test_unlucky_prime_with_agreeing_pivots_fails_the_bound(self, monkeypatch):
        # 7 divides the first entry, so both roots of Phi_3 mod 7 see the
        # pivot at column 1 and the kernel vector e_0, which reconstructs;
        # only the certificate, 2 * 11 * 1 > 7 (twice the row length 11 times
        # |e_0|_2), sends the lift on to primes that see the pivot at column 0
        real_prime = linalg.split_prime
        monkeypatch.setattr(linalg, "split_prime", lambda m, after=6: real_prime(m, after))
        F, rows = FIELDS[3], [[(7, 0), (1, 0)]]
        kernel = dense_view(F, F.kernel(sparse_field_rows(rows), 2), 2)
        assert kernel == blowup_kernel(F, rows, 2) == (7, [(1, [(-1, 0), (7, 0)])])

    @pytest.mark.parametrize("p,m", [(4, 3), (5, 3)])
    def test_tiny_first_prime_fails_and_combines_primes(self, monkeypatch, p, m):
        # 7 is the least prime = 1 (mod 3): no one prime near it reconstructs
        # these kernels, so residues of several primes are combined by CRT
        real_prime, real_rational = linalg.split_prime, linalg._rational
        moduli = set()
        monkeypatch.setattr(linalg, "split_prime", lambda m, after=6: real_prime(m, after))
        monkeypatch.setattr(linalg, "_rational", lambda u, L: moduli.add(L) or real_rational(u, L))
        H = Hk.HeckeAlgebra(p, m)
        truth = shared_algebra(p, m)
        assert (H._radical, H._center) == (truth._radical, truth._center)
        assert min(moduli) == 7
        assert any(not sympy.isprime(L) for L in moduli)


class TestDenominators:
    """Negative controls for the integer bookkeeping: a wrong radical must
    fail the verdict, not pass it."""

    def test_dropped_radical_vector_fails_the_sum_of_squares(self, monkeypatch, capsys):
        # at (3, 2) each kernel over dim H = 6 columns loses its last
        # vector: the radical line, and then one of the 3 center vectors the
        # quotient of dimension 6 has without it.  The center count stays 2,
        # but the quotient grows to 6 while the LLT blocks sum to 5
        real = Hk.CyclotomicField.kernel

        def dropped(self, fmatrix, ncols):
            den, vectors = real(self, fmatrix, ncols)
            return (den, dict(list(vectors.items())[:-1])) if ncols == 6 else (den, vectors)

        monkeypatch.setattr(Hk.CyclotomicField, "kernel", dropped)
        code = cli.main(["hecke-simples", "--p", "3", "--m", "2"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 1
        assert (result["rad_dim"], result["simples"]) == (0, 2)
        assert not result["ok"]
        assert not result["split_audit"]
        assert result["upper_bound_only"]
        assert result["block_dims"] is None
        assert result["audit_note"] == "LLT blocks [4, 1] do not sum to the quotient dimension 6"

    @pytest.mark.parametrize("p,m", [(3, 2), (4, 3), (4, 4)])
    def test_results_do_not_depend_on_the_denominators(self, monkeypatch, p, m):
        # D = 1 at every reference row, so store the radical over 3 and the
        # center over 5 times their least denominators: each vector is the
        # same kernel vector, and every count must come out the same
        real = Hk.CyclotomicField.kernel
        factors = iter((3, 5))

        def scaled(self, fmatrix, ncols):
            k = next(factors)
            den, vectors = real(self, fmatrix, ncols)
            return k * den, {
                f: {p: self.scale(c, k) for p, c in vec.items()} for f, vec in vectors.items()
            }

        monkeypatch.setattr(Hk.CyclotomicField, "kernel", scaled)
        report = Hk.count_simples(p, m)
        assert (report.rad_dim, report.simples, report.block_dims) == REFERENCE[p, m]
        assert report.split_audit

    def test_hecke_builds_no_fraction(self, monkeypatch):
        # the regular path, the certificate at (4, 5) and the LLT oracle are
        # integral throughout
        builders = set()
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            builders.add(sys._getframe(1).f_code.co_filename)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
        for p, m in [(4, 3), (4, 5)]:
            assert Hk.count_simples(p, m).split_audit
        assert builders == set()


class TestCrossCheck:
    """The block dimensions come from the LLT canonical basis; the radical
    and the center must agree with them."""

    @pytest.mark.parametrize(
        "dims,note",
        [
            ({(4,): 1, (3, 1): 3, (2, 2): 1}, "LLT gives 3 simples, the center 4"),
            (
                {(4,): 1, (3, 1): 3, (2, 2): -1, (2, 1, 1): 3},
                "LLT dimensions [3, 3, 1, -1] are not all positive",
            ),
            (
                {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3},
                "LLT blocks [9, 9, 4, 1] do not sum to the quotient dimension 20",
            ),
        ],
        ids=["count", "positive", "sum"],
    )
    def test_wrong_oracle_dimension_exits_1(self, monkeypatch, capsys, dims, note):
        # the oracle gives {(4,): 1, (3, 1): 3, (2, 2): 1, (2, 1, 1): 3} at
        # (4, 3); each case changes one thing
        monkeypatch.setattr(Hk, "simple_dimensions", lambda p, e: dims)
        code = cli.main(["hecke-simples", "--p", "4", "--m", "3"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 1
        assert result["split_audit"] is False
        assert result["upper_bound_only"] is True
        assert result["block_dims"] is None
        assert result["audit_note"] == note
