import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cherednik import polyfactor as pf

X = sympy.symbols("x")

FIXTURE = Path(__file__).parent / "fixtures" / "hecke_minpolys.json"


def to_sympy(f):
    return sympy.Poly(list(reversed(f)), X, domain="ZZ")


def from_sympy(poly):
    return [int(c) for c in reversed(poly.all_coeffs())]


def canonical(factors):
    out = []
    for g in factors:
        g = tuple(g)
        out.append(g if g[-1] > 0 else tuple(-c for c in g))
    return sorted(out, key=lambda g: (len(g), g))


def sympy_factors(f):
    """The oracle: sympy's irreducible factors of f over Z."""
    _, factors = to_sympy(f).factor_list()
    assert all(mult == 1 for _, mult in factors)
    return canonical(from_sympy(g) for g, _ in factors)


def product(factors):
    out = [1]
    for g in factors:
        out = pf.mul(out, list(g))
    return out


def primitive(f):
    return from_sympy(to_sympy(f).primitive()[1])


def cyclotomic(n):
    return from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, X), X))


# the Swinnerton-Dyer polynomial of sqrt 2, sqrt 3, sqrt 5: irreducible of
# degree 8, with factors of degree at most 2 modulo every prime
SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


class TestFactorSquarefree:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_cyclotomic_polynomials_are_irreducible(self, n):
        f = cyclotomic(n)
        assert pf.factor_squarefree(f) == [tuple(f)]

    def test_products_of_two_cyclotomic_polynomials(self):
        pairs = list(combinations(range(1, 19), 2))
        pairs += random.Random(5).sample(list(combinations(range(19, 61), 2)), 20)
        for a, b in pairs:
            fa, fb = cyclotomic(a), cyclotomic(b)
            assert pf.factor_squarefree(product([fa, fb])) == canonical([fa, fb]), (a, b)

    def test_swinnerton_dyer_needs_recombination(self, monkeypatch):
        seen = []
        real = pf._recombine

        def spy(f, lifts, modulus):
            seen.append(len(lifts))
            return real(f, lifts, modulus)

        monkeypatch.setattr(pf, "_recombine", spy)
        assert pf.factor_squarefree(SWINNERTON_DYER) == [tuple(SWINNERTON_DYER)]
        assert seen and seen[0] >= 4

    def test_two_swinnerton_dyer_factors(self):
        shifted = from_sympy(to_sympy(SWINNERTON_DYER).compose(sympy.Poly(X + 1, X)))
        f = product([SWINNERTON_DYER, shifted])
        assert pf.factor_squarefree(f) == canonical([SWINNERTON_DYER, shifted])

    def test_non_monic_inputs_with_large_coefficients(self):
        rng = random.Random(2)
        for _ in range(25):
            factors = [
                [rng.getrandbits(120) - 2**119 for _ in range(rng.randint(2, 6))]
                for _ in range(rng.randint(2, 3))
            ]
            f = primitive(product(factors))
            assert max(abs(c) for c in f).bit_length() >= 100
            assert f[-1] != 1
            assert pf.factor_squarefree(f) == sympy_factors(f)

    def test_recorded_hecke_minimal_polynomials(self):
        recorded = json.loads(FIXTURE.read_text())
        polys = [f for path in recorded.values() for fs in path.values() for f in fs]
        assert max(len(f) - 1 for f in polys) >= 20
        for f in polys:
            assert pf.factor_squarefree(f) == sympy_factors(f), f

    def test_linear_and_divisible_by_x(self):
        assert pf.factor_squarefree([3, 2]) == [(3, 2)]
        assert pf.factor_squarefree([0, -2, 0, 1]) == [(0, 1), (-2, 0, 1)]

    def test_negative_leading_coefficient(self):
        f = [1, 0, -4]  # (1 - 2x)(1 + 2x)
        assert pf.factor_squarefree(f) == [(-1, 2), (1, 2)]
        assert product(pf.factor_squarefree(f)) == [-c for c in f]

    @pytest.mark.parametrize(
        "f", [[5], [2, 4], [1, 2, 1], [0, 0, 1]], ids=["constant", "content", "square", "x^2"]
    )
    def test_rejects_bad_input(self, f):
        with pytest.raises(ValueError):
            pf.factor_squarefree(f)

    def test_leaves_the_global_random_state_alone(self):
        state = random.getstate()
        pf.factor_squarefree(product([cyclotomic(5), cyclotomic(7), [1, 1, 3]]))
        assert random.getstate() == state


polys = st.lists(st.integers(-20, 20), min_size=2, max_size=5).filter(lambda f: f[-1] != 0)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(polys, min_size=1, max_size=4))
    def test_factors_of_random_products(self, factors):
        f = primitive(product(factors))
        assume(len(f) > 1 and pf.poly_gcd(f, pf.derivative(f)) == [1])
        out = pf.factor_squarefree(f)
        assert product(out) in (f, [-c for c in f])
        assert out == canonical(out)
        for g in out:
            assert to_sympy(list(g)).is_irreducible

    @settings(max_examples=40, deadline=None)
    @given(polys, st.lists(polys, max_size=2))
    def test_repeated_factor_is_rejected(self, g, others):
        f = primitive(product([g, g] + others))
        with pytest.raises(ValueError):
            pf.factor_squarefree(f)


class TestGcd:
    def test_poly_gcd_against_sympy(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = (
                [rng.randint(-9, 9) for _ in range(rng.randint(1, k))] for k in (6, 6, 4)
            )
            fa, fb = pf.mul(a, c), pf.mul(b, c)
            if not fa and not fb:
                continue
            ref = to_sympy(fa or [0]).gcd(to_sympy(fb or [0])).primitive()[1]
            expected = from_sympy(ref)
            if expected[-1] < 0:
                expected = [-x for x in expected]
            assert pf.poly_gcd(fa, fb) == expected

    def test_gcdex_is_a_bezout_identity(self):
        rng = random.Random(4)
        for _ in range(100):
            a, b, c = (
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, k))]
                for k in (7, 7, 3)
            )
            if not a[-1] or not b[-1] or not c[-1]:
                continue
            fa, fb = pf.mul(a, c), pf.mul(b, c)
            s, t, h = pf.gcdex(fa, fb)
            assert pf._qsub(pf.mul(s, fa), [-x for x in pf.mul(t, fb)]) == h
            ref = sympy.Poly(list(reversed(fa)), X, domain="QQ").gcd(
                sympy.Poly(list(reversed(fb)), X, domain="QQ")
            )
            assert h == [Fraction(int(x.p), int(x.q)) for x in reversed(ref.monic().all_coeffs())]
            assert len(s) - 1 < (len(fb) - 1) - (len(h) - 1)
            assert len(t) - 1 < (len(fa) - 1) - (len(h) - 1)

    def test_gcdex_of_zero(self):
        with pytest.raises(ValueError):
            pf.gcdex([0], [])
        s, t, h = pf.gcdex([0, 2], [])
        assert (s, t, h) == ([Fraction(1, 2)], [], [0, 1])
