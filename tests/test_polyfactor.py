"""Factorisation of the integer polynomials the package builds.

`CyclotomicField(m)` works modulo `hecke.cyclotomic_polynomial(m)` and is a
field only if that modulus is irreducible over Q. sympy is the oracle here:
it factors each modulus, which must come back as one factor of multiplicity
one, equal to sympy's own Phi_n.
"""

import pytest
import sympy

from cherednik import hecke as Hk

X = sympy.symbols("x")


def to_sympy(f):
    return sympy.Poly(list(reversed(f)), X, domain="ZZ")


class TestFactorSquarefree:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_cyclotomic_polynomials_are_irreducible(self, n):
        f = to_sympy(Hk.cyclotomic_polynomial(n))
        assert f == sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="ZZ")
        content, factors = f.factor_list()
        assert content == 1
        assert factors == [(f, 1)]
