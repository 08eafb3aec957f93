from fractions import Fraction
from math import comb

import pytest

from cherednik import dunkl as D
from cherednik import partitions as P
from cherednik.dunkl import EngineConfig, SparsePolynomial


def var(i, n):
    return SparsePolynomial.variable(i, n)


def total_degree(f):
    """Total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in f.terms), default=-1)


def span_equal(basis_a, basis_b, n, degree):
    """Compare spans of two lists of homogeneous polynomials exactly."""
    from cherednik import linalg

    cols = D.monomials(n, degree)
    index = {m: k for k, m in enumerate(cols)}

    def rows(basis):
        out = []
        for f in basis:
            row = [Fraction(0)] * len(cols)
            for exp, coeff in f.terms.items():
                row[index[exp]] = coeff
            out.append(row)
        return out

    def rank(matrix):
        return len(cols) - len(linalg.kernel_basis(matrix, len(cols)))

    ra, rb = rows(basis_a), rows(basis_b)
    if rank(ra) != rank(rb):
        return False
    return rank(ra + rb) == rank(ra)


class TestSparsePolynomial:
    def test_arithmetic(self):
        n = 3
        x, y, z = (var(i, n) for i in range(n))
        f = (x + y) * (x - y)
        assert f == x * x - y * y
        assert (f - f).is_zero()
        assert (2 * f).terms == {(2, 0, 0): Fraction(2), (0, 2, 0): Fraction(-2)}
        assert total_degree(f) == 2
        assert total_degree(SparsePolynomial.zero(n)) == -1
        assert x * SparsePolynomial.zero(n) == SparsePolynomial.zero(n)

    def test_monomial_enumeration(self):
        for n in (1, 2, 3, 4):
            for d in range(5):
                mons = D.monomials(n, d)
                assert len(mons) == comb(n + d - 1, d)
                assert len(set(mons)) == len(mons)
                assert mons == sorted(mons, reverse=True)

    def test_zero_coefficients_dropped(self):
        f = SparsePolynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert f.terms == {(0, 1): Fraction(2)}


class TestPermute:
    def test_examples(self):
        x1, x2 = var(0, 2), var(1, 2)
        assert D.permute((1, 0), x1) == x2
        assert D.permute((0, 1), x1 * x2) == x1 * x2
        assert D.permute((1, 0), x1 * x2) == x1 * x2

    def test_action_composition(self):
        n = 3
        f = var(0, n) * var(0, n) + 3 * var(1, n)
        perms = [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0)]
        for v in perms:
            for w in perms:
                vw = tuple(v[w[i]] for i in range(n))
                assert D.permute(vw, f) == D.permute(v, D.permute(w, f))


class TestDunklApply:
    def test_degree_zero_kernel(self):
        cfg = EngineConfig(2, Fraction(1, 2))
        assert D.dunkl_apply(0, SparsePolynomial.monomial((0, 0), 1), cfg).is_zero()

    def test_hand_evaluations(self):
        for c in (Fraction(1, 2), Fraction(5, 7), Fraction(-1, 3)):
            cfg = EngineConfig(2, c)
            assert D.dunkl_apply(0, var(0, 2), cfg) == SparsePolynomial.monomial((0, 0), 1 - c)
            assert D.dunkl_apply(0, var(1, 2), cfg) == SparsePolynomial.monomial((0, 0), c)

    def test_lowers_degree_and_is_linear(self):
        cfg = EngineConfig(3, Fraction(2, 5))
        f = var(0, 3) * var(0, 3) * var(1, 3)
        g = var(2, 3) * var(2, 3) * var(2, 3)
        for i in range(3):
            assert total_degree(D.dunkl_apply(i, f, cfg)) <= total_degree(f) - 1
            lhs = D.dunkl_apply(i, f + g, cfg)
            assert lhs == D.dunkl_apply(i, f, cfg) + D.dunkl_apply(i, g, cfg)

    def test_divided_difference_is_exact_division(self):
        # at n = 2 the reflection part is a single divided difference, so
        # multiplying back by (x_1 - x_2) must reproduce f - s(f)
        cfg = EngineConfig(2, Fraction(1))
        x1, x2 = var(0, 2), var(1, 2)
        swap = (1, 0)
        for d in range(6):
            for mon in D.monomials(2, d):
                f = SparsePolynomial.monomial(mon)
                derivative_part = D.dunkl_apply(0, f, EngineConfig(2, Fraction(0)))
                reflection = derivative_part - D.dunkl_apply(0, f, cfg)
                assert (x1 - x2) * reflection == f - D.permute(swap, f)


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
        # [D_1, X_1] applied to 1 equals (1 - c) times 1 at n = 2
        for c in (Fraction(1, 2), Fraction(3, 4)):
            cfg = EngineConfig(2, c)
            one = SparsePolynomial.monomial((0, 0), 1)
            x1 = var(0, 2)
            lhs = D.dunkl_apply(0, x1, cfg)
            assert lhs == SparsePolynomial.monomial((0, 0), 1 - c)
            swapped = D.permute((1, 0), one)
            assert lhs == one - c * swapped


class TestEuler:
    def test_examples(self):
        c = Fraction(2, 7)
        cfg = EngineConfig(2, c)
        one = SparsePolynomial.monomial((0, 0), 1)
        x1, x2 = var(0, 2), var(1, 2)
        assert D.euler_apply(one, cfg) == (-c) * one
        assert D.euler_apply(x1, cfg) == (1 - c) * x1
        assert D.euler_apply(x1 + x2, cfg) == (1 - c) * (x1 + x2)

    def test_homogeneous_spectrum(self):
        for n in (2, 3):
            for c in (Fraction(1, 2), Fraction(5, 7)):
                cfg = EngineConfig(n, c)
                for d in range(5):
                    expected = d - c * n * (n - 1) / 2
                    for mon in D.monomials(n, d):
                        f = SparsePolynomial.monomial(mon)
                        assert D.euler_apply(f, cfg) == expected * f

    def test_grading_commutators(self):
        # [eu, X_i] = X_i and [eu, D_i] = -D_i up to degree 4
        n, c = 3, Fraction(4, 9)
        cfg = EngineConfig(n, c)
        for d in range(5):
            for mon in D.monomials(n, d):
                f = SparsePolynomial.monomial(mon)
                for i in range(n):
                    xi_f = var(i, n) * f
                    lhs = D.euler_apply(xi_f, cfg) - var(i, n) * D.euler_apply(f, cfg)
                    assert lhs == xi_f
                    lhs = D.euler_apply(D.dunkl_apply(i, f, cfg), cfg) - D.dunkl_apply(
                        i, D.euler_apply(f, cfg), cfg
                    )
                    assert lhs == -1 * D.dunkl_apply(i, f, cfg)


class TestSingularVectors:
    def test_examples(self):
        basis = D.singular_vectors(EngineConfig(2, Fraction(1, 2)), 1)
        x1, x2 = var(0, 2), var(1, 2)
        assert span_equal(basis, [x1 - x2], 2, 1)
        assert D.singular_vectors(EngineConfig(2, Fraction(1, 3)), 1) == []
        basis = D.singular_vectors(EngineConfig(3, Fraction(1, 3)), 1)
        expected = [var(0, 3) - var(1, 3), var(1, 3) - var(2, 3)]
        assert span_equal(basis, expected, 3, 1)

    def test_dimensions_at_special_parameters(self):
        for n in (2, 3, 4):
            assert len(D.singular_vectors(EngineConfig(n, Fraction(1, n)), 1)) == n - 1
            assert len(D.singular_vectors(EngineConfig(n, Fraction(1, n + 1)), 1)) == 0

    def test_kernel_elements_are_killed(self):
        cfg = EngineConfig(3, Fraction(1, 3))
        for f in D.singular_vectors(cfg, 1):
            for i in range(3):
                assert D.dunkl_apply(i, f, cfg).is_zero()

    def test_support_corroboration(self):
        # the trivial label at n = 2 sits one stratum up at denominator 2,
        # matching the proper submodule found by the engine at c = 1/2
        assert P.support_level((2,), 2, 1) == 1
        assert len(D.singular_vectors(EngineConfig(2, Fraction(1, 2)), 1)) == 1
        assert P.support_level((1, 1), 2, 1) == 0


class TestStratumIdeal:
    def test_block_pattern_counts(self):
        assert len(D.block_patterns(4, 2, 1)) == 6
        assert len(D.block_patterns(4, 2, 2)) == 3
        assert len(D.block_patterns(6, 3, 1)) == 20
        assert len(D.block_patterns(6, 3, 2)) == 10

    def test_substitution(self):
        f = var(0, 4) - var(1, 4)
        glued = D.glue_substitution(f, ((0, 1),), 4)
        assert glued.is_zero()
        f = var(0, 4) - var(2, 4)
        glued = D.glue_substitution(f, ((0, 1),), 4)
        assert not glued.is_zero()

    def test_membership(self):
        x1, x2 = var(0, 2), var(1, 2)
        assert D.in_stratum_ideal(x1 - x2, 2, 2, 1)
        assert not D.in_stratum_ideal(x1 + x2, 2, 2, 1)
        assert D.in_stratum_ideal((x1 - x2) * (x1 + x2), 2, 2, 1)

    def test_graded_dims_for_one_glued_pair(self):
        # ideal of the single hyperplane x1 = x2: degree d slice has
        # codimension (number of monomials in the 1-variable image)
        for d in range(1, 4):
            basis = D.stratum_ideal_basis(2, 2, 1, d)
            assert len(basis) == len(D.monomials(2, d)) - 1

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

    @pytest.mark.parametrize("m", [0, 1])
    def test_m_below_two_is_refused(self, m):
        # m = 0 divided by zero; m = 1 gave zero ideal slices, a vacuous pass
        with pytest.raises(ValueError, match="m must be at least 2"):
            D.ideal_stability_check(4, m, 1, 1)


class TestSignTwist:
    def test_conjugate_relabelling_matches(self):
        assert P.support_level((2,), 2, 1) == P.support_level((1, 1), 2, -1) == 1


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(1, Fraction(1, 2))
        cfg = EngineConfig(2, "1/2")
        assert cfg.c == Fraction(1, 2)
