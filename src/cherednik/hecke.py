"""Iwahori-Hecke algebra of the symmetric group at an exact root of unity.

The deformation parameter is the cyclotomic algebraic number zeta_m, never a
float: coefficients live in Q(zeta_m) represented as coefficient tuples
reduced modulo the m-th cyclotomic polynomial.

Every elimination is one call of :meth:`CyclotomicField.kernel`, which hands
the images of its matrix under zeta -> omega^e to the modular lift of
:func:`cherednik.linalg.lift_kernel`, the package's one exact elimination; a
full-rank image proves a kernel zero, so for m > p, where H is semisimple,
the radical costs one reduction of the gram mod l.  The Jacobson radical J
is the kernel of the regular trace form theta(h) = tau(h C) (valid in
characteristic zero), C the central Casimir element; tau is nondegenerate,
so J = {h : C h = 0}, the kernel K of the columns C T_w, read off one right
sweep of C.  The normal form of x modulo J is x - sum_f x_f K_f over the free
columns f, and the quotient H/J has coordinates on the remaining pivot
columns P.  Simple modules are counted through the center of H/J, the kernel
in P-coordinates of the commutators with the generators.  The block
dimensions (dim D^mu)^2 come from the LLT canonical basis
(:func:`cherednik.fock.simple_dimensions`), a path with no linear algebra,
and are cross-checked against the radical and the center: as many blocks as
the center has dimensions, summing to dim H - dim J.

Every number on this path is an integer, and every row and vector is sparse,
{column: nonzero element}.  A basis element T_w is named by one int, the
position of w in the lexicographic list of permutations (the identity at 0),
which is both the key of a term dict and a row and column of the gram.  The
gram and the structure constants of H are integral, and each kernel is kept
as integer vectors over one denominator, D for the radical, so `reduce`
returns D times the normal form.

The verdict of :func:`count_simples` begins with :func:`check_relations`:
the quadratic, braid and commuting relations of the generators, checked as
exact identities of term dicts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations as _itperms
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import IdentityViolation, UsageError
from .fock import simple_dimensions
from .linalg import IntRow, cyclotomic_polynomial, lift_kernel
from .partitions import count_m_regular

CycElement = tuple  # coefficients of 1, zeta, ..., zeta^(phi-1)
FieldRow = dict[int, CycElement]  # {column: nonzero element}
IntKernel = tuple[int, dict[int, FieldRow]]  # D, {free column f: D K_f at the pivots}


# ---------------------------------------------------------------------------
# cyclotomic field arithmetic


class CyclotomicField:
    """Exact arithmetic in Q(zeta_m); elements are coefficient tuples of
    length phi(m) over the power basis of zeta_m."""

    def __init__(self, m: int):
        if m < 2:
            raise UsageError(f"m must be at least 2, got {m}")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + self.zero[1:]
        # zeta^0, ..., zeta^(m-1): zeta times z shifts z up, and the zeta^d
        # that leaves the basis is -(Phi_m - zeta^d)
        self._powers = [self.one]
        for _ in range(m - 1):
            z = self._powers[-1]
            self._powers.append(tuple(x - z[-1] * c for x, c in zip((0,) + z[:-1], self.modulus)))

    def zeta(self, power: int = 1) -> CycElement:
        return self._powers[power % self.m]

    def add(self, a: CycElement, b: CycElement) -> CycElement:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: CycElement, b: CycElement) -> CycElement:
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, a: CycElement, factor) -> CycElement:
        return tuple(x * factor for x in a)

    def mul(self, a: CycElement, b: CycElement) -> CycElement:
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            if c := conv[k]:
                for t, z in enumerate(self._powers[k % self.m]):
                    if z:
                        out[t] += c * z
        return tuple(out)

    def is_zero(self, a: CycElement) -> bool:
        return not any(a)

    def inv(self, a: CycElement) -> CycElement:
        """Field inverse, with Fraction coefficients: for a = A / n with A
        integral, the kernel of the row [A, -n] is the line through (1/a, 1)."""
        from fractions import Fraction

        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in the cyclotomic field")
        n = lcm(*(x.denominator for x in a))
        den, kern = self.kernel([{0: tuple(int(c * n) for c in a), 1: self.scale(self.one, -n)}], 2)
        return tuple(Fraction(c, den) for c in kern[1][0])

    def kernel(self, rows: list[FieldRow], ncols: int) -> IntKernel:
        """RREF kernel K of the integral G with sparse `rows`, as its least
        denominator D and {f: D K_f}: the lift of `linalg.lift_kernel` from the
        images of G under zeta -> omega^e; a full-rank image gives (1, {})."""

        def images(l: int, w: int) -> list[IntRow]:
            pows = [pow(w, k, l) for k in range(self.degree)]
            return [{c: sum(map(mul, x, pows)) for c, x in row.items()} for row in rows]

        norms = [sum(sum(map(abs, x)) for x in row.values()) for row in rows]
        height = max(max(map(abs, z)) for z in self._powers)  # of the powers of zeta
        vectors = lift_kernel(self.m, images, ncols, norms, height)
        D = lcm(*(den for _, den, _ in vectors))
        return D, {
            f: {p: tuple(c.get(p, 0) * (D // den) for c in v) for p in sorted(set().union(*v))}
            for f, den, v in vectors
        }


# ---------------------------------------------------------------------------
# the algebra


class HeckeAlgebra:
    """Hecke algebra of rank p with quadratic relation
    (T_i - 1)(T_i + q) = 0 at q = zeta_m.  At q = zeta_m^r, r prime to m,
    the algebra is a Galois conjugate of this one, and its simple modules
    depend only on e = m (Dipper-James 1986), so no other power is built.

    Elements are term dicts {basis index: coefficient} with no zero
    coefficients, the index of T_w being the position of w in `perms`; each
    w has its reduced word `words[w]`.  The generators act on them by
    `lmul_gen` and `rmul_gen`: the Casimir element C is a sum of `rmul_gen`
    words, and the products C T_w, the columns of the radical's equations
    C h = 0, are read off one right sweep (`right_sweep`) of it, a walk of
    the tree of factorizations w = parent * s_j.  From them come the radical,
    the normal form modulo it (`reduce`) and the center of the quotient, each
    kernel one call of the field's `kernel`.
    """

    def __init__(self, p: int, m: int):
        if p < 1:
            raise UsageError(f"rank must be positive, got {p}")
        self.p = p
        self.field = CyclotomicField(m)
        self.q = self.field.zeta()
        self.one_minus_q = self.field.sub(self.field.one, self.q)
        self.perms = sorted(_itperms(range(p)))
        self.dim = len(self.perms)
        index = {w: k for k, w in enumerate(self.perms)}
        # generator actions, (index, raises length) per index: value swaps
        # for left, position swaps for right
        self._left: list[list[tuple[int, bool]]] = []
        self._right: list[list[tuple[int, bool]]] = []
        for i in range(p - 1):
            lact, ract = [], []
            for w in self.perms:
                siw = tuple((i + 1 if x == i else i if x == i + 1 else x) for x in w)
                lact.append((index[siw], w.index(i) < w.index(i + 1)))
                wsi = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                ract.append((index[wsi], w[i] < w[i + 1]))
            self._left.append(lact)
            self._right.append(ract)
        # factorizations w = parent * s_j, j the first descent of w: the parent
        # comes first in `perms`, so one pass gives every word and the tree
        self.words: list[tuple[int, ...]] = [()]
        self._children: list[list[tuple[int, int]]] = [[] for _ in self.perms]
        for w, perm in enumerate(self.perms[1:], 1):
            j = min(k for k in range(p - 1) if perm[k] > perm[k + 1])
            parent = self._right[j][w][0]
            self.words.append(self.words[parent] + (j,))
            self._children[parent].append((w, j))

    # -- raw dict arithmetic ------------------------------------------------

    def lmul_gen(self, i: int, elem: dict) -> dict:
        """Left multiplication by the i-th generator."""
        return self._gen_mul(self._left[i], elem)

    def rmul_gen(self, i: int, elem: dict) -> dict:
        """Right multiplication by the i-th generator."""
        return self._gen_mul(self._right[i], elem)

    def _gen_mul(self, act: list, elem: dict) -> dict:
        F = self.field
        q, omq = self.q, self.one_minus_q
        out: dict[int, CycElement] = {}
        for w, c in elem.items():
            w2, up = act[w]
            if up:
                out[w2] = F.add(out[w2], c) if w2 in out else c
            else:
                qc = F.mul(q, c)
                out[w2] = F.add(out[w2], qc) if w2 in out else qc
                oc = F.mul(omq, c)
                out[w] = F.add(out[w], oc) if w in out else oc
        return {w: c for w, c in out.items() if not F.is_zero(c)}

    def right_sweep(self, a: dict):
        """Yield (w, a T_w) for every basis index w, depth first down the tree
        of w = parent * s_j, with a T_w = (a T_parent) T_j: a translate is held
        while its subtree is walked, so at most l(w_0) + 1 = p(p-1)/2 + 1 are."""

        def walk(w: int, t: dict):
            yield w, t
            for child, j in self._children[w]:
                yield from walk(child, self.rmul_gen(j, t))

        yield from walk(0, a)

    # -- Casimir element, radical, center -----------------------------------

    @cached_property
    def casimir(self) -> dict:
        """The central element C = sum_w q^-l(w) T_w T_(w^-1), with
        q^-l = zeta^-l.  For the symmetrizing trace tau(T_w) = delta_(w,e)
        the regular trace is theta(h) = tau(h C) (Geck-Pfeiffer 2000, 7.1-7.2)."""
        F = self.field
        out: dict[int, CycElement] = {}
        for w, word in enumerate(self.words):
            # q^-l(w) T_w T_(w^-1): the scaled term of w, times the
            # generators of w's word from its right end
            term = {w: F.zeta(-len(word))}
            for i in reversed(word):
                term = self.rmul_gen(i, term)
            for x, c in term.items():
                out[x] = F.add(out[x], c) if x in out else c
        return {x: c for x, c in out.items() if not F.is_zero(c)}

    @cached_property
    def gram(self) -> list[FieldRow]:
        """The matrix M[x][w] = (C T_w)_x as sparse rows, column w filled as
        soon as one right sweep of C builds C T_w.

        Since tau(T_v T_x) = delta_(v,x^-1) q^l(v) and C is central, the
        trace form theta(T_v T_w) = tau(T_v C T_w) = q^l(v) M[v^-1][w] is M
        with rows permuted and scaled by units: one row space and kernel."""
        rows: list[FieldRow] = [{} for _ in range(self.dim)]
        for w, t in self.right_sweep(self.casimir):
            for x, c in t.items():
                rows[x][w] = c
        return rows

    @cached_property
    def _radical(self) -> IntKernel:
        """RREF basis of the radical, the kernel K of the trace form and of
        `gram`, the h with C h = 0, as its common denominator D and
        {f: D K_f at the pivots}."""
        return self.field.kernel(self.gram, self.dim)

    @cached_property
    def quotient_columns(self) -> list[int]:
        """The pivot columns P of the radical kernel; they coordinatise the
        quotient by the radical."""
        return [c for c in range(self.dim) if c not in self._radical[1]]

    def radical_dimension(self) -> int:
        return len(self._radical[1])

    def reduce(self, terms: dict) -> FieldRow:
        """D times the coordinates on P of the normal form x - sum_f x_f K_f
        of `terms` modulo the radical, D its common denominator, as {c in P:
        element}: integral for integral terms, and empty exactly on J."""
        F = self.field
        D, radical = self._radical
        out: FieldRow = {}
        for c, x in terms.items():
            if c in radical:
                for p, k in radical[c].items():
                    out[p] = F.sub(out.get(p, F.zero), F.mul(x, k))
            else:
                out[c] = F.add(out.get(c, F.zero), F.scale(x, D) if D != 1 else x)
        return {c: x for c, x in out.items() if not F.is_zero(x)}

    @cached_property
    def _center(self) -> IntKernel:
        """RREF basis, in coordinates on P, of the center of the quotient:
        the z with [T_i, z] in the radical for every generator.  As its
        common denominator D_Z and {f: D_Z z_f at the pivots}."""
        F = self.field
        # constraint row (i, k) holds coordinate k of each [T_i, T_c], c = P[j]
        rows: dict[tuple[int, int], FieldRow] = {}
        for i in range(self.p - 1):
            for j, c in enumerate(self.quotient_columns):
                single = {c: F.one}
                comm: dict[int, CycElement] = dict(self.rmul_gen(i, single))
                for w, x in self.lmul_gen(i, single).items():
                    comm[w] = F.sub(comm.get(w, F.zero), x)
                for k, x in self.reduce(comm).items():
                    rows.setdefault((i, k), {})[j] = x
        return self.field.kernel(list(rows.values()), len(self.quotient_columns))

    def center_dimension(self) -> int:
        """Dimension over the cyclotomic field of the center of the quotient
        by the radical."""
        return len(self._center[1])


# ---------------------------------------------------------------------------
# the relation check


def check_relations(H: HeckeAlgebra) -> None:
    """Check the quadratic, braid and commuting relations of the generators
    exactly, each side a word applied to the unit, by `lmul_gen` from its
    end and then by `rmul_gen` from its start (C and the gram use the right
    table, the center the left), and raise IdentityViolation at the first
    that fails.

    The quadratic relation reads T_i T_i = (1 - q) T_i + q.  Its right side
    takes 1 - q from q, not from the multiplication's own `one_minus_q`, so
    a corrupted `one_minus_q` fails the check instead of cancelling out."""
    F = H.field
    omq = F.sub(F.one, H.q)
    for gen_mul, order in ((H.lmul_gen, reversed), (H.rmul_gen, iter)):

        def word(*gens):
            elem = {0: F.one}
            for i in order(gens):
                elem = gen_mul(i, elem)
            return elem

        for i in range(H.p - 1):
            rhs = {w: F.mul(omq, c) for w, c in word(i).items()}
            rhs[0] = F.add(rhs.get(0, F.zero), H.q)
            if word(i, i) != {w: c for w, c in rhs.items() if not F.is_zero(c)}:
                raise IdentityViolation(f"quadratic relation fails at T_{i}")
        for i in range(H.p - 2):
            if word(i, i + 1, i) != word(i + 1, i, i + 1):
                raise IdentityViolation(f"braid relation fails at T_{i}, T_{i + 1}")
        for i in range(H.p - 1):
            for j in range(i + 2, H.p - 1):
                if word(i, j) != word(j, i):
                    raise IdentityViolation(f"T_{i} and T_{j} do not commute")


# ---------------------------------------------------------------------------
# simple-module counting, cross-checked against the LLT canonical basis


class HeckeSimplesReport(NamedTuple):
    dim: int
    rad_dim: int
    simples: int
    expected_m_regular: int
    # the regular path and the LLT block dimensions agree
    split_audit: bool
    block_dims: list[int] | None
    # the mismatch between the two paths; None when they agree
    audit_note: str | None = None

    @property
    def ok(self) -> bool:
        return self.split_audit and self.simples == self.expected_m_regular


def count_simples(p: int, m: int) -> HeckeSimplesReport:
    """Count the simple modules as the cyclotomic dimension of the center of
    the quotient by the radical, and read the block dimensions off the LLT
    canonical basis.

    The two paths are independent and must agree: LLT has one simple per
    center dimension, the squares of its dimensions sum to p! - rad_dim, and
    every dimension is positive.  If they disagree, the count is only an
    upper bound, split_audit is False, block_dims is None and audit_note
    names the mismatch.  A failed defining relation raises
    IdentityViolation first.
    """
    H = HeckeAlgebra(p, m)
    check_relations(H)
    rad_dim = H.radical_dimension()
    simples = H.center_dimension()
    quotient_dim = H.dim - rad_dim
    dims = sorted(simple_dimensions(p, m).values(), reverse=True)
    blocks = [d * d for d in dims]
    note = None
    if len(dims) != simples:
        note = f"LLT gives {len(dims)} simples, the center {simples}"
    elif not all(d > 0 for d in dims):
        note = f"LLT dimensions {dims} are not all positive"
    elif sum(blocks) != quotient_dim:
        note = f"LLT blocks {blocks} do not sum to the quotient dimension {quotient_dim}"
    agree = note is None
    return HeckeSimplesReport(
        dim=H.dim,
        rad_dim=rad_dim,
        simples=simples,
        expected_m_regular=count_m_regular(p, m),
        split_audit=agree,
        block_dims=blocks if agree else None,
        audit_note=note,
    )
