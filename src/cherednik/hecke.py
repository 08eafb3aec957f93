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
so J = {h : C h = 0}, the kernel K of the columns C T_w.  C and its columns
are both built down the tree of factorizations w = parent * s_j.  The normal
form of x modulo J is x - sum_f x_f K_f over the free columns f, and the
quotient H/J has coordinates on the remaining pivot columns P.  Simple
modules are counted through the center of H/J, the kernel in P-coordinates
of the commutators with the generators.  The block dimensions (dim D^mu)^2
come from the LLT canonical basis (:func:`simple_dimensions`), a path with
no linear algebra, and are cross-checked against the radical and the
center: as many blocks as the center has dimensions, summing to
dim H - dim J.  The canonical basis lives in the level-1 Fock space of
U_v(sl^_e), whose basis is indexed by partitions; at v = 1 it gives the
decomposition numbers of H_p(zeta_e) in characteristic 0 (Lascoux, Leclerc
and Thibon, Comm. Math. Phys. 181, 1996; Ariki, J. Math. Kyoto Univ. 36,
1996).  Its coefficients are Laurent polynomials in v, kept as
{exponent: int} dicts, and each divided power f_i^(k) is applied in closed
form, as a sum over the k-sets of addable i-nodes.

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

from collections import Counter
from functools import cached_property
from itertools import combinations
from itertools import permutations as _itperms
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from .errors import IdentityViolation, UsageError
from .linalg import IntRow, cyclotomic_polynomial, lift_kernel
from .partitions import Partition, count_m_regular, dimension, enumerate_m_regular

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

        height = max(max(map(abs, z)) for z in self._powers)  # of the powers of zeta
        # the degree entries of a blow-up row at column c are at most |G_rc|_1 height
        d = self.degree
        lengths = [(isqrt(d * sum(sum(map(abs, x)) ** 2 for x in row.values())) + 1) * height for row in rows]
        vectors = lift_kernel(self.m, images, ncols, lengths)
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
    coefficients, the index of T_w being the position of w in `perms`.  The
    generators act on them by `lmul_gen` and `rmul_gen`, and one walker,
    `sweep`, runs down the tree of factorizations w = parent * s_j applying
    a step per edge: T_j on both sides builds the terms of the Casimir
    element C, and T_j on the right the products C T_w, the columns of the
    radical's equations C h = 0.  From them come the radical, the normal
    form modulo it (`reduce`) and the center of the quotient, each kernel
    one call of the field's `kernel`.
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
        # factorizations w = parent * s_j, j the first descent of w: the tree
        # of them, rooted at the identity, with w's reduced word its path
        self._children: list[list[tuple[int, int]]] = [[] for _ in self.perms]
        for w, perm in enumerate(self.perms[1:], 1):
            j = min(k for k in range(p - 1) if perm[k] > perm[k + 1])
            self._children[self._right[j][w][0]].append((w, j))

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

    def sweep(self, a: dict, step):
        """Yield (w, a_w) for every basis index w, depth first down the tree
        of w = parent * s_j: a_e = a, a_w = step(j, a_parent) (a T_w for
        `rmul_gen`), held while its subtree is walked, so l(w_0) + 1 at most."""

        def walk(w: int, t: dict):
            yield w, t
            for child, j in self._children[w]:
                yield from walk(child, step(j, t))

        yield from walk(0, a)

    # -- Casimir element, radical, center -----------------------------------

    @cached_property
    def casimir(self) -> dict:
        """The central element C = sum_w q^-l(w) T_w T_(w^-1), with
        q^-l = zeta^-l.  For the symmetrizing trace tau(T_w) = delta_(w,e)
        the regular trace is theta(h) = tau(h C) (Geck-Pfeiffer 2000, 7.1-7.2).
        Reindexed by w -> w^-1, the term of c = w s_j is q^-1 T_j (term of w)
        T_j: one sweep from the unit, two generator products per edge."""
        F = self.field
        q_inv = F.zeta(-1)

        def step(j: int, t: dict) -> dict:
            return {x: F.mul(q_inv, c) for x, c in self.lmul_gen(j, self.rmul_gen(j, t)).items()}

        out: dict[int, CycElement] = {}
        for _, term in self.sweep({0: F.one}, step):
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
        for w, t in self.sweep(self.casimir, self.rmul_gen):
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
    end and then by `rmul_gen` from its start (C uses both tables, the gram
    the right, the center the left), and raise IdentityViolation at the
    first that fails.

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


Laurent = dict[int, int]  # {exponent of v: nonzero int}
FockVector = dict[Partition, Laurent]


def _ladder(r: int, c: int, e: int) -> int:
    """The ladder of the node in row r and column c, both 0-indexed.  The
    nodes of ladder L all have residue c - r = -L mod e."""
    return r + (e - 1) * c


def _i_nodes(lam: Partition, i: int, e: int) -> list[tuple[int, bool]]:
    """The addable and removable nodes of residue i of lam, from the top row
    down, as (row, addable) pairs."""
    out = []
    for r in range(len(lam) + 1):
        part = lam[r] if r < len(lam) else 0
        if part > (lam[r + 1] if r + 1 < len(lam) else 0) and (part - 1 - r) % e == i:
            out.append((r, False))
        if (r == 0 or lam[r - 1] > part) and (part - r) % e == i:
            out.append((r, True))
    return out


def _add_shifted(target: Laurent, coeff: Laurent, shift: int, factor: int = 1) -> None:
    """target += factor * v^shift * coeff, in place; zeros are left for
    `_nonzero` to drop."""
    for k, x in coeff.items():
        target[k + shift] = target.get(k + shift, 0) + factor * x


def _nonzero(vec: FockVector) -> FockVector:
    out = {}
    for lam, coeff in vec.items():
        coeff = {k: x for k, x in coeff.items() if x}
        if coeff:
            out[lam] = coeff
    return out


def _f(vec: FockVector, i: int, k: int, e: int) -> FockVector:
    """The divided power f_i^(k): each set S of k addable i-nodes of lam
    gives lam + S with the factor v^N, where N sums, over gamma in S, the
    addable i-nodes above gamma, in an earlier row, that are not in S less
    the removable i-nodes above gamma.  The coefficients of A(mu) are sums
    of powers of v, so no term cancels."""
    out: FockVector = {}
    for lam, coeff in vec.items():
        nodes = _i_nodes(lam, i, e)
        for rows in combinations([r for r, addable in nodes if addable], k):
            shift = above = 0
            for r, addable in nodes:
                if not addable:
                    above -= 1
                elif r in rows:
                    shift += above
                else:
                    above += 1
            nu = [*lam, 0]
            for r in rows:
                nu[r] += 1
            _add_shifted(out.setdefault(tuple(filter(None, nu)), {}), coeff, shift)
    return out


def _ladder_vector(mu: Partition, e: int) -> FockVector:
    """A(mu): the divided powers f_i^(k) applied to the empty partition, one
    per ladder L in increasing order, with i = -L mod e and k the number of
    nodes of mu on L."""
    counts = Counter(_ladder(r, c, e) for r, part in enumerate(mu) for c in range(part))
    vec: FockVector = {(): {0: 1}}
    for ladder in sorted(counts):
        vec = _f(vec, -ladder % e, counts[ladder], e)
    return vec


def _decomposition_numbers(p: int, e: int) -> dict[Partition, dict[Partition, int]]:
    """d_lam,mu for every e-regular mu of p, as {mu: {lam: nonzero d}}: the
    coefficients at v = 1 of the canonical basis vector G(mu).

    For each mu in increasing lex order, G(mu) is A(mu) less bar-invariant
    multiples of the G(nu) already found: while some nu other than mu has a
    coefficient outside vZ[v], the lex-largest such nu loses alpha G(nu),
    alpha the bar-invariant Laurent polynomial that agrees with that
    coefficient in degrees <= 0.  mu must have coefficient 1 in A(mu)."""
    basis: dict[Partition, FockVector] = {}
    for mu in reversed(enumerate_m_regular(p, e)):
        vec = _ladder_vector(mu, e)
        if vec.get(mu) != {0: 1}:
            raise IdentityViolation(f"{mu} has coefficient {vec.get(mu, {})} in A({mu}) at e = {e}")
        while True:
            low = [nu for nu, coeff in vec.items() if nu != mu and min(coeff) <= 0]
            if not low:
                break
            nu = max(low)
            if nu not in basis:
                raise IdentityViolation(f"{nu} in A({mu}) at e = {e} has no canonical basis vector")
            alpha = {k: x for k, x in vec[nu].items() if k <= 0}
            alpha.update({-k: x for k, x in alpha.items() if k < 0})
            for lam, coeff in basis[nu].items():
                target = vec.setdefault(lam, {})
                for k, x in alpha.items():
                    _add_shifted(target, coeff, k, -x)
            vec = _nonzero(vec)
        basis[mu] = vec
    return {
        mu: {lam: s for lam, coeff in vec.items() if (s := sum(coeff.values()))}
        for mu, vec in basis.items()
    }


def simple_dimensions(p: int, e: int) -> dict[Partition, int]:
    """dim D^mu for every e-regular partition mu of p, mu in decreasing lex
    order: the simple modules of H_p(zeta_e) in characteristic 0.

    Solves dim S^lam = sum_mu d_lam,mu dim D^mu over the e-regular lam from
    the largest down; the decomposition matrix is unitriangular there, and
    dim S^lam comes from the hook length formula."""
    d = _decomposition_numbers(p, e)
    dims: dict[Partition, int] = {}
    for lam in sorted(d, reverse=True):
        dims[lam] = dimension(lam) - sum(d[mu].get(lam, 0) * dims[mu] for mu in dims)
    return dims


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
