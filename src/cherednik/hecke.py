"""Iwahori-Hecke algebra of the symmetric group at an exact root of unity.

The deformation parameter is the cyclotomic algebraic number zeta_m, never a
float: coefficients live in Q(zeta_m) represented as coefficient tuples
reduced modulo the m-th cyclotomic polynomial.

Every elimination is one call of :meth:`CyclotomicField.kernel`, which hands
the images of its matrix under zeta -> omega^e to the modular lift of
:func:`cherednik.linalg.lift_kernel`, the package's one exact elimination; a
full-rank image proves a kernel zero, so for m > p, where H is semisimple,
the radical costs one reduction of the gram mod l.  The Jacobson radical J
is the kernel K of the regular-representation trace form (valid in
characteristic zero), read off the central Casimir element C with one right
sweep.  The normal form of x modulo J is x - sum_f x_f K_f over the free
columns f, and the quotient H/J has coordinates on the remaining pivot
columns P.  Simple modules are counted through the center of H/J, the kernel
in P-coordinates of the commutators with the generators.  The block
dimensions (dim D^mu)^2 come from the LLT canonical basis
(:func:`cherednik.fock.simple_dimensions`), a path with no linear algebra,
and are cross-checked against the radical and the center: as many blocks as
the center has dimensions, summing to dim H - dim J.

Every number on this path is an integer.  The gram and the structure
constants of H are integral, and each kernel is kept as integer vectors
over one common denominator (D for the radical, D_Z for the center), so
`reduce` returns D times the normal form.

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

Permutation = tuple[int, ...]
CycElement = tuple  # coefficients of 1, zeta, ..., zeta^(phi-1)
# a kernel over the field: common denominator, (free column, integer vector)
IntKernel = tuple[int, list[tuple[int, list[CycElement]]]]


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
        row = [tuple(int(c * n) for c in a), self.scale(self.one, -n)]
        den, [(_, (x, _))] = self.kernel([row], 2)
        return tuple(Fraction(c, den) for c in x)

    def kernel(self, fmatrix: list[list[CycElement]], ncols: int) -> IntKernel:
        """RREF kernel K over the field of an integral matrix G, as its least
        common denominator D and the pairs (free column f, D K_f): the
        modular lift of `linalg.lift_kernel` from the images of G under the
        phi(m) maps zeta -> omega^e; a full-rank image gives (1, [])."""

        def images(l: int, w: int) -> list[IntRow]:
            pows = [pow(w, k, l) for k in range(self.degree)]
            return [
                {c: sum(map(mul, x, pows)) for c, x in enumerate(row) if any(x)} for row in fmatrix
            ]

        norm = max((sum(sum(map(abs, x)) for x in row) for row in fmatrix), default=0)
        bound = 2 * norm * max(max(map(abs, z)) for z in self._powers)
        vectors = lift_kernel(self.m, images, ncols, bound)
        D = lcm(*(den for _, den, _ in vectors))
        out = [
            (f, [tuple(c.get(p, 0) * (D // den) for c in v) for p in range(ncols)])
            for f, den, v in vectors
        ]
        for f, vec in out:
            vec[f] = self.scale(self.one, D)
        return D, out


# ---------------------------------------------------------------------------
# permutations


def perm_length(w: Permutation) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_inverse(w: Permutation) -> Permutation:
    return tuple(sorted(range(len(w)), key=w.__getitem__))


def reduced_word(w: Permutation) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# the algebra


class HeckeAlgebra:
    """Hecke algebra of rank p with quadratic relation
    (T_i - 1)(T_i + q) = 0 at q = zeta_m.  At q = zeta_m^r, r prime to m,
    the algebra is a Galois conjugate of this one, and its simple modules
    depend only on e = m (Dipper-James 1986), so no other power is built.

    Elements are term dicts {permutation: coefficient} with no zero
    coefficients.  The generators act on them by `lmul_gen` and `rmul_gen`:
    the Casimir element is a sum of `lmul_gen` words, and the trace form is
    read off one right sweep (`right_sweep`) of it over the weak order.  From
    the trace form come the radical, the normal form modulo it (`reduce`) and
    the center of the quotient, each kernel one call of the field's `kernel`.
    """

    def __init__(self, p: int, m: int):
        if p < 1:
            raise UsageError(f"rank must be positive, got {p}")
        self.p = p
        self.m = m
        self.field = CyclotomicField(m)
        self.q = self.field.zeta()
        self.one_minus_q = self.field.sub(self.field.one, self.q)
        self.perms: list[Permutation] = sorted(_itperms(range(p)))
        self.index = {w: k for k, w in enumerate(self.perms)}
        self.identity_perm: Permutation = tuple(range(p))
        self.dim = len(self.perms)
        # generator actions: value swaps for left, position swaps for right
        self._left: list[dict[Permutation, tuple[Permutation, bool]]] = []
        self._right: list[dict[Permutation, tuple[Permutation, bool]]] = []
        for i in range(p - 1):
            lact, ract = {}, {}
            for w in self.perms:
                siw = tuple((i + 1 if x == i else i if x == i + 1 else x) for x in w)
                lact[w] = (siw, w.index(i) < w.index(i + 1))
                wsi = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                ract[w] = (wsi, w[i] < w[i + 1])
            self._left.append(lact)
            self._right.append(ract)
        # factorizations w = parent * s_j by length; the identity, first, has
        # none.  Each step also says whether it builds the parent's last
        # child and whether w has children, so a sweep keeps a translate only
        # while its children are still to come
        steps = []
        for w in sorted(self.perms, key=lambda v: (perm_length(v), v))[1:]:
            j = min(k for k in range(p - 1) if w[k] > w[k + 1])
            steps.append((w, j, self._right[j][w][0]))
        last = {parent: k for k, (_, _, parent) in enumerate(steps)}
        self._right_bfs = [
            (w, j, parent, last[parent] == k, w in last)
            for k, (w, j, parent) in enumerate(steps)
        ]

    # -- raw dict arithmetic ------------------------------------------------

    def lmul_gen(self, i: int, elem: dict) -> dict:
        """Left multiplication by the i-th generator."""
        return self._gen_mul(self._left[i], elem)

    def rmul_gen(self, i: int, elem: dict) -> dict:
        """Right multiplication by the i-th generator."""
        return self._gen_mul(self._right[i], elem)

    def _gen_mul(self, act: dict, elem: dict) -> dict:
        F = self.field
        q, omq = self.q, self.one_minus_q
        out: dict[Permutation, CycElement] = {}
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
        """Yield (w, a T_w) for every permutation w, swept up the weak order
        in one pass; each translate is dropped once its children are built."""
        live = {self.identity_perm: a}
        yield self.identity_perm, a
        for w, j, parent, drop, keep in self._right_bfs:
            t = self.rmul_gen(j, live[parent])
            if drop:
                del live[parent]
            if keep:
                live[w] = t
            yield w, t

    # -- trace form, radical, center ------------------------------------------

    @cached_property
    def casimir(self) -> dict:
        """The central element C = sum_w q^-l(w) T_w T_(w^-1), with
        q^-l = zeta^-l.  For the symmetrizing trace tau(T_w) = delta_(w,e)
        the regular trace is theta(h) = tau(h C) (Geck-Pfeiffer 2000, 7.1-7.2)."""
        F = self.field
        out: dict[Permutation, CycElement] = {}
        for w in self.perms:
            # q^-l(w) T_w T_(w^-1): the generators of w's word, applied to
            # the scaled term of w^-1 from the right end of the word
            term = {perm_inverse(w): F.zeta(-perm_length(w))}
            for i in reversed(reduced_word(w)):
                term = self.lmul_gen(i, term)
            for x, c in term.items():
                out[x] = F.add(out[x], c) if x in out else c
        return {x: c for x, c in out.items() if not F.is_zero(c)}

    @cached_property
    def gram(self) -> list[list[CycElement]]:
        """Symmetric matrix of theta(T_v T_w) over the basis.

        Since tau(T_v T_x) = delta_(v,x^-1) q^l(v) and C is central,
        theta(T_v T_w) = tau(T_v C T_w) = q^l(v) (C T_w)_(v^-1): one right
        sweep of C gives every entry, column w as soon as C T_w is built."""
        F = self.field
        rows = [[F.zero] * self.dim for _ in self.perms]
        # the term at x of a translate lands in row x^-1, scaled by q^l(x)
        place = {
            x: (rows[self.index[perm_inverse(x)]], F.zeta(perm_length(x)))
            for x in self.perms
        }
        for w, t in self.right_sweep(self.casimir):
            col = self.index[w]
            for x, c in t.items():
                row, qx = place[x]
                row[col] = F.mul(qx, c)
        return rows

    @cached_property
    def _radical(self) -> IntKernel:
        """RREF basis of the radical, the kernel K of the trace form, as its
        common denominator D and the pairs (f, D K_f)."""
        return self.field.kernel(self.gram, self.dim)

    @cached_property
    def quotient_columns(self) -> list[int]:
        """The pivot columns P of the radical kernel; they coordinatise the
        quotient by the radical."""
        free = {f for f, _ in self._radical[1]}
        return [c for c in range(self.dim) if c not in free]

    @cached_property
    def _radical_on_quotient(self) -> list[tuple[Permutation, dict[int, CycElement]]]:
        """Each radical vector D K_f at the columns c in P, as the
        permutation of f and {position of c in P: nonzero entry}."""
        F = self.field
        cols = list(enumerate(self.quotient_columns))
        return [
            (self.perms[f], {pos: vec[c] for pos, c in cols if not F.is_zero(vec[c])})
            for f, vec in self._radical[1]
        ]

    def radical_dimension(self) -> int:
        return len(self._radical[1])

    def reduce(self, terms: dict) -> list[CycElement]:
        """D times the coordinates on P of the normal form x - sum_f x_f K_f
        of `terms` modulo the radical, D its common denominator: integral
        for integral terms, and zero exactly on the radical."""
        F = self.field
        D = self._radical[0]
        out = [F.zero] * len(self.quotient_columns)
        for pos, c in enumerate(self.quotient_columns):
            x = terms.get(self.perms[c])
            if x is not None:
                out[pos] = F.scale(x, D) if D != 1 else x
        for f, entries in self._radical_on_quotient:
            x = terms.get(f)
            if x is None:
                continue
            for pos, k in entries.items():
                out[pos] = F.sub(out[pos], F.mul(x, k))
        return out

    @cached_property
    def _center(self) -> IntKernel:
        """RREF basis, in coordinates on P, of the center of the quotient:
        the z with [T_i, z] in the radical for every generator.  As its
        common denominator D_Z and the pairs (f, D_Z z_f)."""
        F = self.field
        rows: list[list[CycElement]] = []
        for i in range(self.p - 1):
            cols = []
            for c in self.quotient_columns:
                single = {self.perms[c]: F.one}
                comm: dict[Permutation, CycElement] = dict(self.rmul_gen(i, single))
                for w, x in self.lmul_gen(i, single).items():
                    comm[w] = F.sub(comm.get(w, F.zero), x)
                cols.append(self.reduce(comm))
            # transpose the per-basis-element columns into constraint rows
            rows.extend(map(list, zip(*cols)))
        return self.field.kernel(rows, len(self.quotient_columns))

    def center_dimension(self) -> int:
        """Dimension over the cyclotomic field of the center of the quotient
        by the radical."""
        return len(self._center[1])


# ---------------------------------------------------------------------------
# the relation check


def check_relations(H: HeckeAlgebra) -> None:
    """Check the quadratic, braid and commuting relations of the generators
    exactly, each side an `lmul_gen` word applied to the unit, and raise
    IdentityViolation at the first that fails.

    The quadratic relation reads T_i T_i = (1 - q) T_i + q.  Its right side
    takes 1 - q from q, not from the multiplication's own `one_minus_q`, so
    a corrupted `one_minus_q` fails the check instead of cancelling out."""
    F = H.field
    unit = {H.identity_perm: F.one}

    def word(*gens):
        elem = unit
        for i in reversed(gens):
            elem = H.lmul_gen(i, elem)
        return elem

    omq = F.sub(F.one, H.q)
    for i in range(H.p - 1):
        rhs = {w: F.mul(omq, c) for w, c in word(i).items()}
        rhs[H.identity_perm] = F.add(rhs.get(H.identity_perm, F.zero), H.q)
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
