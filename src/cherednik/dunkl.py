"""Exact realization of the deformed operators on polynomials.

The engine represents polynomials sparsely with Fraction coefficients and
applies the divided-difference operators

    D_i f = d/dx_i f - c * sum_{j != i} (f - s_ij f) / (x_i - x_j)

termwise: each antisymmetric monomial pair telescopes into a short explicit
sum, so no polynomial division ever happens and exactness holds by
construction.  Commutation relations, Euler spectra, singular vectors and the
stability of stratum vanishing ideals are all checked through this single
realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg

Exponent = tuple[int, ...]
Permutation = tuple[int, ...]


class SparsePolynomial:
    """Multivariate polynomial as a map from exponent vectors to nonzero
    exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Exponent, Fraction] | None = None):
        self.n = n
        self.terms: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has wrong arity for n={n}")
                if coeff:
                    self.terms[exp] = Fraction(coeff)

    @classmethod
    def zero(cls, n: int) -> "SparsePolynomial":
        return cls(n)

    @classmethod
    def variable(cls, i: int, n: int) -> "SparsePolynomial":
        exp = [0] * n
        exp[i] = 1
        return cls(n, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff=1) -> "SparsePolynomial":
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
        res = SparsePolynomial(self.n)
        res.terms = out
        return res

    def __neg__(self) -> "SparsePolynomial":
        res = SparsePolynomial(self.n)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            scalar = Fraction(other)
            res = SparsePolynomial(self.n)
            if scalar:
                res.terms = {e: c * scalar for e, c in self.terms.items()}
            return res
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(exp, 0) + c1 * c2
                if new:
                    out[exp] = new
                else:
                    out.pop(exp, None)
        res = SparsePolynomial(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


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

    if n == 0:
        return [()] if d == 0 else []
    rec((), d, n)
    return out


def permute(w: Permutation, f: SparsePolynomial) -> SparsePolynomial:
    """Ring automorphism sending x_i to x_{w(i)} (one-line notation, 0-based)."""
    if len(w) != f.n:
        raise ValueError(f"permutation {w} does not act on {f.n} variables")
    res = SparsePolynomial(f.n)
    for exp, coeff in f.terms.items():
        new = [0] * f.n
        for i, e in enumerate(exp):
            new[w[i]] = e
        res.terms[tuple(new)] = coeff
    return res


def transposition(i: int, j: int, n: int) -> Permutation:
    w = list(range(n))
    w[i], w[j] = w[j], w[i]
    return tuple(w)


@dataclass(frozen=True)
class EngineConfig:
    """Number of variables and the exact deformation parameter."""

    n: int
    c: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 variables, got n={self.n}")
        object.__setattr__(self, "c", Fraction(self.c))


def dunkl_apply(i: int, f: SparsePolynomial, cfg: EngineConfig) -> SparsePolynomial:
    """Apply the i-th deformed directional derivative.

    The divided difference of each monomial against each transposition is
    expanded as a telescoping sum, which is exact by construction.
    """
    n, c = cfg.n, cfg.c
    if f.n != n:
        raise ValueError(f"polynomial in {f.n} variables fed to an n={n} engine")
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    out: dict[Exponent, Fraction] = {}
    for exp, coeff in f.terms.items():
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
                continue  # symmetric in x_i, x_j: divided difference vanishes
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
    res = SparsePolynomial(n)
    res.terms = out
    return res


def euler_apply(f: SparsePolynomial, cfg: EngineConfig) -> SparsePolynomial:
    """Grading operator sum_i x_i D_i - c * sum_{i<j} s_ij; on a homogeneous
    polynomial of degree d it scales by d - c*n(n-1)/2."""
    n = cfg.n
    out = SparsePolynomial.zero(n)
    for i in range(n):
        out = out + SparsePolynomial.variable(i, n) * dunkl_apply(i, f, cfg)
    for i in range(n):
        for j in range(i + 1, n):
            out = out - cfg.c * permute(transposition(i, j, n), f)
    return out


@dataclass
class RelationReport:
    """Outcome of sweeping the defining relations over a monomial basis."""

    cfg: EngineConfig
    max_degree: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_relations(cfg: EngineConfig, max_degree: int) -> RelationReport:
    """Check every defining commutation relation on the full monomial basis
    up to the given degree.

    Covered: [D_i, X_i] = 1 - c * sum_k s_ik, [D_i, X_j] = c s_ij for i != j,
    [D_i, D_j] = 0, [X_i, X_j] = 0, and conjugation of both X_i and D_i by
    adjacent transpositions.  Violations are collected, not raised.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    n, c = cfg.n, cfg.c
    report = RelationReport(cfg, max_degree)

    basis = [m for d in range(max_degree + 2) for m in monomials(n, d)]
    table: dict[tuple[int, Exponent], SparsePolynomial] = {
        (i, m): dunkl_apply(i, SparsePolynomial.monomial(m), cfg)
        for m in basis
        for i in range(n)
    }

    def dunkl_linear(i, f):
        out = SparsePolynomial.zero(n)
        for exp, coeff in f.terms.items():
            out = out + coeff * table[(i, exp)]
        return out

    def record(kind, mon, detail, lhs, rhs):
        report.checked += 1
        if lhs != rhs:
            report.violations.append(f"{kind} on x^{mon} {detail}: {lhs!r} != {rhs!r}")

    swaps = [transposition(i, j, n) for i in range(n) for j in range(i + 1, n)]
    adjacent = [transposition(k, k + 1, n) for k in range(n - 1)]

    for d in range(max_degree + 1):
        for mon in monomials(n, d):
            f = SparsePolynomial.monomial(mon)
            perms = {w: permute(w, f) for w in swaps}
            for i in range(n):
                xi_f = SparsePolynomial.variable(i, n) * f
                # [D_i, X_i] f = f - c * sum_{k != i} s_ik f
                commut = dunkl_linear(i, xi_f) - SparsePolynomial.variable(i, n) * table[(i, mon)]
                rhs = f
                for k in range(n):
                    if k != i:
                        w = transposition(min(i, k), max(i, k), n)
                        rhs = rhs - c * perms[w]
                record("[D,X] diagonal", mon, f"i={i}", commut, rhs)
                for j in range(n):
                    if j == i:
                        continue
                    xj_f = SparsePolynomial.variable(j, n) * f
                    commut = dunkl_linear(i, xj_f) - SparsePolynomial.variable(j, n) * table[(i, mon)]
                    w = transposition(min(i, j), max(i, j), n)
                    record("[D,X] off-diagonal", mon, f"i={i},j={j}", commut, c * perms[w])
            for i in range(n):
                for j in range(i + 1, n):
                    record(
                        "[D,D]",
                        mon,
                        f"i={i},j={j}",
                        dunkl_linear(i, table[(j, mon)]),
                        dunkl_linear(j, table[(i, mon)]),
                    )
                    xi = SparsePolynomial.variable(i, n)
                    xj = SparsePolynomial.variable(j, n)
                    record("[X,X]", mon, f"i={i},j={j}", xi * (xj * f), xj * (xi * f))
            for w in adjacent:
                wf = permute(w, f)
                for i in range(n):
                    record(
                        "conjugation",
                        mon,
                        f"w={w},i={i}",
                        permute(w, table[(i, mon)]),
                        dunkl_linear(w[i], wf),
                    )
    return report


def singular_vectors(cfg: EngineConfig, d: int) -> list[SparsePolynomial]:
    """Basis of the homogeneous degree-d polynomials killed by every D_i.

    An empty list is a valid answer; nonempty answers exhibit generators of a
    proper submodule of the polynomial representation.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    n = cfg.n
    cols = monomials(n, d)
    target = monomials(n, d - 1)
    target_index = {m: k for k, m in enumerate(target)}
    rows = [[Fraction(0)] * len(cols) for _ in range(n * len(target))]
    for k, mon in enumerate(cols):
        for i in range(n):
            img = dunkl_apply(i, SparsePolynomial.monomial(mon), cfg)
            for exp, coeff in img.terms.items():
                rows[i * len(target) + target_index[exp]][k] += coeff
    return [
        SparsePolynomial(n, {cols[k]: Fraction(v, den) for k, v in enumerate(vec) if v})
        for vec, den in linalg.kernel_basis(rows, len(cols))
    ]


def block_patterns(n: int, m: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """All unordered collections of q pairwise disjoint m-element blocks of
    coordinate indices, one per translate of the gluing pattern."""
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
    return out


def glue_substitution(
    f: SparsePolynomial, pattern: tuple[tuple[int, ...], ...], n: int
) -> SparsePolynomial:
    """Substitute one fresh variable per block and keep the rest free."""
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
    res = SparsePolynomial(target_n)
    for exp, coeff in f.terms.items():
        new = [0] * target_n
        for i, e in enumerate(exp):
            new[mapping[i]] += e
        key = tuple(new)
        total = res.terms.get(key, 0) + coeff
        if total:
            res.terms[key] = total
        else:
            res.terms.pop(key, None)
    return res


def stratum_ideal_basis(n: int, m: int, q: int, d: int) -> list[SparsePolynomial]:
    """Basis of the degree-d slice of the vanishing ideal of the stratum
    where q disjoint blocks of m coordinates are glued, over all translates."""
    patterns = block_patterns(n, m, q)
    cols = monomials(n, d)
    row_index: dict[tuple[int, Exponent], int] = {}
    rows: list[list[Fraction]] = []
    for pid, pattern in enumerate(patterns):
        for k, mon in enumerate(cols):
            poly = glue_substitution(SparsePolynomial.monomial(mon), pattern, n)
            ((exp, coeff),) = poly.terms.items()
            key = (pid, exp)
            if key not in row_index:
                row_index[key] = len(rows)
                rows.append([Fraction(0)] * len(cols))
            rows[row_index[key]][k] += coeff
    return [
        SparsePolynomial(n, {cols[k]: Fraction(v, den) for k, v in enumerate(vec) if v})
        for vec, den in linalg.kernel_basis(rows, len(cols))
    ]


def in_stratum_ideal(f: SparsePolynomial, n: int, m: int, q: int) -> bool:
    """Membership in the vanishing ideal, by exact substitution against every
    translate of the gluing pattern."""
    return all(
        glue_substitution(f, pattern, n).is_zero()
        for pattern in block_patterns(n, m, q)
    )


@dataclass
class IdealStabilityReport:
    n: int
    m: int
    q: int
    c: Fraction
    max_degree: int
    graded_dims: dict[int, int]
    failures: list[str]

    @property
    def stable(self) -> bool:
        return not self.failures


def ideal_stability_check(
    n: int, m: int, q: int, max_degree: int, c: Fraction | None = None
) -> IdealStabilityReport:
    """Check that every D_i maps the graded slices of the stratum vanishing
    ideal back into the ideal.

    The parameter defaults to 1/m, where stability is the expected outcome;
    passing any other value gives a negative control.
    """
    if m < 2:
        # m = 1 would give zero ideal slices, a vacuous check
        raise ValueError(f"m must be at least 2, got {m}")
    if not 1 <= q <= n // m:
        raise ValueError(f"q={q} out of range for n={n}, m={m}")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    cfg = EngineConfig(n, Fraction(1, m) if c is None else Fraction(c))
    dims: dict[int, int] = {}
    failures: list[str] = []
    for d in range(1, max_degree + 1):
        basis = stratum_ideal_basis(n, m, q, d)
        dims[d] = len(basis)
        for idx, f in enumerate(basis):
            for i in range(n):
                img = dunkl_apply(i, f, cfg)
                if not in_stratum_ideal(img, n, m, q):
                    failures.append(f"degree {d} generator {idx}: D_{i} image leaves the ideal")
    return IdealStabilityReport(n, m, q, cfg.c, max_degree, dims, failures)
