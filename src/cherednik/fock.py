"""Fock space of the Heisenberg algebra and the bivariate counting series.

Basis vectors are indexed by partitions (the parts record which creation
operators were applied to the vacuum) and stored as multiplicity vectors
k = [k_0, k_1, k_2, ...], where k_i counts the parts equal to i and k_0 = 0.
Annihilation in mode i multiplies by i * k_i and lowers k_i by one;
creation raises it again.  That is the rule [a_i, a_j] = i * delta_{i,-j},
and each operator changes one entry.  The diagonal operator built from
modes divisible by m ties partition counts to generating function
coefficients.

One depth-first walk per (m, N) reaches every basis vector of degree at
most N, vacuum included: it appends parts in nonincreasing order to one
multiplicity vector per first part, checks the weight operator on each
vector it reaches, and carries the eigenvalue and the support invariant
along.  The 1s that end a partition are appended in a loop, so the recursion
goes one level per part of 2 or more, at most N // 2 levels deep.

The LLT canonical basis on the level-1 Fock space of U_v(sl^_e), which the
Hecke audit reads, is built in :mod:`cherednik.hecke`, its one caller.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IdentityViolation, UsageError
from .partitions import Partition, count_m_regular, count_partitions


def annihilate(i: int, k: list[int]) -> int:
    """Annihilation in mode i, in place: on a basis vector with k_i parts
    equal to i, remove one and return the coefficient i * k_i.  With no such
    part the image is zero: k is left alone and the coefficient is 0."""
    c = k[i] if i < len(k) else 0
    if c:
        k[i] = c - 1
    return i * c


def create(i: int, k: list[int]) -> None:
    """Creation in mode i, in place: insert one part i, with coefficient 1."""
    if i >= len(k):
        k.extend([0] * (i + 1 - len(k)))
    k[i] += 1


def weight_operator(m: int, k: list[int]) -> int:
    """Apply sum_{i>0} create(i*m) o annihilate(i*m) to the basis vector k,
    mode by mode and in place, and return the summed coefficient.

    Each mode should hand k back unchanged, so the operator is diagonal on
    the basis, with eigenvalue the total size of the parts divisible by m.
    The operator composition here is the computation; the walk checks that
    k came back and that the coefficient equals the eigenvalue it carries.
    A mode with no part annihilates k to zero, so it is skipped.
    """
    total = 0
    for i in range(m, len(k), m):
        if k[i]:
            total += annihilate(i, k)
            create(i, k)
    return total


def _partition(k: list[int]) -> Partition:
    """The partition whose multiplicity vector is k."""
    return tuple(i for i in range(len(k) - 1, 0, -1) for _ in range(k[i]))


# a bivariate series on the triangle deg_t <= deg_s <= truncation: row n, entry
# e is the coefficient of s^n t^e
Triangle = list[list[int]]


class _Census(NamedTuple):
    """Counts from one walk over the partitions of n <= truncation at
    denominator m."""

    # row n, entry e: basis vectors of degree n with eigenvalue e
    eigenvalues: Triangle
    # row n, entry q: partitions of n with support invariant q, so q*m <= n;
    # at m = 1 every partition of n has q = n
    invariants: Triangle


def _check(m, k, before, n, eig, q, eigenvalues, invariants) -> None:
    """Check the basis vector k of one partition of n against the mode-m
    weight operator, which must hand k back equal to `before` with
    coefficient eig; then tally eig and q."""
    coeff = weight_operator(m, k)
    if k != before:
        lam = _partition(before)
        raise IdentityViolation(f"operator is not diagonal on {lam}: it moved {before} to {k}")
    if coeff != eig:
        raise IdentityViolation(f"operator has eigenvalue {coeff} on {_partition(k)}, not {eig}")
    eigenvalues[n][eig] += 1
    invariants[n][q] += 1


def _visit(m, truncation, k, n, last, length, eig, q, eigenvalues, invariants) -> None:
    """Check and tally the basis vector k of one partition of n, then visit
    each partition that extends it by parts p <= last while the degree stays
    at most truncation.

    The partition has `length` parts, the smallest equal to `last`, weight
    operator eigenvalue eig and support invariant q.  k is extended in place
    and handed back as it came.
    """
    _check(m, k, k[:], n, eig, q, eigenvalues, invariants)
    # q is the sum over rows i of i * ((lam_i - lam_{i+1}) // m), with a
    # zero after the last row: a new part p turns the term length * (last // m)
    # into length * ((last - p) // m), and the new row adds (length + 1) * (p // m)
    if last and n < truncation:
        # a partition ending in 1 extends only by more 1s: that chain is walked
        # here, with one copy of k kept in step.  After the first 1 (p = 1
        # above), each 1 adds 1 // m to q, as each 1 does to eig
        unit = 1 // m
        ones_q = q + length * ((last - 1) // m - last // m + unit)
        before = k[:]
        for j in range(1, truncation - n + 1):
            k[1] += 1
            before[1] += 1
            _check(m, k, before, n + j, eig + unit * j, ones_q + unit * j, eigenvalues, invariants)
        k[1] -= truncation - n
    for p in range(2, min(last, truncation - n) + 1):
        k[p] += 1
        child_eig = eig if p % m else eig + p
        child_q = q + length * ((last - p) // m - last // m) + (length + 1) * (p // m)
        _visit(m, truncation, k, n + p, p, length + 1, child_eig, child_q, eigenvalues, invariants)
        k[p] -= 1


def _walk(m: int, truncation: int) -> _Census:
    """Visit each partition of each n <= truncation once, the empty one
    included: check its basis vector against the mode-m weight operator,
    tally its eigenvalue and support invariant, then check the eigenvalue
    table against :func:`product_series`, which checks itself against the
    partition counts.

    Each first part a gets its own vector of length a + 1, the length the
    operator sees for every partition with largest part a.
    """
    if truncation < 0:
        raise UsageError("truncation must be nonnegative")
    if m < 1:
        raise UsageError(f"m must be positive, got {m}")
    eigenvalues = [[0] * (n + 1) for n in range(truncation + 1)]
    invariants = [[0] * (n + 1) for n in range(truncation + 1)]
    _visit(m, truncation, [0], 0, 0, 0, 0, 0, eigenvalues, invariants)
    for a in range(1, truncation + 1):
        k = [0] * (a + 1)
        k[a] = 1
        _visit(m, truncation, k, a, a, 1, 0 if a % m else a, a // m, eigenvalues, invariants)
    if eigenvalues != product_series(m, truncation):
        raise IdentityViolation("trace sum disagrees with its product expansion")
    return _Census(eigenvalues, invariants)


def trace_series(m: int, truncation: int) -> Triangle:
    """Bigraded trace of s^(degree) t^(mode-m weight) over Fock space.

    Computed by summing over the partition basis with operator-checked
    eigenvalues, in one walk for the whole triangle, which checks it
    coefficientwise against the Euler-product expansion.
    """
    return _walk(m, truncation).eigenvalues


def product_series(m: int, truncation: int) -> Triangle:
    """The counting series whose s^n t^(q*m) coefficient is (number of
    partitions of q) * (number of m-regular partitions of n - q*m),
    expanded from its Euler product: over i not divisible by m of
    1 / (1 - s^i), times over all i of 1 / (1 - (s t)^(i m)).  Checked
    against those counts on the whole triangle.
    """
    steps = [(i, 0) for i in range(1, truncation + 1) if i % m != 0]
    steps += [(i * m, i * m) for i in range(1, truncation // m + 1)]
    table = [[0] * (n + 1) for n in range(truncation + 1)]
    table[0][0] = 1
    # multiply by 1 / (1 - s^a t^b) for each step (a, b)
    for a, b in steps:
        for n in range(a, truncation + 1):
            row = table[n]
            prev = table[n - a]
            for e in range(b, n + 1):
                if e - b <= n - a:
                    row[e] += prev[e - b]
    for n in range(truncation + 1):
        for e in range(n + 1):
            if e % m == 0:
                expected = count_partitions(e // m) * count_m_regular(n - e, m)
            else:
                expected = 0
            if table[n][e] != expected:
                raise IdentityViolation(
                    f"product expansion disagrees with counts at s^{n} t^{e}"
                )
    return table


class StratumCounts(NamedTuple):
    n: int
    q: int
    count_qm: int
    count_product: int
    dim_eigenspace: int

    @property
    def ok(self) -> bool:
        return self.count_qm == self.count_product == self.dim_eigenspace


def verify_bo(m: int, n_max: int) -> list[StratumCounts]:
    """Three counts per stratum q of each n <= n_max, which must agree:

    - count_qm: partitions of n with support invariant q, tallied by the walk;
    - count_product: count_partitions(q) * count_m_regular(n - q*m);
    - dim_eigenspace: basis vectors of degree n with weight operator
      eigenvalue q*m, tallied by the same walk.

    dim_eigenspace is the s^n t^(q*m) entry of the walk's table, which the
    walk checks against the one expansion of product_series, and that
    expansion against the partition counts.
    """
    census = _walk(m, n_max)
    return [
        StratumCounts(
            n=n,
            q=q,
            count_qm=census.invariants[n][q],
            count_product=count_partitions(q) * count_m_regular(n - q * m, m),
            dim_eigenspace=census.eigenvalues[n][q * m],
        )
        for n in range(n_max + 1)
        for q in range(n // m + 1)
    ]
