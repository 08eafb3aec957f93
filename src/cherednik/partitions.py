"""Integer partition combinatorics underlying the support classification.

Partitions are canonical tuples of weakly decreasing positive integers; the
empty tuple is the partition of 0.  Everything here is pure and exact.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import zip_longest
from math import factorial, prod

from .errors import UsageError

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Canonicalize an iterable of parts, rejecting anything that is not a
    weakly decreasing sequence of positive integers (trailing zeros are
    stripped); parts go through operator.index, so 2.7 and "3" are refused."""
    try:
        lam = tuple(map(operator.index, parts))
    except TypeError:
        raise UsageError(f"parts must be integers, got {parts!r}") from None
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    for i, p in enumerate(lam):
        if p < 1:
            raise UsageError(f"parts must be positive, got {lam}")
        if i + 1 < len(lam) and lam[i + 1] > p:
            raise UsageError(f"parts must be weakly decreasing, got {lam}")
    return lam


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become row lengths."""
    cols: list[int] = []
    prev, length = 0, len(lam)
    # walking up from the last row, columns prev+1..p have length `length`
    for p in reversed(lam):
        if p != prev:
            cols += [length] * (p - prev)
            prev = p
        length -= 1
    return tuple(cols)


def dimension(lam: Partition) -> int:
    """dim S^lam, the number of standard tableaux of shape lam: |lam|!
    over the product of the hook lengths (Frame, Robinson and Thrall, Canad.
    J. Math. 6 (1954))."""
    cols = conjugate(lam)
    hooks = prod(p - j + cols[j] - i - 1 for i, p in enumerate(lam) for j in range(p))
    return factorial(size(lam)) // hooks


def multiplicities(lam: Partition) -> dict[int, int]:
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return mult


def is_m_regular(lam: Partition, m: int) -> bool:
    """True iff no part value occurs m or more times."""
    return all(k < m for k in multiplicities(lam).values())


def support_invariant(lam: Partition, m: int) -> int:
    """The stratum index q attached to lam at denominator m.

    Computed as sum over i of i * floor((lam_i - lam_{i+1}) / m), with the
    sequence padded by a trailing zero.  Always satisfies q * m <= |lam|.
    """
    if m < 2:
        raise UsageError(f"m must be at least 2, got {m}")
    q = prev = 0
    # at index i, prev = lam_i and p = lam_{i+1} (1-based), so row i adds
    # i * floor((prev - p) / m); rows inside a run of equal parts add nothing
    for i, p in enumerate(lam):
        if p != prev:
            q += i * ((prev - p) // m)
            prev = p
    return q + len(lam) * (prev // m)


def add(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum; adding the empty partition is the identity."""
    return tuple(map(operator.add, lam, mu)) + lam[len(mu) :] + mu[len(lam) :]


def scale(m: int, mu: Partition) -> Partition:
    """Componentwise multiple (m * mu_1, m * mu_2, ...)."""
    return tuple([m * p for p in mu]) if m else ()


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union of the parts, sorted back into a partition."""
    return tuple(sorted(lam + mu, reverse=True))


def decompose(lam: Partition, m: int) -> tuple[Partition, Partition]:
    """Split lam = m*mu + nu componentwise with conjugate(nu) m-regular.

    The splitting is computed greedily from the difference sequence: nu keeps
    each difference reduced mod m and mu absorbs the quotients, so the pair is
    unique and size(mu) equals support_invariant(lam, m).
    """
    if m < 2:
        raise UsageError(f"m must be at least 2, got {m}")
    mu: list[int] = []
    nu: list[int] = []
    mu_i = nxt = 0
    # walking up from the last row, mu_i sums the quotients of the differences
    # and nu_i = p - m * mu_i the remainders: both only grow, so dropping zeros
    # drops exactly the trailing zeros, and equal parts add nothing
    for p in reversed(lam):
        if p != nxt:
            mu_i += (p - nxt) // m
            nxt = p
        if mu_i:
            mu.append(mu_i)
        nu_i = p - m * mu_i
        if nu_i:
            nu.append(nu_i)
    return tuple(reversed(mu)), tuple(reversed(nu))


def decompose_regular_parts(lam: Partition, m: int) -> tuple[Partition, Partition]:
    """The multiplicity-side splitting: lam = union of m copies of mu with nu,
    where nu itself is m-regular.

    This is the conjugate of :func:`decompose`; recombine with
    ``union(scale_union, nu)`` where scale_union is m multiset copies of mu.
    """
    mu, nu = decompose(conjugate(lam), m)
    return conjugate(mu), conjugate(nu)


def recombine_regular_parts(mu: Partition, nu: Partition, m: int) -> Partition:
    """Inverse of :func:`decompose_regular_parts`."""
    return union(nu, mu * m)


def splitting(lam: Partition, m: int, regular: str) -> tuple[Partition, Partition, bool]:
    """The pair (mu, nu) of lam on the given regular side, "transpose" for
    :func:`decompose` or "parts" for :func:`decompose_regular_parts`, and
    whether recombining it gives lam back."""
    if regular == "transpose":
        mu, nu = decompose(lam, m)
        return mu, nu, add(scale(m, mu), nu) == lam
    mu, nu = decompose_regular_parts(lam, m)
    return mu, nu, recombine_regular_parts(mu, nu, m) == lam


def dominates(alpha: Partition, beta: Partition) -> bool:
    """True iff alpha >= beta in dominance order, for alpha and beta of equal
    size: every prefix sum of alpha is at least the one of beta."""
    sa = sb = 0
    for a, b in zip_longest(alpha, beta, fillvalue=0):
        sa += a
        sb += b
        if sa < sb:
            return False
    return True


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first.

    Algorithm ZS1 of Zoghbi and Stojmenovic (Int. J. Comput. Math. 70,
    1998).  x holds the current partition in its first `length` entries,
    followed by ones, and h indexes its last part above 1.  Each step lowers
    x[h] by one and refills the parts after it greedily with parts of the
    new x[h], which gives the next partition in reverse lexicographic order.
    """
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    if n == 0:
        return [()]
    x = [1] * n
    x[0] = n
    length, h = 1, 0
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            length += 1
        else:
            r = x[h] - 1
            t = length - h  # the unit taken from x[h] plus the trailing ones
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                length = h + 1
            else:
                length = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:length]))
    return out


def enumerate_m_regular(n: int, m: int) -> list[Partition]:
    """All m-regular partitions of n, in the order of enumerate_partitions."""
    return [lam for lam in enumerate_partitions(n) if is_m_regular(lam, m)]


@cache
def count_partitions(n: int) -> int:
    table = [1] + [0] * n
    for k in range(1, n + 1):
        for t in range(k, n + 1):
            table[t] += table[t - k]
    return table[n]


@cache
def count_m_regular(n: int, m: int) -> int:
    """Number of partitions of n in which no part repeats m or more times."""
    table = [1] + [0] * n
    for k in range(1, n + 1):
        # each part value k may appear 0..m-1 times
        new = table[:]
        for reps in range(1, m):
            if reps * k > n:
                break
            for t in range(reps * k, n + 1):
                new[t] += table[t - reps * k]
        table = new
    return table[n]


def support_level(lam: Partition, m: int, sign: int) -> tuple[int, Partition, Partition]:
    """Stratum index q of the irreducible labelled by lam, with the splitting
    (mu, nu) it comes with: those of lam itself when the deformation
    parameter is positive, of its conjugate when negative."""
    effective = lam if sign > 0 else conjugate(lam)
    return (support_invariant(effective, m), *decompose(effective, m))


def label_from_pair(mu: Partition, nu: Partition, m: int) -> Partition:
    """Partition labelling the irreducible attached to the pair (mu, nu) at
    positive parameter, where nu must be m-regular: m*mu + conjugate(nu).
    At negative parameter the label is its conjugate."""
    return add(scale(m, mu), conjugate(nu))


def stratum_census(
    n: int, m: int
) -> tuple[dict[int, list[tuple[Partition, Partition, Partition]]], bool]:
    """Every partition of n as a triple (lam, mu, nu) with lam = m*mu + nu,
    grouped by support invariant q in increasing order, each group in the
    order of enumerate_partitions, and the verdict on the classification.

    The verdict holds when the strata are exactly q = 0..n//m, stratum q has
    count_partitions(q) * count_m_regular(n - q*m, m) members, and each
    member's nu has an m-regular conjugate that label_from_pair takes, with
    mu, back to the member.
    """
    groups: dict[int, list[tuple[Partition, Partition, Partition]]] = {}
    ok = True
    # mu and nu repeat across the rows: each distinct one is stored once, and
    # each distinct nu conjugated and tested for regularity once
    mus: dict[Partition, Partition] = {}
    nus: dict[Partition, tuple[Partition, Partition, bool]] = {}
    for lam in enumerate_partitions(n):
        mu, nu = decompose(lam, m)
        mu = mus.setdefault(mu, mu)
        if nu not in nus:
            regular = conjugate(nu)
            nus[nu] = (nu, regular, is_m_regular(regular, m))
        nu, regular, is_regular = nus[nu]
        ok = ok and is_regular and label_from_pair(mu, regular, m) == lam
        groups.setdefault(support_invariant(lam, m), []).append((lam, mu, nu))
    census = dict(sorted(groups.items()))
    ok = ok and list(census) == list(range(n // m + 1))
    for q, members in census.items():
        ok = ok and len(members) == count_partitions(q) * count_m_regular(n - q * m, m)
    return census, ok
