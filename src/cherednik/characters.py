"""Symmetric group character data at the Grothendieck-group level.

Character values come from the Murnaghan-Nakayama recursion and induction
multiplicities from Littlewood-Richardson tableau counts.  Everything is
exact integer arithmetic; only the weights, -c times an integer content sum,
are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import IdentityViolation
from .partitions import Partition, add, dominates, enumerate_partitions, size

# multiplicity vector over partitions of a fixed n; zero entries are absent
CharacterVector = dict[Partition, int]


def content_sum(lam: Partition) -> int:
    """Sum of j - i over the boxes (i, j) of the diagram, 1-indexed."""
    total = 0
    for i, p in enumerate(lam, start=1):
        total += p * (p + 1) // 2 - i * p
    return total


def lowest_weight(lam: Partition, c: Fraction) -> Fraction:
    """Scalar by which the reflection part of the Euler element acts on the
    irreducible labelled by lam: -c times the content sum.

    The content sum is evaluated twice, by content_sum and by the doubled
    Frobenius-type row formula sum_i [lam_i^2 - (2i - 1) lam_i]; the two
    integers must agree exactly.
    """
    doubled_by_rows = sum(p * p - (2 * i - 1) * p for i, p in enumerate(lam, start=1))
    by_contents = content_sum(lam)
    if doubled_by_rows != 2 * by_contents:
        raise IdentityViolation(
            f"weight formulas disagree on {lam}: {doubled_by_rows} vs {2 * by_contents}"
        )
    return -Fraction(c) * by_contents


def _beta_to_partition(beta: tuple[int, ...]) -> Partition:
    # beta is strictly decreasing; undo the staircase shift
    n = len(beta)
    lam = tuple(b - (n - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in lam if p > 0)


@cache
def _mn(lam: Partition, mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    n = len(lam)
    beta = tuple(lam[i] + (n - 1 - i) for i in range(n))
    betaset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in betaset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = tuple(sorted([c for c in beta if c != b] + [nb], reverse=True))
        total += (-1) ** height * _mn(_beta_to_partition(newbeta), rest)
    return total


def character_value(lam: Partition, cycle_type: Partition) -> int:
    """Character of the irreducible labelled by lam at the class of the given
    cycle type, by repeated border-strip removal."""
    if size(lam) != size(cycle_type):
        raise ValueError(
            f"cycle type {cycle_type} does not match |{lam}| = {size(lam)}"
        )
    return _mn(lam, tuple(sorted(cycle_type, reverse=True)))


def dimension(lam: Partition) -> int:
    return character_value(lam, (1,) * size(lam)) if lam else 1


def _contains(nu: Partition, lam: Partition) -> bool:
    if len(lam) > len(nu):
        return False
    return all(nu[i] >= lam[i] for i in range(len(lam)))


def _lr_count(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Number of Littlewood-Richardson fillings of the skew shape nu/lam with
    content mu.

    Cells are visited in reverse reading order (rows top to bottom, right to
    left inside a row), which makes the lattice-word condition a running
    prefix check on the content counts.
    """
    cells = []
    for r in range(len(nu)):
        lo = lam[r] if r < len(lam) else 0
        for col in range(nu[r] - 1, lo - 1, -1):
            cells.append((r, col))
    if len(cells) != size(mu):
        return 0
    if not cells:
        return 1
    grid = {}
    counts = [0] * len(mu)

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, col = cells[idx]
        above = grid.get((r - 1, col), 0)
        right = grid.get((r, col + 1))
        total = 0
        for v in range(1, len(mu) + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue  # reverse reading word must stay a lattice word
            if v <= above:
                continue  # strict down the column
            if right is not None and v > right:
                continue  # weak along the row
            counts[v - 1] += 1
            grid[(r, col)] = v
            total += fill(idx + 1)
            del grid[(r, col)]
            counts[v - 1] -= 1
        return total

    return fill(0)


def lr_induce(lam: Partition, mu: Partition) -> CharacterVector:
    """Induction product of the irreducibles lam and mu as a multiplicity
    vector over partitions of |lam| + |mu|.

    The coefficient of lam + mu is always exactly 1 and every constituent is
    dominated by lam + mu.
    """
    n = size(lam) + size(mu)
    out: CharacterVector = {}
    for nu in enumerate_partitions(n):
        if not _contains(nu, lam):
            continue
        coeff = _lr_count(nu, lam, mu)
        if coeff:
            out[nu] = coeff
    return out


class InductionVerdict(NamedTuple):
    """The induction product of lam and mu with its leading term lam + mu,
    and the lowest weight of that term when a parameter was given."""

    product: CharacterVector
    leading: Partition
    weight: Fraction | None
    ok: bool


def induction_verdict(lam: Partition, mu: Partition, c: Fraction | None) -> InductionVerdict:
    """Compute the induction product once and check its leading term.

    ok means that lam + mu occurs with coefficient exactly 1 and dominates
    every constituent, and, for a parameter c (which must be positive), that
    its weight is strictly below the weight of every other constituent.
    """
    if c is not None and c <= 0:
        raise ValueError("leading term analysis requires a positive parameter")
    target = add(lam, mu)
    product = lr_induce(lam, mu)
    ok = product.get(target) == 1 and all(dominates(target, nu) for nu in product)
    weight = None
    if c is not None:
        weight = lowest_weight(target, c)
        ok = ok and all(lowest_weight(nu, c) > weight for nu in product if nu != target)
    return InductionVerdict(product, target, weight, ok)


def dominance_weight_consistent(n: int, c: Fraction) -> tuple[dict[Partition, Fraction], bool]:
    """The lowest weight at c of every partition of n, in the order of
    enumerate_partitions, and whether strict dominance forces a strictly
    smaller weight at c > 0 and a strictly larger one at c < 0; at c = 0
    there is nothing to check.

    Only the one-box moves lam -> lam - e_i + e_j (i < j) are compared: they
    generate dominance order (Brylawski, Discrete Math. 6 (1973)), so
    monotonicity along them gives it on every dominance-comparable pair.
    """
    weights = {lam: lowest_weight(lam, c) for lam in enumerate_partitions(n)}
    sign = (c > 0) - (c < 0)
    if not sign:
        return weights, True
    for lam, h in weights.items():
        rows = lam + (0,)
        for i in range(len(lam)):
            for j in range(i + 1, len(rows)):
                # a box leaves the end of row i and lands at the end of row j
                gap = 2 if j == i + 1 else 1
                if rows[i] - rows[i + 1] < gap or rows[j - 1] - rows[j] < gap:
                    continue
                moved = rows[:i] + (rows[i] - 1,) + rows[i + 1 : j] + (rows[j] + 1,) + rows[j + 1 :]
                if sign * (weights[moved if moved[-1] else moved[:-1]] - h) <= 0:
                    return weights, False
    return weights, True
