"""Symmetric group character data at the Grothendieck-group level.

Induction multiplicities come from the Littlewood-Richardson rule, one
horizontal strip per letter, and are checked against the hook length
formula (:func:`cherednik.partitions.dimension`).  Everything is exact
integer arithmetic; only the weights, -c times an integer content sum, are
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .errors import IdentityViolation, UsageError
from .partitions import Partition, add, dimension, dominates, enumerate_partitions, size

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


def _strips(shape: Partition, prev: tuple[int, ...], boxes: int, room: int):
    """The horizontal strips of `boxes` boxes that the next letter can add
    to shape, as (new shape, boxes per row) pairs.

    The strip's boxes in rows <= r may number at most the previous letter's
    boxes `prev` in rows < r; `room` is that allowance above the top row,
    which is `boxes` (no bound) for the first letter and 0 after it.
    """
    rows = shape + (0,)
    out = []

    def place(r, left, room, strip):
        if not left:
            new = tuple(p + t for p, t in zip_longest(rows, strip, fillvalue=0))
            out.append((new if new[-1] else new[:-1], strip))
            return
        if r == len(rows):
            return
        # a horizontal strip puts row r no further out than row r - 1 was
        cap = min(left, room, rows[r - 1] - rows[r] if r else left)
        room += prev[r] if r < len(prev) else 0
        for t in range(cap, -1, -1):
            place(r + 1, left - t, room - t, strip + (t,))

    place(0, boxes, room, ())
    return out


def lr_induce(lam: Partition, mu: Partition) -> CharacterVector:
    """Induction product of the irreducibles lam and mu as a multiplicity
    vector over partitions of |lam| + |mu|, in reverse lexicographic order.

    By the Littlewood-Richardson rule (Fulton, "Young Tableaux", ch. 5;
    Macdonald, "Symmetric Functions and Hall Polynomials", I.9) the
    multiplicity of nu counts the chains lam = nu^0 < nu^1 < ... < nu^l = nu
    in which nu^k / nu^(k-1) is a horizontal strip of mu_k boxes labelled k
    and the reverse reading word is a lattice word: the k's in rows <= r
    number at most the (k-1)'s in rows < r.  Each letter adds its strips to
    every state (shape, strip of the previous letter) and equal states are
    summed, so one pass counts every nu.

    The coefficient of lam + mu is always exactly 1 and every constituent is
    dominated by lam + mu.
    """
    states = {(lam, ()): 1}
    for k, boxes in enumerate(mu):
        grown: dict = {}
        for (shape, prev), count in states.items():
            for state in _strips(shape, prev, boxes, 0 if k else boxes):
                grown[state] = grown.get(state, 0) + count
        states = grown
    out: CharacterVector = {}
    for (nu, _), count in states.items():
        out[nu] = out.get(nu, 0) + count
    return dict(sorted(out.items(), reverse=True))


class InductionVerdict(NamedTuple):
    """The induction product of lam and mu with its leading term lam + mu,
    and the lowest weight of that term when a parameter was given."""

    product: CharacterVector
    leading: Partition
    weight: Fraction | None
    ok: bool


def induction_verdict(lam: Partition, mu: Partition, c: Fraction | None) -> InductionVerdict:
    """Compute the induction product once and check it.

    ok means that lam + mu occurs with coefficient exactly 1 and dominates
    every constituent; that the constituents' dimensions add up to the
    dimension of the induced module, sum_nu c^nu f^nu = C(n, |lam|) f^lam
    f^mu for n = |lam| + |mu|, which no tableau count enters; and, for a
    parameter c (which must be positive), that the weight of lam + mu is
    strictly below the weight of every other constituent.
    """
    if c is not None and c <= 0:
        raise UsageError("leading term analysis requires a positive parameter")
    target = add(lam, mu)
    product = lr_induce(lam, mu)
    induced = comb(size(target), size(lam)) * dimension(lam) * dimension(mu)
    ok = (
        product.get(target) == 1
        and all(dominates(target, nu) for nu in product)
        and sum(coeff * dimension(nu) for nu, coeff in product.items()) == induced
    )
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
