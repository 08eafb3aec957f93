"""The stratum census and the Fock walk as the library had them before the
walk looped over the parts equal to 1 and the census shared its nu and mu
work, kept verbatim as differential oracles, together with the partition
and weight-operator primitives they called then; and the LLT ladder vectors
as the library built them before it applied each divided power in closed
form: k single steps of f_i, then division by the quantum integers [2] to
[k].  The library must give the same census, verdict, walk tables, ladder
vectors and decomposition numbers."""

from functools import cache
from itertools import zip_longest
from types import MappingProxyType

import pytest

from cherednik import fock as F
from cherednik import hecke as Hk
from cherednik import partitions as P
from cherednik.errors import IdentityViolation, UsageError
from cherednik.fock import _Census, _partition, annihilate, create
from cherednik.hecke import FockVector, Laurent, _add_shifted, _i_nodes, _ladder, _nonzero
from cherednik.partitions import (
    Partition,
    count_m_regular,
    count_partitions,
    enumerate_m_regular,
    enumerate_partitions,
    is_m_regular,
    support_invariant,
)

# ---------------------------------------------------------------------------
# partitions


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become row lengths."""
    cols: list[int] = []
    prev = 0
    # walking up from the last row, columns prev+1..lam[length-1] have length `length`
    for length in range(len(lam), 0, -1):
        p = lam[length - 1]
        cols += [length] * (p - prev)
        prev = p
    return tuple(cols)


def add(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum; adding the empty partition is the identity."""
    return tuple(a + b for a, b in zip_longest(lam, mu, fillvalue=0))


def scale(m: int, mu: Partition) -> Partition:
    """Componentwise multiple (m * mu_1, m * mu_2, ...)."""
    return tuple(m * p for p in mu) if m else ()


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
    mu_i = nu_i = nxt = 0
    # walking up from the last row both sums only grow, so dropping zeros
    # drops exactly the trailing zeros
    for p in reversed(lam):
        quot, rem = divmod(p - nxt, m)
        mu_i += quot
        nu_i += rem
        if mu_i:
            mu.append(mu_i)
        if nu_i:
            nu.append(nu_i)
        nxt = p
    return tuple(reversed(mu)), tuple(reversed(nu))


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
    for lam in enumerate_partitions(n):
        mu, nu = decompose(lam, m)
        regular = conjugate(nu)
        ok = ok and is_m_regular(regular, m) and label_from_pair(mu, regular, m) == lam
        groups.setdefault(support_invariant(lam, m), []).append((lam, mu, nu))
    census = dict(sorted(groups.items()))
    ok = ok and list(census) == list(range(n // m + 1))
    for q, members in census.items():
        ok = ok and len(members) == count_partitions(q) * count_m_regular(n - q * m, m)
    return census, ok


# ---------------------------------------------------------------------------
# the Fock walk


def weight_operator(m: int, k: list[int]) -> int:
    """Apply sum_{i>0} create(i*m) o annihilate(i*m) to the basis vector k,
    mode by mode and in place, and return the summed coefficient.

    Each mode should hand k back unchanged, so the operator is diagonal on
    the basis, with eigenvalue the total size of the parts divisible by m.
    The operator composition here is the computation; the walk checks that
    k came back and that the coefficient equals the eigenvalue it carries.
    """
    total = 0
    for i in range(m, len(k), m):
        c = annihilate(i, k)
        if c:
            create(i, k)
            total += c
    return total


def _visit(m, truncation, k, n, last, length, eig, q, eigenvalues, invariants) -> None:
    """Check the basis vector k of one partition of n against the mode-m
    weight operator, tally it, then visit each partition that extends it by
    one part p <= last while the degree stays at most truncation.

    The partition has `length` parts, the smallest equal to `last`, weight
    operator eigenvalue eig and support invariant q.  k is extended in place
    and handed back as it came.
    """
    before = k[:]
    coeff = weight_operator(m, k)
    if k != before:
        lam = _partition(before)
        raise IdentityViolation(f"operator is not diagonal on {lam}: it moved {before} to {k}")
    if coeff != eig:
        raise IdentityViolation(f"operator has eigenvalue {coeff} on {_partition(k)}, not {eig}")
    eigenvalues[n][eig] += 1
    if invariants is not None:
        tally = invariants[n]
        tally[q] = tally.get(q, 0) + 1
    for p in range(1, min(last, truncation - n) + 1):
        k[p] += 1
        # q is the sum over rows i of i * ((lam_i - lam_{i+1}) // m), with a
        # zero after the last row: the term length * (last // m) becomes
        # length * ((last - p) // m), and the new row adds (length + 1) * (p // m)
        _visit(
            m,
            truncation,
            k,
            n + p,
            p,
            length + 1,
            eig if p % m else eig + p,
            q + length * ((last - p) // m - last // m) + (length + 1) * (p // m),
            eigenvalues,
            invariants,
        )
        k[p] -= 1


@cache
def _walk(m: int, truncation: int) -> _Census:
    """Visit each partition of each n <= truncation once, the empty one
    included: check its basis vector against the mode-m weight operator,
    tally the eigenvalue and, for m >= 2, tally the support invariant.

    Each first part a gets its own vector of length a + 1, the length the
    operator sees for every partition with largest part a.
    """
    if m < 1:
        raise UsageError(f"m must be positive, got {m}")
    eigenvalues = [[0] * (n + 1) for n in range(truncation + 1)]
    invariants = [{} for _ in range(truncation + 1)]
    tallied = invariants if m > 1 else None
    _visit(m, truncation, [0], 0, 0, 0, 0, 0, eigenvalues, tallied)
    for a in range(1, truncation + 1):
        k = [0] * (a + 1)
        k[a] = 1
        _visit(m, truncation, k, a, a, 1, 0 if a % m else a, a // m, eigenvalues, tallied)
    return _Census(
        tuple(tuple(row) for row in eigenvalues),
        tuple(MappingProxyType(row) for row in invariants),
    )


# ---------------------------------------------------------------------------
# the LLT ladder vectors


def f(vec: FockVector, i: int, e: int) -> FockVector:
    """f_i: each addable i-node gamma of lam gives lam + gamma with the
    factor v^(a - b), where a and b count the addable and the removable
    i-nodes of lam above gamma, in an earlier row."""
    out: FockVector = {}
    for lam, coeff in vec.items():
        shift = 0
        for r, addable in _i_nodes(lam, i, e):
            if not addable:
                shift -= 1
                continue
            nu = lam[:r] + (lam[r] + 1,) + lam[r + 1 :] if r < len(lam) else lam + (1,)
            _add_shifted(out.setdefault(nu, {}), coeff, shift)
            shift += 1
    return _nonzero(out)


def divide_quantum(a: Laurent, j: int) -> Laurent:
    """a / [j] for the quantum integer [j] = v^(1-j) + v^(3-j) + ... + v^(j-1),
    by long division from the lowest degree; IdentityViolation unless exact."""
    rem = dict(a)
    top = max(rem)
    quot = {}
    while rem:
        d = min(rem)
        if d > top - 2 * (j - 1):
            raise IdentityViolation(f"[{j}] does not divide {a}")
        c = rem.pop(d)
        quot[d + j - 1] = c
        for t in range(1, j):
            x = rem.get(d + 2 * t, 0) - c
            if x:
                rem[d + 2 * t] = x
            else:
                rem.pop(d + 2 * t, None)
    return quot


def ladder_vector(mu: Partition, e: int) -> FockVector:
    """A(mu): the divided powers f_i^(k) applied to the empty partition, one
    per ladder L in increasing order, with i = -L mod e and k the number of
    nodes of mu on L."""
    counts: dict[int, int] = {}
    for r, part in enumerate(mu):
        for c in range(part):
            ladder = _ladder(r, c, e)
            counts[ladder] = counts.get(ladder, 0) + 1
    vec: FockVector = {(): {0: 1}}
    for ladder in sorted(counts):
        k = counts[ladder]
        for _ in range(k):
            vec = f(vec, -ladder % e, e)
        for lam, coeff in vec.items():
            for j in range(2, k + 1):
                coeff = divide_quantum(coeff, j)
            vec[lam] = coeff
    return vec


# ---------------------------------------------------------------------------
# the differential tests

CENSUS_CASES = [(n, m) for m in range(2, 6) for n in range(21)] + [(35, 3)]
WALK_CASES = [(m, t) for m in range(1, 6) for t in range(21)] + [(3, 35)]


@pytest.mark.parametrize(
    "cases", [CENSUS_CASES[:-1], CENSUS_CASES[-1:]], ids=["n<=20,m=2..5", "n=35,m=3"]
)
def test_census_and_verdict_match_the_oracle(cases):
    for n, m in cases:
        census, ok = P.stratum_census(n, m)
        assert (census, ok) == stratum_census(n, m), (n, m)
        assert ok, (n, m)


def test_census_shares_equal_mu_and_nu():
    census, _ = P.stratum_census(20, 3)
    for slot in (1, 2):
        parts = [triple[slot] for members in census.values() for triple in members]
        assert len({id(x) for x in parts}) == len(set(parts))


@pytest.mark.parametrize(
    "cases", [WALK_CASES[:-1], WALK_CASES[-1:]], ids=["N<=20,m=1..5", "m=3,N=35"]
)
def test_walk_tables_match_the_oracle(cases):
    for m, truncation in cases:
        new, old = F._walk(m, truncation), _walk(m, truncation)
        assert new.eigenvalues == old.eigenvalues, (m, truncation)
        assert [dict(r) for r in new.invariants] == [dict(r) for r in old.invariants], (m, truncation)


def test_primitives_match_the_oracle():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert P.conjugate(lam) == conjugate(lam), lam
            for m in range(2, 6):
                assert P.decompose(lam, m) == decompose(lam, m), (lam, m)
                mu, nu = decompose(lam, m)
                regular = conjugate(nu)
                assert P.label_from_pair(mu, regular, m) == label_from_pair(mu, regular, m) == lam
            for mu in enumerate_partitions(min(n, 8)):
                assert P.add(lam, mu) == add(lam, mu) == P.add(mu, lam), (lam, mu)
            for m in range(4):
                assert P.scale(m, lam) == scale(m, lam), (lam, m)
            for m in range(1, 6):
                k = [0] * (lam[0] + 1 if lam else 1)
                for p in lam:
                    k[p] += 1
                before = k[:]
                assert F.weight_operator(m, k) == weight_operator(m, before[:]), (lam, m)
                assert k == before, (lam, m)


def test_quantum_division():
    # [2] [3] = v^-3 + 2 v^-1 + 2 v + v^3
    product = {-3: 1, -1: 2, 1: 2, 3: 1}
    assert divide_quantum(product, 2) == {-2: 1, 0: 1, 2: 1}
    assert divide_quantum(product, 3) == {-1: 1, 1: 1}
    with pytest.raises(IdentityViolation, match=r"^\[2\] does not divide"):
        divide_quantum({0: 1}, 2)
    with pytest.raises(IdentityViolation):
        divide_quantum(product, 4)


# every e-regular mu of p <= 12 at e = 2..6: 867 pairs
LADDER_CASES = [(mu, e) for e in range(2, 7) for p in range(1, 13) for mu in enumerate_m_regular(p, e)]


def test_ladder_vectors_match_the_oracle():
    assert len(LADDER_CASES) == 867
    for mu, e in LADDER_CASES:
        assert Hk._ladder_vector(mu, e) == ladder_vector(mu, e), (mu, e)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_decomposition_numbers_match_the_oracle(monkeypatch, e):
    new = Hk._decomposition_numbers(12, e)
    monkeypatch.setattr(Hk, "_ladder_vector", ladder_vector)
    assert new == Hk._decomposition_numbers(12, e)
