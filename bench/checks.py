"""Independent checks of `cherednik` CLI outputs.

Nothing here imports `cherednik`: every expected value is recomputed from
first principles with plain ints and `fractions.Fraction`, so a wrong answer
in the library cannot hide behind a shared helper.

Entry point: ``check(kind, params, returncode, stdout)`` returns ``None`` when
the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, isqrt

# Reference outputs of `hecke-simples` from the project ROADMAP:
# (p, m) -> (rad_dim, simples, block_dims).
HECKE_FIXTURE = {
    (5, 2): (78, 3, [25, 16, 1]),
    (5, 3): (50, 5, [36, 16, 16, 1, 1]),
    (5, 4): (34, 6, [36, 16, 16, 16, 1, 1]),
}

# 61-bit Mersenne prime for the modular ranks below.
PRIME = (1 << 61) - 1


class CheckFailed(Exception):
    pass


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# -- partitions ---------------------------------------------------------------


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, built iteratively from the largest part down."""
    out = []
    stack = [((), n, n)]
    while stack:
        prefix, rest, cap = stack.pop()
        if rest == 0:
            out.append(prefix)
            continue
        for k in range(1, min(rest, cap) + 1):
            stack.append((prefix + (k,), rest - k, k))
    return tuple(out)


@cache
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > n:
            break
        g2 = k * (3 * k + 1) // 2
        sign = 1 if k % 2 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


@cache
def no_part_divisible_count(n: int, m: int) -> int:
    """Partitions of n with no part divisible by m; by Glaisher's bijection
    this also counts the partitions with no part repeated m or more times."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        if part % m:
            for t in range(part, n + 1):
                table[t] += table[t - part]
    return table[n]


def is_m_regular(lam, m: int) -> bool:
    return all(lam.count(v) < m for v in set(lam))


def q_invariant(lam, m: int) -> int:
    """Stratum index: over each column height i, i times the number of whole
    groups of m columns of that height."""
    padded = list(lam) + [0]
    return sum((i + 1) * ((padded[i] - padded[i + 1]) // m) for i in range(len(lam)))


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def content_sum(lam) -> int:
    return sum(j - i for i, p in enumerate(lam) for j in range(p))


def hook_dimension(lam) -> int:
    """Dimension of the Specht module, by the hook length formula."""
    conj = conjugate(lam)
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def parse_key(key: str) -> tuple[int, ...]:
    """Inverse of the CLI's "[3,1]" partition keys."""
    inner = key.strip()[1:-1]
    return tuple(int(t) for t in inner.split(",")) if inner else ()


# -- exact and modular linear algebra ------------------------------------------


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over GF(PRIME).  It never exceeds the rank over Q of the integer
    matrix, and equals it unless PRIME divides every maximal nonzero minor."""
    rows = [[x % PRIME for x in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], PRIME - 2, PRIME)
        prow = [x * inv % PRIME for x in prow]
        rows[rank] = prow
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(a - f * b) % PRIME for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def fraction_mod_p(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, PRIME - 2, PRIME) % PRIME


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d in n variables."""
    out = []
    for bars in combinations(range(d + n - 1), n - 1):
        prev, exp = -1, []
        for b in bars:
            exp.append(b - prev - 1)
            prev = b
        exp.append(d + n - 2 - prev)
        out.append(tuple(exp))
    return out


def dunkl(i: int, poly: dict, n: int, c: Fraction) -> dict:
    """D_i f = d_i f - c * sum_{j != i} (f - s_ij f) / (x_i - x_j), with the
    divided difference of x_i^a x_j^b expanded as a geometric sum."""
    out: dict[tuple[int, ...], Fraction] = {}

    def add(exp, coeff):
        out[exp] = out.get(exp, 0) + coeff

    for exp, coeff in poly.items():
        a = exp[i]
        if a:
            e = list(exp)
            e[i] -= 1
            add(tuple(e), a * coeff)
        for j in range(n):
            b = exp[j]
            if j == i or a == b:
                continue
            # (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j) for a != b
            lo, hi = min(a, b), max(a, b)
            sign = 1 if a > b else -1
            for t in range(hi - lo):
                e = list(exp)
                e[i] = lo + t
                e[j] = hi - 1 - t
                add(tuple(e), -c * sign * coeff)
    return {e: v for e, v in out.items() if v}


def dunkl_matrix_rank(n: int, c: Fraction, d: int) -> tuple[int, int]:
    """(number of degree-d monomials, rank mod PRIME of the stacked map
    f -> (D_1 f, ..., D_n f) from degree d to degree d - 1)."""
    cols = monomials(n, d)
    target = {e: k for k, e in enumerate(monomials(n, d - 1))}
    rows = [[0] * len(cols) for _ in range(n * len(target))]
    for k, mon in enumerate(cols):
        for i in range(n):
            for exp, coeff in dunkl(i, {mon: Fraction(1)}, n, c).items():
                rows[i * len(target) + target[exp]][k] = fraction_mod_p(coeff)
    return len(cols), rank_mod_p(rows)


def glue_patterns(n: int, m: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """Unordered sets of q disjoint m-subsets of range(n)."""
    out = []

    def rec(avail, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for idx, first in enumerate(avail):
            for rest in combinations(avail[idx + 1 :], m - 1):
                later = [a for a in avail[idx + 1 :] if a not in rest]
                rec(later, left - 1, acc + [(first,) + rest])

    rec(list(range(n)), q, [])
    return out


def ideal_slice_dimension(n: int, m: int, q: int, d: int) -> int:
    """Dimension of the degree-d polynomials vanishing on every translate of
    the glued subspace: the kernel of restriction to all of them."""
    cols = monomials(n, d)
    rows: dict[tuple, list[int]] = {}
    for pattern in glue_patterns(n, m, q):
        var_of = list(range(n))
        for block in pattern:
            for i in block:
                var_of[i] = block[0]
        for k, mon in enumerate(cols):
            image = [0] * n
            for i, e in enumerate(mon):
                image[var_of[i]] += e
            rows.setdefault((pattern, tuple(image)), [0] * len(cols))[k] += 1
    return len(cols) - rank_mod_p(list(rows.values()))


# -- per-command checks ----------------------------------------------------------


def _check_hecke(p: dict, r: dict) -> None:
    pp, m = p["p"], p["m"]
    expect(r["p"] == pp and r["m"] == m, "echoed p/m differ from the flags")
    expect(r["dim"] == factorial(pp), f"dim {r['dim']} != {pp}!")
    regular = sum(1 for lam in partitions_of(pp) if is_m_regular(lam, m))
    expect(r["simples"] == regular, f"simples {r['simples']} != {regular} m-regular partitions")
    expect(r["expected_m_regular"] == regular, "expected_m_regular is wrong")
    expect(r["split_audit"] is True and r["upper_bound_only"] is False, "split audit did not pass")
    blocks = r["block_dims"]
    expect(isinstance(blocks, list) and len(blocks) == regular, "one block per simple expected")
    expect(sum(blocks) == r["dim"] - r["rad_dim"], "blocks do not exhaust the quotient")
    expect(all(isqrt(b) ** 2 == b for b in blocks), f"non-square block in {blocks}")
    if m > pp:
        # e > p: the algebra is semisimple with the symmetric group's blocks
        squares = sorted((hook_dimension(lam) ** 2 for lam in partitions_of(pp)), reverse=True)
        expect(r["rad_dim"] == 0 and blocks == squares, "semisimple case has wrong blocks")
    if (pp, m) in HECKE_FIXTURE:
        rad, simples, ref_blocks = HECKE_FIXTURE[(pp, m)]
        expect(
            (r["rad_dim"], r["simples"], blocks) == (rad, simples, ref_blocks),
            "differs from the reference outputs",
        )


def _check_bo_verify(p: dict, r: dict) -> None:
    n_max, ms = p["n_max"], p["m"]
    expect(r["m_values"] == ms and r["n_max"] == n_max, "echoed flags differ")
    expected_rows = sum(n // m + 1 for m in ms for n in range(n_max + 1))
    expect(len(r["rows"]) == expected_rows, "wrong number of rows")
    totals: dict[tuple[int, int], int] = {}
    for row in r["rows"]:
        n, m, q = row["n"], row["m"], row["q"]
        expect(row["ok"] is True, f"row n={n} m={m} q={q} not ok")
        want = partition_count(q) * no_part_divisible_count(n - q * m, m)
        expect(row["count_qm"] == want, f"count_qm wrong at n={n} m={m} q={q}")
        expect(
            row["count_product"] == row["dim_eigenspace"] == row["coeff_N"]
            == row["coeff_trace"] == want,
            f"count columns disagree at n={n} m={m} q={q}",
        )
        totals[(n, m)] = totals.get((n, m), 0) + row["count_qm"]
    for (n, m), total in totals.items():
        expect(total == partition_count(n), f"strata of n={n} m={m} do not sum to p(n)")


def _check_fock_trace(p: dict, r: dict) -> None:
    m, top = p["m"], p["max"]
    expect(len(r["rows"]) == (top + 1) * (top + 2) // 2, "wrong number of rows")
    sums = [0] * (top + 1)
    for row in r["rows"]:
        n, e, coeff = row["deg_s"], row["deg_t"], row["coeff"]
        # parts divisible by m carry weight e, the others fill n - e
        want = partition_count(e // m) * no_part_divisible_count(n - e, m) if e % m == 0 else 0
        expect(coeff == want, f"coefficient of s^{n} t^{e} is {coeff}, expected {want}")
        sums[n] += coeff
    for n, total in enumerate(sums):
        expect(total == partition_count(n), f"row sum at s^{n} is not p({n})")


def _check_census(p: dict, r: dict) -> None:
    n, m = p["n"], p["m"]
    sizes: dict[int, int] = {}
    q_of = {}
    for lam in partitions_of(n):
        q = q_invariant(lam, m)
        q_of[lam] = q
        sizes[q] = sizes.get(q, 0) + 1
    expect(r["total"] == len(q_of) == partition_count(n), "total is not p(n)")
    expect(r["strata_sizes"] == {str(q): sizes[q] for q in sorted(sizes)}, "stratum sizes wrong")
    seen = set()
    for row in r["rows"]:
        lam, mu, nu = parse_key(row["lambda"]), parse_key(row["mu"]), parse_key(row["nu"])
        expect(q_of.get(lam) == row["q"], f"row {row['lambda']} has the wrong stratum")
        width = max(len(lam), len(mu), len(nu))
        mu_, nu_, lam_ = (list(t) + [0] * (width - len(t)) for t in (mu, nu, lam))
        expect(
            [m * a + b for a, b in zip(mu_, nu_)] == lam_,
            f"row {row['lambda']} does not split as m*mu + nu",
        )
        seen.add(lam)
    expect(len(seen) == len(r["rows"]) == len(q_of), "rows are not the partitions of n")


def _check_weights(p: dict, r: dict) -> None:
    n, c = p["n"], Fraction(p["c"])
    rows = r["weights"]
    expect(len(rows) == partition_count(n), "one weight per partition expected")
    expect({parse_key(w["lambda"]) for w in rows} == set(partitions_of(n)), "labels wrong")
    for w in rows:
        lam = parse_key(w["lambda"])
        expect(Fraction(w["h"]) == -c * content_sum(lam), f"h wrong for {w['lambda']}")
    expect(r["dominance_consistent"] is True, "dominance verdict is false")


def _check_lr(p: dict, r: dict) -> None:
    lam, mu = tuple(p["lambda"]), tuple(p["mu"])
    a, b = sum(lam), sum(mu)
    product = {parse_key(k): v for k, v in r["product"].items()}
    expect(all(sum(nu) == a + b for nu in product), "constituent of the wrong size")
    lhs = sum(coeff * hook_dimension(nu) for nu, coeff in product.items())
    rhs = comb(a + b, a) * hook_dimension(lam) * hook_dimension(mu)
    expect(lhs == rhs, f"sum coeff*dim = {lhs}, induced dimension is {rhs}")
    width = max(len(lam), len(mu))
    top = tuple(x + y for x, y in zip(lam + (0,) * width, mu + (0,) * width) if x + y)
    expect(product.get(top) == 1, "leading coefficient is not 1")


def _check_dunkl(p: dict, r: dict) -> None:
    n, deg = p["n"], p["degree"]
    expect(r["violations"] == [], f"{len(r['violations'])} relation violations")
    # per monomial: n^2 [D,X] checks, C(n,2) each of [D,D] and [X,X], and
    # n conjugations per adjacent transposition
    predicted = comb(n + deg, deg) * (3 * n * n - 2 * n)
    expect(r["checked"] == predicted, f"checked {r['checked']}, predicted {predicted}")


def _check_singular(p: dict, r: dict) -> None:
    n, c, d = p["n"], Fraction(p["c"]), p["degree"]
    basis = [{tuple(t["exponents"]): Fraction(t["coeff"]) for t in f} for f in r["basis"]]
    expect(r["dimension"] == len(basis), "dimension does not match the basis")
    if p.get("nonempty"):
        expect(basis, "kernel expected to be non-empty")
    for f in basis:
        expect(all(sum(e) == d and len(e) == n for e in f), "basis vector of the wrong degree")
        for i in range(n):
            expect(not dunkl(i, f, n, c), f"D_{i} does not kill a basis vector")
    ncols, rank = dunkl_matrix_rank(n, c, d)
    cols = monomials(n, d)
    independent = rank_mod_p([[fraction_mod_p(f.get(e, Fraction(0))) for e in cols] for f in basis])
    # killed and independent gives dim >= len(basis); rank mod p gives dim <= ncols - rank
    expect(independent == len(basis), "basis vectors are dependent")
    expect(len(basis) == ncols - rank, f"kernel has dimension {ncols - rank}, got {len(basis)}")


def _check_ideal(p: dict, r: dict) -> None:
    n, m, q, deg = p["n"], p["m"], p["q"], p["degree"]
    dims = {int(k): v for k, v in r["graded_dims"].items()}
    expect(sorted(dims) == list(range(1, deg + 1)), "graded_dims keys wrong")
    expect(any(dims.values()), "ideal is zero in every degree checked: vacuous op")
    for d, v in dims.items():
        want = ideal_slice_dimension(n, m, q, d)
        expect(v == want, f"degree {d} slice has dimension {want}, got {v}")
    if p.get("c") is None:
        expect(r["c"] == str(Fraction(1, m)), "default parameter is not 1/m")
        expect(r["stable"] is True and r["failures"] == [], "ideal is not stable at c = 1/m")
    else:
        expect(Fraction(r["c"]) == Fraction(p["c"]), "parameter differs from --c")
        expect(r["stable"] is False and r["failures"], "negative control reported stable")


CHECKS = {
    "hecke-simples": _check_hecke,
    "bo-verify": _check_bo_verify,
    "fock-trace": _check_fock_trace,
    "census": _check_census,
    "weights": _check_weights,
    "lr": _check_lr,
    "dunkl-check": _check_dunkl,
    "singular": _check_singular,
    "ideal-check": _check_ideal,
}


def check(kind: str, params: dict, returncode: int, stdout: bytes, expect_rc: int = 0) -> str | None:
    """None if the output of `cherednik <kind>` with these params is right,
    else a one-line reason."""
    try:
        expect(returncode == expect_rc, f"exit code {returncode}, expected {expect_rc}")
        try:
            envelope = json.loads(stdout)
        except ValueError:
            raise CheckFailed("stdout is not one JSON document") from None
        expect(envelope.get("command") == kind, "envelope names another command")
        expect(envelope.get("ok") is (expect_rc == 0), "envelope ok does not match the exit code")
        CHECKS[kind](params, envelope["result"])
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
