"""The package's one exact elimination: RREF kernels over Q(zeta_m) by a
modular lift (`lift_kernel`), which row-reduces the images of a matrix
under zeta -> omega^e modulo split primes by one sparse Gauss-Jordan.  Q is
the case m = 1, where Phi_1 = x - 1 has the one root 1 modulo every prime;
`kernel_basis` serves `dunkl` with it, and `CyclotomicField.kernel` serves
`hecke`.  Only ints go in or come out: sparse rows {column: nonzero int} in,
integer vectors with one positive denominator out.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from math import gcd, isqrt, lcm
from operator import mul

IntRow = dict[int, int]
# a lifted kernel vector: free column f, least denominator den, and integer
# vectors v_k at the pivots with den K_f = sum_k zeta^k v_k away from f
LiftedVector = tuple[int, int, list[IntRow]]


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial:
    x^m - 1 divided exactly by the monic Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor = cyclotomic_polynomial(d)
            n = len(divisor)
            quot = [0] * (len(poly) - n + 1)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = poly[k + n - 1]
                if c:
                    for j in range(n):
                        poly[k + j] -= c * divisor[j]
            if any(poly):
                raise ArithmeticError("polynomial division left a remainder")
            poly = quot
    return tuple(poly)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for b in bases:
        chain = [pow(b, (n - 1) >> (s - k), n) for k in range(s)]
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


@cache
def split_prime(m: int, after: int = 2**29) -> tuple[int, int]:
    """The least prime l > after with l = 1 (mod m), over which Phi_m splits
    into linear factors (l < 2^30 from the default, a one-digit int), and the
    first root omega of Phi_m mod l among the g^((l-1)/m), g = 2, 3, ...;
    for m = 1 that root is 1."""
    l = ((after - 1) // m + 1) * m + 1
    while not _is_prime(l):
        l += m
    phi = cyclotomic_polynomial(m)
    powers = (pow(g, (l - 1) // m, l) for g in range(2, l))
    return l, next(w for w in powers if sum(c * pow(w, k, l) for k, c in enumerate(phi)) % l == 0)


def _rref_mod(rows: list[IntRow], l: int) -> dict[int, IntRow]:
    """The RREF modulo the prime l of sparse integer rows, which it consumes,
    as {pivot: the row's nonzero residues at the free columns}."""
    echelon: dict[int, IntRow] = {}
    for row in rows:
        # the echelon is reduced, so clearing a pivot brings in no other: the
        # multipliers are the row's own entries, reduced once the row is done
        for p in [c for c in row if c in echelon]:
            f = row.pop(p)
            for j, x in echelon[p].items():
                row[j] = row.get(j, 0) - f * x
        row = {j: r for j, x in row.items() if (r := x % l)}
        if not row:
            continue
        lead = min(row)
        inv = pow(row.pop(lead), -1, l)
        row = {j: x * inv % l for j, x in row.items()}
        for other in echelon.values():
            if f := other.pop(lead, 0):
                for j, x in row.items():
                    if y := (other.get(j, 0) - f * x) % l:
                        other[j] = y
                    else:
                        del other[j]
        echelon[lead] = row
    return echelon


def _rational(u: int, L: int) -> tuple[int, int] | None:
    """The fraction (num, den), den > 0, with num = u * den (mod L) and |num|,
    den at most sqrt(L/2), which is unique, or None if there is none (Wang,
    Guy and Davenport, "P-adic reconstruction of rational numbers", 1982)."""
    bound = isqrt(L // 2)
    r0, r1, t0, t1 = L, u % L, 0, 1
    while r1 > bound:
        r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def prime_cap(d: int, norms: list[int], height: int, ncols: int) -> int:
    """What the primes `lift_kernel` tries multiply past before it gives up.
    A minor of the rational blow-up of G has at most d ncols rows of 1-norm
    at most d height norms[r], so H = prod (d height norms[r])^d over the
    ncols largest bounds (Hadamard) every numerator, denominator, den_f and
    |v_kc| of K and the norm of the pivot minor, which each unlucky prime
    divides: the cap is H times max(2 H^2, bound d H) for the lucky ones."""
    top = sorted(norms, reverse=True)[:ncols]
    hbits = d * sum((d * height * n).bit_length() for n in top)
    bound = 2 * max(norms, default=0) * height
    return 1 << (hbits + max(2 * hbits + 1, (bound * d).bit_length() + hbits))


def lift_kernel(
    m: int, images: Callable[[int, int], list[IntRow]], ncols: int, norms: list[int], height: int
) -> list[LiftedVector]:
    """RREF kernel K over Q(zeta_m) of G over Z[zeta_m] with `ncols` columns,
    one LiftedVector per free column f in increasing order.  images(l, w) is
    G under zeta -> w mod l; norms[r] = sum_c |G_rc|_1, height = max_k
    |zeta^k|_inf and bound = 2 max_r norms[r] height.

    A full-rank image proves K = 0.  Else the pivots must agree across the
    phi(m) roots, and each entry of K is interpolated from its values and
    reconstructed modulo the product L of the primes so far.  Once bound *
    max_f max(den_f, sum_k max_c |v_kc|) < L, G (den_f K_f), 0 modulo every
    prime and with coefficients below L/2, is 0: the rank is the pivot
    count, and as K_f lives on f and the pivots before it, K is the RREF
    kernel.  Past `prime_cap` it raises ArithmeticError."""
    phi = cyclotomic_polynomial(m)
    cap = prime_cap(len(phi) - 1, norms, height, ncols)
    bound = 2 * max(norms, default=0) * height
    pivots = l = None
    tried, count = 1, 0
    while tried <= cap:
        l, omega = split_prime(m) if l is None else split_prime(m, l)
        tried, count = tried * l, count + 1
        if sum(c * pow(omega, k, l) for k, c in enumerate(phi)) % l:
            raise ArithmeticError(f"{omega} is not a root of Phi_{m} mod {l}")
        roots = [pow(omega, e, l) for e in range(1, m + 1) if gcd(e, m) == 1]
        rrefs = []
        for w in roots:
            rrefs.append(_rref_mod(images(l, w), l))
            if len(rrefs[-1]) == ncols:
                return []
        if any(r.keys() != rrefs[0].keys() for r in rrefs):
            continue
        piv, free = sorted(rrefs[0]), [f for f in range(ncols) if f not in rrefs[0]]
        # the entries -R[p][f] of each K_f at each root, as {f: {p: residue}}
        values = [{f: {p: l - R[p][f] for p in piv if f in R[p]} for f in free} for R in rrefs]
        new = values
        if (d := len(roots)) > 1:  # their coefficients: [V | 1] ~ [1 | V^-1], V = (w^k)
            V = [{k: pow(w, k, l) for k in range(d)} | {d + i: 1} for i, w in enumerate(roots)]
            vinv = sorted(_rref_mod(V, l).items())
            vinv = [[r.get(d + i, 0) for i in range(d)] for _, r in vinv]
            new = [{f: {} for f in free} for _ in vinv]
            for f in free:
                for p in set().union(*(v[f] for v in values)):
                    at = [v[f].get(p, 0) for v in values]
                    for row, coeffs in zip(vinv, new):
                        if c := sum(map(mul, row, at)) % l:
                            coeffs[f][p] = c
        if piv != pivots:  # residues of other pivots are dropped
            L, pivots, residues = l, piv, new
        else:  # combine by CRT, with M = 0 (mod L) and M = 1 (mod l)
            M, L = L * pow(L, -1, l), L * l
            for r, y in zip(residues, new):
                for f in free:
                    a, b = r[f], y[f]
                    r[f] = {p: (a.get(p, 0) * (1 - M) + b.get(p, 0) * M) % L for p in sorted(a | b)}
        out, top = [], 0
        for f in free:
            fractions = [[(p, _rational(x, L)) for p, x in r[f].items()] for r in residues]
            if any(q is None for pairs in fractions for _, q in pairs):
                break
            den = lcm(*(q[1] for pairs in fractions for _, q in pairs))
            vec = [{p: a * (den // b) for p, (a, b) in pairs if a} for pairs in fractions]
            top = max(top, den, sum(max(map(abs, c.values()), default=0) for c in vec))
            out.append((f, den, vec))
        else:
            if bound * top < L:
                return out
    raise ArithmeticError(f"no checked kernel from {count} split primes")


def kernel_basis(rows: list[IntRow], ncols: int) -> list[tuple[IntRow, int]]:
    """Basis of {x : A x = 0} for the integer matrix A given by `rows`, each
    a sparse row {column: nonzero int} with columns in range(ncols), an empty
    dict a zero row: the lift at m = 1.  One (vec, den) pair per free column
    of the RREF of A, in increasing order: `vec` is a sparse int vector in
    increasing column order, den > 0, gcd(den, *vec.values()) == 1, and
    vec/den is the RREF kernel vector.  The vector for free column f has den
    at f, no entry at any other free column and none after f, so f ==
    max(vec).  Callers rely on this normal form.  The empty matrix (no rows)
    has the standard basis as kernel."""
    norms = [sum(map(abs, r.values())) for r in rows]
    vectors = lift_kernel(1, lambda l, w: [dict(row) for row in rows], ncols, norms, 1)
    return [(vec | {f: den}, den) for f, den, (vec,) in vectors]
