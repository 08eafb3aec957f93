"""Exact univariate polynomial factorization over Z, and extended gcds
over Q.

Polynomials are coefficient lists in ascending order of degree, without
trailing zeros.  `factor_squarefree` is Berlekamp-Zassenhaus (Zassenhaus,
"On Hensel factorization I", J. Number Theory 1 (1969)): factor modulo a
small prime by distinct-degree factorization and Cantor-Zassenhaus
equal-degree splitting (Math. Comp. 36 (1981)), Hensel-lift the modular
factors past twice the Landau-Mignotte coefficient bound, and recombine
them by exact trial division.  Only Python ints and fractions.Fraction are
used.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

# good primes compared before the one with the fewest modular factors is kept
_PRIMES_COMPARED = 5
# bad primes in a row after which squarefreeness is checked over Q
_BAD_PRIMES_BEFORE_CHECK = 10


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# polynomials over Z and Q


def derivative(f: list) -> list:
    return [k * c for k, c in enumerate(f)][1:]


def primitive(a: list[int]) -> list[int]:
    """The primitive part of the nonzero integer polynomial a, with positive
    leading coefficient."""
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return [c // content for c in a]


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd over Q of two integer polynomials, not both zero, scaled to
    a primitive integer polynomial with positive leading coefficient; by the
    primitive remainder sequence: integer pseudo-division, then the
    primitive part of each remainder."""
    a, b = _trim(list(a)), _trim(list(b))
    if len(a) < len(b):
        a, b = b, a
    if not a:
        raise ValueError("gcd of two zero polynomials")
    a = primitive(a)
    b = primitive(b) if b else b
    while b:
        rem, lb, n = list(a), b[-1], len(b)
        for k in range(len(a) - n, -1, -1):
            top = rem[k + n - 1]
            rem = [lb * c for c in rem[: k + n - 1]]
            if top:
                for j in range(n - 1):
                    rem[k + j] -= top * b[j]
        rem = _trim(rem)
        a, b = b, primitive(rem) if rem else rem
    return a


def mul(a: list, b: list) -> list:
    """The product of two polynomials with integer or rational coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _qsub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _trim(out)


def _qdivmod(a: list, b: list) -> tuple[list, list]:
    rem = list(a)
    n = len(b)
    inv = 1 / Fraction(b[-1])
    quot = [Fraction(0)] * max(len(a) - n + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + n - 1] * inv
        quot[k] = c
        if c:
            for j in range(n):
                rem[k + j] -= c * b[j]
    return _trim(quot), _trim(rem[: n - 1])


def gcdex(a: list, b: list) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(s, t, h) with s*a + t*b = h, the monic gcd of a and b over Q.

    The inputs have rational or integer coefficients and are not both zero.
    The extended Euclidean algorithm keeps deg s < deg b - deg h and
    deg t < deg a - deg h when both degrees are positive."""
    r0 = _trim([Fraction(x) for x in a])
    r1 = _trim([Fraction(x) for x in b])
    if not r0 and not r1:
        raise ValueError("gcd of two zero polynomials")
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _qdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _qsub(s0, mul(q, s1))
        t0, t1 = t1, _qsub(t0, mul(q, t1))
    c = r0[-1]
    return [x / c for x in s0], [x / c for x in t0], [x / c for x in r0]


# ---------------------------------------------------------------------------
# polynomials modulo an integer n; division needs a unit leading coefficient


def _mmul(a: list[int], b: list[int], n: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % n for c in out])


def _madd(a: list[int], b: list[int], n: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, y in enumerate(b):
        out[j] += y
    return _trim([c % n for c in out])


def _msub(a: list[int], b: list[int], n: int) -> list[int]:
    return _madd(a, [-y for y in b], n)


def _mdivmod(a: list[int], b: list[int], n: int) -> tuple[list[int], list[int]]:
    rem = list(a)
    m = len(b)
    inv = pow(b[-1], -1, n)
    quot = [0] * max(len(a) - m + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + m - 1] * inv % n
        quot[k] = c
        if c:
            for j in range(m):
                rem[k + j] = (rem[k + j] - c * b[j]) % n
    return _trim(quot), _trim(rem[: m - 1])


def _mmonic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mgcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(s, t, h) with s*a + t*b = h, the monic gcd over the field F_p."""
    r0, r1 = list(a), list(b)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _msub(s0, _mmul(q, s1, p), p)
        t0, t1 = t1, _msub(t0, _mmul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return (
        [c * inv % p for c in s0],
        [c * inv % p for c in t0],
        [c * inv % p for c in r0],
    )


def _mgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _mmonic(a, p)


def _mpowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f over F_p."""
    out = [1]
    base = _mdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mdivmod(_mmul(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _mdivmod(_mmul(base, base, p), f, p)[1]
    return out


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, d) pairs: g is the product of the monic irreducible factors of
    degree d of the monic squarefree f over F_p."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _mpowmod(h, p, f, p)
        g = _mgcd(f, _msub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mdivmod(f, g, p)[0]
            h = _mdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors, all of degree d, of g over F_p, p odd
    (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _msub(_mpowmod(a, (p**d - 1) // 2, g, p), [1], p)
        h = _mgcd(g, b, p) if b else g
        if 1 < len(h) < len(g):
            break
    return _equal_degree(h, d, p, rng) + _equal_degree(_mdivmod(g, h, p)[0], d, p, rng)


def _odd_primes():
    p = 3
    while True:
        if all(p % k for k in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


# ---------------------------------------------------------------------------
# Hensel lifting and recombination over Z


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h, s*g + t*h = 1 (h monic) from modulus m to m^2; the
    quadratic step of von zur Gathen and Gerhard, Algorithm 15.10."""
    n = m * m
    e = _msub([c % n for c in f], _mmul(g, h, n), n)
    q, r = _mdivmod(_mmul(s, e, n), h, n)
    g = _madd(g, _madd(_mmul(t, e, n), _mmul(q, g, n), n), n)
    h = _madd(h, r, n)
    b = _msub(_madd(_mmul(s, g, n), _mmul(t, h, n), n), [1], n)
    c, d = _mdivmod(_mmul(s, b, n), h, n)
    s = _msub(s, d, n)
    t = _msub(t, _madd(_mmul(t, b, n), _mmul(c, g, n), n), n)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, bound: int):
    """Monic lifts modulo M = p^(2^k) > bound of the monic factors of f
    over F_p, one factor split off at a time; returns (lifts, M)."""
    lc = f[-1]
    lifts = []
    cur = f  # congruent to lc times the product of the factors not yet split off
    modulus = p
    for i, h in enumerate(factors[:-1]):
        rest = [lc % p]
        for other in factors[i + 1 :]:
            rest = _mmul(rest, other, p)
        s, t, _ = _mgcdex(rest, h, p)
        g, m = rest, p
        while m <= bound:
            g, h, s, t = _hensel_step(cur, g, h, s, t, m)
            m *= m
        lifts.append(h)
        cur, modulus = g, m
    lifts.append(_mmonic([c % modulus for c in cur], modulus))
    return lifts, modulus


def exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None if b does not divide a; deg a >= deg b."""
    if b[0] and a[0] % b[0]:
        return None
    rem = list(a)
    n = len(b)
    quot = [0] * (len(a) - n + 1)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + n - 1], b[-1])
        if r:
            return None
        quot[k] = c
        if c:
            for j in range(n):
                rem[k + j] -= c * b[j]
    return None if any(rem[: n - 1]) else quot


def _recombine(f: list[int], lifts: list[list[int]], modulus: int) -> list[list[int]]:
    """The irreducible factors of f over Z from its lifted modular factors:
    subsets in increasing size, each tested by exact trial division."""
    half = modulus // 2
    out = []
    left = list(range(len(lifts)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            cand = [f[-1] % modulus]
            for i in subset:
                cand = _mmul(cand, lifts[i], modulus)
            cand = primitive([c - modulus if c > half else c for c in cand])
            quot = exact_quotient(f, cand)
            if quot is not None:
                out.append(cand)
                f = quot
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def factor_squarefree(f: list[int]) -> list[tuple[int, ...]]:
    """The irreducible factors over Z of a primitive, squarefree integer
    polynomial f of positive degree (ascending coefficients).

    Each factor is primitive with positive leading coefficient; their
    product is f or -f.  The factors are sorted by degree, then by their
    coefficient tuples.  Raises ValueError if f is constant, not primitive
    or not squarefree.  The result does not depend on any global random
    state: the modular splitting uses its own fixed seed."""
    f = _trim([int(c) for c in f])
    if len(f) < 2:
        raise ValueError("constant polynomial")
    if gcd(*f) != 1:
        raise ValueError("polynomial is not primitive")
    if f[-1] < 0:
        f = [-c for c in f]
    if len(f) == 2:
        return [tuple(f)]
    lc = f[-1]
    # the good prime with the fewest modular factors, counted by degree
    best = None
    good = bad_run = 0
    for p in _odd_primes():
        if lc % p == 0:
            continue
        fp = _mmonic(_trim([c % p for c in f]), p)
        if len(_mgcd(fp, _trim([c % p for c in derivative(fp)]), p)) > 1:
            bad_run += 1
            if bad_run == _BAD_PRIMES_BEFORE_CHECK and len(poly_gcd(f, derivative(f))) > 1:
                raise ValueError("polynomial is not squarefree")
            continue
        bad_run = 0
        pieces = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in pieces)
        if count == 1:
            return [tuple(f)]
        if best is None or count < best[0]:
            best = (count, p, pieces)
        good += 1
        if good == _PRIMES_COMPARED:
            break
    _, p, pieces = best
    rng = random.Random(0)
    factors = [h for g, d in pieces for h in _equal_degree(g, d, p, rng)]
    norm = isqrt(sum(c * c for c in f)) + 1
    # for any factor h of f over Z, the coefficients of (lc / lc(h)) * h are
    # at most lc * 2^deg(f) * |f|_2 in absolute value (Landau-Mignotte), so
    # their symmetric residues modulo a modulus above twice that are exact
    bound = 2 * lc * 2 ** (len(f) - 1) * norm
    lifts, modulus = _hensel_lift(f, factors, p, bound)
    out = _recombine(f, lifts, modulus)
    return sorted((tuple(g) for g in out), key=lambda g: (len(g), g))
