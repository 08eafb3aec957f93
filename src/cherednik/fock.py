"""Fock space of the Heisenberg algebra and the bivariate counting series.

Basis vectors are indexed by partitions (the parts record which creation
operators were applied to the vacuum), the commutation rule is
[a_i, a_j] = i * delta_{i,-j}, and the diagonal operator built from
modes divisible by m ties partition counts to generating function
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import IdentityViolation
from .partitions import (
    Partition,
    count_m_regular,
    count_partitions,
    enumerate_partitions,
    strata,
)

# finite integer combination of basis partitions; zero coefficients absent
FockVector = dict[Partition, int]


def basis_vector(lam: Partition) -> FockVector:
    return {tuple(lam): 1}


def _scaled(v: FockVector, factor: int) -> FockVector:
    return {k: c * factor for k, c in v.items()} if factor else {}


def _accumulate(acc: FockVector, v: FockVector) -> None:
    for k, c in v.items():
        new = acc.get(k, 0) + c
        if new:
            acc[k] = new
        else:
            acc.pop(k, None)


def create(i: int, v: FockVector) -> FockVector:
    """Creation in mode i: insert one part i into every basis partition."""
    if i < 1:
        raise ValueError(f"mode must be positive, got {i}")
    out: FockVector = {}
    for lam, coeff in v.items():
        key = tuple(sorted(lam + (i,), reverse=True))
        _accumulate(out, {key: coeff})
    return out


def annihilate(i: int, v: FockVector) -> FockVector:
    """Annihilation in mode i: on a basis partition with k parts equal to i,
    produce i*k times the partition with one such part removed."""
    if i < 1:
        raise ValueError(f"mode must be positive, got {i}")
    out: FockVector = {}
    for lam, coeff in v.items():
        k = lam.count(i)
        if k == 0:
            continue
        removed = list(lam)
        removed.remove(i)
        _accumulate(out, {tuple(removed): coeff * i * k})
    return out


def divisible_weight(lam: Partition, m: int) -> int:
    """Total size carried by parts divisible by m; the closed-form eigenvalue
    of :func:`weight_operator` on a basis partition."""
    return sum(p for p in lam if p % m == 0)


def weight_operator(m: int, v: FockVector) -> FockVector:
    """Apply sum_{i>0} create(i*m) o annihilate(i*m), composed mode by mode.

    Diagonal on basis partitions with eigenvalue divisible_weight; the
    operator composition here is the computation, the closed form is the
    cross-check used by callers.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    top = max((lam[0] for lam in v if lam), default=0)
    out: FockVector = {}
    for i in range(1, top // m + 1):
        _accumulate(out, create(i * m, annihilate(i * m, v)))
    return out


@cache
def _eigenvalue_census(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Eigenvalue -> multiplicity table of the mode-m weight operator on the
    degree-n slice, with every basis vector checked against the operator."""
    counts: dict[int, int] = {}
    for lam in enumerate_partitions(n):
        eig = divisible_weight(lam, m)
        image = weight_operator(m, basis_vector(lam))
        expected = _scaled(basis_vector(lam), eig)
        if image != expected:
            raise IdentityViolation(f"operator is not diagonal on {lam}: {image}")
        counts[eig] = counts.get(eig, 0) + 1
    return tuple(sorted(counts.items()))


def eigenspace_dimension(n: int, m: int, e: int) -> int:
    """Dimension of the eigenvalue-e eigenspace of the mode-m weight operator
    on the degree-n slice.

    Counts basis partitions by the closed-form eigenvalue after verifying
    each against the operator action itself.
    """
    if n < 0 or e < 0:
        raise ValueError("n and e must be nonnegative")
    return dict(_eigenvalue_census(n, m)).get(e, 0)


@dataclass(frozen=True)
class PowerSeries2:
    """Integer bivariate series stored densely on the triangle
    deg_t <= deg_s <= truncation."""

    truncation: int
    coeffs: tuple[tuple[int, ...], ...]

    def coeff(self, deg_s: int, deg_t: int) -> int:
        if deg_s > self.truncation:
            raise ValueError(f"degree {deg_s} beyond truncation {self.truncation}")
        if deg_t > deg_s:
            return 0
        return self.coeffs[deg_s][deg_t]

    def rows(self) -> list[tuple[int, int, int]]:
        out = []
        for n in range(self.truncation + 1):
            for e in range(n + 1):
                out.append((n, e, self.coeffs[n][e]))
        return out


def _geometric_product(truncation: int, steps: list[tuple[int, int]]) -> list[list[int]]:
    """Expand prod over (a, b) in steps of 1 / (1 - s^a t^b) on the triangle."""
    table = [[0] * (n + 1) for n in range(truncation + 1)]
    table[0][0] = 1
    for a, b in steps:
        for n in range(a, truncation + 1):
            row = table[n]
            prev = table[n - a]
            for e in range(b, n + 1):
                if e - b <= n - a:
                    row[e] += prev[e - b]
    return table


def _product_table(m: int, truncation: int) -> list[list[int]]:
    steps = [(i, 0) for i in range(1, truncation + 1) if i % m != 0]
    steps += [(i * m, i * m) for i in range(1, truncation // m + 1)]
    return _geometric_product(truncation, steps)


def trace_series(m: int, truncation: int) -> PowerSeries2:
    """Bigraded trace of s^(degree) t^(mode-m weight) over Fock space.

    Computed by summing over the partition basis with operator-derived
    eigenvalues, then checked coefficientwise against the Euler-product
    expansion; a mismatch raises.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    table = [[0] * (n + 1) for n in range(truncation + 1)]
    for n in range(truncation + 1):
        for eig, count in _eigenvalue_census(n, m):
            table[n][eig] += count
    product = _product_table(m, truncation)
    if table != product:
        raise IdentityViolation("trace sum disagrees with its product expansion")
    return PowerSeries2(truncation, tuple(tuple(row) for row in table))


def product_series(m: int, truncation: int) -> PowerSeries2:
    """The counting series whose s^n t^(q*m) coefficient is (number of
    partitions of q) * (number of m-regular partitions of n - q*m).

    Expanded from its Euler product form and cross-checked against those
    counts on the whole triangle.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    table = _product_table(m, truncation)
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
    return PowerSeries2(truncation, tuple(tuple(row) for row in table))


@dataclass(frozen=True)
class StratumCounts:
    q: int
    count_qm: int
    count_product: int
    dim_eigenspace: int
    coeff_series: int
    coeff_trace: int

    @property
    def ok(self) -> bool:
        return (
            self.count_qm
            == self.count_product
            == self.dim_eigenspace
            == self.coeff_series
            == self.coeff_trace
        )


def verify_bo(
    n: int,
    m: int,
    _trace: PowerSeries2 | None = None,
    _product: PowerSeries2 | None = None,
) -> list[StratumCounts]:
    """Four-way count comparison per stratum q: direct census of the support
    invariant, the product of partition counts, the eigenspace dimension and
    the series coefficients.

    Precomputed series may be passed in when sweeping many n for one m.
    """
    if n < 0 or m < 2:
        raise ValueError("need n >= 0 and m >= 2")
    trace = _trace if _trace is not None and _trace.truncation >= n else trace_series(m, n)
    product = _product if _product is not None and _product.truncation >= n else product_series(m, n)
    groups = strata(n, m)
    out = []
    for q in range(n // m + 1):
        out.append(
            StratumCounts(
                q=q,
                count_qm=len(groups.get(q, ())),
                count_product=count_partitions(q) * count_m_regular(n - q * m, m),
                dim_eigenspace=eigenspace_dimension(n, m, q * m),
                coeff_series=product.coeff(n, q * m),
                coeff_trace=trace.coeff(n, q * m),
            )
        )
    return out
