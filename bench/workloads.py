"""Seeded op lists for the three benchmark workloads.

An op is one `cherednik` CLI invocation.  The seed chooses only parameters
that leave the amount of work unchanged: the Hecke audit seed, the value and
sign of `c` where any nonzero value is valid, the shapes of fixed-size `lr`
products, and the order of the ops.  See WORKLOADS.md for why each op is
there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import partitions_of

WORKLOADS = ("hecke", "counting", "operators")

# small rationals whose exact arithmetic costs about the same
C_VALUES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))

# (|lambda|, |mu|) of the lr products
LR_SIZES = ((8, 5), (10, 8), (13, 11))


@dataclass(frozen=True)
class Op:
    """One CLI invocation, with the parameters its checker needs."""

    kind: str
    params: dict = field(hash=False)
    expect_rc: int = 0

    @property
    def argv(self) -> tuple[str, ...]:
        p = self.params
        flags: list[str] = []
        if "seed" in p:
            flags += ["--seed", str(p["seed"])]
        flags.append(self.kind)
        for key, value in p.items():
            if key in ("seed", "nonempty") or value is None:
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, Fraction):
                # `--c=-1/2`: argparse would read a bare -1/2 as a flag
                flags.append(f"{flag}={value}")
                continue
            flags += [flag, str(value)]
        return tuple(flags)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _signed_c(rng: random.Random) -> Fraction:
    return rng.choice(C_VALUES) * rng.choice((1, -1))


def _hecke(rng: random.Random) -> list[Op]:
    cases = [(4, 3), (4, 4), (4, 5), (4, 6), (5, 2)]
    return [
        Op("hecke-simples", {"seed": rng.randrange(10**6), "p": p, "m": m})
        for p, m in cases
    ]


def _counting(rng: random.Random) -> list[Op]:
    return [
        Op("bo-verify", {"n_max": 30, "m": [2, 3]}),
        Op("fock-trace", {"m": 3, "max": 35}),
        Op("census", {"n": 35, "m": 3}),
        Op("weights", {"n": 16, "c": _signed_c(rng)}),
    ]


def _operators(rng: random.Random) -> list[Op]:
    ops = [
        Op("dunkl-check", {"n": 5, "c": _signed_c(rng), "degree": 5}),
        Op("dunkl-check", {"n": 4, "c": _signed_c(rng), "degree": 5}),
        # c = 1/2 at n = 5 has singular vectors in degree 5; 1/4 at n = 4 has none in degree 7
        Op("singular", {"n": 5, "c": Fraction(1, 2), "degree": 5, "nonempty": True}),
        Op("singular", {"n": 4, "c": Fraction(1, 4), "degree": 7}),
        Op("ideal-check", {"n": 6, "m": 3, "q": 2, "degree": 4}),
        Op("ideal-check", {"n": 5, "m": 2, "q": 2, "degree": 5}),
        # negative control: away from c = 1/m the ideal is not stable
        Op("ideal-check", {"n": 4, "m": 2, "q": 2, "degree": 4, "c": Fraction(1, 3)}, expect_rc=1),
    ]
    for a, b in LR_SIZES:
        lam = rng.choice(partitions_of(a))
        mu = rng.choice(partitions_of(b))
        ops.append(Op("lr", {"lambda": list(lam), "mu": list(mu)}))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of `workload` for `seed`, in run order."""
    generators = {"hecke": _hecke, "counting": _counting, "operators": _operators}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = generators[workload](rng)
    rng.shuffle(ops)
    return ops
