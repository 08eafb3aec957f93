"""Exact computations around supports of type-A rational Cherednik algebra
representations: partition strata, character weights, the deformed polynomial
representation, Fock-space counting and Hecke simple modules."""

__version__ = "0.1.0"

# hecke is left to `from cherednik import hecke`, as the CLI does, so that
# the other commands do not compile it: without cached bytecode that adds
# about 10 ms and a few hundred kB to every process start
from . import characters, dunkl, fock, partitions, serialize  # noqa: F401
