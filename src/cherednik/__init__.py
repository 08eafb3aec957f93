"""Exact computations around supports of type-A rational Cherednik algebra
representations: partition strata, character weights, the deformed polynomial
representation, Fock-space counting and Hecke simple modules."""

__version__ = "0.1.0"

# No submodule is imported here: `import cherednik.cli` loads only the
# argument parser and the partition and serialization helpers, and each
# command imports the module it runs.  Without cached bytecode every module
# loaded is also compiled, which every short CLI process pays for.
