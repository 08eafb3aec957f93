"""Run one `cherednik` CLI invocation with per-layer counters and spans.

    python3 trace_shim.py COUNTERS.json [cli arguments...]

The shim imports the package, wraps public functions of each module from
outside (nothing under src/ changes), calls ``cherednik.cli.main`` and
writes the counters to COUNTERS.json.  Stdout and the exit code are those of
the plain CLI.

A span's self time is its duration minus the durations of the spans nested
directly inside it.  Functions called very often are counted, not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.counters: dict[str, float] = {}
        # one entry per open span: time spent in spans nested directly in it
        self._child_time: list[float] = []

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def counted(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, fn, name: str, calls: str | None = None, measure=None):
        """Wrap fn in a span adding its self time to `name`; optionally count
        calls and add measure(args, result) to further counters."""
        children = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                self.add(calls)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                nested = children.pop()
                self.add(name, total - nested)
                if children:
                    children[-1] += total
            if measure:
                for key, value in measure(args, result).items():
                    self.add(key, value)
            return result

        return wrapper


def _rebind(modules, old, new) -> None:
    """Point every module-level name bound to `old` at `new`, so names
    imported with `from x import f` see the wrapper too."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    from functools import cached_property

    from cherednik import characters, cli, dunkl, fock, hecke, linalg, partitions

    modules = [characters, cli, dunkl, fock, hecke, linalg, partitions]

    def wrap_function(mod, attr, make):
        old = getattr(mod, attr)
        _rebind(modules, old, make(old))

    def wrap_method(cls, attr, make):
        setattr(cls, attr, make(vars(cls)[attr]))

    t = tracer
    # hecke: field and generator multiplications are counted, phases timed
    wrap_method(hecke.CyclotomicField, "mul", lambda f: t.counted(f, "hecke.field_mul.calls"))
    wrap_method(hecke.CyclotomicField, "inv", lambda f: t.counted(f, "hecke.field_inv.calls"))
    wrap_method(hecke.HeckeAlgebra, "lmul_gen", lambda f: t.counted(f, "hecke.gen_mul.calls"))
    wrap_method(hecke.HeckeAlgebra, "rmul_gen", lambda f: t.counted(f, "hecke.gen_mul.calls"))
    gram = cached_property(t.spanned(vars(hecke.HeckeAlgebra)["gram"].func, "hecke.gram.s"))
    gram.__set_name__(hecke.HeckeAlgebra, "gram")
    hecke.HeckeAlgebra.gram = gram
    wrap_method(hecke.HeckeAlgebra, "radical_dimension", lambda f: t.spanned(f, "hecke.radical.s"))
    wrap_method(hecke.HeckeAlgebra, "center_dimension", lambda f: t.spanned(f, "hecke.center.s"))
    wrap_function(hecke, "count_simples", lambda f: t.spanned(f, "hecke.audit.s"))

    def kernel_cells(args, result):
        rows, ncols = args
        return {"linalg.kernel.cells": len(rows) * ncols}

    wrap_function(
        linalg,
        "kernel_basis",
        lambda f: t.spanned(f, "linalg.kernel.s", "linalg.kernel.calls", kernel_cells),
    )

    wrap_function(dunkl, "dunkl_apply", lambda f: t.counted(f, "dunkl.apply.calls"))
    wrap_function(dunkl, "verify_relations", lambda f: t.spanned(f, "dunkl.relations.s"))
    wrap_function(dunkl, "singular_vectors", lambda f: t.spanned(f, "dunkl.singular.s"))
    wrap_function(dunkl, "stratum_ideal_basis", lambda f: t.spanned(f, "dunkl.ideal_basis.s"))
    wrap_function(dunkl, "in_stratum_ideal", lambda f: t.counted(f, "dunkl.ideal_member.calls"))
    wrap_function(dunkl, "ideal_stability_check", lambda f: t.spanned(f, "dunkl.ideal_check.s"))

    wrap_function(fock, "trace_series", lambda f: t.spanned(f, "fock.trace_series.s"))
    wrap_function(fock, "product_series", lambda f: t.spanned(f, "fock.product_series.s"))
    wrap_function(fock, "verify_bo", lambda f: t.spanned(f, "fock.verify_bo.s"))
    wrap_function(fock, "weight_operator", lambda f: t.counted(f, "fock.weight_operator.calls"))

    wrap_function(
        partitions,
        "enumerate_partitions",
        lambda f: t.spanned(
            f,
            "partitions.enumerate.s",
            "partitions.enumerate.calls",
            lambda args, result: {"partitions.enumerate.items": len(result)},
        ),
    )
    wrap_function(partitions, "dominates", lambda f: t.counted(f, "partitions.dominates.calls"))
    wrap_function(
        partitions,
        "support_invariant",
        lambda f: t.counted(f, "partitions.support_invariant.calls"),
    )

    wrap_function(
        characters,
        "lowest_weight",
        lambda f: t.spanned(f, "characters.lowest_weight.s", "characters.lowest_weight.calls"),
    )
    wrap_function(characters, "lr_induce", lambda f: t.spanned(f, "characters.lr_induce.s"))

    for name, handler in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = t.spanned(handler, "cli.command.s")
    wrap_function(cli, "main", lambda f: t.spanned(f, "cli.main.self_s"))


def main(argv: list[str]) -> int:
    counters_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = clock()
    import cherednik.cli

    tracer.add("cli.import.s", clock() - start)
    install(tracer)
    try:
        code = cherednik.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(counters_path, "w") as fh:
        json.dump(tracer.counters, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
