"""Batch command line surface over the library.

Every subcommand emits machine-readable output (json by default, csv or an
aligned table on request) and the exit code reports the identity checks:
0 when everything asserted holds, 1 on a violated identity
(`IdentityViolation`), 2 on an input the library refuses (`UsageError`),
3 on an internal error (any other exception, a builtin `ValueError`
included).  All configuration is by flags; output is deterministic for
fixed flags apart from the version header.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

# each command imports the library module it runs, so a process loads and
# compiles only what its command needs; these are shared by all of them
from . import __version__, partitions
from .errors import IdentityViolation, UsageError
from .serialize import (
    fraction_str,
    json_text,
    parse_digits,
    parse_fraction,
    parse_int,
    parse_partition,
    partition_key,
    poly_json,
)


def stratum_description(n: int, m: int, q: int) -> str:
    if q == 0:
        return f"all of C^{n} (no coordinates glued)"
    return (
        f"union over S_{n} of the translates of the subspace of C^{n} where "
        f"the first {q} consecutive blocks of {m} coordinates are each glued "
        f"to a single value"
    )


def _cell(value):
    """A payload value as a csv/table cell: a partition as its "[3,1]" key, a
    list as its length."""
    if isinstance(value, tuple):
        return partition_key(value)
    return len(value) if isinstance(value, list) else value


def _row(payload: dict, *keys: str) -> list[dict]:
    """The one csv/table row of a command, read off its payload by key."""
    return [{key: _cell(payload[key]) for key in keys}]


def cmd_support(args):
    lam = parse_partition(args.lam)
    q, mu, nu = partitions.support_level(lam, args.m, 1 if args.sign == "+" else -1)
    payload = {
        "lambda": lam,
        "m": args.m,
        "sign": args.sign,
        "q": q,
        "stratum": stratum_description(sum(lam), args.m, q),
        "mu": mu,
        "nu": nu,
    }
    return payload, _row(payload, "lambda", "m", "sign", "q", "mu", "nu"), True


def cmd_decompose(args):
    lam = parse_partition(args.lam)
    mu, nu, ok = partitions.splitting(lam, args.m, args.regular)
    payload = {
        "lambda": lam,
        "m": args.m,
        "regular_side": args.regular,
        "mu": mu,
        "nu": nu,
        "recombines": ok,
    }
    return payload, _row(payload, "lambda", "m", "regular_side", "mu", "nu"), ok


def cmd_census(args):
    n, m = args.n, args.m
    census, ok = partitions.stratum_census(n, m)
    # mu and nu repeat across the rows; each lambda appears once
    key = cache(partition_key)
    rows = [
        {
            "n": n,
            "m": m,
            "q": q,
            "lambda": partition_key(lam),
            "mu": key(mu),
            "nu": key(nu),
        }
        for q, triples in census.items()
        for lam, mu, nu in triples
    ]
    sizes = {str(q): len(triples) for q, triples in census.items()}
    payload = {
        "n": n,
        "m": m,
        "strata_sizes": sizes,
        "total": sum(sizes.values()),
        "rows": rows,
        "ok": ok,
    }
    return payload, rows, ok


def cmd_bo_verify(args):
    from . import fock

    tokens = args.m.split(",")
    if not all(tok.strip() for tok in tokens):
        raise UsageError(f"--m lists an empty denominator: {args.m!r}")
    m_values = [parse_digits(tok) for tok in tokens]
    # refused before any walk, not after the walks of the values before it
    for m in m_values:
        if m < 2:
            raise UsageError(f"m must be at least 2, got {m}")
    rows = [
        {
            "n": entry.n,
            "m": m,
            "q": entry.q,
            "count_qm": entry.count_qm,
            "count_product": entry.count_product,
            "dim_eigenspace": entry.dim_eigenspace,
            "coeff_N": entry.coeff_series,
            "coeff_trace": entry.coeff_trace,
            "ok": entry.ok,
        }
        for m in m_values
        for entry in fock.verify_bo(m, args.n_max)
    ]
    ok = all(row["ok"] for row in rows)
    payload = {"n_max": args.n_max, "m_values": m_values, "rows": rows, "ok": ok}
    return payload, rows, ok


def cmd_weights(args):
    from . import characters

    c = parse_fraction(args.c)
    weights, ok = characters.dominance_weight_consistent(args.n, c)
    rows = [{"lambda": partition_key(lam), "h": fraction_str(h)} for lam, h in weights.items()]
    payload = {
        "n": args.n,
        "c": fraction_str(c),
        "weights": rows,
        "dominance_consistent": ok,
    }
    return payload, rows, ok


def cmd_lr(args):
    from . import characters

    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    c = parse_fraction(args.c) if args.c is not None else None
    verdict = characters.induction_verdict(lam, mu, c)
    product = verdict.product
    # lr_induce gives the product in reverse lexicographic order
    rows = [{"nu": partition_key(nu), "coeff": coeff} for nu, coeff in product.items()]
    payload = {
        "lambda": lam,
        "mu": mu,
        "product": {partition_key(nu): coeff for nu, coeff in product.items()},
        "leading": verdict.leading,
        "ok": verdict.ok,
    }
    if c is not None:
        payload["leading_weight"] = fraction_str(verdict.weight)
    return payload, rows, verdict.ok


def cmd_dunkl_check(args):
    from . import dunkl

    c = parse_fraction(args.c)
    report = dunkl.verify_relations(dunkl.EngineConfig(args.n, c), args.degree)
    payload = {
        "n": args.n,
        "c": fraction_str(c),
        "degree": args.degree,
        "checked": report.checked,
        "violations": report.violations,
        "ok": report.ok,
    }
    return payload, _row(payload, "n", "c", "degree", "checked", "violations"), report.ok


def cmd_singular(args):
    from . import dunkl

    c = parse_fraction(args.c)
    basis = dunkl.singular_vectors(dunkl.EngineConfig(args.n, c), args.degree)
    payload = {
        "n": args.n,
        "c": fraction_str(c),
        "degree": args.degree,
        "dimension": len(basis),
        "basis": [poly_json(f, den) for f, den in basis],
    }
    return payload, _row(payload, "n", "c", "degree", "dimension"), True


def cmd_ideal_check(args):
    from . import dunkl

    c = parse_fraction(args.c) if args.c is not None else None
    report = dunkl.ideal_stability_check(args.n, args.m, args.q, args.degree, c)
    payload = {
        "n": args.n,
        "m": args.m,
        "q": args.q,
        "c": fraction_str(report.c),
        "degree": args.degree,
        "graded_dims": {str(d): dim for d, dim in report.graded_dims.items()},
        "failures": report.failures,
        "stable": report.stable,
    }
    columns = ("n", "m", "q", "c", "degree", "stable", "failures")
    return payload, _row(payload, *columns), report.stable


def cmd_fock_trace(args):
    from . import fock

    series = fock.trace_series(args.m, args.max)
    rows = [
        {"deg_s": n, "deg_t": e, "coeff": coeff}
        for n, row in enumerate(series)
        for e, coeff in enumerate(row)
    ]
    payload = {"m": args.m, "truncation": args.max, "rows": rows}
    return payload, rows, True


def cmd_hecke_simples(args):
    from . import hecke

    report = hecke.count_simples(args.p, args.m)
    payload = {
        "p": args.p,
        "m": args.m,
        "dim": report.dim,
        "rad_dim": report.rad_dim,
        "simples": report.simples,
        "expected_m_regular": report.expected_m_regular,
        "split_audit": report.split_audit,
        "ok": report.ok,
        "block_dims": report.block_dims,
        "upper_bound_only": not report.split_audit,
    }
    if not report.split_audit:
        payload["audit_note"] = report.audit_note
    columns = ("p", "m", "dim", "rad_dim", "simples", "expected_m_regular", "split_audit", "ok")
    return payload, _row(payload, *columns), report.ok


COMMANDS = {
    "support": cmd_support,
    "decompose": cmd_decompose,
    "census": cmd_census,
    "bo-verify": cmd_bo_verify,
    "weights": cmd_weights,
    "lr": cmd_lr,
    "dunkl-check": cmd_dunkl_check,
    "singular": cmd_singular,
    "ideal-check": cmd_ideal_check,
    "fock-trace": cmd_fock_trace,
    "hecke-simples": cmd_hecke_simples,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact support, counting and operator checks for the "
        "type-A rational Cherednik algebra at c = r/m.",
    )
    parser.add_argument("--format", choices=["json", "csv", "table"], default="json")
    parser.add_argument(
        "--seed", type=parse_int, default=0, help="accepted for compatibility; no command uses it"
    )
    # the common flags are accepted on either side of the subcommand;
    # SUPPRESS keeps an unset trailing flag from clobbering a leading one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["json", "csv", "table"], default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=parse_int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("support", help="stratum of one irreducible")
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 3,1")
    p.add_argument("--m", type=parse_int, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")

    p = add_parser("decompose", help="split lambda into m*mu + nu")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--m", type=parse_int, required=True)
    p.add_argument("--regular", choices=["transpose", "parts"], default="transpose")

    p = add_parser("census", help="all partitions of n grouped by stratum")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--m", type=parse_int, required=True)

    p = add_parser(
        "bo-verify",
        help="per-stratum counts from the walk (census, eigenspace), from partition "
        "counts, and from the product and trace series, which must all agree",
    )
    p.add_argument("--n-max", dest="n_max", type=parse_int, required=True)
    p.add_argument("--m", required=True, help="comma list of denominators, e.g. 2,3")

    p = add_parser("weights", help="lowest weights of all partitions of n")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--c", required=True, help='rational parameter, e.g. "1/2"')

    p = add_parser("lr", help="induction product of two irreducibles")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--c", default=None, help="optional positive rational for the leading weight")

    p = add_parser("dunkl-check", help="defining relations on a monomial basis")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--degree", type=parse_int, required=True)

    p = add_parser("singular", help="joint kernel of the deformed derivatives")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--degree", type=parse_int, required=True)

    p = add_parser("ideal-check", help="stability of the stratum vanishing ideal")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--m", type=parse_int, required=True)
    p.add_argument("--q", type=parse_int, required=True)
    p.add_argument("--degree", type=parse_int, required=True)
    p.add_argument("--c", default=None, help="override parameter (default 1/m)")

    p = add_parser("fock-trace", help="bigraded trace series coefficients")
    p.add_argument("--m", type=parse_int, required=True)
    p.add_argument("--max", type=parse_int, required=True)

    p = add_parser("hecke-simples", help="simple module count at a root of unity")
    p.add_argument("--p", type=parse_int, required=True)
    p.add_argument("--m", type=parse_int, required=True)

    return parser


def _stringify(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_json(args, ok: bool, **body) -> None:
    envelope = {"tool": "cherednik", "version": __version__, "command": args.command, "ok": ok}
    sys.stdout.writelines(json_text(envelope | body))
    sys.stdout.write("\n")


def _emit(args, payload: dict, rows: list[dict], ok: bool) -> None:
    if args.format == "json":
        _write_json(args, ok, result=payload)
        return
    if not rows:
        return
    headers = list(rows[0].keys())
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_stringify(row[h]) for h in headers])
        return
    cells = [[_stringify(row[h]) for h in headers] for row in rows]
    widths = [
        max(len(headers[j]), max((len(r[j]) for r in cells), default=0))
        for j in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in cells:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _to_reader(write, *args, **body) -> None:
    """write(*args, **body), flushed.  A reader that closes the pipe early
    (`| head`) ends it quietly: stdout then points at os.devnull, so the flush
    at exit meets no closed pipe either."""
    try:
        write(*args, **body)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _merge_negative_rationals(argv: list[str]) -> list[str]:
    """Join `--c -1/2` into `--c=-1/2`: argparse's negative-number heuristic
    does not cover rationals with slashes."""
    merged: list[str] = []
    for tok in argv:
        if merged and merged[-1] == "--c" and tok.startswith("-"):
            merged[-1] = f"--c={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_rationals(argv))
    try:
        payload, rows, ok = COMMANDS[args.command](args)
        _to_reader(_emit, args, payload, rows, ok)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        if args.format == "json":
            # each parsed value keyed by the option that sets it, e.g. --lambda
            (sub,) = (a for a in parser._actions if a.dest == "command")
            option = {a.dest: a.option_strings[-1] for a in sub.choices[args.command]._actions}
            flags = {option[k]: v for k, v in vars(args).items() if k != "command"}
            error = {"kind": "identity violation", "message": str(exc), "flags": flags}
            _to_reader(_write_json, args, False, error=error)
        return 1
    except Exception as exc:
        # repr keeps the exception type and one line whatever the message
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
