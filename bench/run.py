"""Benchmark of the `cherednik` CLI.

    python3 bench/run.py --workload hecke|counting|operators --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
One harness process runs the workload's ops one at a time, each as a fresh CLI
process (a closed loop with one client), and checks every output with the
independent checks in checks.py.

With --trace 0 the op list is repeated until S seconds have passed (at least
one full pass) and the end-to-end metrics are reported.  With --trace 1 one
untraced pass and one pass through trace_shim.py are run, and the per-layer
metrics are reported.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the full record, with the
environment and a digest of every op's output, goes to
bench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# a hung op counts as failed; every run ends within RUN_DEADLINE_S whatever the ops do
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0
# set-up is sampled at this interval through the run, so that its median
# covers the same stretch of time as the ops
SETUP_INTERVAL_S = 4.0
SETUP_CODE = "import cherednik.cli as cli; cli.build_parser()"
ENV_PROBE = """
import importlib.util, json, platform, sympy
from sympy.external.gmpy import GROUND_TYPES
import cherednik.cli
print(json.dumps({
    "python": platform.python_version(),
    "sympy": sympy.__version__,
    "ground_types": GROUND_TYPES,
    "gmpy2": importlib.util.find_spec("gmpy2") is not None,
}))
"""

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_METRICS = (
    "hecke.field_mul.calls", "hecke.field_inv.calls", "hecke.gen_mul.calls",
    "hecke.gram.s", "hecke.radical.s", "hecke.center.s", "hecke.audit.s",
    "linalg.kernel.calls", "linalg.kernel.cells", "linalg.kernel.s",
    "dunkl.apply.calls", "dunkl.relations.s", "dunkl.singular.s",
    "dunkl.ideal_basis.s", "dunkl.ideal_member.calls", "dunkl.ideal_check.s",
    "fock.trace_series.s", "fock.product_series.s", "fock.verify_bo.s",
    "fock.weight_operator.calls",
    "partitions.enumerate.calls", "partitions.enumerate.items", "partitions.enumerate.s",
    "partitions.dominates.calls", "partitions.support_invariant.calls",
    "characters.lowest_weight.calls", "characters.lowest_weight.s", "characters.lr_induce.s",
    "cli.import.s", "cli.command.s", "cli.main.self_s", "cli.output.bytes",
    "trace.overhead_ratio",
)


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


LAYER_UNITS = {name: _layer_unit(name) for name in LAYER_METRICS}

VERSION_LINE = re.compile(rb'^\s*"version": "[^"]*",\n', re.MULTILINE)


def output_digest(stdout: bytes) -> str:
    """sha256 of stdout with the version header removed."""
    return hashlib.sha256(VERSION_LINE.sub(b"", stdout, count=1)).hexdigest()


@dataclass
class OpRun:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool
    counters: dict | None = None


class Runner:
    """Starts one CLI process at a time and measures it from launch to exit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.scratch = RESULTS / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        # fixed string hashing gives every op process the same set and dict orders
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, args: list[str], timeout: float, counters: bool = False) -> OpRun:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        counters_path = self.scratch / "counters.json"
        if counters:
            counters_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "trace_shim.py"), str(counters_path), *args]
        else:
            cmd = [sys.executable, *args]
        timeout = max(0.0, min(timeout, self.remaining()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # a pidfd never names a recycled process, so the kill below is safe
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted: leave no op process behind
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return OpRun(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes()[-2000:],
            timed_out=not ready,
            counters=json.loads(counters_path.read_text()) if counters and counters_path.exists() else None,
        )

    def close(self) -> None:
        for path in self.scratch.iterdir():
            path.unlink()
        self.scratch.rmdir()


class Workload:
    """The op list of one run, the samples taken of it and the verdicts."""

    def __init__(self, ops: list[Op], runner: Runner):
        self.ops = ops
        self.runner = runner
        self.records = [
            {"op": op.label, "expect_rc": op.expect_rc, "wall_s": [], "cpu_s": [],
             "rss_mb": [], "digest": None, "failures": []}
            for op in ops
        ]
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[tuple, str | None] = {}

    def run_op(self, k: int, traced: bool = False) -> OpRun | None:
        op, rec = self.ops[k], self.records[k]
        self.attempted += 1
        if self.runner.remaining() <= 0:
            self._fail(rec, "not started before the run deadline")
            return None
        args = list(op.argv) if traced else ["-m", "cherednik.cli", *op.argv]
        res = self.runner.run(args, OP_TIMEOUT_S, counters=traced)
        digest = output_digest(res.stdout)
        if res.timed_out:
            self._fail(rec, f"timed out after {res.wall_s:.1f} s")
            return res
        key = (k, res.returncode, digest)
        if key not in self._verdicts:
            # identical bytes get an identical verdict, so each distinct
            # output is checked once per run
            self._verdicts[key] = check(op.kind, op.params, res.returncode, res.stdout, op.expect_rc)
        reason = self._verdicts[key]
        if reason is None and rec["digest"] not in (None, digest):
            reason = "output differs from an earlier run of the same op"
        if reason is None and traced and res.counters is None:
            reason = "traced run wrote no counters"
        if reason:
            self._fail(rec, reason + (f"; stderr: {res.stderr.decode(errors='replace')[-300:]}" if res.stderr else ""))
        rec["digest"] = rec["digest"] or digest
        if not traced:
            rec["wall_s"].append(res.wall_s)
            rec["cpu_s"].append(res.cpu_s)
            rec["rss_mb"].append(res.rss_mb)
        return res

    def _fail(self, rec: dict, reason: str) -> None:
        self.failed += 1
        rec["failures"].append(reason)

    def summed_median(self, key: str) -> float:
        """One pass of the op list, each op at its median over the run."""
        return sum(statistics.median(r[key]) for r in self.records if r[key])


def measure_setup(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing the CLI, ready to parse."""
    res = runner.run(["-c", SETUP_CODE], OP_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"cannot import cherednik.cli: {res.stderr.decode(errors='replace')}")
    return res.wall_s


def environment(runner: Runner) -> dict:
    probe = runner.run(["-c", ENV_PROBE], OP_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import cherednik: {probe.stderr.decode(errors='replace')}")
    env = json.loads(probe.stdout)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        lines += data.count(b"\n")
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    env.update(
        {
            "git_commit": commit,
            "src_sha256": tree.hexdigest(),
            "src_lines": lines,
            "nproc": os.cpu_count(),
        }
    )
    return env


def run_untraced(work: Workload, seconds: float) -> tuple[dict, list[float]]:
    """Repeat the op list until `seconds` have passed, after at least one full
    pass, taking a set-up sample every SETUP_INTERVAL_S."""
    start = last_setup = time.monotonic()
    setup = [measure_setup(work.runner)]
    passes = 0
    while True:
        for k in range(len(work.ops)):
            now = time.monotonic()
            if passes and now - start >= seconds:
                return {"passes": passes, "partial_pass_ops": k}, setup
            if now - last_setup >= SETUP_INTERVAL_S:
                setup.append(measure_setup(work.runner))
                last_setup = now
            work.run_op(k)
        passes += 1


def run_traced(work: Workload) -> dict[str, float]:
    untraced = [work.run_op(k) for k in range(len(work.ops))]
    traced = [work.run_op(k, traced=True) for k in range(len(work.ops))]
    metrics = {name: 0 for name in LAYER_UNITS}
    for res in traced:
        for name, value in ((res and res.counters) or {}).items():
            metrics[name] = metrics.get(name, 0) + value
    metrics["cli.output.bytes"] = sum(len(r.stdout) for r in traced if r)
    untraced_wall = sum(r.wall_s for r in untraced if r)
    traced_wall = sum(r.wall_s for r in traced if r)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    unknown = sorted(set(metrics) - set(LAYER_UNITS))
    if unknown:
        raise RuntimeError(f"shim reported unlisted counters: {unknown}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its op process (see Runner.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cherednik" / "cli.py").is_file():
        print(f"error: no cherednik sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    try:
        env = environment(runner)  # also writes the bytecode caches
        work = Workload(make_ops(args.workload, args.seed), runner)
        if args.trace:
            schedule, setup = {"passes": 1, "traced_passes": 1}, []
            values = run_traced(work)
            units = LAYER_UNITS
        else:
            schedule, setup = run_untraced(work, args.seconds)
            values = {
                "wall_s": work.summed_median("wall_s"),
                "cpu_s": work.summed_median("cpu_s"),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max((v for r in work.records for v in r["rss_mb"]), default=0.0),
            }
            units = E2E_UNITS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    summary = {
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "schedule": schedule,
        "setup_s_samples": setup,
        "error_rate": work.failed / work.attempted,
        "summary": summary,
        "ops": work.records,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for rec in work.records:
        for reason in rec["failures"]:
            print(f"FAIL {rec['op']}: {reason}", file=sys.stderr)
    print(f"full record: {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
