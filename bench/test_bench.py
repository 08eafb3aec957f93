"""Self-test of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

Runs small real CLI invocations, so it needs the sources under src/.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(op: Op) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cherednik.cli", *op.argv],
        capture_output=True, env=ENV, cwd=ROOT, timeout=120,
    )


def scratch_dir():
    """A temporary directory inside the checkout's ignored results folder."""
    run.RESULTS.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.RESULTS)


def bump_row(key, rows="rows", index=0, delta=1):
    def corrupt(result):
        result[rows][index][key] += delta
    return corrupt


def set_field(key, value):
    def corrupt(result):
        result[key] = value
    return corrupt


def bump_first_product(result):
    first = next(iter(result["product"]))
    result["product"][first] += 1


def shift_first_weight(result):
    result["weights"][0]["h"] = str(Fraction(result["weights"][0]["h"]) + 1)


def perturb_singular_basis(result):
    term = result["basis"][0][0]
    term["coeff"] = str(Fraction(term["coeff"]) * 2)


# (small op of each kind, a corruption its checker must reject)
CASES = [
    (Op("hecke-simples", {"seed": 1, "p": 3, "m": 2}), set_field("block_dims", [3, 2])),
    (Op("hecke-simples", {"seed": 1, "p": 3, "m": 4}), set_field("block_dims", [16, 4, 1])),
    (Op("hecke-simples", {"seed": 1, "p": 3, "m": 2}), set_field("simples", 3)),
    (Op("bo-verify", {"n_max": 8, "m": [2, 3]}), bump_row("count_qm", index=5)),
    (Op("fock-trace", {"m": 2, "max": 8}), bump_row("coeff", index=7)),
    (Op("census", {"n": 8, "m": 2}), bump_row("q", index=3)),
    (Op("weights", {"n": 5, "c": Fraction(-1, 2)}), shift_first_weight),
    (Op("lr", {"lambda": [2, 1], "mu": [2]}), bump_first_product),
    (Op("dunkl-check", {"n": 3, "c": Fraction(1, 3), "degree": 2}), set_field("checked", 1)),
    (Op("singular", {"n": 2, "c": Fraction(1, 2), "degree": 1, "nonempty": True}), perturb_singular_basis),
    (Op("singular", {"n": 2, "c": Fraction(1, 2), "degree": 1, "nonempty": True}), set_field("basis", [])),
    (Op("ideal-check", {"n": 3, "m": 3, "q": 1, "degree": 2}), set_field("graded_dims", {"1": 0, "2": 0})),
    (Op("ideal-check", {"n": 3, "m": 3, "q": 1, "degree": 2}), set_field("graded_dims", {"1": 2, "2": 6})),
    (
        Op("ideal-check", {"n": 4, "m": 2, "q": 2, "degree": 4, "c": Fraction(1, 3)}, expect_rc=1),
        set_field("failures", []),
    ),
]


class CheckerTest(unittest.TestCase):
    def test_checkers_accept_real_and_reject_corrupted_outputs(self):
        outputs = {}
        for op, corrupt in CASES:
            with self.subTest(op=op.label, corrupt=corrupt.__qualname__):
                if op.label not in outputs:
                    outputs[op.label] = cli(op)
                proc = outputs[op.label]
                self.assertIsNone(
                    checks.check(op.kind, op.params, proc.returncode, proc.stdout, op.expect_rc)
                )
                envelope = json.loads(proc.stdout)
                bad = copy.deepcopy(envelope)
                corrupt(bad["result"])
                reason = checks.check(
                    op.kind, op.params, proc.returncode, json.dumps(bad).encode(), op.expect_rc
                )
                self.assertIsNotNone(reason)

    def test_unexpected_exit_code_is_rejected(self):
        op = Op("ideal-check", {"n": 4, "m": 2, "q": 2, "degree": 4, "c": Fraction(1, 3)})
        proc = cli(op)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("exit code", checks.check(op.kind, op.params, proc.returncode, proc.stdout))

    def test_reference_counts(self):
        self.assertEqual([checks.partition_count(n) for n in range(8)], [1, 1, 2, 3, 5, 7, 11, 15])
        self.assertEqual(len(checks.partitions_of(12)), checks.partition_count(12))
        self.assertEqual(checks.hook_dimension((3, 2)), 5)
        self.assertEqual(checks.ideal_slice_dimension(2, 2, 1, 1), 1)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops_other_seed_other_parameters(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, again, other = (make_ops(workload, s) for s in (3, 3, 4))
                self.assertEqual(first, again)
                self.assertEqual([op.label for op in first], [op.label for op in again])
                self.assertNotEqual([op.label for op in first], [op.label for op in other])
                # same amount of work: the same commands at the same sizes
                self.assertEqual(
                    sorted(op.kind for op in first), sorted(op.kind for op in other)
                )

    def test_workload_ops_have_nonvacuous_shapes(self):
        ops = make_ops("operators", 0)
        self.assertTrue(any(op.kind == "singular" and op.params.get("nonempty") for op in ops))
        self.assertEqual([op.expect_rc for op in ops].count(1), 1)


class ShimTest(unittest.TestCase):
    def test_traced_output_is_byte_identical(self):
        for op in (
            Op("hecke-simples", {"seed": 2, "p": 3, "m": 3}),
            Op("weights", {"n": 6, "c": Fraction(2, 3)}),
            Op("ideal-check", {"n": 4, "m": 2, "q": 2, "degree": 3, "c": Fraction(1, 3)}),
        ):
            with self.subTest(op=op.label), scratch_dir() as tmp:
                counters = Path(tmp) / "counters.json"
                traced = subprocess.run(
                    [sys.executable, str(BENCH / "trace_shim.py"), str(counters), *op.argv],
                    capture_output=True, env=ENV, cwd=ROOT, timeout=120,
                )
                plain = cli(op)
                self.assertEqual(traced.stdout, plain.stdout)
                self.assertEqual(traced.returncode, plain.returncode)
                names = set(json.loads(counters.read_text()))
                self.assertIn("cli.import.s", names)
                self.assertLessEqual(names, set(run.LAYER_METRICS))

    def test_digest_ignores_version_header(self):
        a = b'{\n  "tool": "cherednik",\n  "version": "0.1.0",\n  "ok": true\n}\n'
        b = a.replace(b"0.1.0", b"0.2.0")
        self.assertEqual(run.output_digest(a), run.output_digest(b))
        self.assertNotEqual(run.output_digest(a), run.output_digest(a.replace(b"true", b"false")))


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with scratch_dir() as tmp:
            shutil.copytree(
                BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("results", "__pycache__")
            )
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "hecke", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
