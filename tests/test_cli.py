import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cherednik import characters, cli, dunkl, fock, hecke, partitions
from cherednik.errors import IdentityViolation


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def violation_record(captured) -> dict:
    """The error record of the JSON envelope that a raised IdentityViolation
    leaves on stdout, after checking it against the one stderr line."""
    doc = json.loads(captured.out)
    assert doc["tool"] == "cherednik"
    assert doc["ok"] is False
    assert "result" not in doc
    error = doc["error"]
    assert error["kind"] == "identity violation"
    assert captured.err == f"identity violation: {error['message']}\n"
    return error


def option_strings(capsys, command) -> set[str]:
    """The options that `cherednik COMMAND --help` lists."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))


class TestSupport:
    def test_example(self, capsys):
        code, payload = run_json(capsys, "support", "--lambda", "3,1", "--m", "2", "--sign", "+")
        assert code == 0
        assert payload["result"]["q"] == 1
        assert payload["result"]["mu"] == [1]
        assert payload["result"]["nu"] == [1, 1]

    def test_trivial_stratum(self, capsys):
        code, payload = run_json(capsys, "support", "--lambda", "1", "--m", "5")
        assert code == 0
        assert payload["result"]["q"] == 0

    def test_negative_sign(self, capsys):
        code, payload = run_json(capsys, "support", "--lambda", "2", "--m", "2", "--sign", "-")
        assert code == 0
        assert payload["result"]["q"] == 0

    def test_malformed_partition(self, capsys):
        code = cli.main(["support", "--lambda", "1,2", "--m", "2"])
        assert code == 2


class TestCensus:
    def test_n4_m2(self, capsys):
        code, payload = run_json(capsys, "census", "--n", "4", "--m", "2")
        assert code == 0
        assert payload["result"]["strata_sizes"] == {"0": 2, "1": 1, "2": 2}

    def test_single_partition(self, capsys):
        code, payload = run_json(capsys, "census", "--n", "1", "--m", "2")
        assert code == 0
        assert payload["result"]["strata_sizes"] == {"0": 1}

    def test_strata_exhaust(self, capsys):
        code, payload = run_json(capsys, "census", "--n", "6", "--m", "3")
        assert code == 0
        sizes = payload["result"]["strata_sizes"]
        assert sum(sizes.values()) == 11

    def test_each_mu_and_nu_is_keyed_once(self, monkeypatch, capsys):
        # mu and nu repeat across the rows; each lambda appears once
        calls = []
        real = cli.partition_key

        def spy(lam):
            calls.append(lam)
            return real(lam)

        monkeypatch.setattr(cli, "partition_key", spy)
        code, payload = run_json(capsys, "census", "--n", "12", "--m", "3")
        assert code == 0
        rows = payload["result"]["rows"]
        parts = {row[key] for row in rows for key in ("mu", "nu")}
        assert len(calls) == len(rows) + len(parts) < 3 * len(rows)

    def test_irregular_splitting_exits_1(self, monkeypatch, capsys):
        # a splitting whose conjugate(nu) = (2, 2, 2) is not 3-regular is a
        # failed classification, not a usage error
        real = partitions.decompose
        monkeypatch.setattr(
            partitions, "decompose", lambda lam, m: ((), (3, 3)) if lam == (3, 3) else real(lam, m)
        )
        code = cli.main(["census", "--n", "6", "--m", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out)["ok"] is False


class TestBoVerify:
    def test_sweep(self, capsys):
        code, payload = run_json(capsys, "bo-verify", "--n-max", "8", "--m", "2,3")
        assert code == 0
        assert payload["ok"]
        rows = payload["result"]["rows"]
        assert all(row["ok"] for row in rows)
        columns = {"count_qm", "count_product", "dim_eigenspace", "coeff_N", "coeff_trace"}
        assert columns <= set(rows[0])

    @pytest.mark.parametrize("m", [",", "", " , "])
    def test_no_denominator_is_a_usage_error(self, capsys, m):
        # an empty list used to pass with nothing checked
        code, out = run(capsys, "bo-verify", "--n-max", "4", "--m", m)
        assert code == 2
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("support", "--lambda", "3,,1", "--m", "2"),
        ("support", "--lambda", "3,1,", "--m", "2"),
        ("decompose", "--lambda", ",4,2", "--m", "2"),
        ("lr", "--lambda", "2,,1", "--mu", ","),
        ("lr", "--lambda", "2,1", "--mu", ","),
        ("bo-verify", "--n-max", "4", "--m", "2,,3"),
        ("bo-verify", "--n-max", "4", "--m", "2,3,"),
        ("bo-verify", "--n-max", "4", "--m", "2, ,3"),
    ],
)
def test_comma_list_with_an_empty_entry_is_a_usage_error(capsys, argv):
    # an empty entry is refused, not dropped: "3,,1" is not (3, 1), nor "2,,3" the list 2,3
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("support", "--lambda", "1_0", "--m", "2"),
        ("support", "--lambda", "３,1", "--m", "2"),
        ("support", "--lambda", "+3,1", "--m", "2"),
        ("lr", "--lambda", "2,1", "--mu", "1_1"),
        ("bo-verify", "--n-max", "4", "--m", "2_3"),
        ("bo-verify", "--n-max", "4", "--m", "2,+3"),
        ("bo-verify", "--n-max", "4", "--m", "-2"),
        ("weights", "--n", "3", "--c", "1_0/3"),
        ("weights", "--n", "3", "--c", "３/4"),
        ("lr", "--lambda", "1", "--mu", "1", "--c", "1/٢"),
    ],
)
def test_integer_that_is_not_plain_digits_is_a_usage_error(capsys, argv):
    # int() and Fraction() read "1_0" as 10 and a full-width "３" as 3
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--n", "1_0", "--m", "3"),
        ("census", "--n", "+4", "--m", "3"),
        ("census", "--n", "４", "--m", "3"),
        ("support", "--lambda", "3,1", "--m", "2_0"),
        ("--seed", "1_0", "support", "--lambda", "3,1", "--m", "2"),
        ("hecke-simples", "--p", "3", "--m", " 2_0"),
    ],
)
def test_integer_flag_that_is_not_plain_digits_is_refused_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    out, stderr = capsys.readouterr()
    assert err.value.code == 2
    assert out == ""
    assert "invalid parse_int value" in stderr


def test_integers_padded_with_blanks_still_parse(capsys):
    code, payload = run_json(capsys, "support", "--lambda", " 4 , 2 ", "--m", " 2 ")
    assert code == 0
    assert (payload["result"]["lambda"], payload["result"]["m"]) == ([4, 2], 2)


class TestWeights:
    def test_dominance_consistency(self, capsys):
        code, payload = run_json(capsys, "weights", "--n", "4", "--c", "1/2")
        assert code == 0
        assert payload["result"]["dominance_consistent"]
        table = {row["lambda"]: row["h"] for row in payload["result"]["weights"]}
        assert table["[4]"] == "-3"
        assert table["[2,2]"] == "0"
        assert table["[1,1,1,1]"] == "3"


class TestLr:
    def test_example(self, capsys):
        code, payload = run_json(capsys, "lr", "--lambda", "2,1", "--mu", "1")
        assert code == 0
        assert payload["result"]["product"] == {"[3,1]": 1, "[2,2]": 1, "[2,1,1]": 1}

    def test_with_leading_weight(self, capsys):
        code, payload = run_json(
            capsys, "lr", "--lambda", "1", "--mu", "1", "--c", "1/2"
        )
        assert code == 0
        assert payload["result"]["leading"] == [2]
        assert payload["result"]["leading_weight"] == "-1/2"


class TestEngineCommands:
    def test_dunkl_check(self, capsys):
        code, payload = run_json(
            capsys, "dunkl-check", "--n", "3", "--c", "5/7", "--degree", "2"
        )
        assert code == 0
        assert payload["result"]["violations"] == []

    def test_negative_parameter_accepted(self, capsys):
        code, payload = run_json(
            capsys, "dunkl-check", "--n", "2", "--c", "-1/2", "--degree", "2"
        )
        assert code == 0
        assert payload["result"]["c"] == "-1/2"
        assert payload["result"]["violations"] == []

    def test_singular(self, capsys):
        code, payload = run_json(
            capsys, "singular", "--n", "2", "--c", "1/2", "--degree", "1"
        )
        assert code == 0
        assert payload["result"]["dimension"] == 1
        basis = payload["result"]["basis"]
        assert basis[0][0]["exponents"] in ([1, 0], [0, 1])

    def test_ideal_check_passes(self, capsys):
        code, payload = run_json(
            capsys, "ideal-check", "--n", "2", "--m", "2", "--q", "1", "--degree", "3"
        )
        assert code == 0
        assert payload["result"]["stable"]

    def test_ideal_check_negative_control_exits_1(self, capsys):
        code, payload = run_json(
            capsys,
            "ideal-check",
            "--n", "2", "--m", "2", "--q", "1", "--degree", "1",
            "--c", "1/3",
        )
        assert code == 1
        assert not payload["result"]["stable"]
        assert payload["result"]["failures"]

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_ideal_check_refuses_m_below_two(self, capsys, m):
        code = cli.main(["ideal-check", "--n", "4", "--m", m, "--q", "1", "--degree", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: m must be at least 2, got {m}\n"

    def test_ideal_check_refuses_all_zero_slices(self, capsys):
        # graded_dims 0, 0, 0: no generator, so nothing was checked, and
        # this used to exit 0 with "stable": true
        code = cli.main(["ideal-check", "--n", "6", "--m", "2", "--q", "2", "--degree", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the stratum ideal has no nonzero element of degree at most 3; "
            "raise the degree bound\n"
        )

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_ideal_check_refuses_degree_below_one(self, capsys, degree):
        # a degree below 1 checked no slice and passed vacuously
        code = cli.main(["ideal-check", "--n", "4", "--m", "2", "--q", "1", "--degree", degree])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: max_degree must be at least 1\n"

    def test_fock_trace_csv(self, capsys):
        code, out = run(capsys, "--format", "csv", "fock-trace", "--m", "2", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "deg_s,deg_t,coeff"
        assert "4,4,2" in lines

    def test_hecke_simples(self, capsys):
        code, payload = run_json(capsys, "hecke-simples", "--p", "3", "--m", "2")
        assert code == 0
        result = payload["result"]
        assert result["simples"] == result["expected_m_regular"] == 2
        assert result["split_audit"]
        assert "audit_note" not in result

    def test_hecke_simples_ignores_seed(self, capsys):
        # --seed still parses, and nothing the command prints depends on it
        argv = ["hecke-simples", "--p", "4", "--m", "3"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--seed", "7") == plain
        assert run(capsys, "--seed", "7", *argv) == plain

    def test_hecke_simples_failed_relation_exits_1(self, monkeypatch, capsys):
        real_init = hecke.HeckeAlgebra.__init__

        def corrupted(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.one_minus_q = self.field.one

        monkeypatch.setattr(hecke.HeckeAlgebra, "__init__", corrupted)
        code = cli.main(["hecke-simples", "--p", "3", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert violation_record(captured)["flags"] == {"--format": "json", "--seed": 0, "--p": 3, "--m": 2}
        assert captured.err == "identity violation: quadratic relation fails at T_0\n"


class TestOutputContract:
    def test_json_deterministic(self, capsys):
        _, first = run(capsys, "census", "--n", "5", "--m", "2")
        _, second = run(capsys, "census", "--n", "5", "--m", "2")
        assert first == second

    def test_version_header(self, capsys):
        _, payload = run_json(capsys, "support", "--lambda", "2", "--m", "2")
        assert payload["tool"] == "cherednik"
        assert "version" in payload

    def test_table_format(self, capsys):
        code, out = run(capsys, "--format", "table", "census", "--n", "3", "--m", "2")
        assert code == 0
        header = out.splitlines()[0].split()
        assert header[:3] == ["n", "m", "q"]

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["census", "--n", "4"])  # missing --m
        assert err.value.code == 2


FIXTURES = Path(__file__).parent / "fixtures" / "cli"

# stdout recorded from the all-pairs weights check and the census loops that
# used to live in this module; the version line is left out of the files
REFERENCE = [
    ("weights_n8_c1_2.json", ["weights", "--n", "8", "--c", "1/2"]),
    ("weights_n8_c-2_3.json", ["weights", "--n", "8", "--c", "-2/3"]),
    ("weights_n6_c0.json", ["weights", "--n", "6", "--c", "0"]),
    ("census_n10_m3.json", ["census", "--n", "10", "--m", "3"]),
    ("census_n10_m3.csv", ["--format", "csv", "census", "--n", "10", "--m", "3"]),
    ("bo-verify_n10_m2-3.json", ["bo-verify", "--n-max", "10", "--m", "2,3"]),
    ("fock-trace_m2_max10.json", ["fock-trace", "--m", "2", "--max", "10"]),
    ("hecke-simples_p3_m2.json", ["hecke-simples", "--p", "3", "--m", "2"]),
    ("hecke-simples_p4_m3.json", ["hecke-simples", "--p", "4", "--m", "3"]),
    ("singular_n5_c1_2_degree5.json", ["singular", "--n", "5", "--c", "1/2", "--degree", "5"]),
    ("singular_n4_c1_4_degree7.json", ["singular", "--n", "4", "--c", "1/4", "--degree", "7"]),
    (
        "ideal-check_n5_m2_q2_degree5.json",
        ["ideal-check", "--n", "5", "--m", "2", "--q", "2", "--degree", "5"],
    ),
    # recorded from the Fraction Dunkl engine and the CLI-side lr verdict
    (
        "dunkl-check_n4_c-2_3_degree3.json",
        ["dunkl-check", "--n", "4", "--c", "-2/3", "--degree", "3"],
    ),
    ("singular_n4_c-3_4_degree4.json", ["singular", "--n", "4", "--c", "-3/4", "--degree", "4"]),
    (
        "lr_lambda3-2-1_mu2-1_c1_2.json",
        ["lr", "--lambda", "3,2,1", "--mu", "2,1", "--c", "1/2"],
    ),
    (
        "lr_lambda3-2-1_mu2-1_c1_2.csv",
        ["--format", "csv", "lr", "--lambda", "3,2,1", "--mu", "2,1", "--c", "1/2"],
    ),
    # recorded from the glue that rebuilt the block map on every call; the
    # c = 1/3 control fails, and its failure list is part of the record
    (
        "ideal-check_n6_m3_q2_degree4.json",
        ["ideal-check", "--n", "6", "--m", "3", "--q", "2", "--degree", "4"],
    ),
    (
        "ideal-check_n4_m2_q2_degree4_c1_3.json",
        ["ideal-check", "--n", "4", "--m", "2", "--q", "2", "--degree", "4", "--c", "1/3"],
    ),
    # recorded while the CLI still applied the sign convention, judged the
    # recombination and wrote the csv/table row of each one-row command itself
    (
        "support_lambda5-3-1_m2_sign+.json",
        ["support", "--lambda", "5,3,1", "--m", "2", "--sign", "+"],
    ),
    (
        "support_lambda5-3-1_m2_sign-.json",
        ["support", "--lambda", "5,3,1", "--m", "2", "--sign", "-"],
    ),
    (
        "decompose_lambda7-4-4-4-1-1-1_m3_transpose.json",
        ["decompose", "--lambda", "7,4,4,4,1,1,1", "--m", "3", "--regular", "transpose"],
    ),
    (
        "decompose_lambda7-4-4-4-1-1-1_m3_parts.json",
        ["decompose", "--lambda", "7,4,4,4,1,1,1", "--m", "3", "--regular", "parts"],
    ),
    (
        "support_lambda5-3-1_m2_sign-.csv",
        ["--format", "csv", "support", "--lambda", "5,3,1", "--m", "2", "--sign", "-"],
    ),
    (
        "support_lambda5-3-1_m2_sign-.txt",
        ["--format", "table", "support", "--lambda", "5,3,1", "--m", "2", "--sign", "-"],
    ),
    (
        "decompose_lambda7-4-4-4-1-1-1_m3_parts.csv",
        ["--format", "csv", "decompose", "--lambda", "7,4,4,4,1,1,1", "--m", "3", "--regular", "parts"],
    ),
    (
        "decompose_lambda7-4-4-4-1-1-1_m3_parts.txt",
        ["--format", "table", "decompose", "--lambda", "7,4,4,4,1,1,1", "--m", "3", "--regular", "parts"],
    ),
    (
        "dunkl-check_n3_c-1_2_degree3.csv",
        ["--format", "csv", "dunkl-check", "--n", "3", "--c", "-1/2", "--degree", "3"],
    ),
    (
        "dunkl-check_n3_c-1_2_degree3.txt",
        ["--format", "table", "dunkl-check", "--n", "3", "--c", "-1/2", "--degree", "3"],
    ),
    (
        "singular_n3_c1_3_degree1.csv",
        ["--format", "csv", "singular", "--n", "3", "--c", "1/3", "--degree", "1"],
    ),
    (
        "singular_n3_c1_3_degree1.txt",
        ["--format", "table", "singular", "--n", "3", "--c", "1/3", "--degree", "1"],
    ),
    (
        "ideal-check_n4_m2_q2_degree4_c1_3.csv",
        ["--format", "csv", "ideal-check", "--n", "4", "--m", "2", "--q", "2", "--degree", "4", "--c", "1/3"],
    ),
    (
        "ideal-check_n4_m2_q2_degree4.txt",
        ["--format", "table", "ideal-check", "--n", "4", "--m", "2", "--q", "2", "--degree", "4"],
    ),
    ("hecke-simples_p3_m2.csv", ["--format", "csv", "hecke-simples", "--p", "3", "--m", "2"]),
    ("hecke-simples_p4_m3.txt", ["--format", "table", "hecke-simples", "--p", "4", "--m", "3"]),
]

# every other reference command exits 0
REFERENCE_EXIT = {
    "ideal-check_n4_m2_q2_degree4_c1_3.json": 1,
    "ideal-check_n4_m2_q2_degree4_c1_3.csv": 1,
}


class TestReferenceOutput:
    @pytest.mark.parametrize("name,argv", REFERENCE, ids=[name for name, _ in REFERENCE])
    def test_stdout_matches(self, capsys, name, argv):
        code, out = run(capsys, *argv)
        assert code == REFERENCE_EXIT.get(name, 0)
        lines = out.splitlines(keepends=True)
        if name.endswith(".json"):
            assert lines[2] == f'  "version": "{cli.__version__}",\n'
            del lines[2]
        assert "".join(lines) == (FIXTURES / name).read_text()


COUNTING_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "counting_digests.json").read_text()
)["digests"]


class TestCountingDigests:
    # sizes past the reference files, where the Fock census and the strata
    # see thousands of partitions per degree
    @pytest.mark.parametrize("command", sorted(COUNTING_DIGESTS))
    def test_stdout_digest(self, capsys, command):
        code, out = run(capsys, *command.split())
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[2] == f'  "version": "{cli.__version__}",\n'
        del lines[2]
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == COUNTING_DIGESTS[command]


class TestExitCodes:
    def test_exit_0_when_identities_hold(self, capsys):
        code, out = run(capsys, "census", "--n", "4", "--m", "2")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_exit_1_on_identity_violation(self, monkeypatch, capsys):
        # a wrong content sum breaks the weight cross-check inside the library
        monkeypatch.setattr(characters, "content_sum", lambda lam: 1)
        code = cli.main(["weights", "--n", "3", "--c", "1/2"])
        captured = capsys.readouterr()
        assert code == 1
        error = violation_record(captured)
        assert error["flags"] == {"--format": "json", "--seed": 0, "--n": 3, "--c": "1/2"}
        assert captured.err.startswith("identity violation: weight formulas disagree")
        # the record goes to stdout under --format json only
        for fmt in ("csv", "table"):
            code = cli.main(["--format", fmt, "weights", "--n", "3", "--c", "1/2"])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"identity violation: {error['message']}\n"

    def test_exit_2_on_usage_error(self, capsys):
        code = cli.main(["weights", "--n", "3", "--c", "x/2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("exc", [ArithmeticError, RecursionError, NotImplementedError, ValueError])
    def test_exit_3_on_internal_error(self, monkeypatch, capsys, exc):
        # RecursionError and NotImplementedError are RuntimeErrors, but no
        # identity was checked, so they must not read as a violation; a
        # builtin ValueError refuses no input, so it is not a usage error
        message = "free columns split a block\nsecond line"

        def broken(args):
            raise exc(message)

        monkeypatch.setitem(cli.COMMANDS, "census", broken)
        code = cli.main(["census", "--n", "4", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"internal error: {exc(message)!r}\n"
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dunkl-check", "--n", "3", "--c", "1/2", "--degree", "0"], "max_degree must be at least 1"),
            (["singular", "--n", "3", "--c", "1/2", "--degree", "0"], "degree must be at least 1"),
            (["fock-trace", "--m", "2", "--max", "-1"], "truncation must be nonnegative"),
            (["hecke-simples", "--p", "0", "--m", "2"], "rank must be positive, got 0"),
            (["hecke-simples", "--p", "3", "--m", "1"], "m must be at least 2, got 1"),
            (["decompose", "--lambda", "2,1", "--m", "1"], "m must be at least 2, got 1"),
            (["census", "--n", "3", "--m", "1"], "m must be at least 2, got 1"),
        ],
        ids=[
            "dunkl-check-degree-0",
            "singular-degree-0",
            "fock-trace-max-negative",
            "hecke-p-0",
            "hecke-m-1",
            "decompose-m-1",
            "census-m-1",
        ],
    )
    def test_library_refusal_exits_2(self, capsys, argv, message):
        # flags that parse but that the library refuses
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("exc", [RuntimeError, ValueError])
    def test_exit_3_on_formatting_fault(self, monkeypatch, capsys, exc):
        # the command ran; a fault while formatting its output is internal,
        # not a violated identity and not a usage error
        def broken(value):
            raise exc("unencodable")

        monkeypatch.setattr(cli, "json_text", broken)
        code = cli.main(["census", "--n", "4", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"internal error: {exc('unencodable')!r}\n"


def closed_early(argv, first_bytes):
    """Exit code and stderr of a CLI process whose reader closes the pipe
    after `first_bytes` bytes, or before the process starts when None."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    if first_bytes is None:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
    else:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.read(first_bytes)
        proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    return proc.wait(), err


class TestClosedPipe:
    @pytest.mark.parametrize("first_bytes", [10, None], ids=["after-10-bytes", "before-start"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_reader_closing_the_pipe_is_not_an_error(self, fmt, first_bytes):
        # about 1 MB of output under every format, far past a pipe's buffer
        argv = [sys.executable, "-m", "cherednik.cli", "--format", fmt, "census", "--n", "30", "--m", "3"]
        assert closed_early(argv, first_bytes) == (0, b"")

    def test_violation_keeps_exit_1_when_the_reader_is_gone(self):
        # the envelope written after a violation also meets a closed pipe
        code = (
            "import sys; from cherednik import characters, cli; "
            "characters.content_sum = lambda lam: 1; sys.exit(cli.main(sys.argv[1:]))"
        )
        argv = [sys.executable, "-c", code, "weights", "--n", "3", "--c", "1/2"]
        exit_code, err = closed_early(argv, None)
        assert exit_code == 1
        assert err.decode().startswith("identity violation: weight formulas disagree")
        assert err.count(b"\n") == 1


class TestEmissionMemory:
    def test_census_emission_peaks_at_twice_its_text(self, monkeypatch):
        # the envelope goes out chunk by chunk: no joined copy of the text,
        # and no copy of the whole table while it is encoded
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

            def writelines(self, chunks):
                for text in chunks:
                    self.write(text)

        args = cli.build_parser().parse_args(["census", "--n", "35", "--m", "3"])
        payload, rows, ok = cli.COMMANDS["census"](args)
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(args, payload, rows, ok)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 2_000_000
        assert peak <= 2 * sink.size


@pytest.fixture
def fresh_census():
    # a walk cached by an earlier test would skip the faulted operator
    fock._walk.cache_clear()
    yield
    fock._walk.cache_clear()


weight_operator = fock.weight_operator


def moved_vector(m, k):
    """A weight operator whose last mode annihilates without creating."""
    total = 0
    for i in range(m, len(k), m):
        c = fock.annihilate(i, k)
        total += c
        if c and i + m < len(k):
            fock.create(i, k)
    return total


PRODUCT_TABLE = fock._product_table


def bumped_product_table(m, truncation):
    """The Euler product expansion with s^4 t^2 off by one."""
    table = [list(row) for row in PRODUCT_TABLE(m, truncation)]
    table[4][2] += 1
    return tuple(map(tuple, table))


class TestCountingFaults:
    @pytest.mark.parametrize(
        "fault",
        [moved_vector, lambda m, k: weight_operator(m, k) + 1],
        ids=["moved-vector", "coefficient-off-by-one"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["fock-trace", "--m", "2", "--max", "6"], ["bo-verify", "--n-max", "6", "--m", "2,3"]],
        ids=["fock-trace", "bo-verify"],
    )
    def test_operator_fault_exits_1(self, monkeypatch, capsys, fresh_census, fault, argv):
        monkeypatch.setattr(fock, "weight_operator", fault)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        violation_record(captured)

    def test_product_table_off_by_one_fails_the_trace(self, monkeypatch, capsys, fresh_census):
        # the walk's eigenvalue table is checked against the Euler product
        monkeypatch.setattr(fock, "_product_table", bumped_product_table)
        code = cli.main(["fock-trace", "--m", "2", "--max", "6"])
        captured = capsys.readouterr()
        assert code == 1
        violation_record(captured)
        assert captured.err == "identity violation: trace sum disagrees with its product expansion\n"

    def test_m_regular_count_off_by_one_fails_the_product(self, monkeypatch, capsys, fresh_census):
        # the product expansion is checked against the partition counts
        real = fock.count_m_regular
        monkeypatch.setattr(fock, "count_m_regular", lambda n, m: real(n, m) + (n == 3))
        code = cli.main(["bo-verify", "--n-max", "6", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        violation_record(captured)
        assert captured.err == "identity violation: product expansion disagrees with counts at s^3 t^0\n"

    def test_missing_canonical_basis_vector_exits_1(self, monkeypatch, capsys):
        # without the 2-regular (3, 2), the LLT straightening of A((5,))
        # meets a coefficient at (3, 2) with no canonical basis vector to
        # subtract
        real = hecke.enumerate_m_regular
        monkeypatch.setattr(hecke, "enumerate_m_regular", lambda p, e: [x for x in real(p, e) if x != (3, 2)])
        code = cli.main(["hecke-simples", "--p", "5", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        violation_record(captured)
        assert captured.err == (
            "identity violation: (3, 2) in A((5,)) at e = 2 has no canonical basis vector\n"
        )

    def test_wrong_support_invariant_count_exits_1(self, monkeypatch, capsys, fresh_census):
        # the walk hands (2, 2) the invariant 3 instead of 2, and the
        # partitions that extend it inherit the error
        visit = fock._visit

        def corrupted(m, truncation, k, n, last, length, eig, q, *tallies):
            visit(m, truncation, k, n, last, length, eig, q + (k == [0, 0, 2]), *tallies)

        monkeypatch.setattr(fock, "_visit", corrupted)
        code, payload = run_json(capsys, "bo-verify", "--n-max", "6", "--m", "2")
        assert code == 1
        bad = [(row["n"], row["q"]) for row in payload["result"]["rows"] if not row["ok"]]
        # (2,2) moves from q = 2 to 3, (2,2,1) and (2,2,1,1) from 0 to 1,
        # and (2,2,2) from 3 to 4
        assert bad == [(4, 2), (5, 0), (5, 1), (6, 0), (6, 1), (6, 3)]

    @pytest.mark.parametrize(
        "argv,m_values",
        [
            (["bo-verify", "--n-max", "12", "--m", "2,3"], [2, 3]),
            (["fock-trace", "--m", "3", "--max", "12"], [3]),
        ],
        ids=["bo-verify", "fock-trace"],
    )
    def test_operator_checks_every_basis_vector_once(
        self, monkeypatch, capsys, fresh_census, argv, m_values
    ):
        seen = {}

        def spy(m, k):
            seen.setdefault(m, []).append(tuple(i for i in range(len(k) - 1, 0, -1) for _ in range(k[i])))
            return weight_operator(m, k)

        monkeypatch.setattr(fock, "weight_operator", spy)
        code, _ = run(capsys, *argv)
        assert code == 0
        basis = sorted(lam for n in range(13) for lam in partitions.enumerate_partitions(n))
        assert len(basis) == sum(partitions.count_partitions(n) for n in range(13))
        assert sorted(seen) == m_values
        for m in m_values:
            assert sorted(seen[m]) == basis, m

    def test_fock_trace_accepts_m_1(self, capsys):
        code, payload = run_json(capsys, "fock-trace", "--m", "1", "--max", "4")
        assert code == 0
        assert [row["coeff"] for row in payload["result"]["rows"] if row["deg_s"] == 4] == [0, 0, 0, 0, 5]

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_fock_trace_refuses_nonpositive_m(self, capsys, m):
        code = cli.main(["fock-trace", "--m", m, "--max", "4"])
        assert code == 2
        assert capsys.readouterr().err == f"error: m must be positive, got {m}\n"

    def test_bo_verify_refuses_m_1(self, capsys):
        code = cli.main(["bo-verify", "--n-max", "4", "--m", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("m,bad", [("1", 1), ("2,1", 1), ("3,0,2", 0)])
    def test_bo_verify_refuses_m_below_two_before_any_walk(self, monkeypatch, capsys, m, bad):
        # a valid value listed first used to be walked in full before the refusal
        calls = []
        monkeypatch.setattr(fock, "_walk", lambda *args: calls.append(args))
        code = cli.main(["bo-verify", "--n-max", "45", "--m", m])
        assert code == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: m must be at least 2, got {bad}\n"


# runs one command in a fresh interpreter and reports its exit code, whether
# sympy, dataclasses and fractions were loaded and which modules of the
# package it loaded
IMPORT_PROBE = """
import contextlib, io, json, sys
from cherednik import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({
    "code": code,
    "sympy": "sympy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "fractions": "fractions" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.startswith("cherednik.")),
}))
"""

SRC = Path(cli.__file__).resolve().parents[1]

SYMPY_FREE = [
    [],
    ["support", "--lambda", "3,1", "--m", "2"],
    ["decompose", "--lambda", "5,3,1", "--m", "2"],
    ["census", "--n", "10", "--m", "3"],
    ["bo-verify", "--n-max", "6", "--m", "2,3"],
    ["weights", "--n", "5", "--c", "1/2"],
    ["lr", "--lambda", "2,1", "--mu", "1", "--c", "1/2"],
    ["dunkl-check", "--n", "3", "--c", "1/2", "--degree", "2"],
    ["singular", "--n", "3", "--c", "1/3", "--degree", "3"],
    ["ideal-check", "--n", "3", "--m", "3", "--q", "1", "--degree", "3"],
    ["fock-trace", "--m", "2", "--max", "6"],
]


# Every exit code each command can give.  support and singular assert no
# identity, so they cannot exit 1.
EXIT_CODES = {
    "support": {0, 2, 3},
    "decompose": {0, 1, 2, 3},
    "census": {0, 1, 2, 3},
    "bo-verify": {0, 1, 2, 3},
    "weights": {0, 1, 2, 3},
    "lr": {0, 1, 2, 3},
    "dunkl-check": {0, 1, 2, 3},
    "singular": {0, 2, 3},
    "ideal-check": {0, 1, 2, 3},
    "fock-trace": {0, 1, 2, 3},
    "hecke-simples": {0, 1, 2, 3},
}

PASSING = {argv[0]: argv for argv in SYMPY_FREE[1:]} | {
    "hecke-simples": ["hecke-simples", "--p", "3", "--m", "2"],
}

DUNKL_APPLY = dunkl.dunkl_apply


def doubled_first_derivative(i, f, cfg):
    """sD_0 scaled by 2, which breaks [D_0, X_0]; the other D_i are exact."""
    image = DUNKL_APPLY(i, f, cfg)
    return {exp: 2 * x for exp, x in image.items()} if i == 0 else image


# a violated identity: the argv, and the library fault it needs, if any, as
# (owner, attribute, replacement)
VIOLATED = {
    "decompose": (["decompose", "--lambda", "5,3,1", "--m", "2"], (partitions, "scale", lambda m, mu: mu)),
    "census": (["census", "--n", "8", "--m", "2"], (partitions, "count_m_regular", lambda n, m: 1)),
    "bo-verify": (["bo-verify", "--n-max", "6", "--m", "2"], (fock, "count_m_regular", lambda n, m: 0)),
    "weights": (["weights", "--n", "3", "--c", "1/2"], (characters, "content_sum", lambda lam: 1)),
    "lr": (["lr", "--lambda", "2,1", "--mu", "1"], (characters, "lr_induce", lambda lam, mu: {})),
    "dunkl-check": (["dunkl-check", "--n", "3", "--c", "1/2", "--degree", "1"], (dunkl, "dunkl_apply", doubled_first_derivative)),
    # c = 1/2 is not the parameter 1/m the ideal is stable at
    "ideal-check": (["ideal-check", "--n", "3", "--m", "3", "--q", "1", "--degree", "3", "--c", "1/2"], None),
    "fock-trace": (["fock-trace", "--m", "2", "--max", "6"], (fock, "_product_table", bumped_product_table)),
    "hecke-simples": (["hecke-simples", "--p", "3", "--m", "2"], (hecke, "simple_dimensions", lambda p, e: {})),
}

# a refused input and its one error line
REFUSED = {
    "support": (["support", "--lambda", "3,1", "--m", "1"], "m must be at least 2, got 1"),
    "decompose": (["decompose", "--lambda", "2,3", "--m", "2"], "parts must be weakly decreasing, got (2, 3)"),
    "census": (["census", "--n", "-3", "--m", "2"], "n must be nonnegative, got -3"),
    "bo-verify": (["bo-verify", "--n-max", "4", "--m", "1"], "m must be at least 2, got 1"),
    "weights": (["weights", "--n", "3", "--c", "1/0"], "not a rational number: '1/0'"),
    "lr": (["lr", "--lambda", "2,1", "--mu", "1", "--c", "0"], "leading term analysis requires a positive parameter"),
    "dunkl-check": (["dunkl-check", "--n", "1", "--c", "1/2", "--degree", "1"], "need at least 2 variables, got n=1"),
    "singular": (["singular", "--n", "3", "--c", "1/3", "--degree", "0"], "degree must be at least 1"),
    "ideal-check": (["ideal-check", "--n", "3", "--m", "3", "--q", "0", "--degree", "3"], "q=0 out of range for n=3, m=3"),
    "fock-trace": (["fock-trace", "--m", "0", "--max", "4"], "m must be positive, got 0"),
    "hecke-simples": (["hecke-simples", "--p", "0", "--m", "2"], "rank must be positive, got 0"),
}


def injected(*args):
    raise ValueError("injected")


# the library attribute each command reaches, where a bare ValueError is a bug
INTERNAL = {
    "support": (partitions, "support_invariant", injected),
    "decompose": (partitions, "decompose", injected),
    "census": (partitions, "decompose", injected),
    "bo-verify": (fock, "product_series", injected),
    "weights": (characters, "content_sum", injected),
    "lr": (characters, "lr_induce", injected),
    "dunkl-check": (dunkl, "dunkl_apply", injected),
    "singular": (dunkl, "dunkl_apply", injected),
    "ideal-check": (dunkl, "stratum_ideal_basis", injected),
    "fock-trace": (fock, "_walk", injected),
    "hecke-simples": (hecke.HeckeAlgebra, "gram", property(injected)),
}


class TestExitCodeTable:
    def test_table_lists_every_command(self):
        assert set(EXIT_CODES) == set(cli.COMMANDS)
        tables = [PASSING, VIOLATED, REFUSED, INTERNAL]  # indexed by exit code
        for command, codes in EXIT_CODES.items():
            assert codes == {code for code, table in enumerate(tables) if command in table}, command

    @pytest.mark.parametrize("command", sorted(PASSING))
    def test_exit_0(self, capsys, command):
        code, payload = run_json(capsys, *PASSING[command])
        assert code == 0
        assert payload["ok"]

    @pytest.mark.parametrize("command", sorted(VIOLATED))
    def test_exit_1(self, monkeypatch, capsys, command):
        argv, fault = VIOLATED[command]
        if fault:
            monkeypatch.setattr(*fault)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        # the failed verdict's record, or the record of the raised violation
        # with its one stderr line, its flags keyed by option
        if captured.err:
            flags = violation_record(captured)["flags"]
            assert set(flags) <= option_strings(capsys, command)
        else:
            doc = json.loads(captured.out)
            assert doc["ok"] is False
            assert "error" not in doc and "result" in doc

    @pytest.mark.parametrize("command", sorted(PASSING))
    def test_violation_flags_are_keyed_by_option(self, monkeypatch, capsys, command):
        # a violation raised inside any command records each parsed value
        # under the option a user types, every option of the command but
        # --help included
        def violated(args):
            raise IdentityViolation("injected")

        monkeypatch.setitem(cli.COMMANDS, command, violated)
        assert cli.main(PASSING[command]) == 1
        flags = violation_record(capsys.readouterr())["flags"]
        assert set(flags) == option_strings(capsys, command) - {"--help"}

    @pytest.mark.parametrize("command", sorted(REFUSED))
    def test_exit_2(self, capsys, command):
        argv, message = REFUSED[command]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", sorted(INTERNAL))
    def test_exit_3_on_a_bare_value_error(self, monkeypatch, capsys, command):
        monkeypatch.setattr(*INTERNAL[command])
        code = cli.main(PASSING[command])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: ValueError('injected')\n"


def src_env():
    """The environment of a fresh interpreter that imports the package from src/."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


# the exit-1 and exit-2 cases of the launch path: a failed verdict, with its
# record on stdout, and a refused input
LAUNCHED = [(argv, 0) for argv in PASSING.values()] + [
    (["--format", "json", "ideal-check", "--n", "2", "--m", "2", "--q", "1", "--degree", "1", "--c", "1/3"], 1),
    (["census", "--n", "3", "--m", "1"], 2),
]


class TestLaunchPath:
    """`python -m cherednik.cli` ends with os._exit once its output is
    flushed; it writes and exits exactly as the in-process main does."""

    @pytest.mark.parametrize(
        "argv,code",
        LAUNCHED,
        ids=[f"{next(a for a in argv if a in cli.COMMANDS)}-exit{code}" for argv, code in LAUNCHED],
    )
    def test_module_launch_matches_main(self, capsys, argv, code):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        res = subprocess.run(
            [sys.executable, "-m", "cherednik.cli", *argv], env=src_env(), capture_output=True
        )
        assert (res.returncode, res.stdout, res.stderr) == (
            code, captured.out.encode(), captured.err.encode()
        )

    def test_block_buffered_output_to_a_file_is_flushed(self, capsys, tmp_path):
        # without PYTHONUNBUFFERED a regular file gets a block-buffered
        # stdout, which os._exit drops unless the process flushes it first
        argv = ["census", "--n", "35", "--m", "3"]
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        path = tmp_path / "stdout"
        with open(path, "wb") as out:
            res = subprocess.run(
                [sys.executable, "-m", "cherednik.cli", *argv], env=env, stdout=out, stderr=subprocess.PIPE
            )
        assert cli.main(argv) == res.returncode == 0
        assert res.stderr == b""
        assert path.read_bytes() == capsys.readouterr().out.encode()


def probe(argv):
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=src_env(), capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


LIBRARY = {"characters", "dunkl", "fock", "hecke", "linalg"}


def loaded_library(argv):
    """The modules of LIBRARY that running argv in a fresh interpreter loads."""
    out = probe(argv)
    assert out["code"] == 0
    return {name for name in LIBRARY if f"cherednik.{name}" in out["modules"]}


class TestImportBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["census", "--n", "10", "--m", "3"],
            ["support", "--lambda", "3,1", "--m", "2"],
            ["decompose", "--lambda", "5,3,1", "--m", "2"],
        ],
        ids=lambda a: a[0] if a else "import",
    )
    def test_partition_commands_load_no_library_module(self, argv):
        assert loaded_library(argv) == set()

    def test_ideal_check_loads_only_the_operator_modules(self):
        argv = ["ideal-check", "--n", "3", "--m", "3", "--q", "1", "--degree", "2"]
        assert loaded_library(argv) == {"dunkl", "linalg"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["lr", "--lambda", "2,1", "--mu", "1", "--c", "1/2"],
            ["weights", "--n", "5", "--c", "1/2"],
        ],
        ids=lambda a: a[0],
    )
    def test_character_commands_load_only_characters(self, argv):
        assert loaded_library(argv) == {"characters"}

    @pytest.mark.parametrize("argv", SYMPY_FREE, ids=lambda a: a[0] if a else "import")
    def test_sympy_is_not_imported(self, argv):
        out = probe(argv)
        assert (out["code"], out["sympy"]) == (0, False)

    @pytest.mark.parametrize(
        "argv", SYMPY_FREE + [["hecke-simples", "--p", "3", "--m", "2"]],
        ids=lambda a: a[0] if a else "import",
    )
    def test_dataclasses_is_not_imported(self, argv):
        # dataclasses loads inspect, about 10 ms of every process
        out = probe(argv)
        assert (out["code"], out["dataclasses"]) == (0, False)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["support", "--lambda", "3,1", "--m", "2"],
            ["decompose", "--lambda", "5,3,1", "--m", "2"],
            ["census", "--n", "10", "--m", "3"],
            ["bo-verify", "--n-max", "6", "--m", "2,3"],
            ["fock-trace", "--m", "2", "--max", "6"],
            ["hecke-simples", "--p", "3", "--m", "2"],
        ],
        ids=lambda a: a[0] if a else "import",
    )
    def test_fractions_is_not_imported(self, argv):
        # fractions loads decimal; these commands read and write no rational
        out = probe(argv)
        assert (out["code"], out["fractions"]) == (0, False)

    def test_fractions_is_imported_for_a_rational(self):
        out = probe(["weights", "--n", "5", "--c", "1/2"])
        assert (out["code"], out["fractions"]) == (0, True)

    @pytest.mark.parametrize(
        "argv",
        [["bo-verify", "--n-max", "6", "--m", "2,3"], ["fock-trace", "--m", "2", "--max", "6"]],
        ids=lambda a: a[0],
    )
    def test_fock_commands_load_only_fock(self, argv):
        assert loaded_library(argv) == {"fock"}

    def test_hecke_simples_loads_hecke_and_linalg(self):
        # the regular path, with the modular lift of linalg; the LLT oracle
        # is in hecke and the dimensions of S^lam in partitions
        argv = ["hecke-simples", "--p", "3", "--m", "2"]
        assert loaded_library(argv) == {"hecke", "linalg"}

    @pytest.mark.parametrize("p,m", [(3, 2), (4, 5)])
    def test_hecke_audit_leaves_sympy_unloaded(self, p, m):
        argv = ["hecke-simples", "--p", str(p), "--m", str(m)]
        out = probe(argv)
        assert (out["code"], out["sympy"]) == (0, False)
