import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, expect=0):
    result = subprocess.run(
        [sys.executable, "-m", "zhu_forge.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == expect, (result.returncode, result.stderr[-2000:])
    return result


def test_parse_subcommand():
    result = run_cli("parse", "--voa", "heisenberg", "--expr", "1/2 a[-1]a[-1]vac")
    assert result.stdout.strip() == "1/2 a[-1]a[-1]vac"


def test_parse_subcommand_uea():
    result = run_cli(
        "parse", "--voa", "heisenberg", "--uea", "--expr", "J[0](a[-1]vac)J[0](vac)"
    )
    assert "J[0](a[-1]vac)" in result.stdout


def test_parse_subcommand_bad_input_exits_2():
    result = run_cli("parse", "--voa", "heisenberg", "--expr", "b[-1]vac", expect=2)
    assert "unknown generator" in result.stderr


def test_reduce_subcommand(tmp_path):
    trace_path = tmp_path / "trace.json"
    result = run_cli(
        "reduce",
        "--voa",
        "heisenberg",
        "--expr",
        "J[0](a[-1]vac)J[0](a[-1]vac)",
        "--mod-level",
        "1",
        "--trace",
        str(trace_path),
    )
    assert result.stdout.strip() == "a[-1]a[-1]vac"
    trace = json.loads(trace_path.read_text())
    assert trace["mod_level"] == 1
    assert len(trace["steps"]) == 1


def test_reduce_rejects_nonzero_degree():
    result = run_cli(
        "reduce",
        "--voa",
        "heisenberg",
        "--expr",
        "J[1](a[-1]vac)J[0](a[-1]vac)",
        "--mod-level",
        "1",
        expect=2,
    )
    assert "degree" in result.stderr


def test_dims_golden_comparison(tmp_path):
    out = tmp_path / "dims.csv"
    run_cli(
        "dims",
        "--voa",
        "virasoro",
        "--central-charge",
        "1/2",
        "--level",
        "0",
        "--cutoff",
        "6",
        "--out",
        str(out),
        "--golden",
        str(GOLDEN / "dims_cli_virasoro_half_n0_w6.csv"),
    )
    assert out.read_text() == (GOLDEN / "dims_cli_virasoro_half_n0_w6.csv").read_text()


def test_dims_golden_mismatch_fails(tmp_path):
    tampered = tmp_path / "tampered.csv"
    original = (GOLDEN / "dims_cli_virasoro_half_n0_w6.csv").read_text()
    tampered.write_text(original.replace("4,1", "4,2"))
    result = run_cli(
        "dims",
        "--voa",
        "virasoro",
        "--central-charge",
        "1/2",
        "--level",
        "0",
        "--cutoff",
        "6",
        "--golden",
        str(tampered),
        expect=1,
    )
    assert "golden mismatch" in result.stderr


def test_missing_golden_is_config_error(tmp_path):
    result = run_cli(
        "dims",
        "--voa",
        "heisenberg",
        "--level",
        "0",
        "--cutoff",
        "2",
        "--golden",
        str(tmp_path / "nope.csv"),
        expect=2,
    )
    assert "missing" in result.stderr


def test_omega_report_roundtrip(tmp_path):
    out = tmp_path / "omega.json"
    run_cli(
        "omega",
        "--voa",
        "heisenberg",
        "--level",
        "2",
        "--cutoff",
        "5",
        "--out",
        str(out),
    )
    doc = json.loads(out.read_text())
    names = {check["name"] for check in doc["checks"]}
    assert "omega/kernel_dimension" in names
    assert doc["summary"]["fail"] == 0


def test_zhu_suite_exit_code_and_determinism(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = [
        "zhu",
        "--voa",
        "virasoro",
        "--central-charge",
        "1/2",
        "--level",
        "1",
        "--cutoff",
        "5",
        "--seed",
        "4",
    ]
    run_cli(*args, "--out", str(first))
    run_cli(*args, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["summary"]["fail"] == 0
    assert {check["name"] for check in doc["checks"]} >= {
        "zhu/unit_class",
        "zhu/two_sided_ideal",
        "zhu/associativity",
        "zhu/ideal_containment",
    }


def test_axioms_subcommand_small(tmp_path):
    out = tmp_path / "axioms.json"
    run_cli(
        "axioms",
        "--voa",
        "heisenberg",
        "--cutoff",
        "4",
        "--seed",
        "1",
        "--out",
        str(out),
    )
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0


def test_config_file_defaults_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# shared settings\nvoa = virasoro\ncentral-charge = 1/2\ncutoff = 4\nlevel = 1\n"
    )
    out = tmp_path / "report.json"
    run_cli("omega", "--config", str(config), "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["config"]["voa"] == "virasoro"
    assert doc["config"]["level"] == 1
    # An explicit flag wins over the file.
    run_cli("omega", "--config", str(config), "--level", "0", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["config"]["level"] == 0


def test_config_file_errors_are_usage_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("cutoff 4\n")
    result = run_cli("omega", "--config", str(bad), expect=2)
    assert "config" in result.stderr


def test_report_golden_roundtrip(tmp_path):
    golden = tmp_path / "omega.json"
    args = ["omega", "--voa", "heisenberg", "--level", "1", "--cutoff", "4"]
    run_cli(*args, "--out", str(golden))
    run_cli(*args, "--golden", str(golden))  # identical canonical bytes pass


def test_appendix_range_flags():
    result = run_cli(
        "appendix", "--s", "-2..2", "--t", "-1..1", "--N", "0..2", "--samples", "5"
    )
    doc = json.loads(result.stdout)
    names = {check["name"] for check in doc["checks"]}
    assert "reordering_residual_grid" in names
    assert doc["summary"]["fail"] == 0


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["axioms", "--cutoff", "5", "--seed", "3"], "report_axioms_virasoro_half_w5_seed3.json"),
        (["zhu", "--level", "1", "--cutoff", "6"], "report_zhu_virasoro_half_n1_w6.json"),
        (["iso", "--level", "1", "--cutoff", "5"], "report_iso_virasoro_half_n1_w5.json"),
        (["omega", "--level", "1", "--cutoff", "6"], "report_omega_virasoro_half_n1_w6.json"),
    ],
    ids=["axioms", "zhu", "iso", "omega"],
)
def test_suite_report_golden(argv, golden):
    # Pins the merged report of each suite subcommand, header included.
    run_cli(
        *argv, "--voa", "virasoro", "--central-charge", "1/2", "--golden", str(GOLDEN / golden)
    )


REDUCE = ["reduce", "--expr", "J[0](a[-1]vac)J[0](a[-1]vac)", "--mod-level", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        [*REDUCE, "--out", "{tmp}/report.txt"],
        ["parse", "--expr", "vac", "--golden", "{tmp}/report.json"],
        ["parse", "--expr", "vac", "--cutoff", "2"],
        [*REDUCE, "--seed", "1"],
    ],
    ids=["reduce-out", "parse-golden", "parse-cutoff", "reduce-seed"],
)
def test_parse_and_reduce_reject_suite_flags(argv, tmp_path):
    # These flags only mean something to the suite subcommands; parse and
    # reduce reject them instead of ignoring them.
    result = run_cli(*(arg.format(tmp=tmp_path) for arg in argv), expect=2)
    assert "unrecognized arguments" in result.stderr
    assert not list(tmp_path.iterdir())


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "zhu_forge.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2



@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--cutoff", "-1"],
        ["dims", "--level", "-1"],
        ["appendix", "--N", "5..1"],
        ["appendix", "--s", "0..0", "--N", "-3..-1"],
        ["appendix", "--shift-bound", "-1"],
        ["appendix", "--samples", "-3"],
        ["appendix", "--s", "1..1", "--t", "0..0", "--N", "-1..-1", "--samples", "3"],
        ["zhu", "--level", "-1"],
        ["axioms", "--cutoff", "-1"],
    ],
    ids=[
        "dims-cutoff",
        "dims-level",
        "appendix-empty-range",
        "appendix-no-valid-depth",
        "appendix-negative-shift-bound",
        "appendix-no-samples",
        "appendix-negative-depth",
        "zhu-level",
        "axioms-cutoff",
    ],
)
def test_dims_and_appendix_usage_errors_exit_2(argv):
    result = run_cli(*argv, expect=2)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--cutoff", "2", "--out", "/nonexistent/d.csv"],
        ["zhu", "--cutoff", "2", "--span-out", "/nonexistent/s.json"],
        [
            "reduce",
            "--expr",
            "J[0](a[-1]vac)J[0](a[-1]vac)",
            "--mod-level",
            "1",
            "--trace",
            "/nonexistent/t.json",
        ],
        ["omega", "--cutoff", "2", "--golden", "."],
    ],
    ids=["dims-out", "zhu-span-out", "reduce-trace", "omega-golden-directory"],
)
def test_unusable_file_paths_exit_2(argv):
    # A file that cannot be written or read is a usage error, not a failed
    # check (exit 1) or a traceback.
    result = run_cli(*argv, expect=2)
    assert result.stderr.splitlines()[-1].startswith("error:")
    assert "Traceback" not in result.stderr


def test_appendix_shallow_depth_range_samples_valid_depths():
    # With the default s range -2..2 no depth in 0..1 fits s = -2, so s is
    # drawn from [max(s_lo, -N_hi), s_hi] = -1..2 instead of failing.
    result = run_cli("appendix", "--N", "0..1", "--samples", "10")
    doc = json.loads(result.stdout)
    assert doc["summary"]["fail"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--expr", "a[1]" + "a[-1]" * 20000 + "vac"],
        ["reduce", "--mod-level", "1", "--expr", "J[0](a[1]" + "a[-1]" * 1000 + "vac)"],
    ],
    ids=["parse-20000-modes", "reduce-1000-modes"],
)
def test_over_deep_expression_exits_2(argv):
    # Normal ordering recurses once per mode; past the interpreter's
    # recursion limit the command reports a usage error instead of crashing.
    result = run_cli(*argv, expect=2)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
