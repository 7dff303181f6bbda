import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
# The CLI runs in a child interpreter, which imports the checkout's package.
ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run_cli(*args, expect=0, timeout=600):
    result = subprocess.run(
        [sys.executable, "-m", "zhu_forge.cli", *args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
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


def test_zhu_at_a_large_level_finishes():
    # Only vacuum-left star products fit the window here, and their
    # coefficient table is a single entry at every level.
    result = run_cli("zhu", "--voa", "heisenberg", "--level", "1000", "--cutoff", "3", timeout=5)
    assert json.loads(result.stdout)["summary"]["fail"] == 0


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


def test_config_file_unknown_key_is_usage_error(tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("colour = blue\n")
    result = run_cli("omega", "--config", str(config), "--cutoff", "2", expect=2)
    assert "--colour" in result.stderr


def test_config_file_key_for_a_missing_flag_is_usage_error(tmp_path):
    out = tmp_path / "x.txt"
    config = tmp_path / "out.cfg"
    config.write_text(f"out = {out}\n")
    result = run_cli(
        "reduce", "--config", str(config), "--expr", "J[0](a[-1]vac)", "--mod-level", "1",
        expect=2,
    )
    assert "--out" in result.stderr
    assert not out.exists()


def test_config_flag_may_be_abbreviated(tmp_path):
    # argparse reads --conf as --config, so the file's flags apply to it too.
    config = tmp_path / "cfg.txt"
    config.write_text("cutoff = 2\n")
    short = run_cli("zhu", "--voa", "heisenberg", "--conf", str(config))
    full = run_cli("zhu", "--voa", "heisenberg", "--config", str(config))
    assert json.loads(short.stdout)["config"]["cutoff"] == 2
    assert short.stdout == full.stdout
    result = run_cli("zhu", "--voa", "heisenberg", "--c", str(config), expect=2)
    assert "ambiguous option" in result.stderr


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


def test_appendix_shift_bound_zero_counts_only_equal_shift_tuples():
    # A kept word J_p(x) J_q(y) has p + q = t - s with |p|, |q| <= bound, so
    # at bound 0 only t = s is checked: 3 + 4 + 5 + 5 + 5 depths over s.
    result = run_cli("appendix", "--shift-bound", "0", "--samples", "3")
    grid = {check["name"]: check for check in json.loads(result.stdout)["checks"]}
    assert grid["reordering_residual_grid"]["params"]["tuples"] == 22


def test_negative_fractional_central_charge_is_a_value():
    # argparse alone reads "-22/5" as a flag; the Lee-Yang charge must parse.
    result = run_cli(
        "parse", "--voa", "virasoro", "--central-charge", "-22/5", "--expr", "L[2]L[-2]vac"
    )
    assert result.stdout.strip() == "-11/5 vac"
    result = run_cli(
        "zhu", "--voa", "virasoro", "--central-charge", "-1/2", "--level", "0", "--cutoff", "3"
    )
    doc = json.loads(result.stdout)
    assert doc["config"]["central_charge"] == "-1/2"
    assert doc["summary"]["fail"] == 0


def test_expr_with_a_leading_minus_is_a_value(capsys):
    # argparse alone reads "-a[-1]vac" as a flag; --expr, or a prefix of it,
    # takes a word with one leading minus as --expr= does.
    from zhu_forge import cli

    word = "-J[0](a[-1]vac)J[0](a[-1]vac)"
    for argv in (
        ["parse", "--expr", "-a[-1]vac"],
        ["parse", "--ex", "-a[-1]vac"],
        ["parse", "--uea", "--expr", "-1/2"],
        ["reduce", "--expr", word, "--mod-level", "1"],
    ):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == "-a[-1]vac\n" * 2 + "-1/2\t1\n" + "-a[-1]a[-1]vac\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse", "--expr", "--uea"])
    assert exc.value.code == 2


def test_abbreviated_central_charge_takes_a_negative_value():
    for flag in ("--central", "--central-charge"):
        result = run_cli("parse", "--voa", "virasoro", flag, "-22/5", "--expr", "L[2]L[-2]vac")
        assert result.stdout.strip() == "-11/5 vac"
    result = run_cli(
        "parse", "--voa", "virasoro", "--c", "-22/5", "--expr", "L[2]L[-2]vac", expect=2
    )
    assert "ambiguous option" in result.stderr


def test_main_builds_the_parser_once(monkeypatch, capsys):
    from zhu_forge import cli

    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parsers", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    argv = ["parse", "--voa", "heisenberg", "--expr", "a[-1]vac"]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    # One builder makes the full parser and its --config parent together.
    assert built == [1]
    assert capsys.readouterr().out == "a[-1]vac\n" * 2


COMMON_FLAGS = ["-h", "--config", "--voa", "--central-charge"]
SUITE_FLAGS = [*COMMON_FLAGS, "--level", "--cutoff", "--seed", "--out", "--golden"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("axioms", SUITE_FLAGS),
        ("zhu", [*SUITE_FLAGS, "--span-out"]),
        ("appendix", [*SUITE_FLAGS, "--s", "--t", "--N", "--shift-bound", "--samples"]),
        ("iso", SUITE_FLAGS),
        ("dims", [*SUITE_FLAGS, "--kind"]),
        ("omega", SUITE_FLAGS),
        ("reduce", [*COMMON_FLAGS, "--expr", "--mod-level", "--trace", "--variant"]),
        ("parse", [*COMMON_FLAGS, "--expr", "--uea"]),
    ],
)
def test_help_lists_the_documented_flags(command, flags, capsys):
    # The flag set of each subcommand as README's CLI section documents it.
    from zhu_forge import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    listed = re.findall(r"^  (-{1,2}[\w-]+)", options, flags=re.MULTILINE)
    assert listed == flags


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch, capsys):
    # The lines write t.csv and trace.json into the working directory.
    from zhu_forge import cli

    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(line)
    assert program == "zhu-forge"
    assert cli.main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


VIRASORO_HALF = ["--voa", "virasoro", "--central-charge", "1/2"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["axioms", *VIRASORO_HALF, "--cutoff", "5", "--seed", "3"],
         "report_axioms_virasoro_half_w5_seed3.json"),
        (["zhu", *VIRASORO_HALF, "--level", "1", "--cutoff", "6"],
         "report_zhu_virasoro_half_n1_w6.json"),
        (["zhu", "--voa", "heisenberg", "--level", "0", "--cutoff", "6"],
         "report_zhu_heisenberg_n0_w6.json"),
        (["zhu", "--voa", "heisenberg", "--level", "2", "--cutoff", "6"],
         "report_zhu_heisenberg_n2_w6.json"),
        (["iso", *VIRASORO_HALF, "--level", "1", "--cutoff", "5"],
         "report_iso_virasoro_half_n1_w5.json"),
        (["omega", *VIRASORO_HALF, "--level", "1", "--cutoff", "6"],
         "report_omega_virasoro_half_n1_w6.json"),
        (["iso", "--voa", "heisenberg", "--level", "2", "--cutoff", "4"],
         "report_iso_heisenberg_n2_w4.json"),
        (["omega", "--voa", "heisenberg", "--level", "2", "--cutoff", "6"],
         "report_omega_heisenberg_n2_w6.json"),
        # Kernel vectors at two weights above the level: [0, 2, 3] and [0, 4, 5].
        (["omega", "--voa", "virasoro", "--central-charge", "0", "--level", "1",
          "--cutoff", "5"],
         "report_omega_virasoro_c0_n1_w5.json"),
        (["omega", "--voa", "virasoro", "--central-charge=-22/5", "--level", "1",
          "--cutoff", "8"],
         "report_omega_virasoro_m22_5_n1_w8.json"),
        (["appendix", "--N", "0..2", "--seed", "1"],
         "report_appendix_heisenberg_n0-2_seed1.json"),
        # Large associativity loops: 1654 and 492 checked triples.
        (["zhu", "--voa", "heisenberg", "--level", "0", "--cutoff", "8"],
         "report_zhu_heisenberg_n0_w8.json"),
        (["zhu", *VIRASORO_HALF, "--level", "0", "--cutoff", "10"],
         "report_zhu_virasoro_half_n0_w10.json"),
    ],
    ids=[
        "axioms", "zhu", "zhu-heisenberg-n0", "zhu-heisenberg-n2", "iso", "omega",
        "iso-heisenberg-n2", "omega-heisenberg-n2", "omega-c0", "omega-c-22/5", "appendix",
        "zhu-heisenberg-n0-w8", "zhu-n0-w10",
    ],
)
def test_suite_report_golden(argv, golden):
    # Pins the merged report of each suite subcommand, header included.
    run_cli(*argv, "--golden", str(GOLDEN / golden))


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--voa", "virasoro", "--central-charge", "1/2", "--cutoff", "5"],
         "span_virasoro_half_n1_w5.json"),
        (["--voa", "heisenberg", "--cutoff", "6"], "span_heisenberg_n1_w6.json"),
    ],
    ids=["virasoro", "heisenberg"],
)
def test_span_out_golden(tmp_path, argv, golden):
    # --span-out writes each stored coefficient with str(), not through
    # format_element, so its bytes pin the int and the p/q renderings.
    span = tmp_path / "span.json"
    run_cli("zhu", *argv, "--level", "1", "--span-out", str(span))
    assert span.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--voa", "heisenberg", "--level", "0", "--cutoff", "14"],
         "dims_cli_heisenberg_n0_w14.csv"),
        (["--voa", "virasoro", "--central-charge=-22/5", "--level", "0", "--cutoff", "14"],
         "dims_cli_virasoro_m22_5_n0_w14.csv"),
        ([*VIRASORO_HALF, "--kind", "c2", "--cutoff", "14"], "c2_dims_virasoro_half_w14.csv"),
    ],
    ids=["heisenberg-n0", "virasoro-m22_5-n0", "c2-virasoro-half"],
)
def test_dims_golden_at_cutoff_14(argv, golden, capsys):
    # Level-0 and C2 tables from the generator rows, cold, against tables
    # recorded from the basis-pair rows.
    from zhu_forge import cli, voa

    voa.clear_caches()
    assert cli.main(["dims", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--voa", "heisenberg", "--level", "1", "--cutoff", "14"],
         "dims_cli_heisenberg_n1_w14.csv"),
        ([*VIRASORO_HALF, "--level", "2", "--cutoff", "12"], "dims_cli_virasoro_half_n2_w12.csv"),
    ],
    ids=["heisenberg-n1", "virasoro-half-n2"],
)
def test_dims_golden_above_level_zero(argv, golden, capsys):
    # Tables from one circle product per unordered basis pair, cold, against
    # tables recorded from the circle products of every ordered pair.
    from zhu_forge import cli, voa

    voa.clear_caches()
    assert cli.main(["dims", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("variant", ["rightmost", "leftmost"])
def test_reduce_golden(tmp_path, variant):
    # An inhomogeneous first factor with a vacuum component, three letters
    # and mod level 2: pins the rewritten vector and every trace step.
    trace = tmp_path / "trace.json"
    result = run_cli(
        "reduce",
        "--expr",
        "J[2](a[-2]vac + 2vac)J[-1](a[-1]a[-1]vac)J[-1](a[-3]vac - a[-1]vac)",
        "--mod-level",
        "2",
        "--variant",
        variant,
        "--trace",
        str(trace),
    )
    golden = GOLDEN / f"reduce_heisenberg_mod2_{variant}.txt"
    assert result.stdout.encode() == golden.read_bytes()
    golden_trace = GOLDEN / f"reduce_trace_heisenberg_mod2_{variant}.json"
    assert trace.read_bytes() == golden_trace.read_bytes()


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
    run_cli("frobnicate", expect=2)



@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--cutoff", "-1"],
        ["dims", "--level", "-1"],
        ["dims", "--kind", "c2", "--cutoff", "-1"],
        ["appendix", "--N", "5..1"],
        ["appendix", "--s", "0..0", "--N", "-3..-1"],
        ["appendix", "--shift-bound", "-1"],
        ["appendix", "--samples", "-3"],
        ["appendix", "--s", "1..1", "--t", "0..0", "--N", "-1..-1", "--samples", "3"],
        ["appendix", "--t", "30..30"],
        # Only s in -1..0 has a depth; s = -3 alone would be within 2 of t.
        ["appendix", "--s", "-3..0", "--t", "-4..-4", "--N", "0..1", "--shift-bound", "1"],
        ["zhu", "--level", "-1"],
        ["axioms", "--cutoff", "-1"],
    ],
    ids=[
        "dims-cutoff",
        "dims-level",
        "dims-c2-cutoff",
        "appendix-empty-range",
        "appendix-no-valid-depth",
        "appendix-negative-shift-bound",
        "appendix-no-samples",
        "appendix-negative-depth",
        "appendix-no-word-in-window",
        "appendix-no-word-in-window-with-a-depth",
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


DIGITS = "1" * 4400  # past the interpreter's limit on integer digits


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--expr", f"{DIGITS} vac"],
        ["parse", "--expr", f"a[-{DIGITS}]vac"],
        ["parse", "--uea", "--expr", f"J[{DIGITS}](vac)"],
        ["reduce", "--mod-level", "1", "--expr", f"J[0]({DIGITS} vac)"],
    ],
    ids=["parse-coefficient", "parse-mode-index", "parse-uea-shift", "reduce-coefficient"],
)
def test_over_long_integer_literal_exits_2(argv):
    result = run_cli(*argv, expect=2)
    assert result.stderr.startswith("error: integer literal too long (at column")
    assert "Traceback" not in result.stderr


def _bench_digests() -> dict[str, str]:
    """The ``DIGESTS`` table of bench/oracles.py, read without importing it."""
    tree = ast.parse((GOLDEN.parent.parent / "bench" / "oracles.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "DIGESTS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/oracles.py has no DIGESTS table")


@pytest.mark.parametrize("line, digest", sorted(_bench_digests().items()))
def test_bench_digest_lines_keep_their_bytes(line, digest, capsys):
    # The benchmark rejects any change to these report bytes; this catches it
    # in tier-1, with cold memo tables as in a fresh process.
    from zhu_forge import cli, voa

    voa.clear_caches()
    assert cli.main(line.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
