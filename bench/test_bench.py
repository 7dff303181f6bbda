"""Self-test of the benchmark harness on its tiny smoke configuration.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
(about a minute). It keeps the harness from rotting: every workload must
run, pass its oracles, print exactly the metrics BENCHMARK.json names, and
repeat its work counts exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from oracles import check_invocation, partitions  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(name: str, trace: int) -> dict:
    proc = run_bench(
        "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(PER_LAYER)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_its_oracles(name):
    out = smoke(name, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {metric for metric, _ in END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_runs_repeat_their_counts(name):
    first, second = smoke(name, 1), smoke(name, 1)
    for out in (first, second):
        assert out["correct"]
        assert set(out["metrics"]) == {metric for metric, _ in PER_LAYER}
        assert out["metrics"]["trace.coverage_frac"]["value"] >= 0.9

    def counts(out: dict) -> dict:
        return {k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_self_time_subtracts_direct_children():
    tracer = Tracer("test")
    tracer.spans = [["a", 0, 10, -1], ["b", 1, 4, 0], ["c", 2, 3, 1], ["b", 5, 6, 0]]
    assert tracer.self_times() == {"a": 6, "b": 3, "c": 1}


def test_oracles_reject_wrong_outputs():
    assert [partitions(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    c2 = workload("span-kernel", 0, smoke=True).invocations[2]
    assert c2.oracle == "c2_virasoro"
    wrong = "index,dim\n" + "".join(f"{w},1\n" for w in range(7))
    assert check_invocation(c2, {"rc": 0, "stdout": wrong}) is not None
    assert check_invocation(c2, {"rc": 1, "stdout": ""}) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(
        "--workload", "zhu-star", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
