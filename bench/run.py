"""zhu-forge benchmark: time-to-verdict of suite runs, cold and warm.

Usage (from the repository root):

    python3 bench/run.py --workload {zhu-star,span-kernel,word-rewrite}
        --seed N --seconds S --trace {0,1} [--smoke]

The loop is closed: one caller runs one sample after another, each sample
in a fresh interpreter (bench/worker.py) that runs the workload's pass
cold and then warm. Samples start while half of a typical sample still
fits in ``--seconds`` (at least four start). Every output is checked by
bench/oracles.py. With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` traced and untraced samples alternate and the
per-layer metrics are printed instead, and the spans of the first traced
sample are written to ``.bench_out/``. All times are rescaled to the
reference machine speed of bench/calib.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calib import calibrate, normalize, normalize_pass
from oracles import WordOracle, check_invocation
from tracer import CALL_COUNT_LAYERS, SELF_TIME_LAYERS
from workloads import WORKLOADS, presentations, workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 11
MIN_SAMPLES = 4
# Every run must end within 180 s; no sample starts after this point.
HARD_LIMIT_S = 160.0
# Fixed hash seed, so that two runs of one seed repeat every count exactly.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS)
    + tuple((f"{layer}.calls", "count") for layer in CALL_COUNT_LAYERS)
    + tuple(
        (name, "count")
        for name in (
            "voa.memo.normal_order.hits",
            "voa.memo.normal_order.misses",
            "voa.memo.mode_mono.hits",
            "voa.memo.mode_mono.misses",
            "zhu.star_product.in_window",
            "zhu.star_product.out_window",
            "zhu.context.spanning_rows",
            "zhu.context.rank",
            "linalg.rref.rows_in",
            "linalg.rref.rank",
        )
    )
    + (
        ("zhu.star_product.in_window_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage_frac", "ratio"),
        ("bench.calib_s", "s"),
        ("fail_frac", "ratio"),
    )
)

_SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import zhu_forge.cli
from fractions import Fraction
from zhu_forge.voa import builtin_presentation, enumerate_basis
for voa, charge, cutoff in {specs!r}:
    enumerate_basis(builtin_presentation(voa, Fraction(charge)), cutoff)
"""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure_setup(wl) -> list[float]:
    """Fresh interpreter, ``import zhu_forge.cli`` and the workload's
    presentations with their bases, ``SETUP_RUNS`` times after one warm-up
    (which compiles bytecode); each time rescaled by the kernel runs beside
    it."""
    code = _SETUP_CODE.format(src=str(SRC), specs=presentations(wl))
    command = [sys.executable, "-c", code]
    subprocess.run(command, check=True, env=WORKER_ENV, timeout=60)
    times = []
    before = calibrate()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(command, check=True, env=WORKER_ENV, timeout=60)
        wall = time.perf_counter() - start
        after = calibrate()
        times.append(normalize(wall, (before + after) / 2))
        before = after
    return times


def run_worker(args, mode: str, spans: Path | None, timeout: float) -> dict:
    """One sample in a fresh interpreter; raises RuntimeError on failure."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--src", str(SRC), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode,
    ]
    if args.smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=WORKER_ENV, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} sample timed out after {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} sample exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"{mode} sample printed no result: {exc}") from None


class Checker:
    """Counts attempted and failed invocations over all passes of a run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.reference: list | None = None
        self.words = WordOracle()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail_all(self, outputs_expected: int, reason: str) -> None:
        self.attempted += outputs_expected
        self.failed += outputs_expected
        self.reasons.append(reason)

    def check_pass(self, label: str, outputs: list) -> None:
        if self.reference is None:
            self.reference = outputs
        n_inv = len(self.wl.invocations)
        for index, output in enumerate(outputs):
            self.attempted += 1
            if index < n_inv:
                what = self.wl.invocations[index].label
                reason = check_invocation(self.wl.invocations[index], output)
            else:
                what = f"word {index - n_inv}"
                reason = self.words.check(output)
            if reason is None and (
                index >= len(self.reference) or output != self.reference[index]
            ):
                reason = "output differs from the run's first cold pass"
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{label}: {what}: {reason}")


def per_layer_metrics(timed: list, traced: list, calib: list, checker: Checker) -> dict:
    """Median self times at reference speed, the first traced sample's
    counts, and the diagnostics."""
    counts = traced[0]["trace"]["counts"]
    metrics = {
        f"{layer}.self_s": median([s["trace"]["self_s"][layer] * s["scale"] for s in traced])
        for layer in SELF_TIME_LAYERS
    }
    for name, unit in PER_LAYER:
        if unit == "count":
            metrics[name] = counts.get(name, 0)
    inside = counts.get("zhu.star_product.in_window", 0)
    star = inside + counts.get("zhu.star_product.out_window", 0)
    metrics["zhu.star_product.in_window_frac"] = inside / star if star else 0.0
    metrics["trace.overhead_frac"] = (
        median([s["cold_s"] for s in traced]) / median([s["cold_s"] for s in timed]) - 1
    )
    metrics["trace.coverage_frac"] = median([s["trace"]["coverage_frac"] for s in traced])
    metrics["bench.calib_s"] = median(calib)
    metrics["fail_frac"] = checker.failed / checker.attempted
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny cutoffs (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "zhu_forge" / "cli.py").is_file():
        log(f"error: no zhu_forge sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    begin = time.perf_counter()
    wl = workload(args.workload, args.seed, args.smoke)

    try:
        setup = [] if args.trace else measure_setup(wl)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        log(f"error: set-up failed: {exc}")
        return 1
    checker = Checker(wl)
    per_pass = len(wl.invocations) + 2 * wl.words_per_presentation
    timed: list[dict] = []
    traced: list[dict] = []
    calib: list[float] = []
    window_start = time.perf_counter()
    index = 0
    while True:
        now = time.perf_counter()
        elapsed = now - window_start
        # After the minimum, a sample starts only if half of a typical one
        # fits, so that runs end close to ``--seconds`` on average.
        if index >= MIN_SAMPLES and elapsed + elapsed / index / 2 > args.seconds:
            break
        remaining = HARD_LIMIT_S - (now - begin)
        if remaining < 5:
            log("warning: stopping early to stay inside the run's time limit")
            break
        mode = "traced" if args.trace and index % 2 else "timed"
        spans = None
        if mode == "traced" and not traced:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        index += 1
        try:
            sample = run_worker(args, mode, spans, remaining)
        except RuntimeError as exc:
            checker.fail_all(per_pass * (1 if mode == "traced" else 2), str(exc))
            continue
        for label in ("cold", "warm"):
            if label in sample:
                part = sample[label]
                calib.extend(part["kernels"])
                sample[f"{label}_s"] = normalize_pass(part["walls"], part["kernels"])
                sample[f"{label}_raw_s"] = sum(part["walls"])
                checker.check_pass(f"sample {index} {label}", part["outputs"])
        if mode == "timed":
            timed.append(sample)
            log(f"sample {index}: cold {sample['cold_s']:.3f}s warm {sample['warm_s']:.3f}s "
                f"(raw {sample['cold_raw_s']:.3f}s/{sample['warm_raw_s']:.3f}s)")
        else:
            sample["scale"] = sample["cold_s"] / sample["cold_raw_s"]
            traced.append(sample)
            log(f"sample {index}: traced cold {sample['cold_s']:.3f}s "
                f"({sample['trace']['spans']} spans)")

    for reason in checker.reasons[:20]:
        log(f"FAIL {reason}")
    correct = checker.failed == 0
    if not timed or (args.trace and not traced):
        log("error: no sample completed")
        return 1

    if args.trace:
        if any(s["trace"]["counts"] != traced[0]["trace"]["counts"] for s in traced):
            log("FAIL work counts differ between traced samples of one seed")
            correct = False
        metrics = per_layer_metrics(timed, traced, calib, checker)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": median(setup),
            "cold_s": median([s["cold_s"] for s in timed]),
            "warm_s": median([s["warm_s"] for s in timed]),
            "peak_rss_mb": median([s["rss_kb"] for s in timed]) / 1024,
        }
        units = dict(END_TO_END)

    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
