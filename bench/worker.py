"""One benchmark sample in a fresh interpreter.

``timed`` runs a cold pass (empty memo tables, as a CLI user pays) and then
the same pass again warm (as a library user pays), with the reference
kernel run before, between and after its segments, and reports the
process's peak RSS. ``traced`` runs one
cold pass with every layer wrapped by the tracer and reports self times and
exact work counts. The last line of standard output is one JSON object
with the timings and every output of every pass, which the parent checks.

Usage: python3 bench/worker.py --src SRC --workload NAME --seed N
       --mode {timed,traced} [--smoke] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from calib import calibrate
from workloads import WORD_POOL_WEIGHT, WORD_WINDOW, generate_words, option, workload


def _word_inputs(wl, seed: int) -> list:
    """(presentation, factors, mod_level) for the workload's seeded words."""
    from zhu_forge.voa import FockVector, builtin_presentation, enumerate_basis

    inputs = []
    if not wl.words_per_presentation:
        return inputs
    for name in ("heisenberg", "virasoro"):
        presentation = builtin_presentation(name, Fraction(1, 2))
        pool = [m for _, monos in enumerate_basis(presentation, WORD_POOL_WEIGHT) for m in monos]
        for word, mod_level in generate_words(pool, seed, wl.words_per_presentation):
            factors = [(FockVector.from_monomial(presentation, m), k) for m, k in word]
            inputs.append((presentation, factors, mod_level))
    return inputs


def run_pass(wl, words: list, tracer=None) -> tuple[list[float], list[float], list]:
    """Run every invocation, then every word, once.

    Returns the wall time of each segment (one per invocation, one for all
    words), the reference-kernel times measured before, between and after
    the segments, and the outputs. ``cli.main`` and ``modes.reduce_word``
    are looked up on their modules at call time so that traced wrappers
    take effect.
    """
    from zhu_forge import cli, modes
    from zhu_forge.voa import format_element

    walls: list[float] = []
    kernels = [calibrate()]
    raw = []
    for inv in wl.invocations:
        if tracer is not None:
            tracer.window = int(option(inv.argv, "--cutoff", "6"))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(inv.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an escaped traceback fails the invocation
                rc = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        kernels.append(calibrate())
        raw.append((rc, out.getvalue()))
    reduced = []
    if words:
        if tracer is not None:
            tracer.window = WORD_WINDOW
        start = time.perf_counter()
        for presentation, factors, mod_level in words:
            try:
                right, _ = modes.reduce_word(presentation, factors, mod_level)
                left, _ = modes.reduce_word(presentation, factors, mod_level, "leftmost")
                reduced.append((right, left))
            except Exception as exc:
                reduced.append(f"{type(exc).__name__}: {exc}")
        walls.append(time.perf_counter() - start)
        kernels.append(calibrate())

    outputs = [{"rc": rc, "stdout": stdout} for rc, stdout in raw]
    for (presentation, _factors, mod_level), item in zip(words, reduced):
        if isinstance(item, str):
            outputs.append({"voa": presentation.name, "mod_level": mod_level, "error": item})
        else:
            outputs.append(
                {
                    "voa": presentation.name,
                    "mod_level": mod_level,
                    "rightmost": format_element(item[0]),
                    "leftmost": format_element(item[1]),
                }
            )
    return walls, kernels, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import zhu_forge.cli  # noqa: F401  (loads every module the tracer patches)
    from zhu_forge import voa

    wl = workload(args.workload, args.seed, args.smoke)
    words = _word_inputs(wl, args.seed)
    result: dict = {}
    if args.mode == "timed":
        for label in ("cold", "warm"):
            walls, kernels, outputs = run_pass(wl, words)
            result[label] = {"walls": walls, "kernels": kernels, "outputs": outputs}
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}:seed{args.seed}")
        tracer.install()
        tracer.memo_start(voa)
        walls, kernels, outputs = run_pass(wl, words, tracer)
        tracer.memo_stop(voa)
        result["cold"] = {"walls": walls, "kernels": kernels, "outputs": outputs}
        result["trace"] = tracer.summary(sum(walls))
        if args.spans:
            tracer.write_spans(Path(args.spans))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
