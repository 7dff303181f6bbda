"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``zhu_forge`` from outside the
package. Each wrapper is rebound in every ``zhu_forge`` module that holds
the original object, because ``suites``, ``modes`` and ``zhu`` import
``star_product``, ``mode_action`` and others by name. The private memo
functions ``voa._apply_mono`` and ``voa._mode_mono`` are not wrapped; they
are read only through ``cache_info()`` deltas.

One span is kept in memory per call: name, start, end, parent span and run
id. A layer's self time is the total duration of its spans minus the time
their direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute). An attribute "Class.method" is patched on
# the class. Several targets may share a span name (one layer).
TARGETS = (
    ("cli.main", "cli", "main"),
    ("report.canonical_bytes", "report", "ReportDocument.canonical_bytes"),
    ("suites.zhu_structure_suite", "suites", "zhu_structure_suite"),
    ("suites.appendix_suite", "suites", "appendix_suite"),
    ("voa.mode_action", "voa", "mode_action"),
    ("voa.basis", "voa", "enumerate_basis"),
    ("voa.basis", "voa", "basis_vectors"),
    ("zhu.star_product", "zhu", "star_product"),
    ("zhu.circle_product", "zhu", "circle_product"),
    ("zhu.reduce", "zhu", "ZhuContext.reduce"),
    ("zhu.build_zhu_context", "zhu", "build_zhu_context"),
    ("zhu.spanning_vectors", "zhu", "spanning_vectors"),
    ("zhu.c2_dims", "zhu", "c2_dims"),
    ("zhu.omega_subspace", "zhu", "omega_subspace"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.reduce_vector", "linalg", "reduce_vector"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("modes.reduce_word", "modes", "reduce_word"),
    ("modes.pair_expansion", "modes", "pair_expansion"),
    ("modes.evaluate_expression", "modes", "evaluate_expression"),
    ("modes.reordering_residual", "modes", "reordering_residual"),
    ("modes.expand_product_side", "modes", "expand_product_side"),
    ("modes.word_expression", "modes", "word_expression"),
    ("modes.mode_symbol", "modes", "mode_symbol"),
    ("modes.homomorphism_check", "modes", "homomorphism_check"),
)

# Self times reported per layer (the traced layers not listed here still
# count towards coverage).
SELF_TIME_LAYERS = (
    "voa.mode_action",
    "voa.basis",
    "zhu.star_product",
    "zhu.reduce",
    "suites.zhu_structure_suite",
    "zhu.circle_product",
    "zhu.build_zhu_context",
    "zhu.c2_dims",
    "zhu.omega_subspace",
    "linalg.rref",
    "linalg.reduce_vector",
    "linalg.kernel_basis",
    "modes.reduce_word",
    "modes.pair_expansion",
    "modes.evaluate_expression",
    "modes.reordering_residual",
    "modes.expand_product_side",
    "modes.word_expression",
    "modes.homomorphism_check",
    "suites.appendix_suite",
    "report.canonical_bytes",
    "cli.main",
)

CALL_COUNT_LAYERS = (
    "voa.mode_action",
    "zhu.star_product",
    "zhu.reduce",
    "modes.reduce_word",
    "modes.mode_symbol",
)

MEMOS = (("normal_order", "_apply_mono"), ("mode_mono", "_mode_mono"))


class Tracer:
    """Records spans and exact work counts for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.window: int | None = None  # weight cutoff of the running invocation
        self._stack: list[int] = []
        self._memo_before: dict[str, tuple[int, int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "zhu_forge" or name.startswith("zhu_forge."))
        ]
        for span_name, module_name, attr in TARGETS:
            module = sys.modules[f"zhu_forge.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(span_name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = {
            "zhu.star_product": self._observe_star_product,
            "zhu.build_zhu_context": self._observe_context,
            "zhu.spanning_vectors": self._observe_spanning_vectors,
            "linalg.rref": self._observe_rref,
        }.get(name)
        # rref takes its rows as an iterable; count them as it consumes them.
        count_rows = self._count_rows if name == "linalg.rref" else None

        def wrapper(*args, **kwargs):
            if count_rows is not None:
                args = (count_rows(args[0]),) + args[1:]
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters -------------------------------------------------------------

    def _count_rows(self, rows):
        for row in rows:
            self.counts["linalg.rref.rows_in"] += 1
            yield row

    def _observe_star_product(self, result) -> None:
        if self.window is not None and result.max_weight() > self.window:
            self.counts["zhu.star_product.out_window"] += 1
        else:
            self.counts["zhu.star_product.in_window"] += 1

    def _observe_rref(self, result) -> None:
        self.counts["linalg.rref.rank"] += len(result[1])

    def _observe_context(self, result) -> None:
        self.counts["zhu.context.rank"] += result.rank

    def _observe_spanning_vectors(self, result) -> None:
        self.counts["zhu.context.spanning_rows"] += len(result)

    def memo_start(self, voa_module) -> None:
        for label, attr in MEMOS:
            info = getattr(voa_module, attr).cache_info()
            self._memo_before[label] = (info.hits, info.misses)

    def memo_stop(self, voa_module) -> None:
        for label, attr in MEMOS:
            info = getattr(voa_module, attr).cache_info()
            hits, misses = self._memo_before[label]
            self.counts[f"voa.memo.{label}.hits"] += info.hits - hits
            self.counts[f"voa.memo.{label}.misses"] += info.misses - misses

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def summary(self, pass_seconds: float) -> dict:
        """Self times, counts and coverage of one traced pass."""
        selves = self.self_times()
        calls = self.call_counts()
        counts = {name: self.counts[name] for name in sorted(self.counts)}
        for layer in CALL_COUNT_LAYERS:
            counts[f"{layer}.calls"] = calls[layer]
        return {
            "self_s": {layer: selves.get(layer, 0.0) for layer in SELF_TIME_LAYERS},
            "counts": counts,
            "coverage_frac": sum(selves.values()) / pass_seconds,
            "spans": len(self.spans),
        }

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
