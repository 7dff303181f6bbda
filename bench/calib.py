"""The reference kernel that measures machine speed beside each pass.

On small shared machines the interpreter's speed drifts by up to about 1.7x
over tens of seconds, and process CPU time drifts with it. This fixed
``Fraction`` kernel runs before, between and after the segments of
every timed pass (one segment per invocation), and the benchmark reports
times rescaled to a machine on which the kernel takes ``CALIB_REF_S``
seconds: each segment counts ``wall * CALIB_REF_S / kernel``, with the mean
of the kernel runs on either side. The raw kernel time is reported as
``bench.calib_s``.
"""

from __future__ import annotations

import time
from fractions import Fraction

CALIB_REF_S = 0.012
_ITERATIONS = 2500
_REPEATS = 3


def _kernel() -> dict:
    """Sparse exact accumulation into a dict keyed by mode tuples: the shape
    of the program's inner add-or-pop loops, on fixed inputs."""
    acc: dict = {}
    for i in range(1, _ITERATIONS + 1):
        key = ((-(i % 9) - 1, "a"), (-(i % 5) - 1, "a"), i % 1013)
        new = acc.get(key, 0) + Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


def calibrate() -> float:
    """Seconds for one run of the reference kernel: the fastest of a few
    back-to-back runs, so that a single preemption does not read as a slow
    machine."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        acc = _kernel()
        best = min(best, time.perf_counter() - start)
        if not acc:  # keeps the kernel's result live
            raise AssertionError("reference kernel lost its result")
    return best


def normalize(wall: float, kernel: float) -> float:
    """Rescale a wall time measured beside a kernel run to reference speed."""
    return wall * CALIB_REF_S / kernel


def normalize_pass(walls: list[float], kernels: list[float]) -> float:
    """Reference-speed time of a pass from its segment walls and the kernel
    times around them (``len(kernels) == len(walls) + 1``)."""
    return sum(
        normalize(wall, (kernels[i] + kernels[i + 1]) / 2) for i, wall in enumerate(walls)
    )
