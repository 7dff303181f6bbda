"""The benchmark's workloads: CLI invocations plus seeded degree-zero words.

Every workload is a list of ``zhu-forge`` command lines, run in-process
through ``cli.main``, and optionally seeded words reduced through
``modes.reduce_word`` in both variants. Sizes are chosen so that one cold
pass takes about a second on a 2-vCPU machine; the ``smoke`` scale keeps
the same layer mix at tiny cutoffs. See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seeded words are kept only when a shift/weight simulation of the depth
# rule bounds both reductions inside this window, as in the acceptance
# battery's word criterion.
WORD_WINDOW = 10
WORD_POOL_WEIGHT = 3
WORD_SHIFT = 3

VIRASORO = ("--voa", "virasoro", "--central-charge", "1/2")
HEISENBERG = ("--voa", "heisenberg")


@dataclass(frozen=True)
class Invocation:
    """One CLI command line and the oracle its output must satisfy.

    Oracles: ``report`` (a canonical report whose checks all pass),
    ``c2_heisenberg`` (C2 table 1 at every weight), ``c2_virasoro`` (1 at
    even weights, 0 at odd), ``omega_heisenberg`` (kernel dimension equals
    the number of basis monomials of weight at most the level) and
    ``table`` (a dimension table checked by digest only).
    """

    argv: tuple[str, ...]
    oracle: str

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    words_per_presentation: int = 0


def _inv(*argv: str, oracle: str = "report") -> Invocation:
    return Invocation(tuple(argv), oracle)


def workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` at full or smoke scale; ``seed`` drives the
    appendix sampling and the generated words."""
    s = str(seed)
    if name == "zhu-star":
        heis, vir = (3, 4) if smoke else (4, 6)
        return Workload(
            name,
            (
                _inv("zhu", *HEISENBERG, "--level", "1", "--cutoff", str(heis)),
                _inv("zhu", *VIRASORO, "--level", "1", "--cutoff", str(vir)),
            ),
        )
    if name == "span-kernel":
        dims, c2h, c2v, omega = (6, 5, 6, 4) if smoke else (10, 8, 12, 7)
        return Workload(
            name,
            (
                _inv("dims", *HEISENBERG, "--level", "1", "--cutoff", str(dims), oracle="table"),
                _inv(
                    "dims", *HEISENBERG, "--level", "1", "--cutoff", str(c2h),
                    "--kind", "c2", oracle="c2_heisenberg",
                ),
                _inv(
                    "dims", *VIRASORO, "--level", "1", "--cutoff", str(c2v),
                    "--kind", "c2", oracle="c2_virasoro",
                ),
                _inv("omega", *HEISENBERG, "--level", "1", "--cutoff", str(omega),
                     oracle="omega_heisenberg"),
            ),
        )
    if name == "word-rewrite":
        if smoke:
            appendix = ("--s", "-1..1", "--t", "-1..1", "--N", "0..1", "--samples", "5")
            iso_vir, iso_heis, words = 4, 3, 10
        else:
            appendix = ("--N", "0..2")
            iso_vir, iso_heis, words = 5, 4, 100
        return Workload(
            name,
            (
                _inv("iso", *VIRASORO, "--level", "1", "--cutoff", str(iso_vir)),
                _inv("iso", *HEISENBERG, "--level", "1", "--cutoff", str(iso_heis)),
                _inv("appendix", *appendix, "--seed", s),
            ),
            words_per_presentation=words,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("zhu-star", "span-kernel", "word-rewrite")


def option(argv: tuple[str, ...], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def presentations(wl: Workload) -> list[tuple[str, str, int]]:
    """(voa, central charge, largest cutoff) for every presentation used."""
    sizes: dict[tuple[str, str], int] = {}
    for inv in wl.invocations:
        key = (option(inv.argv, "--voa", "heisenberg"), option(inv.argv, "--central-charge", "1/2"))
        sizes[key] = max(sizes.get(key, 0), int(option(inv.argv, "--cutoff", "6")))
    if wl.words_per_presentation:
        for key in (("heisenberg", "1/2"), ("virasoro", "1/2")):
            sizes[key] = max(sizes.get(key, 0), WORD_WINDOW)
    return [(voa, charge, cutoff) for (voa, charge), cutoff in sorted(sizes.items())]


def _reduction_weight_bound(shifts, weights, mod_level: int, variant: str) -> int:
    """Upper bound for the weights of a reduction, mirroring the depth rule
    of ``reduce_word``."""
    items = list(zip(shifts, weights))
    while len(items) > 1:
        pos = len(items) - 2 if variant == "rightmost" else 0
        (p, wa), (q, wb) = items[pos], items[pos + 1]
        s, t = -p, q
        trailing = -sum(k for k, _ in items[pos + 2 :])
        effective = mod_level + max(trailing, 0)
        depth = max(effective - 1, effective - 1 - t, -s)
        items[pos : pos + 2] = [(p + q, wa + wb + 2 * depth + s)]
    return items[0][1] if items else 0


def generate_words(pool_monomials: list, seed: int, count: int) -> list[tuple[list, int]]:
    """Seeded degree-zero words: lengths 2-4, shifts in [-3, 3], arguments
    drawn from ``pool_monomials`` (basis of weight <= 3), mod levels cycling
    through 1-3; draws whose reductions could leave the window are redrawn.

    Returns ``([(monomial, shift), ...], mod_level)`` pairs.
    """
    from zhu_forge.voa import monomial_weight

    rng = random.Random(seed)
    words: list[tuple[list, int]] = []
    draws = 0
    while len(words) < count:
        length = rng.choice([2, 3, 4])
        shifts = [rng.randint(-WORD_SHIFT, WORD_SHIFT) for _ in range(length - 1)]
        last = -sum(shifts)
        if abs(last) > WORD_SHIFT:
            continue
        shifts.append(last)
        args = [pool_monomials[rng.randrange(len(pool_monomials))] for _ in shifts]
        mod_level = draws % 3 + 1
        draws += 1
        weights = [monomial_weight(mono) for mono in args]
        bound = max(
            _reduction_weight_bound(shifts, weights, mod_level, variant)
            for variant in ("rightmost", "leftmost")
        )
        if bound <= WORD_WINDOW:
            words.append((list(zip(args, shifts)), mod_level))
    return words
