"""Independent checks on every output a pass produces.

An invocation fails when it exits nonzero, when a report records a failed
check, when its output differs from the first cold pass of the run (so the
cold and warm passes must give identical bytes), or when its oracle
rejects it:

* the Heisenberg C2 table is 1 at every weight (the C2 quotient is
  C[a(-1)]);
* the universal-Virasoro C2 table is 1 at even and 0 at odd weights (the C2
  quotient is C[L(-2)]);
* the Heisenberg ``omega`` kernel dimension is the number of basis
  monomials of weight at most the level, counted here by partitions;
* a seeded word's rightmost and leftmost reductions agree modulo the level
  ideal;
* a deterministic output matches its digest recorded at commit b9b28d1.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import WORD_WINDOW, option

# sha256 of the standard output of each deterministic command line, as
# produced by commit b9b28d1. A change to canonical report bytes must
# update this table in the same change.
DIGESTS = {
    "zhu --voa heisenberg --level 1 --cutoff 4":
        "d2451457b0a7a17901c3b67cf1f76b07e49896bf75473de17a1ac645ee155269",
    "zhu --voa virasoro --central-charge 1/2 --level 1 --cutoff 6":
        "9e9e64a47a3b0ca1aa741d63ece78ba09d50b4cd62084955593bab5560f40e29",
    "zhu --voa heisenberg --level 1 --cutoff 3":
        "a1fdda4bd3aa56f9d85843d6fe96fb402181f21961b5cc26fd6b20952cbb1f0e",
    "zhu --voa virasoro --central-charge 1/2 --level 1 --cutoff 4":
        "f92ddb94dceca2911ed1dfe6d1fe9c1d86ae6167defb02db26e8de86b74191ea",
    "dims --voa heisenberg --level 1 --cutoff 10":
        "37f886fcd721f4607fbd03614932e92da25b5cbf50b85c626a83009da2c3c85c",
    "dims --voa heisenberg --level 1 --cutoff 8 --kind c2":
        "50fc7a36bc6395c0f4fc41c2c2341c5b62d45e6eaf8c946c49f462088fe4a12c",
    "dims --voa virasoro --central-charge 1/2 --level 1 --cutoff 12 --kind c2":
        "132a6c7590c24e1a341e13138320b40b11f13f7acc23fc0a829625fb1ed90774",
    "omega --voa heisenberg --level 1 --cutoff 7":
        "f357b10904a7abb2cf3780a48254cfb3943e1410b2e30bd8de93ae685be115ca",
    "dims --voa heisenberg --level 1 --cutoff 6":
        "99d4c2353e97a04f2088101a6120e14b1e68efd1fb37c01ae80dfe39430e6382",
    "dims --voa heisenberg --level 1 --cutoff 5 --kind c2":
        "385aa8a9043b4e157765e73016c45b2a7c8d02db80d431004bf10a8b8d673470",
    "dims --voa virasoro --central-charge 1/2 --level 1 --cutoff 6 --kind c2":
        "2adfb61060ad35e7fdbf9289dfb0073063e234e4928407b8e821aed4fc6772c6",
    "omega --voa heisenberg --level 1 --cutoff 4":
        "45fef63c854f1b445379f99974b41eef018f0db667d3baffea11e7876e6087e1",
    "iso --voa virasoro --central-charge 1/2 --level 1 --cutoff 5":
        "0a5704e9584a0e75d3df8d61b15a85527bee30731d203a56da3617e3284718c9",
    "iso --voa heisenberg --level 1 --cutoff 4":
        "c6598254de7ea043aa9cf60de6b3ebb566f149cefa6c0d4581d684121754a070",
    "iso --voa virasoro --central-charge 1/2 --level 1 --cutoff 4":
        "959fbacce05b6b5829c16a7bde0b23318d9d8f8544e2c2bed62e4b80d6b16a24",
    "iso --voa heisenberg --level 1 --cutoff 3":
        "9bf4fadf938d97e5771cd2b3ab6c26dce913979ca1f877ab8b22cb92e9782d9d",
}


def partitions(n: int) -> int:
    """Number of integer partitions of ``n``."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _table(stdout: str) -> list[tuple[int, int]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "index,dim":
        raise ValueError("not a dimension table")
    return [tuple(int(x) for x in line.split(",")) for line in lines[1:]]


def check_invocation(inv, output: dict) -> str | None:
    """Reason the output of a CLI invocation is wrong, or None."""
    rc, stdout = output.get("rc"), output.get("stdout", "")
    if rc != 0:
        return f"exit {rc!r}"
    digest = DIGESTS.get(inv.label)
    if digest is not None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
        return "output differs from the digest recorded at commit b9b28d1"
    cutoff = int(option(inv.argv, "--cutoff", "6"))
    level = int(option(inv.argv, "--level", "0"))
    try:
        if inv.oracle in ("c2_heisenberg", "c2_virasoro", "table"):
            rows = _table(stdout)
            if [idx for idx, _ in rows] != list(range(cutoff + 1)):
                return "table does not cover every weight up to the cutoff"
            if inv.oracle == "c2_heisenberg":
                want = [1] * (cutoff + 1)
            elif inv.oracle == "c2_virasoro":
                want = [1 - w % 2 for w in range(cutoff + 1)]
            else:
                return None if digest is not None else "no recorded digest"
            return None if [dim for _, dim in rows] == want else f"C2 table {rows}"
        report = json.loads(stdout)
        if report["summary"]["fail"] or any(c["status"] == "fail" for c in report["checks"]):
            return "a check failed"
        if inv.oracle == "omega_heisenberg":
            dims = [c["witness"]["dimension"] for c in report["checks"]
                    if c["name"].endswith("kernel_dimension")]
            want = sum(partitions(w) for w in range(min(level, cutoff) + 1))
            if dims != [want]:
                return f"kernel dimension {dims}, expected {want}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return None


class WordOracle:
    """Checks that both reduction orders agree modulo the level ideal.

    Contexts are built on first use, per (presentation, level), at the
    window the word generator guarantees.
    """

    def __init__(self) -> None:
        self._contexts: dict = {}
        self._verdicts: dict = {}

    def check(self, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        key = (output["voa"], output["mod_level"], output["rightmost"], output["leftmost"])
        if key not in self._verdicts:
            self._verdicts[key] = self._agree(*key)
        return self._verdicts[key]

    def _agree(self, voa: str, mod_level: int, rightmost: str, leftmost: str) -> str | None:
        from zhu_forge.parser import parse_element
        from zhu_forge.voa import builtin_presentation
        from zhu_forge.zhu import WeightOverflowError, build_zhu_context

        presentation = builtin_presentation(voa, Fraction(1, 2))
        difference = parse_element(rightmost, presentation) - parse_element(leftmost, presentation)
        if not difference:
            return None
        level = mod_level - 1
        ctx = self._contexts.get((voa, level))
        if ctx is None:
            ctx = self._contexts[(voa, level)] = build_zhu_context(presentation, level, WORD_WINDOW)
        try:
            residue = ctx.reduce(difference)
        except WeightOverflowError as exc:
            return f"difference leaves the window: {exc}"
        return "orders disagree modulo the level ideal" if residue else None
