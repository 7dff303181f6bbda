"""Command line entry point.

Subcommands: axioms, zhu, appendix, iso, dims, omega, reduce, parse. Exit
codes: 0 all checks passed, 1 a check failed, 2 usage or configuration
error, including a file that cannot be read or written. Reports are written
as canonical JSON (stable bytes for a given configuration and seed); timings
go to stderr.

:func:`_run` is the one path from a parsed command to its output: it
validates every option, builds the presentation once, and runs the command.
``axioms``, ``zhu``, ``iso`` and ``omega`` run the suite of :data:`SUITES`
and write it as a merged report whose records are named ``command/check``;
``appendix`` writes its suite's own report and ``dims`` a CSV table. Only
the six suite subcommands take ``--level``, ``--cutoff``, ``--seed``,
``--out`` and ``--golden``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from .combinatorics import parse_rational
from .modes import format_word, homomorphism_check, reduce_word
from .parser import ParseError, parse_element, parse_uea
from .report import ReportDocument, golden_compare
from .suites import appendix_suite, check_appendix_ranges, zhu_structure_suite
from .voa import axiom_suite, builtin_presentation, format_element
from .zhu import an_dims, build_zhu_context, c2_dims, omega_subspace

VOA_CHOICES = ("heisenberg", "virasoro")

# The suite each of these subcommands runs. Every entry looks its function
# up when called, so a wrapper rebound on this module reaches it.
SUITES = {
    "axioms": lambda p, args: axiom_suite(p, args.cutoff, seed=args.seed),
    "zhu": lambda p, args: zhu_structure_suite(p, args.level, args.cutoff),
    "iso": lambda p, args: homomorphism_check(p, args.level, args.cutoff),
    "omega": lambda p, args: omega_subspace(p, args.level, args.cutoff)[1],
}


def _add_common(parser: argparse.ArgumentParser, suite: bool = True) -> None:
    parser.add_argument(
        "--config",
        type=str,
        default=None,
        metavar="FILE",
        help="key=value file supplying defaults; explicit flags win",
    )
    parser.add_argument("--voa", choices=VOA_CHOICES, default="heisenberg")
    parser.add_argument(
        "--central-charge",
        type=str,
        default="1/2",
        metavar="p/q",
        help="central charge for the virasoro presentation (ignored otherwise)",
    )
    if not suite:
        return
    parser.add_argument("--level", type=int, default=0)
    parser.add_argument("--cutoff", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None, help="write the report/table here")
    parser.add_argument("--golden", type=str, default=None, help="compare output to this file")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def build_parser(defaults: dict[str, object] | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhu-forge",
        description="exact mode calculus and quotient-algebra checks for vertex operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    created: list[argparse.ArgumentParser] = []

    for name in ("axioms", "iso", "omega"):
        p = sub.add_parser(name)
        _add_common(p)
        created.append(p)

    p = sub.add_parser("zhu")
    _add_common(p)
    p.add_argument(
        "--span-out",
        type=str,
        default=None,
        help="also dump the reduced ideal span as a JSON matrix",
    )
    created.append(p)

    p = sub.add_parser("appendix")
    _add_common(p)
    p.add_argument("--s", type=str, default="-2..2", metavar="a..b")
    p.add_argument("--t", type=str, default="-2..2", metavar="a..b")
    p.add_argument("--N", type=str, default="0..4", metavar="a..b")
    p.add_argument("--shift-bound", type=int, default=10)
    p.add_argument("--samples", type=int, default=50)
    created.append(p)

    p = sub.add_parser("dims")
    _add_common(p)
    p.add_argument(
        "--kind",
        choices=("quotient", "c2"),
        default="quotient",
        help="which dimension table to write",
    )
    created.append(p)

    p = sub.add_parser("reduce")
    _add_common(p, suite=False)
    p.add_argument("--expr", type=str, required=True, help="mode expression literal")
    p.add_argument("--mod-level", type=int, required=True, dest="mod_level")
    p.add_argument("--trace", type=str, default=None, help="write the rewriting trace here")
    p.add_argument(
        "--variant", choices=("rightmost", "leftmost"), default="rightmost"
    )
    created.append(p)

    p = sub.add_parser("parse")
    _add_common(p, suite=False)
    p.add_argument("--expr", type=str, required=True)
    p.add_argument("--uea", action="store_true", help="parse as a mode expression")
    created.append(p)

    if defaults:
        # Subcommands parse into a fresh namespace, so config-file defaults
        # must land on every subparser to take effect (flags still win).
        for p in created:
            p.set_defaults(**defaults)
    return parser


def _write_output(payload: bytes, args: argparse.Namespace) -> None:
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())


def _golden_code(payload: bytes, args: argparse.Namespace) -> int:
    """0 without --golden or on a match, 1 on a mismatch; a missing golden
    file raises ``FileNotFoundError``."""
    if not args.golden:
        return 0
    same, diff = golden_compare(payload, args.golden)
    if not same:
        print(f"golden mismatch:\n{diff}", file=sys.stderr)
        return 1
    return 0


def _finish_report(doc: ReportDocument, args: argparse.Namespace, started: float) -> int:
    payload = doc.canonical_bytes()
    _write_output(payload, args)
    summary = doc.summary()
    print(
        f"{summary['pass']} passed, {summary['fail']} failed, "
        f"{summary['skipped']} skipped in {time.time() - started:.1f}s",
        file=sys.stderr,
    )
    return _golden_code(payload, args) or (0 if doc.passed else 1)


def _input_error(exc: Exception) -> str:
    """Normal ordering recurses once per mode, so over-deep input ends here."""
    if isinstance(exc, RecursionError):
        return "expression is too deeply nested to normal-order"
    return str(exc)


_RANGE_FLAGS = ("--s", "--t", "--N")
_RANGE_VALUE = re.compile(r"^-?\d+(\.\.-?\d+)?$")


def _merge_range_flags(argv: list[str]) -> list[str]:
    """Join range flags with values like ``-2..2`` that argparse would
    otherwise read as options."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _RANGE_FLAGS and i + 1 < len(argv) and _RANGE_VALUE.match(argv[i + 1]):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


_INT_KEYS = {"level", "cutoff", "seed", "mod_level", "shift_bound", "samples"}


def _load_config_file(path: str) -> dict[str, object]:
    """Read ``key = value`` lines; '#' starts a comment."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        values[key] = int(value) if key in _INT_KEYS else value
    return values


def _find_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_range_flags(list(argv))
    defaults = None
    config_path = _find_config_path(argv)
    if config_path:
        try:
            defaults = _load_config_file(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    args = build_parser(defaults).parse_args(argv)
    try:
        return _run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Run a parsed command; exit code 0, 1 or 2 as in the module docstring."""
    started = time.time()

    # Every option is validated here, so that a bad value is a usage error
    # (exit 2), not a failed check.
    try:
        charge = parse_rational(args.central_charge)
        presentation = builtin_presentation(args.voa, charge)
        if args.command == "reduce" and args.mod_level < 1:
            raise ValueError("--mod-level must be at least 1")
        if args.command not in ("parse", "reduce") and (args.level < 0 or args.cutoff < 0):
            raise ValueError("level and cutoff must be nonnegative")
        if args.command == "appendix":
            ranges = _parse_range(args.s), _parse_range(args.t), _parse_range(args.N)
            check_appendix_ranges(*ranges, args.shift_bound, args.samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "parse":
        try:
            if args.uea:
                expression = parse_uea(args.expr, presentation)
                for word, coeff in expression.sorted_terms():
                    print(f"{coeff}\t{format_word(word)}")
                if expression.is_zero:
                    print("0")
            else:
                print(format_element(parse_element(args.expr, presentation)))
        except (ParseError, RecursionError) as exc:
            print(f"error: {_input_error(exc)}", file=sys.stderr)
            return 2
        return 0

    if args.command == "reduce":
        try:
            expression = parse_uea(args.expr, presentation)
            for word in expression.terms:
                degree = -sum(shift for _, shift in word)
                if degree != 0:
                    print(
                        f"error: word {format_word(word)} has degree {degree}, not 0",
                        file=sys.stderr,
                    )
                    return 2
            result, trace = reduce_word(presentation, expression, args.mod_level, args.variant)
        except (ParseError, RecursionError) as exc:
            print(f"error: {_input_error(exc)}", file=sys.stderr)
            return 2
        print(format_element(result))
        if args.trace:
            Path(args.trace).write_text(
                json.dumps(trace.to_jsonable(), indent=2, sort_keys=True) + "\n"
            )
        return 0

    if args.command == "appendix":
        doc = appendix_suite(
            presentation,
            *ranges,
            shift_bound=args.shift_bound,
            operator_samples=args.samples,
            seed=args.seed,
        )
        return _finish_report(doc, args, started)

    if args.command == "dims":
        if args.kind == "c2":
            table = c2_dims(presentation, args.cutoff)
        else:
            table = an_dims(presentation, args.level, args.cutoff)
        payload = table.to_csv().encode()
        _write_output(payload, args)
        return _golden_code(payload, args)

    # The header echoes the requested --voa and --central-charge, not the
    # presentation's own charge; the benchmark's report digests pin these bytes.
    doc = SUITES[args.command](presentation, args)
    merged = ReportDocument(
        config={
            "voa": args.voa,
            "central_charge": charge,
            "level": args.level,
            "cutoff": args.cutoff,
            "seed": args.seed,
            "suites": [args.command],
        },
        checks=[replace(rec, name=f"{args.command}/{rec.name}") for rec in doc.checks],
    )
    if args.command == "zhu" and args.span_out:
        ctx = build_zhu_context(presentation, args.level, args.cutoff)
        Path(args.span_out).write_text(
            json.dumps(ctx.spanning_dump(), indent=2, sort_keys=True) + "\n"
        )
    return _finish_report(merged, args, started)


if __name__ == "__main__":
    raise SystemExit(main())
