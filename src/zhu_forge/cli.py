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
``appendix`` writes its suite's own report and ``dims`` a CSV table. Each
flag is declared once, on an argparse parent (:func:`build_parser`): every
subcommand takes ``--config``, ``--voa`` and ``--central-charge``, and only
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
from .suites import (
    appendix_suite,
    axiom_suite,
    check_appendix_ranges,
    omega_suite,
    zhu_structure_suite,
)
from .voa import builtin_presentation, format_element
from .zhu import an_dims, build_zhu_context, c2_dims

VOA_CHOICES = ("heisenberg", "virasoro")

# The suite each of these subcommands runs. Every entry looks its function
# up when called, so a wrapper rebound on this module reaches it.
SUITES = {
    "axioms": lambda p, args: axiom_suite(p, args.cutoff, seed=args.seed),
    "zhu": lambda p, args: zhu_structure_suite(p, args.level, args.cutoff),
    "iso": lambda p, args: homomorphism_check(p, args.level, args.cutoff),
    "omega": lambda p, args: omega_suite(p, args.level, args.cutoff),
}


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The full parser and its ``--config`` parent, which :func:`main`
    parses alone first to find the config file. Each flag is declared once:
    the ``common`` parent adds ``--voa`` and ``--central-charge`` to
    ``config``, and ``suite`` adds the suite subcommands' flags to it."""
    config = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    config.add_argument(
        "--config",
        type=str,
        default=None,
        metavar="FILE",
        help="file of key = value lines read as flags; flags typed later win",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--voa", choices=VOA_CHOICES, default="heisenberg")
    common.add_argument(
        "--central-charge",
        type=str,
        default="1/2",
        metavar="p/q",
        help="central charge for the virasoro presentation (ignored otherwise)",
    )
    suite = argparse.ArgumentParser(add_help=False, parents=[common])
    suite.add_argument("--level", type=int, default=0)
    suite.add_argument("--cutoff", type=int, default=6)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--out", type=str, default=None, help="write the report/table here")
    suite.add_argument("--golden", type=str, default=None, help="compare output to this file")

    parser = argparse.ArgumentParser(
        prog="zhu-forge",
        description="exact mode calculus and quotient-algebra checks for vertex operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("axioms", "iso", "omega"):
        sub.add_parser(name, parents=[suite])

    p = sub.add_parser("zhu", parents=[suite])
    p.add_argument(
        "--span-out",
        type=str,
        default=None,
        help="also dump the reduced ideal span as a JSON matrix",
    )

    p = sub.add_parser("appendix", parents=[suite])
    p.add_argument("--s", type=str, default="-2..2", metavar="a..b")
    p.add_argument("--t", type=str, default="-2..2", metavar="a..b")
    p.add_argument("--N", type=str, default="0..4", metavar="a..b")
    p.add_argument("--shift-bound", type=int, default=10)
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("dims", parents=[suite])
    p.add_argument(
        "--kind",
        choices=("quotient", "c2"),
        default="quotient",
        help="which dimension table to write",
    )

    p = sub.add_parser("reduce", parents=[common])
    p.add_argument("--expr", type=str, required=True, help="mode expression literal")
    p.add_argument("--mod-level", type=int, required=True, dest="mod_level")
    p.add_argument("--trace", type=str, default=None, help="write the rewriting trace here")
    p.add_argument(
        "--variant", choices=("rightmost", "leftmost"), default="rightmost"
    )

    p = sub.add_parser("parse", parents=[common])
    p.add_argument("--expr", type=str, required=True)
    p.add_argument("--uea", action="store_true", help="parse as a mode expression")

    return parser, config


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


_RANGE_VALUE = re.compile(r"^-?\d+(\.\.-?\d+|/\d+)?$")
# The flags whose value may start with "-", each with the values it joins.
_DASH_VALUES = {flag: _RANGE_VALUE for flag in ("--s", "--t", "--N", "--central-charge")}
_DASH_VALUES["--expr"] = re.compile(r"^-(?!-)")


def _merge_range_flags(argv: list[str]) -> list[str]:
    """Join range flags, ``--central-charge`` and ``--expr``, or a prefix of
    one, with values like ``-2..2``, ``-22/5`` or ``-a[-1]vac`` that argparse
    would otherwise read as options; argparse still rejects a prefix that is
    ambiguous."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        names = [flag for flag in _DASH_VALUES if flag.startswith(token)]
        if len(names) == 1 and i + 1 < len(argv) and _DASH_VALUES[names[0]].match(argv[i + 1]):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _config_flags(path: str) -> list[str]:
    """Read ``key = value`` lines as ``--key=value`` flags, ``_`` in a key
    becoming ``-``; '#' starts a comment."""
    flags: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = body.partition("=")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _find_config_path(config: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """The ``--config`` value read by the ``config`` parent, the flag
    abbreviated as argparse allows (``--conf``); the full parser still
    rejects an ambiguous ``--c``."""
    try:
        return config.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return None  # the full parser reports it


_parsers: tuple[argparse.ArgumentParser, argparse.ArgumentParser] | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call, not at import; parsing keeps no state.
    global _parsers
    if _parsers is None:
        _parsers = build_parser()
    parser, config = _parsers
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    config_path = _find_config_path(config, argv)
    if config_path:
        # The file's flags go right after the subcommand, so argparse checks
        # them like typed flags and a flag typed later wins.
        try:
            argv[1:1] = _config_flags(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(_merge_range_flags(argv))
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
        if "cutoff" in args and (args.level < 0 or args.cutoff < 0):
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
            result, trace = reduce_word(presentation, expression, args.mod_level, args.variant)
        except (ValueError, RecursionError) as exc:
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
