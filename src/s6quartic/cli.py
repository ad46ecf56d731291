"""Command-line entry points: verify, scan, and eval.

verify runs the check registry and reports one record per check; scan
searches a family member for singular points with alphabet-restricted
coordinates; eval is an exact-arithmetic calculator for polynomial
expressions at explicit coordinates.

Exit codes: 0 when every selected check passes (and for successful scan
and eval runs), 1 when any check fails or errors, 2 for configuration or
usage problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import (
    ALL_CHECK_IDS,
    ConfigError,
    DEFAULT_ALPHABETS,
    RunConfig,
    all_passed,
    emit_report,
    load_config,
    normalize_format,
    parse_alphabet_text,
    run_checks,
    parse_rational,
)
from .parsing import ParseError, parse_point_coordinates, parse_polynomial
from .varieties import DEFAULT_SCAN_CAP, scan_alphabet


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s6quartic",
        description=(
            "Exact verification suite for the invariant quartic family: "
            "run claim checks, scan for singular points, evaluate "
            "polynomials."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="run the check registry (default: every check)"
    )
    verify.add_argument(
        "--check",
        action="append",
        default=[],
        metavar="ID",
        help=f"check to run, repeatable; one of: {', '.join(ALL_CHECK_IDS)}",
    )
    verify.add_argument(
        "--config", metavar="PATH", help="INI config file; flags override it"
    )
    verify.add_argument(
        "--format",
        choices=["text", "json"],
        help="report format (default text)",
    )
    verify.add_argument(
        "--t",
        action="append",
        default=[],
        metavar="RATIONAL",
        help="family parameter for the exploratory scan, repeatable",
    )
    verify.add_argument(
        "--cap",
        type=int,
        metavar="N",
        help="enumeration cap for coordinate scans",
    )
    verify.set_defaults(handler=_cmd_verify)

    scan = commands.add_parser(
        "scan", help="list singular points with alphabet-restricted coordinates"
    )
    scan.add_argument(
        "--t", required=True, metavar="RATIONAL", help="family parameter"
    )
    scan.add_argument(
        "--alphabet",
        required=True,
        metavar="NAME-OR-LIST",
        help=(
            "named alphabet ("
            + ", ".join(sorted(DEFAULT_ALPHABETS))
            + ") or a bracketed list like '[1, -1, w]'"
        ),
    )
    scan.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SCAN_CAP,
        metavar="N",
        help="enumeration cap",
    )
    scan.set_defaults(handler=_cmd_scan)

    evaluate = commands.add_parser(
        "eval", help="evaluate a polynomial expression at explicit coordinates"
    )
    evaluate.add_argument(
        "--poly", required=True, metavar="EXPR", help="polynomial expression"
    )
    evaluate.add_argument(
        "--point",
        required=True,
        metavar="POINT",
        help="coordinates, e.g. '[1, 1, w, w, w^2, w^2]'",
    )
    evaluate.set_defaults(handler=_cmd_eval)
    return parser


def _cmd_verify(args) -> int:
    # File settings first, so that flags override them.
    overrides = load_config(args.config) if args.config else {}
    if args.check:
        overrides["selected_checks"] = tuple(args.check)
    if args.format:
        overrides["output"] = normalize_format(args.format)
    if args.t:
        overrides["t_values"] = tuple(parse_rational(raw) for raw in args.t)
    if args.cap is not None:
        overrides["enum_cap"] = args.cap
    cfg = RunConfig(**overrides)
    records = run_checks(cfg)
    sys.stdout.buffer.write(emit_report(records, cfg.output))
    sys.stdout.buffer.flush()
    return 0 if all_passed(records) else 1


def _cmd_scan(args) -> int:
    t = parse_rational(args.t)
    raw = args.alphabet.strip()
    if raw.startswith("["):
        alphabet = parse_alphabet_text(raw)
    elif raw in DEFAULT_ALPHABETS:
        alphabet = DEFAULT_ALPHABETS[raw]
    else:
        raise ConfigError(
            f"unknown alphabet {raw!r}; known: {', '.join(sorted(DEFAULT_ALPHABETS))}"
        )
    try:
        points = scan_alphabet(t, alphabet, args.cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys.stdout.write("".join(f"{point}\n" for point in points))
    sys.stdout.flush()
    print(f"found {len(points)} singular point(s)", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    poly = parse_polynomial(args.poly)
    coords = parse_point_coordinates(args.point)
    value = poly.evaluate(coords)
    try:
        text = str(value)
    except ValueError:
        # Python refuses int -> str past its limit on decimal digits.
        raise ConfigError(
            "result too large to print (more than "
            f"{sys.get_int_max_str_digits()} digits)"
        ) from None
    print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
