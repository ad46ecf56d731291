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
from math import lcm

from .checks import (
    ALL_CHECK_IDS,
    ConfigError,
    DEFAULT_ALPHABETS,
    RunConfig,
    alphabet_letters,
    all_passed,
    emit_report,
    run_checks,
    parse_rational,
)
from .parsing import MAX_CONSTANT_BITS, ParseError, _bit_length
from .parsing import parse_point_coordinates, parse_polynomial
from .varieties import scan_alphabet


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
    alphabet_help = (
        "named alphabet ("
        + ", ".join(sorted(DEFAULT_ALPHABETS))
        + ") or a bracketed list like '[1, -1, w]'"
    )

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
        "--alphabet",
        metavar="NAME-OR-LIST",
        help="scan-todd's " + alphabet_help + " (default pm1)",
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
        help=alphabet_help,
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
    overrides = {}
    if args.check:
        overrides["selected_checks"] = tuple(args.check)
    if args.t:
        overrides["t_values"] = tuple(parse_rational(raw) for raw in args.t)
    if args.alphabet is not None:
        overrides["scan_alphabet"] = args.alphabet
    records = run_checks(RunConfig(**overrides))
    mode = "structured" if args.format == "json" else "text"
    sys.stdout.buffer.write(emit_report(records, mode))
    sys.stdout.buffer.flush()
    return 0 if all_passed(records) else 1


def _cmd_scan(args) -> int:
    t = parse_rational(args.t)
    alphabet = alphabet_letters(args.alphabet)
    try:
        points = scan_alphabet(t, alphabet)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys.stdout.write("".join(f"{point}\n" for point in points))
    sys.stdout.flush()
    print(f"found {len(points)} singular point(s)", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    poly = parse_polynomial(args.poly)
    coords = parse_point_coordinates(args.point)
    # Bounds evaluate's rows of coordinate powers and their denominator.
    tops = map(max, zip(*poly.terms))
    bits = sum(top * _bit_length(c) for top, c in zip(tops, coords))
    if bits > MAX_CONSTANT_BITS:
        raise ConfigError(
            f"evaluation exceeds {MAX_CONSTANT_BITS} bits ({bits} bits of "
            "coordinate powers)"
        )
    # Bounds the common denominator evaluate takes the coefficients over.
    common = 1
    for c in poly.terms.values():
        common = lcm(common, c._den)
        if common.bit_length() > MAX_CONSTANT_BITS:
            raise ConfigError(
                f"evaluation exceeds {MAX_CONSTANT_BITS} bits (the common "
                "denominator of the coefficients)"
            )
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes '-x0^2' or '-3/2' for an option, but not '--t=-3/2'.
    valued = ("--t", "--poly", "--point", "--alphabet", "--check", "--format")
    for i in reversed(range(len(argv) - 1)):
        option, value = argv[i : i + 2]
        if option in valued and value[:1] == "-" and value[:2] != "--":
            argv[i : i + 2] = [f"{option}={value}"]
    args = build_parser().parse_args(argv)
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
