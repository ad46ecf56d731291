"""Command-line entry points: verify, scan, and eval.

verify runs the check registry and reports one record per check; scan
searches a family member for singular points with alphabet-restricted
coordinates; eval is an exact-arithmetic calculator for polynomial
expressions at explicit coordinates.

One table, _COMMANDS, declares each command's options; it drives the
parsing, the help pages and the usage errors.  The word after an option
that takes a value is its value unless it starts with '--', so
'--t -3/2' and '--poly -x0^2' work as they read; '--t=-3/2' works too,
and so does an unambiguous prefix of an option's name, such as '--alph'.
Each command imports what it runs inside its handler: eval loads the
parser and no geometry, verify and scan the geometry and no parser
(unless an alphabet is given as a list).

Exit codes: 0 when every selected check passes (and for successful scan
and eval runs), 1 when any check fails or errors, 2 for configuration or
usage problems.
"""

from __future__ import annotations

import sys

from .errors import ConfigError

_PROG = "s6quartic"
_DESCRIPTION = (
    "Exact verification suite for the invariant quartic family: run claim "
    "checks, scan for singular points, evaluate polynomials."
)


def _cmd_verify(opts) -> int:
    from .checks import RunConfig, all_passed, emit_report, parse_rational
    from .checks import run_checks

    overrides = {}
    if opts["check"]:
        overrides["selected_checks"] = tuple(opts["check"])
    if opts["t"]:
        overrides["t_values"] = tuple(parse_rational(raw) for raw in opts["t"])
    if opts["alphabet"] is not None:
        overrides["scan_alphabet"] = opts["alphabet"]
    records = run_checks(RunConfig(**overrides))
    mode = "structured" if opts["format"] == "json" else "text"
    sys.stdout.buffer.write(emit_report(records, mode))
    sys.stdout.buffer.flush()
    return 0 if all_passed(records) else 1


def _cmd_scan(opts) -> int:
    from .checks import alphabet_letters, parse_rational
    from .varieties import scan_alphabet

    t = parse_rational(opts["t"])
    alphabet = alphabet_letters(opts["alphabet"])
    try:
        points = scan_alphabet(t, alphabet)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sys.stdout.write("".join(f"{point}\n" for point in points))
    sys.stdout.flush()
    print(f"found {len(points)} singular point(s)", file=sys.stderr)
    return 0


def _cmd_eval(opts) -> int:
    from math import lcm

    from .parsing import MAX_CONSTANT_BITS, ParseError, _bit_length
    from .parsing import parse_point_coordinates, parse_polynomial

    try:
        poly = parse_polynomial(opts["poly"])
        coords = parse_point_coordinates(opts["point"])
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
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


# command -> (handler, help, options); option -> (metavar, help, kind).
# kind is "repeats" (every value is kept, in order), "required", a tuple
# of the allowed values, or None (the last value given is kept).  A help
# text's {checks} and {alphabet} are filled in when help is printed.
_COMMANDS = {
    "verify": (
        _cmd_verify,
        "run the check registry (default: every check)",
        {
            "--check": ("ID", "check to run, repeatable; one of: {checks}", "repeats"),
            "--format": (None, "report format (default text)", ("text", "json")),
            "--t": (
                "RATIONAL",
                "family parameter for the exploratory scan, repeatable",
                "repeats",
            ),
            "--alphabet": (
                "NAME-OR-LIST",
                "scan-todd's {alphabet} (default pm1)",
                None,
            ),
        },
    ),
    "scan": (
        _cmd_scan,
        "list singular points with alphabet-restricted coordinates",
        {
            "--t": ("RATIONAL", "family parameter", "required"),
            "--alphabet": ("NAME-OR-LIST", "{alphabet}", "required"),
        },
    ),
    "eval": (
        _cmd_eval,
        "evaluate a polynomial expression at explicit coordinates",
        {
            "--poly": ("EXPR", "polynomial expression", "required"),
            "--point": (
                "POINT",
                "coordinates, e.g. '[1, 1, w, w, w^2, w^2]'",
                "required",
            ),
        },
    ),
}
_COMMAND_CHOICES = "{" + ",".join(_COMMANDS) + "}"


def _invocation(name, metavar, kind) -> str:
    if isinstance(kind, tuple):
        metavar = "{" + ",".join(kind) + "}"
    return f"{name} {metavar}"


def _width() -> int:
    import shutil

    return shutil.get_terminal_size().columns - 2


def _usage(command, width) -> str:
    """The usage line of the program or of one command, wrapped to width."""
    parts = ["[-h]"]
    if command is None:
        parts.append(_COMMAND_CHOICES + " ...")
    else:
        for name, (metavar, _, kind) in _COMMANDS[command][2].items():
            part = _invocation(name, metavar, kind)
            parts.append(part if kind == "required" else f"[{part}]")
    line = " ".join(filter(None, ("usage:", _PROG, command)))
    indent = " " * (len(line) + 1)
    lines = []
    for part in parts:
        if len(line) + 1 + len(part) > width:
            lines.append(line)
            line = indent + part
        else:
            line += " " + part
    return "\n".join([*lines, line]) + "\n"


def _usage_error(command, message):
    """Print the usage and message to stderr and exit 2."""
    prog = " ".join(filter(None, (_PROG, command)))
    sys.stderr.write(_usage(command, _width()) + f"{prog}: error: {message}\n")
    raise SystemExit(2)


def _check_choice(command, argument, value, choices):
    if value not in choices:
        _usage_error(
            command,
            f"argument {argument}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})",
        )


def _help(command):
    """Print the help page of the program or of one command and exit 0."""
    import textwrap

    from .checks import ALL_CHECK_IDS, DEFAULT_ALPHABETS

    width = _width()
    fields = {
        "checks": ", ".join(ALL_CHECK_IDS),
        "alphabet": f"named alphabet ({', '.join(sorted(DEFAULT_ALPHABETS))}) "
        "or a bracketed list like '[1, -1, w]'",
    }
    # Each section's title and rows of (indent, invocation, help or None).
    sections = []
    intro = ""
    options = [("  ", "-h, --help", "show this help message and exit")]
    if command is None:
        intro = textwrap.fill(_DESCRIPTION, max(width, 11)) + "\n\n"
        rows = [("  ", _COMMAND_CHOICES, None)]
        rows += [("    ", name, entry[1]) for name, entry in _COMMANDS.items()]
        sections.append(("positional arguments", rows))
    else:
        for name, (metavar, text, kind) in _COMMANDS[command][2].items():
            invocation = _invocation(name, metavar, kind)
            options.append(("  ", invocation, text.format(**fields)))
    sections.append(("options", options))
    # Help texts start two columns after the longest invocation, by 24 at most.
    longest = max(len(indent + inv) for _, rows in sections for indent, inv, _ in rows)
    column = min(longest + 2, max(width - 20, 4), 24)
    page = [_usage(command, width), "\n", intro]
    for k, (title, rows) in enumerate(sections):
        page.append("\n" * (k > 0) + title + ":\n")
        for indent, inv, text in rows:
            if text is None:
                page.append(indent + inv + "\n")
                continue
            lines = textwrap.wrap(" ".join(text.split()), max(width - column, 11))
            room = column - len(indent) - 2
            if len(inv) <= room:
                page.append(indent + inv.ljust(room) + "  " + lines.pop(0) + "\n")
            else:
                page.append(indent + inv + "\n")
            page.extend(" " * column + line + "\n" for line in lines)
    sys.stdout.write("".join(page))
    raise SystemExit(0)


def _option(command, word, names):
    """The name in names that a '--' word gives, exactly or as an
    unambiguous prefix; None if it gives none."""
    given = word.partition("=")[0]
    if given in names:
        return given
    matches = [name for name in names if name.startswith(given)]
    if len(matches) > 1:
        matched = ", ".join(matches)
        _usage_error(command, f"ambiguous option: {word} could match {matched}")
    return matches[0] if matches else None


def _parse(argv):
    """The handler of the command argv names and its option values, keyed
    by option name without the dashes.  Help exits 0 and a usage error
    exits 2, through SystemExit; words that name nothing are reported
    together, after the rest of argv is read."""
    command, options, values, unknown = None, {}, {}, []
    i = 0
    while i < len(argv):
        word = argv[i]
        i += 1
        name = None
        if word == "-h":
            name = "--help"
        elif word.startswith("--") and word != "--":
            name = _option(command, word, ("--help", *options))
        if name == "--help":
            _help(command)
        if name is None and (command is not None or word.startswith("-")):
            unknown.append(word)
        elif name is None:
            _check_choice(None, "command", word, _COMMANDS)
            command, options = word, _COMMANDS[word][2]
            values = {
                name: [] if kind == "repeats" else None
                for name, (_, _, kind) in options.items()
            }
        else:
            if "=" in word:
                value = word.partition("=")[2]
            elif i < len(argv) and not argv[i].startswith("--"):
                value = argv[i]
                i += 1
            else:
                _usage_error(command, f"argument {name}: expected one argument")
            kind = options[name][2]
            if isinstance(kind, tuple):
                _check_choice(command, name, value, kind)
            if kind == "repeats":
                values[name].append(value)
            else:
                values[name] = value
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    missing = [
        name
        for name, (_, _, kind) in options.items()
        if kind == "required" and values[name] is None
    ]
    if missing:
        required = ", ".join(missing)
        _usage_error(command, f"the following arguments are required: {required}")
    if unknown:
        _usage_error(None, f"unrecognized arguments: {' '.join(unknown)}")
    return _COMMANDS[command][0], {name[2:]: value for name, value in values.items()}


def main(argv=None) -> int:
    handler, opts = _parse(list(sys.argv[1:] if argv is None else argv))
    try:
        code = handler(opts)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        import os

        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
