"""The three workloads: how one op calls the package and what it must return.

Each workload has
  prepare(seed, index)  the op's inputs, made from the seed alone;
  expected(inputs)      the answer, computed by ``oracle`` (never by the
                        package under test);
  call(pkg, inputs)     the op itself, run in the current process through
                        the public calls the command line makes.

verify-cold ops in timed runs are separate interpreters that run
``python -m s6quartic verify --format json`` through ``child.py verify``;
``call`` is the same run in-process, used by the single-op child of a
traced run.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import inputs
import oracle

NAMES = ("verify-cold", "scan-sweep", "eval-mix")
VERIFY_ARGV = ("verify", "--format", "json")


def load_package(root: Path):
    """Import s6quartic from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "s6quartic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 's6quartic'}")
    sys.path.insert(0, str(src))
    import s6quartic

    if not Path(s6quartic.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: s6quartic imported from {s6quartic.__file__}")
    return s6quartic


# -- verify-cold ----------------------------------------------------------------------


def _verify_prepare(seed, index):
    return VERIFY_ARGV


def _verify_expected(argv):
    return {"exit": 0, "records": oracle.load_verify_reference()}


def _verify_call(pkg, argv):
    import s6quartic.cli

    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stream):
        code = s6quartic.cli.main(list(argv))
        stream.flush()
    return {"exit": code, "stdout": buffer.getvalue().decode("utf-8")}


# -- scan-sweep -----------------------------------------------------------------------


def _scan_prepare(seed, index):
    return inputs.scan_params(seed, index)


def _scan_expected(t_values):
    return [
        oracle.scan_answer(t, name)
        for t in t_values
        for name in inputs.SCAN_ALPHABETS
    ]


def _scan_call(pkg, t_values):
    return [
        [str(p) for p in pkg.scan_alphabet(t, pkg.DEFAULT_ALPHABETS[name])]
        for t in t_values
        for name in inputs.SCAN_ALPHABETS
    ]


# -- eval-mix -------------------------------------------------------------------------


def _eval_prepare(seed, index):
    batch = inputs.eval_batch(seed, index)
    texts = [
        (inputs.expression_text(tree), inputs.point_text(point))
        for tree, point in batch
    ]
    return texts, batch


def _eval_expected(prepared):
    return oracle.eval_answers(prepared[1])


def _eval_call(pkg, prepared):
    parse_polynomial = pkg.parse_polynomial
    parse_point = pkg.parse_point_coordinates
    return [
        str(parse_polynomial(expr).evaluate(parse_point(point)))
        for expr, point in prepared[0]
    ]


WORKLOADS = {
    "verify-cold": (_verify_prepare, _verify_expected, _verify_call),
    "scan-sweep": (_scan_prepare, _scan_expected, _scan_call),
    "eval-mix": (_eval_prepare, _eval_expected, _eval_call),
}


def answer(workload, result):
    """The comparable form of a call's result: verify loses its timings."""
    if workload != "verify-cold":
        return result
    return {"exit": result["exit"], "records": oracle.verify_records(result["stdout"])}
