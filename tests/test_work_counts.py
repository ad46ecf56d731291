"""The deterministic work of a default verify, of twelve scans and of
nine parsed expansions, pinned.

A profile hook counts the calls of a few functions by their code object,
so a call is seen whichever module it comes from.  The counts are taken in
a fresh interpreter, where no cache is warm, and compared exactly with
`tests/reference/work-verify.json`, `work-scan.json` and `work-eval.json`.
A change that changes a count updates those files and gives the reason.

    PYTHONPATH=src python tests/test_work_counts.py          # print the counts
    PYTHONPATH=src python tests/test_work_counts.py --write  # store them
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
SCAN_T_VALUES = (Fraction(6), Fraction(7), Fraction(10, 7))
# One expansion per (terms, exponent) shape of the benchmark's eval-mix
# schedule, with fixed coefficients, and a power of the zero polynomial.
EVAL_TEXTS = (
    "(1/2*x0 + w*x1 - 3*x2)^8",
    "(2*x3 - 5/3*x4 + (1 + w)*x5)^6",
    "(x0 + 7/2*x1 - w*x2 + 4*x3)^5",
    "(-3/4*x1 + x2 + 2*w*x4 - 6*x5)^7",
    "(x0 - x1 + 5/2*x2 + (3 - 2*w)*x3 + 9*x4)^4",
    "(2*x0 + x1 - 1/3*x2 + x3 + w*x4 - 8*x5)^3",
    "(x0 + 2*x1 + 3*x2 + 4*x3 + 5*x4 + 6*x5 + 7/5)^2",
    "(1/2*x0 - x1 + w*x2 + 3*x3 - 2/7*x4 + x5 - (1 - w))^3",
    "(x1 - x1)^2",
)


def _counted(run, targets: dict) -> tuple:
    """run()'s result and the number of calls of each function in targets."""
    names = {fn.__code__: name for name, fn in targets.items()}
    counts = dict.fromkeys(targets, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def measure() -> dict:
    from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint
    from s6quartic import RunConfig, all_passed, run_checks, scan_alphabet, varieties
    from s6quartic import Polynomial, eisenstein, parse_polynomial, poly

    work = {"points_built": ProjectivePoint.__init__, "additions": Eisenstein.__add__}
    calls = ("act_on_variety", "is_singular_on_family", "is_node", "projective_orbit")
    records, verify = _counted(
        lambda: run_checks(RunConfig()),
        {**{name: getattr(varieties, name) for name in calls}, **work},
    )
    assert all_passed(records)
    # "tests" counts the Jacobian tests, one per head whose sixth
    # coordinate is a letter.
    scan_work = {**work, "tests": varieties._singular}
    scans = []
    for t in SCAN_T_VALUES:
        for name in sorted(DEFAULT_ALPHABETS):
            found, scan = _counted(
                lambda: scan_alphabet(t, DEFAULT_ALPHABETS[name]), scan_work
            )
            scans.append({"t": str(t), "alphabet": name, **scan, "found": len(found)})
    products = {
        "mul": Polynomial.__mul__,
        "product": poly._product,
        "reduced": eisenstein._reduced,
    }
    evals = []
    for text in EVAL_TEXTS:
        result, expansion = _counted(lambda: parse_polynomial(text), products)
        evals.append({"text": text, **expansion, "terms": len(result.terms)})
    return {"verify": verify, "scan": scans, "eval": evals}


@lru_cache(maxsize=1)
def fresh_measurement() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return json.loads(result.stdout)


def test_default_verify_work_matches_reference():
    stored = json.loads((REFERENCE / "work-verify.json").read_text())
    assert fresh_measurement()["verify"] == stored


def test_scan_work_matches_reference():
    stored = json.loads((REFERENCE / "work-scan.json").read_text())
    assert fresh_measurement()["scan"] == stored


def test_eval_work_matches_reference():
    stored = json.loads((REFERENCE / "work-eval.json").read_text())
    assert fresh_measurement()["eval"] == stored


if __name__ == "__main__":
    counts = measure()
    if sys.argv[1:] == ["--write"]:
        for key, value in counts.items():
            text = json.dumps(value, indent=2) + "\n"
            (REFERENCE / f"work-{key}.json").write_text(text)
    else:
        print(json.dumps(counts))
