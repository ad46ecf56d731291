"""The deterministic work of a default verify and of twelve scans, pinned.

A profile hook counts the calls of a few functions by their code object,
so a call is seen whichever module it comes from.  The counts are taken in
a fresh interpreter, where no cache is warm, and compared exactly with
`tests/reference/work-verify.json` and `tests/reference/work-scan.json`.
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

    work = {"points_built": ProjectivePoint.__init__, "additions": Eisenstein.__add__}
    calls = ("act_on_variety", "is_singular_on_family", "is_node", "projective_orbit")
    records, verify = _counted(
        lambda: run_checks(RunConfig()),
        {**{name: getattr(varieties, name) for name in calls}, **work},
    )
    assert all_passed(records)
    scans = []
    for t in SCAN_T_VALUES:
        for name in sorted(DEFAULT_ALPHABETS):
            found, scan = _counted(
                lambda: scan_alphabet(t, DEFAULT_ALPHABETS[name]), work
            )
            scans.append({"t": str(t), "alphabet": name, **scan, "found": len(found)})
    return {"verify": verify, "scan": scans}


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


if __name__ == "__main__":
    counts = measure()
    if sys.argv[1:] == ["--write"]:
        for key, value in counts.items():
            text = json.dumps(value, indent=2) + "\n"
            (REFERENCE / f"work-{key}.json").write_text(text)
    else:
        print(json.dumps(counts))
