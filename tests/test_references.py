"""The stored reference outputs, byte for byte.

Every change must leave the `verify` JSON (without `elapsed`), the `scan`
and `eval` outputs and the demo outputs as they are stored under
`tests/reference/` and `perfbench/reference/`.  Each case runs in-process,
the CLI through `cli.main` and a demo through `runpy`, and compares the
captured stdout bytes with the stored file.
"""

import re
import runpy
from pathlib import Path

import pytest

from s6quartic.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"

SCANS = [
    ("6", "pm1", "scan-t6-pm1.txt"),
    ("6", "zero_pm1", "scan-t6-zero_pm1.txt"),
    ("6", "cube_roots", "scan-t6-cube_roots.txt"),
    ("6", "sixth_roots", "scan-t6-sixth_roots.txt"),
    ("3/2", "sixth_roots", "scan-t3_2-sixth_roots.txt"),
    ("2", "zero_pm1", "scan-t2-zero_pm1.txt"),
    ("4", "zero_pm1", "scan-t4-zero_pm1.txt"),
    ("10/7", "[5,-1,0,1]", "scan-t10_7-5_m1_0_1.txt"),
    ("4", "[2,-1,1,-3,0]", "scan-t4-2_m1_1_m3_0.txt"),
]

VERIFY_RUNS = [
    (
        ["--check", "scan-todd", "--t", "6", "--t", "3/2"],
        REFERENCE / "verify-scan-todd-t6-t3_2.jsonl",
    ),
    ([], ROOT / "perfbench" / "reference" / "verify.jsonl"),
]

DEMOS = ["family_tour", "group_action", "plane_slice"]

# One `poly;point` pair per line; CI runs the same pairs through the
# installed command.
EVAL_ARGS = REFERENCE / "eval-powers-args.txt"

_ELAPSED = re.compile(rb'"elapsed":[0-9]*,')


@pytest.mark.parametrize(
    "t,alphabet,reference", SCANS, ids=[name for _, _, name in SCANS]
)
def test_scan_matches_reference(t, alphabet, reference, capsysbinary):
    code = main(["scan", "--t", t, "--alphabet", alphabet])
    out, _ = capsysbinary.readouterr()
    assert code == 0
    assert out == (REFERENCE / reference).read_bytes()


@pytest.mark.parametrize(
    "flags,reference", VERIFY_RUNS, ids=[path.name for _, path in VERIFY_RUNS]
)
def test_verify_json_matches_reference(flags, reference, capsysbinary):
    code = main(["verify", *flags, "--format", "json"])
    out, _ = capsysbinary.readouterr()
    assert code == 0
    # The first "elapsed" on each line is the record's own timing.
    stripped = b"".join(
        _ELAPSED.sub(b"", line, count=1) for line in out.splitlines(keepends=True)
    )
    assert stripped == reference.read_bytes()


def test_eval_matches_reference(capsysbinary):
    out = b""
    for line in EVAL_ARGS.read_text().splitlines():
        poly, point = line.split(";")
        assert main(["eval", "--poly", poly, "--point", point]) == 0
        out += capsysbinary.readouterr()[0]
    assert out == (REFERENCE / "eval-powers.txt").read_bytes()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_reference(name, capsysbinary):
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    out, _ = capsysbinary.readouterr()
    assert out == (REFERENCE / f"demo-{name}.txt").read_bytes()
