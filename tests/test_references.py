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

# One `t;alphabet;reference` triple per line; CI runs the same scans
# through the installed command.
SCANS = [
    tuple(line.split(";"))
    for line in (REFERENCE / "scan-args.txt").read_text().splitlines()
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
