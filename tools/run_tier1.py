"""Run the Tier-1 tests on other Python interpreters.

    python tools/run_tier1.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter.  The test tools (pytest,
hypothesis and their pure-Python dependencies) are borrowed from the
interpreter that runs this script: they are linked from the directory of
its `pytest.__file__` into a temporary directory on PYTHONPATH, with
plugin autoloading off and the hypothesis plugin loaded by name.  Each
interpreter runs Tier-1 with `-W error -X dev`, as CI does.  Where pytest
does not import (a missing backport on an older Python), it runs CI's
reference diff instead: `verify --format json` without its `elapsed`
fields against `perfbench/reference/verify.jsonl`.

One summary line is printed per interpreter, and the exit code is 1 if
any of them failed.  No bytecode is written, so nothing is left in the
borrowed directories.  Only the standard library is needed to run it;
Tier-1 does not run it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference" / "verify.jsonl"
# pytest and hypothesis with what they import, all pure Python.
TOOLS = (
    "pytest", "_pytest", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "attr", "attrs", "sortedcontainers", "typing_extensions.py",
    "py.py", "_hypothesis_pytestplugin.py", "_hypothesis_globals.py",
    "_hypothesis_ftz_detector.py",
)
ELAPSED = re.compile(r'"elapsed":[0-9]+,')
TIMEOUT_S = 1800


def borrow_tools(target: Path) -> None:
    """Link the test tools of this interpreter into target."""
    import pytest

    site = Path(pytest.__file__).resolve().parent.parent
    for name in TOOLS:
        (target / name).symlink_to(site / name)


def run(python: str, args: list, path: list) -> subprocess.CompletedProcess:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(map(str, path)),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
    }
    return subprocess.run(
        [python, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S,
    )


def tier1(python: str, tools: Path) -> tuple:
    """(passed, summary) of Tier-1 on python; None if pytest does not import."""
    path = [ROOT / "src", tools]
    if run(python, ["-c", "import pytest"], path).returncode:
        return None
    result = run(
        python,
        ["-W", "error", "-X", "dev", "-m", "pytest", "-q",
         "-p", "_hypothesis_pytestplugin", "--continue-on-collection-errors"],
        path,
    )
    lines = result.stdout.strip().splitlines() or ["no output"]
    return result.returncode == 0, f"tier-1: {lines[-1].strip('= ')}"


def reference_diff(python: str) -> tuple:
    """(passed, summary) of `verify --format json` against the reference,
    with each line's first `elapsed` field removed, as CI's sed does."""
    result = run(python, ["-m", "s6quartic", "verify", "--format", "json"], [ROOT / "src"])
    lines = result.stdout.splitlines(keepends=True)
    text = "".join(ELAPSED.sub("", line, count=1) for line in lines)
    same = result.returncode == 0 and text == REFERENCE.read_text()
    verdict = "identical" if same else f"differs (exit {result.returncode})"
    return same, f"no pytest; verify --format json {verdict} to the reference"


def version(python: str) -> str:
    result = run(python, ["-c", "import platform; print(platform.python_version())"], [])
    return result.stdout.strip() or f"? (exit {result.returncode})"


def main(argv: list) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tools = Path(tmp)
        borrow_tools(tools)
        for python in argv:
            outcome = tier1(python, tools) or reference_diff(python)
            failed |= not outcome[0]
            print(f"{version(python):<8} {'ok  ' if outcome[0] else 'FAIL'} {outcome[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
