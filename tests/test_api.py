"""The public surface: ``s6quartic.__all__`` and the names its users read.

The demos, the README's library tour and the benchmark workloads import
from the package root; everything else is imported from its submodule.
"""

import ast
import functools
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import s6quartic

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "CUBE_ROOT_POINT",
    "DEFAULT_ALPHABETS",
    "Eisenstein",
    "H_SHIFT",
    "OMEGA",
    "PLANE_FORMS",
    "ParseError",
    "PermGroup",
    "Polynomial",
    "ProjectivePoint",
    "QUADRIC_PAIR",
    "QUADRIC_SURFACES",
    "RunConfig",
    "SIGN_POINT",
    "STANDARD_LABELS",
    "TAU",
    "act_on_variety",
    "all_passed",
    "emit_report",
    "family_member",
    "gram_rank",
    "irreducible_degrees",
    "is_node",
    "is_singular_on_family",
    "orbit_and_stabilizer",
    "parse_point_coordinates",
    "parse_polynomial",
    "projective_orbit",
    "quartic_family",
    "restrict_to_plane",
    "restriction_factorization_check",
    "run_checks",
    "scan_alphabet",
    "semidirect_structure_check",
    "singular_t_values",
]

# What perfbench/workloads.py reads from the package root.
BENCHMARK_NAMES = (
    "DEFAULT_ALPHABETS",
    "scan_alphabet",
    "parse_polynomial",
    "parse_point_coordinates",
)


def _python_blocks(markdown: str) -> list:
    return re.findall(r"```python\n(.*?)```", markdown, re.DOTALL)


def _root_imports(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "s6quartic":
            names.update(alias.name for alias in node.names)
    return names


README_BLOCKS = _python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))


def test_all_is_the_agreed_sorted_list():
    assert s6quartic.__all__ == PUBLIC
    assert PUBLIC == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(s6quartic, name), name


def test_the_package_root_binds_only_exported_names():
    # Names are bound on first use, so every one is read first.
    for name in PUBLIC:
        getattr(s6quartic, name)
    bound = {
        name
        for name, value in vars(s6quartic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(PUBLIC)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_imports_are_exported(path):
    imported = _root_imports(path.read_text(encoding="utf-8"))
    assert imported
    assert imported <= set(PUBLIC)


def test_readme_imports_are_exported():
    imported = set().union(*(_root_imports(block) for block in README_BLOCKS))
    assert imported
    assert imported <= set(PUBLIC)


def test_benchmark_attributes_exist():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    assert set(re.findall(r"\bpkg\.(\w+)", workloads)) == set(BENCHMARK_NAMES)
    for name in BENCHMARK_NAMES:
        assert name in PUBLIC
        assert hasattr(s6quartic, name)


@pytest.mark.parametrize(
    "fn",
    [
        s6quartic.PermGroup.normal_subgroups,
        s6quartic.irreducible_degrees,
        s6quartic.scan_alphabet,
        s6quartic.PermGroup.generate,
    ],
    ids=lambda fn: fn.__qualname__,
)
def test_size_bounds_are_constants_not_parameters(fn):
    # SUBGROUP_SCAN_CAP, SCAN_CAP and GENERATE_CAP bound these for every
    # caller.
    assert "cap" not in inspect.signature(fn).parameters


def test_readme_library_tour_runs(capsys):
    (tour,) = [b for b in README_BLOCKS if "from s6quartic import" in b]
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "all-t",
        "True",
        "True",
        "-1 - w",
    ]


def modules_loaded_by(code: str) -> list:
    """The sorted new entries of sys.modules after running code in a fresh
    interpreter.  Only a fresh one shows what the import itself loads, and
    only one started with -S: a site hook may preload typing."""
    probe = (
        f"import sys; before = set(sys.modules)\n{code}\n"
        "print(*sorted(set(sys.modules) - before), sep='\\n')"
    )
    src = str(Path(s6quartic.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return result.stdout.split()


def run_quietly(call: str) -> str:
    """Code that runs a cli call with its stdout thrown away, so that the
    probe's own output is the module list alone."""
    return (
        "import io, sys\n"
        "sys.stdout = io.TextIOWrapper(io.BytesIO())\n"
        f"from s6quartic.cli import main\n{call}\n"
        "sys.stdout = sys.__stdout__"
    )


@functools.lru_cache(maxsize=1)
def modules_loaded_by_a_verify_run() -> list:
    return modules_loaded_by(run_quietly("main(['verify', '--check', 'special-t'])"))


def test_import_loads_no_decorator_machinery():
    # The package needs none of these; dataclasses alone pulls in inspect,
    # ast, dis and tokenize.
    forbidden = {"configparser", "dataclasses", "inspect", "string", "typing"}
    assert not forbidden & set(modules_loaded_by_a_verify_run())


def test_import_loads_the_pinned_modules():
    """The modules a `verify` run loads, pinned per interpreter in
    tests/reference/import-modules.json, so an import regression fails
    whatever the machine load.  The standard library's own imports differ
    between Python versions, so a version without a pin is skipped."""
    pins = json.loads(
        (ROOT / "tests" / "reference" / "import-modules.json").read_text()
    )
    v = sys.version_info
    name = f"{sys.implementation.name}-{v.major}.{v.minor}-{sys.platform}"
    if name not in pins:
        pytest.skip(f"no import pin for {name}")
    assert modules_loaded_by_a_verify_run() == pins[name]


SUBMODULES = {
    "eisenstein",
    "poly",
    "parsing",
    "linalg",
    "perms",
    "varieties",
    "checks",
    "errors",
    "cli",
}
GEOMETRY = {"eisenstein", "poly", "linalg", "perms", "varieties"}
EVAL = {"eisenstein", "poly", "parsing"}


def submodules_loaded_by(code: str) -> set:
    loaded = modules_loaded_by(code)
    assert "s6quartic" in loaded
    prefix = "s6quartic."
    return {m.removeprefix(prefix) for m in loaded if m.startswith(prefix)}


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import s6quartic", set()),
        (
            "from s6quartic import parse_point_coordinates, parse_polynomial\n"
            "parse_polynomial('x0^2 - w').evaluate("
            "parse_point_coordinates('[1, 0, 0, 0, 0, 0]'))",
            EVAL,
        ),
        ("from s6quartic import scan_alphabet\nscan_alphabet(6, (1, -1))", GEOMETRY),
        ("import s6quartic\ns6quartic.varieties", GEOMETRY),
        ("import s6quartic.cli", {"cli", "errors"}),
        (
            run_quietly("main(['verify', '--check', 'special-t'])"),
            GEOMETRY | {"checks", "errors", "cli"},
        ),
        (
            run_quietly("main(['scan', '--t', '6', '--alphabet', 'pm1'])"),
            GEOMETRY | {"checks", "errors", "cli"},
        ),
        (
            run_quietly(
                "main(['eval', '--poly', '-x0^2', '--point', '[1, 0, 0, 0, 0, 0]'])"
            ),
            EVAL | {"errors", "cli"},
        ),
    ],
    ids=["package", "eval", "scan", "submodule", "cli", "cli-verify", "cli-scan",
         "cli-eval"],
)
def test_each_entry_point_loads_only_the_submodules_it_uses(code, expected):
    # Unlike the full pin above, this holds on every Python version.
    assert submodules_loaded_by(code) == expected


def test_a_verify_run_loads_neither_argparse_nor_the_parser():
    # argparse brings gettext, and locale once it translates a message.
    forbidden = {"argparse", "gettext", "locale", "s6quartic.parsing"}
    assert not forbidden & set(modules_loaded_by_a_verify_run())


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from s6quartic import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert namespace["scan_alphabet"] is s6quartic.varieties.scan_alphabet
    assert namespace["RunConfig"] is s6quartic.checks.RunConfig


def test_dir_lists_every_exported_name_and_submodule():
    assert set(dir(s6quartic)) >= set(PUBLIC) | SUBMODULES


def test_submodules_are_package_attributes():
    for name in sorted(SUBMODULES):
        assert getattr(s6quartic, name) is sys.modules[f"s6quartic.{name}"]


def test_unknown_names_raise_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        s6quartic.no_such_name
    assert str(info.value) == "module 's6quartic' has no attribute 'no_such_name'"
    assert not hasattr(s6quartic, "__main__")
    with pytest.raises(ImportError):
        exec("from s6quartic import no_such_name", {})
