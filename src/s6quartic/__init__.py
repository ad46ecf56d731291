"""Exact computer algebra and verification suite for the invariant
quartic threefold family.

The package is a small exact kernel — the field Q(w), sparse polynomials
in six variables, exact linear algebra, permutation groups — plus the
geometry of the quartic family and a registry of named checks with a
command-line front end (``s6quartic verify | scan | eval``).

``__all__`` is the supported surface: the names the demos, the README and
the benchmark use, plus the entry points of a verification run.  Every
other name is importable from its submodule.
"""

# The exported names of each submodule.  A submodule is imported on the
# first use of one of its names (PEP 562), so a process pays only for the
# modules it reads: `import s6quartic` loads no submodule.
_EXPORTS = {
    "eisenstein": ("Eisenstein", "OMEGA"),
    "poly": ("Polynomial", "quartic_family"),
    "parsing": ("ParseError", "parse_point_coordinates", "parse_polynomial"),
    "linalg": ("gram_rank",),
    "perms": (
        "PermGroup",
        "STANDARD_LABELS",
        "irreducible_degrees",
        "orbit_and_stabilizer",
        "semidirect_structure_check",
    ),
    "varieties": (
        "CUBE_ROOT_POINT",
        "PLANE_FORMS",
        "ProjectivePoint",
        "QUADRIC_PAIR",
        "QUADRIC_SURFACES",
        "SIGN_POINT",
        "act_on_variety",
        "family_member",
        "is_node",
        "is_singular_on_family",
        "projective_orbit",
        "restrict_to_plane",
        "restriction_factorization_check",
        "scan_alphabet",
        "singular_t_values",
    ),
    "checks": (
        "DEFAULT_ALPHABETS",
        "H_SHIFT",
        "RunConfig",
        "TAU",
        "all_passed",
        "emit_report",
        "run_checks",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors", "cli")

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    # The builtin __import__, not importlib: under -S importlib is not
    # loaded yet, and importing it would load two more modules.
    module = _HOME.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in these globals.
    __import__(f"{__name__}.{module or name}")
    if module is None:
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
