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

from .eisenstein import (
    Eisenstein,
    OMEGA,
)
from .poly import (
    Polynomial,
    quartic_family,
)
from .parsing import (
    ParseError,
    parse_point_coordinates,
    parse_polynomial,
)
from .linalg import gram_rank
from .perms import (
    PermGroup,
    STANDARD_LABELS,
    irreducible_degrees,
    orbit_and_stabilizer,
    semidirect_structure_check,
)
from .varieties import (
    CUBE_ROOT_POINT,
    PLANE_FORMS,
    ProjectivePoint,
    QUADRIC_PAIR,
    QUADRIC_SURFACES,
    SIGN_POINT,
    act_on_variety,
    family_member,
    is_node,
    is_singular_on_family,
    projective_orbit,
    restrict_to_plane,
    restriction_factorization_check,
    scan_alphabet,
    singular_t_values,
)
from .checks import (
    DEFAULT_ALPHABETS,
    H_SHIFT,
    RunConfig,
    TAU,
    all_passed,
    emit_report,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
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
