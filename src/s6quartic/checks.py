"""Check registry, run configuration, and report emission.

Every verified claim is a named check: a pure function of the run
configuration returning (passed, details).  Checks are registered in a
fixed order, records are reported in that order, and a check that raises
is reported with status "error" without disturbing the others.

The exploratory scan ("scan-todd") is segregated from the default
registry: it searches family members selected by the configuration for
singular points with alphabet-restricted coordinates, and asserts only
that whatever it finds consists of ordinary double points.  It runs only
when selected by name.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED
from .linalg import TSolutionSet, gram_matrix
from .parsing import ParseError, parse_scalar_list
from .perms import (
    GENERATE_CAP,
    PermGroup,
    Permutation,
    STANDARD_LABELS,
    irreducible_degrees,
    orbit_and_stabilizer,
    semidirect_structure_check,
)
from .varieties import (
    CUBE_ROOT_POINT,
    DEFAULT_SCAN_CAP,
    QUADRIC_PAIR,
    QUADRIC_SURFACES,
    SIGN_POINT,
    act_on_point,
    act_on_variety,
    incidence_table,
    is_node,
    is_singular_on_family,
    projective_orbit,
    restriction_factorization_check,
    scan_alphabet,
    singular_t_values,
    variety_eq,
)

# The label permutations generating the order-20 group, in one-line
# notation on {1..5}: tau has order 4, h has order 5, s is the swap that
# fixes one quadric while moving the distinguished point.
TAU = Permutation((1, 3, 5, 2, 4))
H_SHIFT = Permutation((2, 3, 4, 5, 1))
S_SWAP = Permutation((2, 1, 3, 4, 5))

DEFAULT_ALPHABETS = {
    "pm1": (1, -1),
    "zero_pm1": (0, 1, -1),
    "cube_roots": (Eisenstein(1), OMEGA, OMEGA_SQUARED),
    "sixth_roots": (
        Eisenstein(1),
        Eisenstein(-1),
        OMEGA,
        -OMEGA,
        OMEGA_SQUARED,
        -OMEGA_SQUARED,
    ),
}


class ConfigError(ValueError):
    """A configuration or usage problem; maps to process exit code 2."""


@dataclass
class RunConfig:
    """Everything a run of the registry depends on.

    selected_checks empty means the full default registry.  t_values and
    scan_alphabet feed only the exploratory scan; the registry checks pin
    their own parameter values.
    """

    selected_checks: tuple = ()
    t_values: tuple = (Fraction(6),)
    alphabets: dict = field(default_factory=lambda: dict(DEFAULT_ALPHABETS))
    scan_alphabet: str = "pm1"
    enum_cap: int = DEFAULT_SCAN_CAP
    group_cap: int = GENERATE_CAP
    output: str = "text"


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    paper_anchor: str
    status: str  # "pass", "fail", or "error"
    details: dict
    elapsed: int  # milliseconds


def _induced(label_perm: Permutation) -> Permutation:
    return STANDARD_LABELS.induced_variable_permutation(label_perm)


@lru_cache(maxsize=8)
def _label_group(cap: int) -> PermGroup:
    return PermGroup.generate([TAU, H_SHIFT], cap=cap)


@lru_cache(maxsize=1)
def _coordinate_group() -> PermGroup:
    return PermGroup.symmetric(6)


@lru_cache(maxsize=1)
def _singular_orbits():
    group = _coordinate_group()
    return (
        projective_orbit(group, CUBE_ROOT_POINT),
        projective_orbit(group, SIGN_POINT),
    )


# -- the checks ---------------------------------------------------------------


def _check_group_structure(cfg: RunConfig):
    group = _label_group(cfg.group_cap)
    translations = PermGroup.generate([H_SHIFT], cap=cfg.group_cap)
    complement = PermGroup.generate([TAU], cap=cfg.group_cap)
    semidirect = semidirect_structure_check(group, translations, complement)
    details = {
        "group_order": group.order,
        "translation_order": translations.order,
        "complement_order": complement.order,
        "semidirect": semidirect,
        "normal_subgroup_orders": [n.order for n in group.normal_subgroups()],
    }
    ok = group.order == 20 and translations.order == 5 and semidirect
    return ok, details


def _check_lemma_2_1(cfg: RunConfig):
    expected = [c in (0, 2) for c in range(4)]
    details = {}
    ok = True
    for i, quadric in enumerate(QUADRIC_SURFACES):
        row = []
        for c in range(4):
            image = act_on_variety(_induced(TAU**c), quadric)
            row.append(image.contains(CUBE_ROOT_POINT))
        details[f"q{i + 1}"] = row
        ok = ok and row == expected
    details["expected"] = expected
    return ok, details


_HIT_PAIRS = frozenset(
    {(0, 0), (3, 0), (4, 0), (0, 2), (3, 3), (1, 2), (4, 2), (1, 1)}
)


def _check_lemma_2_2(cfg: RunConfig):
    details = {"expected_pairs": sorted(_HIT_PAIRS)}
    ok = True
    for i, quadric in enumerate(QUADRIC_SURFACES):
        hits = set()
        for a in range(5):
            for b in range(4):
                image = act_on_variety(
                    _induced(H_SHIFT**a * TAU**b), quadric
                )
                if image.contains(CUBE_ROOT_POINT):
                    hits.add((a, b))
        images = {
            name: act_on_variety(_induced(perm), quadric)
            for name, perm in {
                "t2": TAU**2,
                "h3": H_SHIFT**3,
                "h4": H_SHIFT**4,
                "h4t2": H_SHIFT**4 * TAU**2,
                "ht2": H_SHIFT * TAU**2,
                "h3t3": H_SHIFT**3 * TAU**3,
                "ht": H_SHIFT * TAU,
            }.items()
        }
        o = CUBE_ROOT_POINT
        bullets = [
            variety_eq(images["t2"], images["h4"])
            and images["t2"].contains(o)
            and not variety_eq(images["t2"], quadric),
            variety_eq(images["h4t2"], images["h3"])
            and images["h4t2"].contains(o)
            and not variety_eq(images["h4t2"], quadric)
            and not variety_eq(images["h4t2"], images["t2"]),
            variety_eq(images["ht2"], quadric),
            variety_eq(images["h3t3"], images["ht"])
            and images["h3t3"].contains(o)
            and not variety_eq(images["h3t3"], quadric)
            and not variety_eq(images["h3t3"], images["t2"])
            and not variety_eq(images["h3t3"], images["h4t2"]),
        ]
        details[f"q{i + 1}_hit_pairs"] = sorted(hits)
        details[f"q{i + 1}_bullets"] = bullets
        ok = ok and hits == _HIT_PAIRS and all(bullets)
    return ok, details


def _check_divisor_incidence(cfg: RunConfig):
    group = _label_group(cfg.group_cap)
    orbit, stabilizer = orbit_and_stabilizer(
        group,
        QUADRIC_SURFACES[0],
        lambda g, v: act_on_variety(_induced(g), v),
    )
    table = incidence_table(
        group, STANDARD_LABELS, QUADRIC_SURFACES[0], CUBE_ROOT_POINT
    )
    multiplicities = sorted(table.multiplicity.values())
    details = {
        "orbit_size": len(orbit),
        "stabilizer_order": stabilizer.order,
        "stabilizer": [str(g) for g in stabilizer],
        "hit_count": table.hit_count,
        "distinct_through_point": len(table.distinct_through_point),
        "multiplicities": multiplicities,
    }
    ok = (
        len(orbit) == 10
        and stabilizer.order == 2
        and len(table.distinct_through_point) == 4
        and multiplicities == [2, 2, 2, 2]
    )
    return ok, details


def _check_smooth_quadrics(cfg: RunConfig):
    ranks = [
        gram_matrix(q, (0, 1, 2, 3)).rank() for q in QUADRIC_PAIR
    ]
    return ranks == [4, 4], {"gram_ranks": ranks}


def _check_factorization(cfg: RunConfig):
    result = restriction_factorization_check(Fraction(6))
    details = {
        "factors": result.factors,
        "scalar": str(result.scalar) if result.scalar is not None else None,
    }
    return result.factors, details


def _check_sing_orbits(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    all_singular = all(
        is_singular_on_family(Fraction(6), p)
        for p in orbit_o + orbit_sign
    )
    disjoint = not set(orbit_o) & set(orbit_sign)
    details = {
        "orbit_sizes": [len(orbit_o), len(orbit_sign)],
        "all_singular": all_singular,
        "disjoint": disjoint,
    }
    ok = (
        len(orbit_o) == 30
        and len(orbit_sign) == 10
        and all_singular
        and disjoint
    )
    return ok, details


def _check_node_types(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    points = orbit_o + orbit_sign
    node_count = sum(1 for p in points if is_node(Fraction(6), p))
    details = {"points": len(points), "node_count": node_count}
    return len(points) == 40 and node_count == 40, details


def _check_s_fixes_q1(cfg: RunConfig):
    swap = _induced(S_SWAP)
    fixes = variety_eq(
        act_on_variety(swap, QUADRIC_SURFACES[0]), QUADRIC_SURFACES[0]
    )
    moves = act_on_point(swap, CUBE_ROOT_POINT) != CUBE_ROOT_POINT
    details = {"fixes_quadric": fixes, "moves_base_point": moves}
    return fixes and moves, details


def _check_irrep_degrees(cfg: RunConfig):
    degrees = irreducible_degrees(_label_group(cfg.group_cap))
    details = {"degrees": list(degrees)}
    return degrees == (1, 1, 1, 1, 4), details


def _check_h_invariant_p3(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    points = orbit_o + orbit_sign
    violations = [
        str(p)
        for p in points
        if not p[5] and not sum(p.coords[:5], Eisenstein(0))
    ]
    details = {"points_checked": len(points), "violations": violations}
    return len(points) == 40 and not violations, details


def _check_special_t(cfg: RunConfig):
    at_cube = singular_t_values(CUBE_ROOT_POINT)
    at_sign = singular_t_values(SIGN_POINT)
    details = {"cube_root_point": str(at_cube), "sign_point": str(at_sign)}
    ok = at_cube.is_all and at_sign == TSolutionSet.finite([Fraction(6)])
    return ok, details


def _check_scan_smoke(cfg: RunConfig):
    found_6 = scan_alphabet(Fraction(6), (1, -1), cfg.enum_cap)
    found_7 = scan_alphabet(Fraction(7), (1, -1), cfg.enum_cap)
    _, orbit_sign = _singular_orbits()
    matches = set(found_6) == set(orbit_sign) and len(found_6) == 10
    details = {
        "t6_count": len(found_6),
        "t6_matches_sign_orbit": matches,
        "t7_count": len(found_7),
    }
    return matches and not found_7, details


def _check_scan_todd(cfg: RunConfig):
    alphabet = cfg.alphabets[cfg.scan_alphabet]
    per_t = {}
    ok = True
    for t in cfg.t_values:
        found = scan_alphabet(t, alphabet, cfg.enum_cap)
        nodes = sum(1 for p in found if is_node(t, p))
        per_t[str(Fraction(t))] = {"found": len(found), "nodes": nodes}
        ok = ok and nodes == len(found)
    details = {"alphabet": cfg.scan_alphabet, "per_t": per_t}
    return ok, details


_REGISTRY = (
    ("group-structure", "§2.2", _check_group_structure),
    ("lemma-2-1", "Lemma 2.1", _check_lemma_2_1),
    ("lemma-2-2", "Lemma 2.2", _check_lemma_2_2),
    ("divisor-incidence", "Eq. (2.2)", _check_divisor_incidence),
    ("smooth-quadrics", "§2.3", _check_smooth_quadrics),
    ("factorization", "§2.1", _check_factorization),
    ("sing-orbits", "§2.3", _check_sing_orbits),
    ("node-types", "Example 1.2", _check_node_types),
    ("s-fixes-q1", "§2.3", _check_s_fixes_q1),
    ("irrep-degrees", "Lemma not-gl-3", _check_irrep_degrees),
    ("h-invariant-p3", "§3", _check_h_invariant_p3),
    ("special-t", "§1", _check_special_t),
    ("scan-smoke", "Example 1.2", _check_scan_smoke),
)

_EXPLORATORY = (("scan-todd", "Example 1.2", _check_scan_todd),)

REGISTRY_CHECK_IDS = tuple(cid for cid, _, _ in _REGISTRY)
ALL_CHECK_IDS = REGISTRY_CHECK_IDS + tuple(cid for cid, _, _ in _EXPLORATORY)


def validate_config(cfg: RunConfig) -> None:
    if cfg.enum_cap <= 0 or cfg.group_cap <= 0:
        raise ConfigError("caps must be positive")
    if cfg.output not in ("text", "structured"):
        raise ConfigError(f"unknown output mode {cfg.output!r}")
    unknown = [c for c in cfg.selected_checks if c not in ALL_CHECK_IDS]
    if unknown:
        raise ConfigError(f"unknown check ids: {', '.join(sorted(unknown))}")
    if cfg.scan_alphabet not in cfg.alphabets:
        raise ConfigError(f"unknown alphabet {cfg.scan_alphabet!r}")
    for name, letters in cfg.alphabets.items():
        if not letters:
            raise ConfigError(f"alphabet {name!r} is empty")
    wants_scan = not cfg.selected_checks or "scan-todd" in cfg.selected_checks
    if wants_scan and not cfg.t_values:
        raise ConfigError("t_values must be nonempty")


def run_checks(cfg: RunConfig) -> list:
    """Execute the selected checks in registry order and collect records."""
    validate_config(cfg)
    table = {cid: (anchor, fn) for cid, anchor, fn in _REGISTRY + _EXPLORATORY}
    if cfg.selected_checks:
        position = {cid: k for k, cid in enumerate(ALL_CHECK_IDS)}
        selected = sorted(set(cfg.selected_checks), key=position.get)
    else:
        selected = list(REGISTRY_CHECK_IDS)
    records = []
    for check_id in selected:
        anchor, fn = table[check_id]
        start = time.perf_counter()
        try:
            ok, details = fn(cfg)
            status = "pass" if ok else "fail"
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            status = "error"
            details = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = round((time.perf_counter() - start) * 1000)
        records.append(CheckRecord(check_id, anchor, status, details, elapsed))
    return records


def all_passed(records) -> bool:
    return all(r.status == "pass" for r in records)


def emit_report(records, mode: str) -> bytes:
    """Render records as bytes: a table ("text") or JSON lines ("structured").

    Output is a pure function of the records, so equal inputs give
    byte-identical reports.
    """
    if mode == "structured":
        lines = []
        for r in records:
            payload = {
                "check_id": r.check_id,
                "paper_anchor": r.paper_anchor,
                "status": r.status,
                "details": r.details,
                "elapsed": r.elapsed,
            }
            lines.append(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            )
        return "".join(line + "\n" for line in lines).encode("utf-8")
    if mode != "text":
        raise ValueError(f"unknown report mode {mode!r}")
    header = f"{'CHECK':<20} {'ANCHOR':<16} {'STATUS':<7} {'ELAPSED':>10}"
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.check_id:<20} {r.paper_anchor:<16} {r.status:<7} "
            f"{r.elapsed:>7} ms"
        )
        if r.status != "pass":
            lines.append(
                "    "
                + json.dumps(r.details, sort_keys=True, separators=(",", ":"))
            )
    if records:
        passed = sum(1 for r in records if r.status == "pass")
        lines.append("-" * len(header))
        lines.append(f"{passed}/{len(records)} checks passed")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- configuration loading ----------------------------------------------------


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text.strip()!r}: {exc}") from exc


def _parse_positive_int(text: str, what: str) -> int:
    try:
        value = int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text.strip()!r}") from exc
    if value <= 0:
        raise ConfigError(f"{what} must be positive")
    return value


def normalize_format(text: str) -> str:
    name = text.strip().lower()
    if name in ("text",):
        return "text"
    if name in ("json", "structured"):
        return "structured"
    raise ConfigError(f"unknown format {text!r}")


def parse_alphabet_text(text: str) -> tuple:
    """An inline alphabet: a bracketed list of field elements."""
    try:
        return tuple(parse_scalar_list(text))
    except ParseError as exc:
        raise ConfigError(f"bad alphabet list: {exc}") from exc


def load_config(path: str) -> dict:
    """Parse the INI-style config file into RunConfig field overrides.

    Sections: [run] checks/format/t, [caps] enum/group, [scan] alphabet,
    and [alphabets] defining extra named alphabets as bracketed lists.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    known = {"run", "caps", "scan", "alphabets"}
    stray = set(parser.sections()) - known
    if stray:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(stray))}")
    overrides = {}
    alphabets = dict(DEFAULT_ALPHABETS)
    if parser.has_section("alphabets"):
        for name, raw in parser["alphabets"].items():
            alphabets[name] = parse_alphabet_text(raw)
        overrides["alphabets"] = alphabets
    if parser.has_section("run"):
        run = parser["run"]
        if "checks" in run:
            raw = run["checks"].strip()
            if raw == "all":
                overrides["selected_checks"] = ()
            else:
                overrides["selected_checks"] = tuple(
                    part.strip() for part in raw.split(",") if part.strip()
                )
        if "format" in run:
            overrides["output"] = normalize_format(run["format"])
        if "t" in run:
            overrides["t_values"] = tuple(
                parse_rational(part)
                for part in run["t"].split(",")
                if part.strip()
            )
    if parser.has_section("caps"):
        caps = parser["caps"]
        if "enum" in caps:
            overrides["enum_cap"] = _parse_positive_int(caps["enum"], "enum cap")
        if "group" in caps:
            overrides["group_cap"] = _parse_positive_int(
                caps["group"], "group cap"
            )
    if parser.has_section("scan"):
        scan = parser["scan"]
        if "alphabet" in scan:
            raw = scan["alphabet"].strip()
            if raw.startswith("["):
                alphabets = dict(overrides.get("alphabets", alphabets))
                alphabets["config-inline"] = parse_alphabet_text(raw)
                overrides["alphabets"] = alphabets
                overrides["scan_alphabet"] = "config-inline"
            else:
                overrides["scan_alphabet"] = raw
    return overrides


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    return replace(cfg, **overrides)
