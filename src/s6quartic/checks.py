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

import json
import re
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED
from .errors import ConfigError
from .linalg import TSolutionSet, gram_rank
from .perms import (
    PermGroup,
    Permutation,
    STANDARD_LABELS,
    irreducible_degrees,
    orbit_and_stabilizer,
    semidirect_structure_check,
)
from .poly import family_parameter
from .varieties import (
    CUBE_ROOT_POINT,
    PLANE_FORMS,
    QUADRIC_PAIR,
    QUADRIC_SURFACES,
    SIGN_POINT,
    _locus,
    act_on_point,
    act_on_variety,
    is_node,
    is_singular_on_family,
    projective_orbit,
    restriction_factorization_check,
    scan_alphabet,
    singular_t_values,
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


class RunConfig(
    namedtuple(
        "RunConfig",
        "selected_checks t_values scan_alphabet",
        defaults=((), (Fraction(6),), "pm1"),
    )
):
    """Everything a run of the registry depends on; an immutable record.

    selected_checks empty means the full default registry.  t_values and
    scan_alphabet (see alphabet_letters) feed only the exploratory scan;
    the registry checks pin their own parameter values.
    """

    __slots__ = ()


# status is "pass", "fail" or "error"; elapsed is in milliseconds.
CheckRecord = namedtuple("CheckRecord", "check_id paper_anchor status details elapsed")


@lru_cache(maxsize=1)
def _label_group() -> PermGroup:
    return PermGroup.generate([TAU, H_SHIFT])


@lru_cache(maxsize=1)
def _singular_orbits():
    return projective_orbit(CUBE_ROOT_POINT), projective_orbit(SIGN_POINT)


# The supports of PLANE_FORMS.  Their sums span no other 0/1 vector with
# three ones, so a permutation keeps the plane iff it maps blocks to blocks.
_PLANE_BLOCKS = frozenset(frozenset(f.variables_used()) for f in PLANE_FORMS)


def _keeps_plane(perm: Permutation) -> bool:
    m = perm.index_map()
    return {frozenset(m[i] for i in b) for b in _PLANE_BLOCKS} == _PLANE_BLOCKS


@lru_cache(maxsize=1)
def _label_action() -> tuple:
    """(g, its coordinate permutation, g^-1.o) for each label element g."""
    rows = []
    for g in _label_group():
        perm = STANDARD_LABELS.induced_variable_permutation(g)
        rows.append((g, perm, act_on_point(perm.inverse(), CUBE_ROOT_POINT)))
    return tuple(rows)


@lru_cache(maxsize=len(QUADRIC_SURFACES))
def _quadric_translates(index: int) -> tuple:
    """(cosets, hits) for the label group's translates g.S of one quadric
    surface S; Lemmas 2.1 and 2.2 and Eq. (2.2) all read them.  g.S = h.S
    iff h^-1 g lies in K = Stab(S), so cosets maps each g to the coset gK
    naming its translate; only plane-keeping elements can lie in K.  hits
    holds the g with o in g.S, i.e. g^-1.o in S, by the dual point action.
    """
    quadric = QUADRIC_SURFACES[index]
    action = _label_action()
    stabilizer = [
        g
        for g, perm, _ in action
        if _keeps_plane(perm) and act_on_variety(perm, quadric) == quadric
    ]
    cosets = {g: frozenset(g * k for k in stabilizer) for g, _, _ in action}
    hits = {g for g, _, image in action if quadric.contains(image)}
    return cosets, hits


# -- the checks ---------------------------------------------------------------


def _check_group_structure(cfg: RunConfig):
    group = _label_group()
    translations = PermGroup.generate([H_SHIFT])
    complement = PermGroup.generate([TAU])
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
    for i in range(len(QUADRIC_SURFACES)):
        _, hits = _quadric_translates(i)
        row = [TAU**c in hits for c in range(4)]
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
    elements = {(a, b): H_SHIFT**a * TAU**b for a in range(5) for b in range(4)}
    for i in range(len(QUADRIC_SURFACES)):
        cosets, hit_elements = _quadric_translates(i)
        # Each translate is named by its coset.
        images = {pair: cosets[g] for pair, g in elements.items()}
        hits = {pair for pair, g in elements.items() if g in hit_elements}
        quadric = images[0, 0]
        t2, h3, h4, ht = images[0, 2], images[3, 0], images[4, 0], images[1, 1]
        h4t2, ht2, h3t3 = images[4, 2], images[1, 2], images[3, 3]
        bullets = [
            t2 == h4 and (0, 2) in hits and t2 != quadric,
            h4t2 == h3 and (4, 2) in hits and h4t2 != quadric and h4t2 != t2,
            ht2 == quadric,
            h3t3 == ht
            and (3, 3) in hits
            and h3t3 != quadric
            and h3t3 != t2
            and h3t3 != h4t2,
        ]
        details[f"q{i + 1}_hit_pairs"] = sorted(hits)
        details[f"q{i + 1}_bullets"] = bullets
        ok = ok and hits == _HIT_PAIRS and all(bullets)
    return ok, details


def _check_divisor_incidence(cfg: RunConfig):
    group = _label_group()
    cosets, hits = _quadric_translates(0)
    # The translate g.S is named by its coset gK, and S by K itself.
    orbit, stabilizer = orbit_and_stabilizer(
        group, cosets[group.identity()], lambda g, _: cosets[g]
    )
    table = Counter(cosets[g] for g in hits)
    multiplicities = sorted(table.values())
    details = {
        "orbit_size": len(orbit),
        "stabilizer_order": stabilizer.order,
        "stabilizer": [str(g) for g in stabilizer],
        "hit_count": sum(multiplicities),
        "distinct_through_point": len(table),
        "multiplicities": multiplicities,
    }
    ok = (
        len(orbit) == 10
        and stabilizer.order == 2
        and len(table) == 4
        and multiplicities == [2, 2, 2, 2]
    )
    return ok, details


def _check_smooth_quadrics(cfg: RunConfig):
    ranks = [gram_rank(q, (0, 1, 2, 3)) for q in QUADRIC_PAIR]
    return ranks == [4, 4], {"gram_ranks": ranks}


def _check_factorization(cfg: RunConfig):
    scalar = restriction_factorization_check(Fraction(6))
    factors = scalar is not None
    details = {"factors": factors, "scalar": str(scalar) if factors else None}
    return factors, details


def _check_sing_orbits(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    all_singular = all(
        is_singular_on_family(Fraction(6), p)
        for p in orbit_o + orbit_sign
    )
    disjoint = not set(orbit_o) & set(orbit_sign)
    # Completeness: the closed-form singular locus of the t = 6 member (see
    # scan_alphabet) is exactly the two orbits.
    complete = {p for p, _ in _locus(Fraction(6))[1]} == set(orbit_o + orbit_sign)
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
        and complete
    )
    return ok, details


def _check_node_types(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    points = orbit_o + orbit_sign
    node_count = sum(1 for p in points if is_node(Fraction(6), p))
    details = {"points": len(points), "node_count": node_count}
    return len(points) == 40 and node_count == 40, details


def _check_s_fixes_q1(cfg: RunConfig):
    swap = STANDARD_LABELS.induced_variable_permutation(S_SWAP)
    fixes = act_on_variety(swap, QUADRIC_SURFACES[0]) == QUADRIC_SURFACES[0]
    moves = act_on_point(swap, CUBE_ROOT_POINT) != CUBE_ROOT_POINT
    details = {"fixes_quadric": fixes, "moves_base_point": moves}
    return fixes and moves, details


def _check_irrep_degrees(cfg: RunConfig):
    degrees = irreducible_degrees(_label_group())
    details = {"degrees": list(degrees)}
    return degrees == (1, 1, 1, 1, 4), details


def _check_h_invariant_p3(cfg: RunConfig):
    orbit_o, orbit_sign = _singular_orbits()
    points = orbit_o + orbit_sign
    # Every orbit point has sum(x) = 0, so x5 = 0 alone puts it in the P^3.
    violations = [str(p) for p in points if not p[5]]
    details = {"points_checked": len(points), "violations": violations}
    return len(points) == 40 and not violations, details


def _check_special_t(cfg: RunConfig):
    at_cube = singular_t_values(CUBE_ROOT_POINT)
    at_sign = singular_t_values(SIGN_POINT)
    details = {"cube_root_point": str(at_cube), "sign_point": str(at_sign)}
    ok = at_cube.is_all and at_sign == TSolutionSet.finite([Fraction(6)])
    return ok, details


def _check_scan_smoke(cfg: RunConfig):
    found_6 = scan_alphabet(Fraction(6), (1, -1))
    found_7 = scan_alphabet(Fraction(7), (1, -1))
    _, orbit_sign = _singular_orbits()
    matches = set(found_6) == set(orbit_sign) and len(found_6) == 10
    details = {
        "t6_count": len(found_6),
        "t6_matches_sign_orbit": matches,
        "t7_count": len(found_7),
    }
    return matches and not found_7, details


def _check_scan_todd(cfg: RunConfig):
    alphabet = alphabet_letters(cfg.scan_alphabet)
    per_t = {}
    ok = True
    # A t given twice is reported once, so it is scanned once.
    for t in dict.fromkeys(family_parameter(t) for t in cfg.t_values):
        found = scan_alphabet(t, alphabet)
        nodes = sum(1 for p in found if is_node(t, p))
        per_t[str(t)] = {"found": len(found), "nodes": nodes}
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
    unknown = [c for c in cfg.selected_checks if c not in ALL_CHECK_IDS]
    if unknown:
        raise ConfigError(f"unknown check ids: {', '.join(sorted(unknown))}")
    alphabet_letters(cfg.scan_alphabet)
    if "scan-todd" in cfg.selected_checks and not cfg.t_values:
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


# -- settings given as text ---------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """An integer, p/q or decimal in ASCII.  Exponent notation is refused,
    since '1e10000000' alone asks Fraction for a 33-million-bit int, and so
    are the Unicode digits and '_' separators that Fraction would take.  A
    run of digits longer than Python converts to an int, and a zero
    denominator, are refused with messages of their own, which echo at
    most the first 32 characters of the text."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("only ASCII digits without '_' are accepted")
        text = text.strip()
        if "e" in text.lower():
            raise ValueError("exponent notation is not accepted")
        # Fraction converts each run of digits with int().
        digits = max(map(len, re.findall("[0-9]+", text)), default=0)
        limit = sys.get_int_max_str_digits()
        if limit and digits > limit:
            raise ValueError(f"literal too long ({digits} digits)")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(text[:32]) + (f"… ({len(text)} chars)" if len(text) > 32 else "")
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ConfigError(f"bad rational {shown}: {reason}") from None


def alphabet_letters(text: str) -> tuple:
    """The letters of an alphabet given as one of DEFAULT_ALPHABETS' names
    or as a bracketed list of field elements like '[1, -1, w]'.  Only a
    list loads the parser."""
    text = text.strip()
    if not text.startswith("["):
        if text in DEFAULT_ALPHABETS:
            return DEFAULT_ALPHABETS[text]
        known = ", ".join(sorted(DEFAULT_ALPHABETS))
        raise ConfigError(f"unknown alphabet {text!r}; known: {known}")
    from .parsing import ParseError, parse_scalar_list

    try:
        return parse_scalar_list(text)
    except ParseError as exc:
        raise ConfigError(f"bad alphabet list: {exc}") from exc
