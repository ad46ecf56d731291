"""The closed-form singular locus against the enumeration it answers for.

For t not 0 or 4, scan_alphabet is a membership test against the proven
singular locus of the t-member (varieties._locus): the cube-root orbit,
plus one more orbit at t = 6, 2 and 10/7.  The package keeps the
enumeration that tests each multiset of six letters on the hyperplane
(varieties._scan_by_enumeration), complete at every t, for t = 0 and
t = 4.  Here it is the oracle: both are compared list for list, in
order, on every named alphabet and every alphabet of
tests/reference/scan-args.txt, at the special members, at generic ones
and at seeded rationals.  Every locus point is checked to be a singular
node of its member, and the four classes to have 30, 40, 45 and 36
points.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from s6quartic import (
    DEFAULT_ALPHABETS,
    Eisenstein,
    RunConfig,
    is_node,
    is_singular_on_family,
    run_checks,
    scan_alphabet,
)
from s6quartic import varieties
from s6quartic.checks import alphabet_letters

REFERENCE = Path(__file__).resolve().parent / "reference"
SEED = 20151001


def seeded_parameters():
    """40 seeded rationals outside {0, 4}, where the scan enumerates."""
    rng = random.Random(SEED)
    values = []
    while len(values) < 40:
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if t not in (0, 4):
            values.append(t)
    return values


# The special members with a finite locus, then generic ones.
T_VALUES = [
    Fraction(6),
    Fraction(2),
    Fraction(10, 7),
    Fraction(3, 2),
    Fraction(-3, 2),
    Fraction(7),
    Fraction(-11, 3),
    Fraction(1),
    Fraction(-5),
] + seeded_parameters()

ALPHABETS = (
    [DEFAULT_ALPHABETS[name] for name in sorted(DEFAULT_ALPHABETS)]
    + [
        alphabet_letters(line.split(";")[1])
        for line in (REFERENCE / "scan-args.txt").read_text().splitlines()
    ]
    + [[1, -5, Fraction(1, 5)], [1, Fraction(-1, 5)]]
)

# A member of each class, with the size of its locus.
CLASSES = {Fraction(3, 2): 30, Fraction(6): 40, Fraction(2): 45, Fraction(10, 7): 36}
GENERIC = T_VALUES[3:9]


def enumerated_scan(t, alphabet):
    letters = sorted({Eisenstein.coerce(c) for c in alphabet}, key=Eisenstein.sort_key)
    return varieties._scan_by_enumeration(t, letters)


def locus_points(t):
    _, points = varieties._locus(Fraction(t))
    return [p for p, _ in points]


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_the_closed_form_scan_matches_the_enumeration(t):
    for alphabet in ALPHABETS:
        assert scan_alphabet(t, alphabet) == enumerated_scan(t, alphabet)


def test_the_comparison_is_not_vacuous():
    """At a member of each class the alphabets together spell every point
    of its locus, and some scans find nothing."""
    for t in CLASSES:
        found = [scan_alphabet(t, alphabet) for alphabet in ALPHABETS]
        assert set().union(*found) == set(locus_points(t))
        assert [] in found


def test_the_classes_have_30_40_45_and_36_points():
    for t, size in CLASSES.items():
        points = locus_points(t)
        assert len(points) == len(set(points)) == size
    assert len(varieties._LOCI) <= 4


def test_every_locus_point_is_a_node_of_its_member():
    members = [(t, t) for t in CLASSES] + [(Fraction(3, 2), t) for t in GENERIC]
    for cls, t in members:
        for point in locus_points(cls):
            assert is_singular_on_family(t, point)
            assert is_node(t, point)


def test_the_locus_is_sorted_and_each_batch_shares_its_values():
    for t in CLASSES:
        batches, points = varieties._locus(t)
        keys = [p.sort_key() for p, _ in points]
        assert keys == sorted(keys)
        for p, i in points:
            values, n = batches[i]
            assert set(p._pairs) == set(values)
            assert next(filter(any, p._pairs)) == (n, 0)


def test_sing_orbits_fails_on_an_incomplete_locus(monkeypatch):
    batches, points = varieties._locus(Fraction(6))
    monkeypatch.setattr(
        varieties, "_LOCI", {varieties._EXTRA_ORBITS[6]: (batches, points[:-1])}
    )
    (record,) = run_checks(RunConfig(selected_checks=("sing-orbits",)))
    assert record.status == "fail"
