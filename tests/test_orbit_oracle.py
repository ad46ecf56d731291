"""The orbit builder against the public constructor on every rearrangement.

The package scales a tuple of cleared int pairs once per distinct nonzero
value and builds every point of its S6 orbit from that batch
(varieties._orbit_points).  The oracle below is the plain path: every
distinct rearrangement of the tuple given to the public constructor.
Seeded tuples with zero coordinates (leading ones among them), w parts,
denominators and repeated values are compared with it, and no point may
be built twice.

A batch takes its arrangements from one set of the permutations of its
scaled pairs, keeping those led, after zeros, by the batch's (n, 0).
Every point, of a batch or of one arrangement (the constructor and
act_on_point), makes its text and sort key when str or sort_key first
reads them.  The oracles for those are Eisenstein.__str__ and
Eisenstein.sort_key of each coordinate.  Every such point also carries
the normal int pairs of its coordinates, checked against the field
oracle of tests/test_point_oracle.py.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint, scan_alphabet
from s6quartic import projective_orbit, varieties
from s6quartic.eisenstein import OMEGA, OMEGA_SQUARED, _cleared
from s6quartic.perms import Permutation
from s6quartic.poly import NVARS
from s6quartic.varieties import _orbit_points, _point
from s6quartic.varieties import act_on_point
from test_point_oracle import assert_normal

EXAMPLES = 300
SEED = 20160229


def oracle_orbit(coords) -> set:
    """The points of the distinct rearrangements of coords."""
    return {ProjectivePoint(c) for c in set(permutations(coords))}


def random_element(rng) -> Eisenstein:
    """A nonzero field element with small parts and denominators up to 4."""
    while True:
        value = Eisenstein(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if value:
            return value


def random_tuple(rng) -> list:
    """Six coordinates drawn from zero and at most three nonzero values,
    so values repeat, with up to three leading zeros; not all zero."""
    pool = [Eisenstein(0)] + [random_element(rng) for _ in range(rng.randint(1, 3))]
    while True:
        lead = rng.randint(0, 3)
        coords = [Eisenstein(0)] * lead + [
            rng.choice(pool) for _ in range(NVARS - lead)
        ]
        if any(coords):
            return coords


def cases():
    rng = random.Random(SEED)
    return [random_tuple(rng) for _ in range(EXAMPLES)]


def built_once(points) -> set:
    found = set(points)
    assert len(found) == len(points), "a point was built twice"
    return found


@pytest.mark.parametrize("chunk", range(6))
def test_orbit_points_match_the_keyed_rearrangements(chunk):
    for coords in cases()[chunk::6]:
        xs = _cleared(coords)
        assert built_once(_orbit_points(xs, set())) == oracle_orbit(coords)


def test_values_that_scale_to_the_same_pairs_keep_their_norms():
    """1 and 2 scale [1 : 2 : -3 : 1 : 2 : -3] to the same pairs, with
    norms 1 and 2; the points led by 1 and those led by 2 differ."""
    coords = [1, 2, -3, 1, 2, -3]
    points = built_once(_orbit_points(_cleared(map(Eisenstein, coords)), set()))
    assert points == oracle_orbit(coords)
    assert len(points) == 90
    # Led by 1, by 2 and by -3: three batches of 30.
    assert {frozenset(p) for p in points} == {
        frozenset(map(Eisenstein, values))
        for values in (
            (1, 2, -3),
            (Fraction(1, 2), 1, Fraction(-3, 2)),
            (Fraction(-1, 3), Fraction(-2, 3), 1),
        )
    }


def test_a_scalar_multiple_adds_no_points():
    rng = random.Random(SEED + 1)
    for coords in cases()[:60]:
        scale = random_element(rng)
        seen = set()
        first = _orbit_points(_cleared(coords), seen)
        assert first
        assert _orbit_points(_cleared([scale * c for c in coords]), seen) == []


def test_projective_orbit_matches_the_oracle_in_order():
    for coords in cases()[:50]:
        point = ProjectivePoint(coords)
        expected = sorted(oracle_orbit(coords), key=ProjectivePoint.sort_key)
        assert list(projective_orbit(point)) == expected


def test_sixth_roots_at_t6_build_each_point_once(monkeypatch):
    """The first scan at t = 6 builds the member's locus, the 40 points of
    the cube-root and sign orbits, each once; sixth_roots spells them all.
    A second scan builds no point."""
    built = []

    def counted(*args):
        point = _point(*args)
        built.append(point)
        return point

    monkeypatch.setattr(varieties, "_LOCI", {})
    monkeypatch.setattr(varieties, "_point", counted)
    found = scan_alphabet(6, DEFAULT_ALPHABETS["sixth_roots"])
    assert len(found) == 40
    assert built_once(built) == set(found)
    assert scan_alphabet(6, DEFAULT_ALPHABETS["sixth_roots"]) == found
    assert len(built) == 40


# -- texts and sort keys ------------------------------------------------------


def oracle_text(coords) -> str:
    return "[" + " : ".join(Eisenstein.__str__(c) for c in coords) + "]"


def oracle_key(coords) -> tuple:
    return tuple(Eisenstein.sort_key(c) for c in coords)


def assert_joined(points):
    """Every point's str and sort_key equal the per-coordinate oracles and
    are made once: later reads return the objects kept in the slots.  Its
    pairs and coordinates are in the oracle's normal form."""
    assert points
    for point in points:
        text, key = str(point), point.sort_key()
        coords = point.coords
        assert_normal(point, coords)
        assert text == oracle_text(coords)
        assert key == oracle_key(coords)
        assert str(point) is text is point._text
        assert point.sort_key() is key is point._key


def seeded_alphabets():
    """The letters of [1 : 2 : -3 : 1 : 2 : -3], singular at t = 4, and of
    the cube-root and sign points, each times a seeded letter with a w part
    and a denominator, with and without zero and one more seeded letter."""
    rng = random.Random(SEED + 2)
    alphabets = []
    for t, letters in (
        (Fraction(4), (1, 2, -3)),
        (Fraction(6), (1, -1)),
        (Fraction(5, 3), (1, OMEGA, OMEGA_SQUARED)),
    ):
        for extra in ((), (0,), (0, random_element(rng))):
            scale = random_element(rng)
            alphabets.append((t, [scale * c for c in letters + extra]))
    return alphabets


def test_scanned_points_join_their_texts_and_keys():
    norms = set()
    for t, alphabet in seeded_alphabets():
        points = scan_alphabet(t, alphabet)
        assert_joined(points)
        norms |= {c._parts()[2] for p in points for c in p}
    # [1 : 2 : -3 : 1 : 2 : -3] is led by 1, 2 and -3: norms 1, 2 and 3.
    assert {1, 2, 3} <= norms


def test_orbit_points_join_their_texts_and_keys():
    norms = set()
    for coords in cases():
        points = _orbit_points(_cleared(coords), set())
        assert_joined(points)
        norms |= {c._parts()[2] for p in points for c in p}
    assert len(norms) > 3


def test_projective_orbit_and_act_on_point_texts_and_keys():
    """The image of act_on_point is also the constructor's point of the
    moved coordinates: (g.p)_{g(i)} = p_i."""
    images = [2, 3, 1, 6, 4, 5]
    perm = Permutation(images)
    for coords in cases()[:50]:
        point = ProjectivePoint(coords)
        # A single point makes its text and key only when they are read.
        assert point._text is None and point._key is None
        assert_joined([point])
        assert_joined(projective_orbit(point))
        moved = [None] * NVARS
        for i, target in enumerate(images):
            moved[target - 1] = coords[i]
        image = act_on_point(perm, point)
        assert_joined([image])
        assert image == ProjectivePoint(moved)


# -- the locus table ----------------------------------------------------------


def test_the_table_is_keyed_by_shape_not_by_t(monkeypatch):
    """The first scan at a generic t builds the generic locus; 99 more
    fresh t read the locus table and it does not grow.  The special
    members add one locus each, four in all.  Each scan finds the
    cube-root orbit, which lies on every member."""
    monkeypatch.setattr(varieties, "_LOCI", {})

    def scan(t):
        return scan_alphabet(t, [0, 1, -1, OMEGA, OMEGA_SQUARED])

    for k in range(100):
        assert len(scan(Fraction(2 * k + 1, 11))) == 30
    assert list(varieties._LOCI) == [()]
    for t in (6, 2, Fraction(10, 7)) * 2:
        assert len(scan(t)) >= 30
    assert len(varieties._LOCI) == 4
