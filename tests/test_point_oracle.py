"""ProjectivePoint's int-pair normalization against the field one it replaced.

The package clears a point's coordinates to (a, b) int pairs meaning
a + b*w and scales them by the first nonzero pair (varieties._scaled)
to 12 ints and a norm, the key from which the point is built.  The oracle
below is the former normalization on field elements: the inverse of the
first nonzero coordinate times each coordinate.  Seeded random tuples of
letters with denominators, w parts and zero coordinates are compared with
it, through the key and through the public constructor's point, its str
and its sort_key.

A point is its key's int pairs: equality and hashing compare them, and
the field coordinates are derived from them.  The oracle for the pairs is
the oracle's coordinates times the lcm of their denominators, checked on
points from the constructor, from orbits and from act_on_point, with
mixed norms.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint, scan_alphabet
from s6quartic import projective_orbit
from s6quartic.eisenstein import _cleared
from s6quartic.perms import Permutation
from s6quartic.poly import NVARS
from s6quartic.varieties import _scaled, act_on_point

EXAMPLES = 400
SEED = 20151001


def oracle_coords(coords) -> tuple:
    """The coordinates scaled so that the first nonzero one is 1."""
    vals = [Eisenstein.coerce(c) for c in coords]
    pivot = next(c for c in vals if c)
    scale = pivot.inverse()
    return tuple(scale * c for c in vals)


def oracle_pairs(vals) -> tuple:
    """Field values times the lcm n of their denominators, as (re, om) int
    pairs; on the oracle's coordinates the first nonzero one is (n, 0)."""
    parts = [(c.re, c.om) for c in vals]
    n = lcm(*(f.denominator for pair in parts for f in pair))
    return tuple((int(re * n), int(om * n)) for re, om in parts)


def assert_normal(p, coords):
    """p is the point of coords: it carries the oracle's pairs, which are
    also the _scaled key's, and derives the oracle's coordinates, alike by
    index, by iteration and through coords; its twin from the constructor
    on those coordinates is equal and hashes alike."""
    expected = oracle_coords(coords)
    ints = key(coords)
    assert p._pairs == oracle_pairs(expected) == tuple(zip(ints[:-1:2], ints[1::2]))
    derived = p.coords
    assert derived == expected
    assert [p[i] for i in range(NVARS)] == list(p) == list(derived)
    twin = ProjectivePoint(derived)
    assert twin == p and hash(twin) == hash(p)


def key(coords) -> tuple:
    """The 12 ints and the norm of coords _scaled by the first nonzero pair."""
    xs = _cleared([Eisenstein.coerce(c) for c in coords])
    return tuple(_scaled(xs, *next(filter(any, xs))))


def point(coords) -> tuple:
    """The public constructor's point with its str and sort_key, which
    equality and hashing do not see."""
    p = ProjectivePoint(coords)
    return p, str(p), p.sort_key()


def random_element(rng, nonzero=False) -> Eisenstein:
    """A field element with small parts and denominators up to 6."""
    while True:
        value = Eisenstein(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )
        if value or not nonzero:
            return value


def random_tuple(rng) -> list:
    """Six coordinates, each zero with probability 1/3, not all zero."""
    while True:
        coords = [
            Eisenstein(0) if rng.random() < 1 / 3 else random_element(rng)
            for _ in range(NVARS)
        ]
        if any(coords):
            return coords


def nearby_tuple(rng, coords) -> list:
    """A multiple of coords, a multiple with one coordinate changed, or a
    fresh tuple, so that both equal and unequal pairs occur."""
    choice = rng.randrange(3)
    if choice == 2:
        return random_tuple(rng)
    scale = random_element(rng, nonzero=True)
    other = [scale * c for c in coords]
    if choice == 1:
        other[rng.randrange(NVARS)] = random_element(rng)
    return other if any(other) else coords


@pytest.fixture(scope="module")
def tuples():
    rng = random.Random(SEED)
    return [random_tuple(rng) for _ in range(EXAMPLES)]


def test_point_coordinates_match_the_oracle(tuples):
    for coords in tuples:
        assert ProjectivePoint(coords).coords == oracle_coords(coords), coords


def test_points_carry_the_oracle_pairs(tuples):
    """Constructor points and their images under a permutation, which are
    the points of the moved coordinates, and the orbits of a few (most
    have 720 points)."""
    images = [2, 3, 1, 6, 4, 5]
    perm = Permutation(images)
    norms = set()
    for coords in tuples[:100]:
        p = ProjectivePoint(coords)
        assert_normal(p, coords)
        moved = [None] * NVARS
        for i, target in enumerate(images):
            moved[target - 1] = coords[i]
        assert_normal(act_on_point(perm, p), moved)
        norms.add(next(filter(any, p._pairs))[0])
    for coords in tuples[:3]:
        for q in projective_orbit(ProjectivePoint(coords)):
            assert_normal(q, q.coords)
            norms.add(next(filter(any, q._pairs))[0])
    assert len(norms) > 10


def test_the_key_is_invariant_under_scaling(tuples):
    rng = random.Random(SEED + 1)
    for coords in tuples:
        scale = random_element(rng, nonzero=True)
        scaled = [scale * c for c in coords]
        assert key(scaled) == key(coords), (scale, coords)
        assert point(scaled) == point(coords), (scale, coords)
        assert hash(ProjectivePoint(scaled)) == hash(ProjectivePoint(coords))


def test_keys_agree_exactly_when_the_oracle_points_agree(tuples):
    rng = random.Random(SEED + 2)
    outcomes = set()
    for coords in tuples:
        other = nearby_tuple(rng, coords)
        same = oracle_coords(other) == oracle_coords(coords)
        assert (key(other) == key(coords)) == same, (coords, other)
        assert (point(other) == point(coords)) == same, (coords, other)
        # Distinct points print distinctly.
        assert (point(other)[1] == point(coords)[1]) == same
        outcomes.add(same)
    assert outcomes == {True, False}


def test_units_and_integers_need_no_denominator():
    assert key([0, 0, -1, 1, 0, 0]) == (0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 1)
    assert key([0, 2, 2, 2, 0, 0]) == key([0, 1, 1, 1, 0, 0])
    p, text, sort_key = point([0, 0, -1, 1, 0, 0])
    assert {c._parts()[2] for c in p} == {1}
    assert text == "[0 : 0 : 1 : -1 : 0 : 0]"
    assert sort_key == ((0, 0), (0, 0), (1, 0), (-1, 0), (0, 0), (0, 0))
    assert point([0, 2, 2, 2, 0, 0]) == point([0, 1, 1, 1, 0, 0])


@pytest.mark.parametrize("name", sorted(DEFAULT_ALPHABETS))
def test_scanned_points_are_in_oracle_normal_form(name):
    found = scan_alphabet(6, DEFAULT_ALPHABETS[name])
    for point in found:
        assert_normal(point, point.coords)
    assert len({oracle_coords(p.coords) for p in found}) == len(found)
