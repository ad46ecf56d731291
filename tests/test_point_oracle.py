"""ProjectivePoint's int-pair normalization against the field one it replaced.

The package clears a point's coordinates to (a, b) int pairs meaning
a + b*w and scales them by the first nonzero pair (varieties._scaled)
to 12 ints and a norm, the key from which the point is built.  The oracle
below is the former normalization on field elements: the inverse of the
first nonzero coordinate times each coordinate.  Seeded random tuples of
letters with denominators, w parts and zero coordinates are compared with
it, through the key and through the public constructor's point, its str
and its sort_key.
"""

import random
from fractions import Fraction

import pytest

from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint, scan_alphabet
from s6quartic.eisenstein import _cleared
from s6quartic.poly import NVARS
from s6quartic.varieties import _scaled

EXAMPLES = 400
SEED = 20151001


def oracle_coords(coords) -> tuple:
    """The coordinates scaled so that the first nonzero one is 1."""
    vals = [Eisenstein.coerce(c) for c in coords]
    pivot = next(c for c in vals if c)
    scale = pivot.inverse()
    return tuple(scale * c for c in vals)


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


def test_the_key_is_invariant_under_scaling(tuples):
    rng = random.Random(SEED + 1)
    for coords in tuples:
        scale = random_element(rng, nonzero=True)
        scaled = [scale * c for c in coords]
        assert key(scaled) == key(coords), (scale, coords)
        assert point(scaled) == point(coords), (scale, coords)


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
        assert point.coords == oracle_coords(point.coords)
    assert len({oracle_coords(p.coords) for p in found}) == len(found)
