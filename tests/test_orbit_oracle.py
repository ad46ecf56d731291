"""The orbit builder against the keying it replaced.

The package scales a tuple of cleared int pairs once per distinct nonzero
value and builds every point of its S6 orbit from that batch
(varieties._orbit_points).  The oracle below is the former path: every
distinct rearrangement of the tuple, reduced to its _projective_key, one
point per distinct key.  Seeded tuples with zero coordinates (leading ones
among them), w parts, denominators and repeated values are compared with
it, and no point may be built twice.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint, scan_alphabet
from s6quartic import projective_orbit, varieties
from s6quartic.eisenstein import _cleared
from s6quartic.poly import NVARS
from s6quartic.varieties import _coords, _orbit_points, _point, _projective_key

EXAMPLES = 300
SEED = 20160229


def oracle_orbit(xs) -> set:
    """One point per distinct key of the distinct rearrangements of xs."""
    keys = set(map(_projective_key, set(permutations(xs))))
    return {_point(_coords(key)) for key in keys}


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
        assert built_once(_orbit_points(xs, set())) == oracle_orbit(xs)


def test_values_that_scale_to_the_same_pairs_keep_their_norms():
    """1 and 2 scale [1 : 2 : -3 : 1 : 2 : -3] to the same pairs, with
    norms 1 and 2; the points led by 1 and those led by 2 differ."""
    xs = [(1, 0), (2, 0), (-3, 0), (1, 0), (2, 0), (-3, 0)]
    points = built_once(_orbit_points(xs, set()))
    assert points == oracle_orbit(xs)
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
        expected = sorted(
            oracle_orbit(_cleared(point.coords)), key=ProjectivePoint.sort_key
        )
        assert list(projective_orbit(point)) == expected


def test_sixth_roots_at_t6_build_each_point_once(monkeypatch):
    """Five tuples pass the test: three sixth-root multiples of the sign
    tuple and two of the cube-root tuple.  Each of the 40 points of their
    two orbits is built once."""
    built = []

    def counted(coords):
        point = _point(coords)
        built.append(point)
        return point

    monkeypatch.setattr(varieties, "_point", counted)
    found = scan_alphabet(6, DEFAULT_ALPHABETS["sixth_roots"])
    assert len(found) == 40
    assert built_once(built) == set(found)
