"""The orbit builder against the keying it replaced.

The package scales a tuple of cleared int pairs once per distinct nonzero
value and builds every point of its S6 orbit from that batch
(varieties._orbit_points).  The oracle below is the former path: every
distinct rearrangement of the tuple, reduced to its _projective_key, one
point per distinct key.  Seeded tuples with zero coordinates (leading ones
among them), w parts, denominators and repeated values are compared with
it, and no point may be built twice.

Each batch also joins every point's text and sort key from those of its
distinct values, and takes the distinct arrangements of a tail from a
table keyed by the tail's multiplicities (perms._arrangements).  The
oracles for those are Eisenstein.__str__ and Eisenstein.sort_key of each
coordinate, and set(permutations(...)) of each multiset.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from s6quartic import DEFAULT_ALPHABETS, Eisenstein, ProjectivePoint, scan_alphabet
from s6quartic import projective_orbit, perms, varieties
from s6quartic.eisenstein import OMEGA, OMEGA_SQUARED, _cleared
from s6quartic.perms import Permutation
from s6quartic.poly import NVARS
from s6quartic.varieties import _coords, _orbit_points, _point, _projective_key
from s6quartic.varieties import act_on_point

EXAMPLES = 300
SEED = 20160229


def oracle_orbit(xs) -> set:
    """One point per distinct key of the distinct rearrangements of xs."""
    keys = set(map(_projective_key, set(permutations(xs))))
    return {ProjectivePoint(_coords(key)) for key in keys}


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

    def counted(*args):
        point = _point(*args)
        built.append(point)
        return point

    monkeypatch.setattr(varieties, "_point", counted)
    found = scan_alphabet(6, DEFAULT_ALPHABETS["sixth_roots"])
    assert len(found) == 40
    assert built_once(built) == set(found)


# -- texts and sort keys ------------------------------------------------------


def oracle_text(point) -> str:
    return "[" + " : ".join(Eisenstein.__str__(c) for c in point.coords) + "]"


def oracle_key(point) -> tuple:
    return tuple(Eisenstein.sort_key(c) for c in point.coords)


def assert_joined(points):
    """Points of _orbit_points carry their text and sort key from the
    start, and both equal the per-coordinate oracles."""
    assert points
    for point in points:
        assert point._text == oracle_text(point)
        assert point._key == oracle_key(point)
        assert str(point) is point._text
        assert point.sort_key() is point._key


def assert_filled_lazily(point):
    """Points of the constructor and of act_on_point fill both on first use."""
    assert point._text is None and point._key is None
    assert str(point) == oracle_text(point)
    assert point.sort_key() == oracle_key(point)
    assert str(point) is point._text
    assert point.sort_key() is point._key


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
    perm = Permutation([2, 3, 1, 6, 4, 5])
    for coords in cases()[:50]:
        point = ProjectivePoint(coords)
        assert_filled_lazily(point)
        assert_joined(projective_orbit(point))
        assert_filled_lazily(act_on_point(perm, point))


# -- the arrangement table ----------------------------------------------------


def compositions(size):
    """The ordered multiplicity tuples of positive parts that sum to size."""
    if not size:
        yield ()
    for first in range(1, size + 1):
        for rest in compositions(size - first):
            yield (first,) + rest


SHAPES = [shape for size in range(NVARS) for shape in compositions(size)]


def test_every_tail_shape_is_arranged_as_the_distinct_permutations():
    assert len(SHAPES) == 32
    for shape in SHAPES:
        multiset = [i for i, m in enumerate(shape) for _ in range(m)]
        table = perms._arrangements(shape)
        assert len(set(table)) == len(table)
        assert set(table) == set(permutations(multiset))


def test_the_table_is_keyed_by_shape_not_by_t():
    """Scans at 100 fresh t fill the table once per shape and then only
    hit it: none of its entries depends on t or on the values.  Each scan
    finds the cube-root orbit, which lies on every member."""
    perms._arrangements.cache_clear()
    for k in range(100):
        t = Fraction(2 * k + 1, 11)
        assert len(scan_alphabet(t, [0, 1, -1, OMEGA, OMEGA_SQUARED])) == 30
    info = perms._arrangements.cache_info()
    assert info.currsize <= 32
    assert info.misses == info.currsize
    assert info.hits + info.misses >= 100
