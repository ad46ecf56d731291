"""The symmetries of the family, checked on the scan and orbit layers.

The scan tests one tuple per multiset of letters and keeps every
rearrangement of a tuple that passes, because each member of the family
is invariant under all permutations of the coordinates.  Here every
distinct rearrangement of 300 seeded tuples on the hyperplane sum(x) = 0
is built as a point and tested on its own by is_singular_on_family, and
all of them must get the same answer.

The family is also defined over Q and its points are projective.  So
scaling an alphabet by a nonzero letter leaves its scan unchanged, and
the Galois map w -> w^2 carries the scan of an alphabet to the scan of
its conjugate and commutes with projective_orbit.  These relations need
no oracle.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from s6quartic import (
    Eisenstein,
    ProjectivePoint,
    is_singular_on_family,
    projective_orbit,
    scan_alphabet,
)
from s6quartic.eisenstein import OMEGA, OMEGA_SQUARED

T_VALUES = tuple(
    Fraction(t) for t in (0, 2, 4, 6, Fraction(10, 7), Fraction(3, 2))
)

# Singular points of the members at t = 6, every t, 2, 4, 10/7 and 0; the
# last lies on every member, so its gradient test decides at each t.
SINGULAR = (
    (1, 1, 1, -1, -1, -1),
    (1, 1, OMEGA, OMEGA, OMEGA_SQUARED, OMEGA_SQUARED),
    (0, 0, 0, 0, 1, -1),
    (0, 0, 1, 1, -1, -1),
    (5, -1, -1, -1, -1, -1),
    (0, 0, 0, 1, OMEGA, OMEGA_SQUARED),
)


def _letter(rng):
    """A random element of Q(w) with a w part and a denominator up to 6."""
    d = rng.randint(1, 6)
    return Eisenstein(
        Fraction(rng.randint(-6, 6), d), Fraction(rng.randint(-6, 6), d)
    )


def seeded_tuples():
    """Tuples on the hyperplane: half are a singular point above times a
    random letter, half are five letters from a pool of one to three and
    minus their sum, so that letters repeat and rearrangements coincide."""
    rng = random.Random(1)
    found = []
    while len(found) < 300:
        if rng.random() < 0.5:
            scale = _letter(rng)
            tup = [scale * c for c in rng.choice(SINGULAR)]
        else:
            pool = [_letter(rng) for _ in range(rng.randint(1, 3))]
            tup = [rng.choice(pool) for _ in range(5)]
            tup.append(-sum(tup, Eisenstein(0)))
        if any(tup):
            found.append(tuple(tup))
    return found


@lru_cache(maxsize=1)
def arrangement_points():
    """For each seeded tuple, the points of its distinct rearrangements."""
    return [
        [ProjectivePoint(a) for a in set(permutations(tup))]
        for tup in seeded_tuples()
    ]


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_every_rearrangement_gets_the_same_answer(t):
    answers = []
    for points in arrangement_points():
        seen = {is_singular_on_family(t, p) for p in points}
        assert len(seen) == 1, points[0]
        answers.append(seen.pop())
    assert True in answers and False in answers


def _conjugate(e):
    """The Galois map w -> w^2: (a + b*w) -> (a - b) - b*w."""
    return Eisenstein(e.re - e.om, -e.om)


def _conjugate_point(point):
    return ProjectivePoint([_conjugate(c) for c in point])


def seeded_alphabets():
    """Four fixed alphabets that find points (the signs with 0 and 5, the
    cube roots with and without 0), four of the letters of a singular
    point times a seeded letter plus one more letter, and four of 3-5
    seeded letters."""
    rng = random.Random(2)
    alphabets = [
        [0, 1, -1],
        [0, 1, -1, 5],
        [1, OMEGA, OMEGA_SQUARED],
        [0, 1, OMEGA, OMEGA_SQUARED],
    ]
    for _ in range(4):
        scale = _letter(rng)
        letters = {scale * c for c in rng.choice(SINGULAR)} | {_letter(rng)}
        alphabets.append(sorted(letters, key=Eisenstein.sort_key))
    alphabets += [
        [_letter(rng) for _ in range(rng.randint(3, 5))] for _ in range(4)
    ]
    return alphabets


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_scaling_the_alphabet_keeps_the_scan(t):
    rng = random.Random(3)
    found = 0
    for alphabet in seeded_alphabets():
        scale = _letter(rng)
        while not scale:
            scale = _letter(rng)
        points = set(scan_alphabet(t, alphabet))
        assert set(scan_alphabet(t, [scale * c for c in alphabet])) == points
        found += len(points)
    assert found


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_conjugating_the_alphabet_conjugates_the_scan(t):
    for alphabet in seeded_alphabets():
        conjugate = [_conjugate(Eisenstein.coerce(c)) for c in alphabet]
        assert set(scan_alphabet(t, conjugate)) == {
            _conjugate_point(p) for p in scan_alphabet(t, alphabet)
        }


def test_projective_orbit_commutes_with_conjugation():
    for tup in SINGULAR + tuple(seeded_tuples()[:30]):
        point = ProjectivePoint(tup)
        conjugates = map(_conjugate_point, projective_orbit(point))
        assert projective_orbit(_conjugate_point(point)) == tuple(
            sorted(conjugates, key=ProjectivePoint.sort_key)
        )
