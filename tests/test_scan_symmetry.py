"""The symmetry that scan_alphabet relies on, checked on the slow path.

The scan tests one tuple per multiset of letters and keeps every
rearrangement of a tuple that passes, because each member of the family
is invariant under all permutations of the coordinates.  Here every
distinct rearrangement of 300 seeded tuples on the hyperplane sum(x) = 0
is built as a point and tested on its own by is_singular_on_family, and
all of them must get the same answer.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from s6quartic import Eisenstein, ProjectivePoint, is_singular_on_family
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
