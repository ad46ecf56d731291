"""scan_alphabet against the enumeration it replaced.

The package enumerates the first five coordinates and solves the sixth
from the hyperplane sum(x) = 0.  The oracle below is the former loop: it
normalises every nonzero tuple of len(alphabet)^6, deduplicates the points
and keeps the singular ones, wherever they lie.  The two are compared list
for list, in order.
"""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from s6quartic import (
    DEFAULT_ALPHABETS,
    Eisenstein,
    OMEGA,
    ProjectivePoint,
    is_singular_on_family,
    scan_alphabet,
)
from s6quartic import varieties
from s6quartic.poly import NVARS

# The special members t = 6, 2, 4, 10/7, 3/2 and a generic one.
T_VALUES = tuple(
    Fraction(t) for t in (6, 2, 4, Fraction(10, 7), Fraction(3, 2), 7)
)


@lru_cache(maxsize=len(DEFAULT_ALPHABETS))
def all_tuples_points(letters):
    """Every projectively distinct point with coordinates in the letters."""
    return frozenset(
        ProjectivePoint(tup)
        for tup in product(letters, repeat=NVARS)
        if any(tup)
    )


def all_tuples_scan(t, alphabet):
    letters = frozenset(Eisenstein.coerce(entry) for entry in alphabet)
    found = [p for p in all_tuples_points(letters) if is_singular_on_family(t, p)]
    return sorted(found, key=ProjectivePoint.sort_key)


@pytest.mark.parametrize("t", T_VALUES, ids=str)
@pytest.mark.parametrize("name", sorted(DEFAULT_ALPHABETS))
def test_named_alphabets_match_the_all_tuples_scan(name, t):
    alphabet = DEFAULT_ALPHABETS[name]
    assert scan_alphabet(t, alphabet) == all_tuples_scan(t, alphabet)


def test_the_comparison_is_not_vacuous():
    found = [
        len(all_tuples_scan(t, DEFAULT_ALPHABETS[name]))
        for name in DEFAULT_ALPHABETS
        for t in T_VALUES
    ]
    assert sum(found) > 0 and 0 in found


class TestScanWork:
    """The deterministic work of one scan-sweep-like sweep: three
    alphabets at t = 6, a generic integer t and a non-integer t."""

    def test_only_points_on_the_hyperplane_are_built(self, monkeypatch):
        counts = {"points": 0, "tests": 0}
        point_init = ProjectivePoint.__init__
        singular = varieties._singular

        def counting_init(self, coords):
            counts["points"] += 1
            point_init(self, coords)

        def counting_test(*args):
            counts["tests"] += 1
            return singular(*args)

        monkeypatch.setattr(ProjectivePoint, "__init__", counting_init)
        monkeypatch.setattr(varieties, "_singular", counting_test)
        for t in (Fraction(6), Fraction(7), Fraction(-11, 3)):
            for name in ("pm1", "zero_pm1", "cube_roots"):
                scan_alphabet(t, DEFAULT_ALPHABETS[name])
        # Per t: 20 + 141 + 90 tuples sum to zero, the zero tuple among
        # them, and each gets one Jacobian test.  Every t keeps the 90
        # cube-root tuples; t = 6 also keeps 20 + 20 sign tuples.
        assert counts["tests"] == 3 * (20 + 141 + 90)
        assert counts["points"] == 3 * 90 + 20 + 20

    def test_the_heads_are_streamed_not_stored(self):
        """Seven letters make 7^5 = 16,807 heads; a list of them as tuples
        takes over a MiB, while the streamed scan peaks near 17 KiB."""
        alphabet = [0, 1, -1, 2, -2, OMEGA, -OMEGA]
        tracemalloc.start()
        try:
            found = scan_alphabet(6, alphabet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == 10
        assert peak < 128 * 1024
