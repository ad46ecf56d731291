"""scan_alphabet against the enumeration it replaced.

The package answers a scan from the closed-form singular locus, and at
t = 0 and t = 4 enumerates the first five coordinates of each multiset of
letters once, solving the sixth from the hyperplane sum(x) = 0.  The
oracle below is the former loop: it normalises every nonzero tuple of
len(alphabet)^6, deduplicates the points and keeps the singular ones,
wherever they lie.  The two are compared list for list, in order.
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
        counts = {"keys": 0, "points": 0, "tests": 0}

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(varieties, fn.__name__, counted)

        monkeypatch.setattr(varieties, "_LOCI", {})
        counting("keys", varieties._scaled)
        counting("points", varieties._point)
        counting("tests", varieties._singular)
        for t in (Fraction(6), Fraction(7), Fraction(-11, 3)):
            for name in ("pm1", "zero_pm1", "cube_roots"):
                scan_alphabet(t, DEFAULT_ALPHABETS[name])
        # No tuple gets a Jacobian test: each scan reads the singular
        # locus of its member's class, built at the class's first scan.
        # The t = 6 class scales the cube-root tuple by each of its 3
        # values (one batch of 30 points) and the sign tuple by each of its
        # 2 (one batch of 10); t = 7 and -11/3 share the generic class, the
        # cube-root batch alone.
        assert counts["tests"] == 0
        assert counts["keys"] == (3 + 2) + 3
        assert counts["points"] == (30 + 10) + 30

    def test_the_heads_are_streamed_not_stored(self, monkeypatch):
        """Seven letters make C(11, 5) = 462 non-decreasing heads, as a
        stream; a list of all 7^5 = 16,807 ordered heads as tuples would
        take over a MiB, while a scan peaks near 25 KiB.  t = 0 and t = 4
        enumerate the heads; at t = 6 the bound covers building the
        member's locus."""
        monkeypatch.setattr(varieties, "_LOCI", {})
        alphabet = [0, 1, -1, 2, -2, OMEGA, -OMEGA]
        for t, expected in ((6, 10), (0, 0), (4, 60)):
            tracemalloc.start()
            try:
                found = scan_alphabet(t, alphabet)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(found) == expected
            assert peak < 128 * 1024
