"""Property test for scan_alphabet, run when hypothesis is present.

Alphabets of one to five random Q(w) letters, with zero, duplicate
letters, non-integral rationals and no closure under negation, scan to the
same list as the all-tuples oracle.  Most alphabets hold the letters of a
singular configuration at its member, and every alphabet is scaled by a
random field element, so that many examples find points.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from s6quartic import Eisenstein, scan_alphabet
from s6quartic.eisenstein import OMEGA, OMEGA_SQUARED

from test_scan_oracle import T_VALUES, all_tuples_scan

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
field_elements = st.builds(Eisenstein, small_fractions, small_fractions)
POOL = tuple(
    Eisenstein.coerce(v)
    for v in (0, 1, -1, 2, -3, 5, Fraction(-1, 5), OMEGA, -OMEGA)
)
letters = st.one_of(st.sampled_from(POOL), field_elements)
parameters = st.one_of(st.sampled_from(T_VALUES), small_fractions)

# Letters of singular points and the member they lie on; None is any t.
CONFIGURATIONS = (
    ((), None),
    ((1, -1), Fraction(6)),
    ((1, OMEGA, OMEGA_SQUARED), None),
    ((0, 1, -1), Fraction(2)),
    ((0, 1, -1), Fraction(4)),
    ((5, -1), Fraction(10, 7)),
)


@st.composite
def scans(draw):
    seed, t = draw(st.sampled_from(CONFIGURATIONS))
    extra = draw(
        st.lists(letters, min_size=0 if seed else 1, max_size=5 - len(seed))
    )
    alphabet = draw(st.permutations([*seed, *extra]))
    scale = draw(field_elements) or Eisenstein(1)
    if t is None:
        t = draw(parameters)
    return [scale * letter for letter in alphabet], t


@settings(derandomize=True, deadline=None, max_examples=15)
@given(scans())
def test_scan_matches_the_all_tuples_scan(scan):
    alphabet, t = scan
    assert scan_alphabet(t, alphabet) == all_tuples_scan(t, alphabet)
