"""The symmetries of the family, checked on the geometry layer.

Every member of the family is invariant under all permutations of the
coordinates and is defined over Q.  So a coordinate permutation sigma
fixes every member and keeps the node test and the singular-parameter set
of a point, and the Galois map w -> w^2 keeps the node test at every
rational t and swaps the two conjugate QUADRIC_SURFACES.  None of these
relations needs an oracle.  tests/test_scan_symmetry.py checks the same
groups on the scan and orbit layers.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from s6quartic import (
    Eisenstein,
    Polynomial,
    ProjectivePoint,
    QUADRIC_SURFACES,
    act_on_variety,
    family_member,
    is_node,
    is_singular_on_family,
    singular_t_values,
)
from s6quartic.eisenstein import OMEGA, OMEGA_SQUARED
from s6quartic.perms import Permutation
from s6quartic.varieties import LinearSliceVariety, act_on_point

# Singular points with their member; None is every t.  They include nodes
# and singular points that are not nodes.  Every (a, a, b, b, c, c) with
# a + b + c = 0 is singular at t = 4; with a w part its p4 is not rational.
SINGULAR = {
    "sign": ((1, 1, 1, -1, -1, -1), Fraction(6)),
    "cube-root": ((1, 1, OMEGA, OMEGA, OMEGA_SQUARED, OMEGA_SQUARED), None),
    "t2": ((0, 0, 0, 0, 1, -1), Fraction(2)),
    "t4": ((0, 0, 1, 1, -1, -1), Fraction(4)),
    "t10/7": ((5, -1, -1, -1, -1, -1), Fraction(10, 7)),
    "t0": ((0, 0, 0, 1, OMEGA, OMEGA_SQUARED), Fraction(0)),
    "t4-pairs": ((1, 2, -3, 1, 2, -3), Fraction(4)),
    "t4-w-pairs": (
        (1, 1, 2 + OMEGA, 2 + OMEGA, -3 - OMEGA, -3 - OMEGA),
        Fraction(4),
    ),
}

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
field_elements = st.builds(Eisenstein, small_fractions, small_fractions)
scalars = field_elements.filter(bool)
parameters = st.fractions(min_value=-20, max_value=20, max_denominator=9)
permutations = st.permutations(range(1, 7)).map(Permutation)


def conjugate(e):
    """The Galois map w -> w^2: (a + b*w) -> (a - b) - b*w."""
    e = Eisenstein.coerce(e)
    return Eisenstein(e.re - e.om, -e.om)


def conjugate_poly(f: Polynomial) -> Polynomial:
    return Polynomial({m: conjugate(c) for m, c in f.terms.items()})


def conjugate_variety(v: LinearSliceVariety) -> LinearSliceVariety:
    return LinearSliceVariety(
        [conjugate_poly(f) for f in v.linear_forms], conjugate_poly(v.form)
    )


@st.composite
def rearranged(draw, coords, t):
    """The point of coords rearranged and scaled, and t; a drawn t where t
    is None."""
    coords = draw(st.permutations(coords))
    scale = draw(scalars)
    if t is None:
        t = draw(parameters)
    return ProjectivePoint([scale * c for c in coords]), t


@st.composite
def hyperplane_points(draw):
    """Five random coordinates and minus their sum; not all zero."""
    coords = draw(st.lists(field_elements, min_size=5, max_size=5))
    coords.append(-sum(coords, Eisenstein(0)))
    if not any(coords):
        coords = [1, -1, 0, 0, 0, 0]
    return ProjectivePoint(coords)


def test_the_points_include_nodes_and_other_singular_points():
    answers = {
        is_node(t if t is not None else 1, ProjectivePoint(coords))
        for coords, t in SINGULAR.values()
    }
    assert answers == {True, False}


@pytest.mark.parametrize("coords, t", SINGULAR.values(), ids=SINGULAR)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_a_permutation_keeps_the_node_test_and_the_t_values(coords, t, data):
    point, t = data.draw(rearranged(coords, t))
    sigma = data.draw(permutations)
    moved = act_on_point(sigma, point)
    assert is_singular_on_family(t, moved)
    assert is_node(t, moved) == is_node(t, point)
    values = singular_t_values(moved)
    assert values == singular_t_values(point)
    assert values.is_all or t in values.values


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hyperplane_points(), permutations, parameters)
def test_a_permutation_keeps_the_t_values_of_any_hyperplane_point(
    point, sigma, t
):
    moved = act_on_point(sigma, point)
    assert singular_t_values(moved) == singular_t_values(point)
    assert is_singular_on_family(t, moved) == is_singular_on_family(t, point)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(parameters, permutations)
def test_a_permutation_fixes_every_member(t, sigma):
    member = family_member(t)
    assert act_on_variety(sigma, member) == member


@pytest.mark.parametrize("coords, t", SINGULAR.values(), ids=SINGULAR)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_conjugation_keeps_the_node_test(coords, t, data):
    point, t = data.draw(rearranged(coords, t))
    image = ProjectivePoint([conjugate(c) for c in point])
    assert is_singular_on_family(t, image)
    assert is_node(t, image) == is_node(t, point)


def test_conjugation_swaps_the_quadric_surfaces():
    first, second = QUADRIC_SURFACES
    assert first != second
    assert conjugate_variety(first) == second
    assert conjugate_variety(second) == first
