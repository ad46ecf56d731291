"""The closed-form family geometry and hash-keyed orbits against slow paths.

The oracles below are the symbolic route the package no longer takes:
the gradient and Hessian of the quartic come from partial_derivative, the
singularity test is the rank of the 2x6 Jacobian of (linear form,
quartic), and orbits of varieties compare canonical forms pair by pair.
They are compared with the package, alphabet by alphabet, on every
projectively distinct point with coordinates in pm1, zero_pm1 or
cube_roots.
"""

from fractions import Fraction
from itertools import product

import pytest

from s6quartic import (
    CUBE_ROOT_POINT,
    DEFAULT_ALPHABETS,
    H_SHIFT,
    NVARS,
    QUADRIC_SURFACES,
    SIGN_POINT,
    STANDARD_LABELS,
    TAU,
    Eisenstein,
    Matrix,
    PermGroup,
    Polynomial,
    ProjectivePoint,
    X,
    act_on_point,
    act_on_variety,
    canonicalize,
    is_node,
    is_singular_on_family,
    orbit_and_stabilizer,
    projective_orbit,
    quartic_family,
    singular_t_values,
    solve_linear_in_t,
    solve_parametric_proportionality,
)

T_VALUES = tuple(
    Fraction(t) for t in (6, 2, 4, 0, Fraction(1, 2), 7, Fraction(-11, 3))
)
ONES = [Eisenstein(1)] * NVARS
P4 = sum((x**4 for x in X), Polynomial.zero())
NEG_P2_SQUARED = -(sum((x**2 for x in X), Polynomial.zero()) ** 2)


def alphabet_points(name):
    points = {
        ProjectivePoint(coords)
        for coords in product(DEFAULT_ALPHABETS[name], repeat=NVARS)
        if any(coords)
    }
    return sorted(points, key=ProjectivePoint.sort_key)


# The alphabets share a few points; each is checked once per alphabet.
POINTS = [
    p for name in ("pm1", "zero_pm1", "cube_roots") for p in alphabet_points(name)
]
ON_HYPERPLANE = [p for p in POINTS if not sum(p.coords, Eisenstein(0))]


class Symbolic:
    """The t-member's quartic with its symbolic gradient and Hessian."""

    def __init__(self, t):
        self.linear, self.quartic = quartic_family(t)
        self.gradient = self.quartic.gradient()
        self.hessian = [
            [g.partial_derivative(j) for j in range(NVARS)]
            for g in self.gradient
        ]

    def is_singular(self, point):
        coords = point.coords
        if self.linear.evaluate(coords) or self.quartic.evaluate(coords):
            return False
        rows = [ONES, [g.evaluate(coords) for g in self.gradient]]
        return Matrix(rows).rank() <= 1

    def is_node(self, point):
        # The same chart as the package: dehomogenize at the first nonzero
        # coordinate, eliminate the lowest-index other variable.
        coords = point.coords
        chart = next(i for i, c in enumerate(coords) if c)
        e = next(i for i in range(NVARS) if i != chart)
        rest = [i for i in range(NVARS) if i not in (chart, e)]
        h = [[entry.evaluate(coords) for entry in row] for row in self.hessian]
        chart_hessian = [
            [h[r][s] - h[r][e] - h[e][s] + h[e][e] for s in rest] for r in rest
        ]
        return Matrix(chart_hessian).rank() == len(rest)


SYMBOLIC = {t: Symbolic(t) for t in T_VALUES}


def symbolic_t_values(point):
    coords = point.coords
    v0 = [g.evaluate(coords) for g in NEG_P2_SQUARED.gradient()]
    v1 = [g.evaluate(coords) for g in P4.gradient()]
    proportional = solve_parametric_proportionality(v0, v1, ONES)
    on_member = solve_linear_in_t(
        [(NEG_P2_SQUARED.evaluate(coords), P4.evaluate(coords))]
    )
    return proportional.intersect(on_member)


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_singularity_matches_the_jacobian_rank(t):
    oracle = SYMBOLIC[t]
    for p in POINTS:
        assert is_singular_on_family(t, p) == oracle.is_singular(p), p


@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_node_test_matches_the_symbolic_hessian(t):
    oracle = SYMBOLIC[t]
    for p in ON_HYPERPLANE:
        if oracle.is_singular(p):
            assert is_node(t, p) == oracle.is_node(p), p


def test_singular_parameters_match_the_gradient_path():
    for p in ON_HYPERPLANE:
        assert singular_t_values(p) == symbolic_t_values(p), p


def test_the_comparison_is_not_vacuous():
    assert len(POINTS) == 639
    singular = [
        p for p in POINTS if any(is_singular_on_family(t, p) for t in T_VALUES)
    ]
    assert len(singular) == 110
    verdicts = {
        is_node(t, p)
        for t in T_VALUES
        for p in singular
        if is_singular_on_family(t, p)
    }
    assert verdicts == {True, False}


def _act_on_quadric(g, v):
    return act_on_variety(STANDARD_LABELS.induced_variable_permutation(g), v)


def test_hash_keyed_orbit_matches_pairwise_canonical_comparison():
    group = PermGroup.generate([TAU, H_SHIFT])
    x = QUADRIC_SURFACES[0]
    orbit, stabilizer = orbit_and_stabilizer(group, x, _act_on_quadric)

    expected_orbit, expected_stabilizer = [], []
    for g in group:
        image = _act_on_quadric(g, x)
        key = canonicalize(image)
        if not any(key == canonicalize(seen) for seen in expected_orbit):
            expected_orbit.append(image)
        if key == canonicalize(x):
            expected_stabilizer.append(g)

    assert [canonicalize(v) for v in orbit] == [
        canonicalize(v) for v in expected_orbit
    ]
    assert list(stabilizer) == expected_stabilizer
    assert (len(orbit), stabilizer.order) == (10, 2)


@pytest.mark.parametrize("point", [CUBE_ROOT_POINT, SIGN_POINT], ids=str)
def test_projective_orbit_matches_the_point_action(point):
    group = PermGroup.symmetric(6)
    expected = {act_on_point(g, point) for g in group}
    orbit = projective_orbit(group, point)
    assert set(orbit) == expected
    assert len(orbit) == len(expected)
