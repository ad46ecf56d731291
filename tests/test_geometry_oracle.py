"""The closed-form family geometry and hash-keyed orbits against slow paths.

The oracles below are the symbolic route the package no longer takes:
the gradient and Hessian of the quartic come from partial_derivative, the
singularity test is the rank of the 2x6 Jacobian of (linear form,
quartic), the singular parameters solve the 2x2 minors of that Jacobian
and the quartic itself as one system linear in t, and orbits of varieties
compare canonical forms pair by pair.  They are compared with the
package, alphabet by alphabet, on every projectively distinct point with
coordinates in pm1, zero_pm1 or cube_roots, and the singular parameters
also on random hyperplane points with coordinates a + b*w.
"""

from fractions import Fraction
from itertools import product

import pytest

from s6quartic import (
    CUBE_ROOT_POINT,
    DEFAULT_ALPHABETS,
    H_SHIFT,
    QUADRIC_SURFACES,
    SIGN_POINT,
    STANDARD_LABELS,
    TAU,
    Eisenstein,
    PermGroup,
    Polynomial,
    ProjectivePoint,
    act_on_variety,
    is_node,
    is_singular_on_family,
    incidence_table,
    label_translates,
    orbit_and_stabilizer,
    projective_orbit,
    quartic_family,
    singular_t_values,
)
from s6quartic.poly import NVARS, X
from s6quartic.linalg import ALL_T, EMPTY, Matrix, TSolutionSet
from s6quartic.checks import _label_group, _quadric_translates
from s6quartic.eisenstein import OMEGA, ZERO
from s6quartic.varieties import act_on_point, canonicalize

T_VALUES = tuple(
    Fraction(t) for t in (6, 2, 4, 0, Fraction(1, 2), 7, Fraction(-11, 3))
)
ONES = [Eisenstein(1)] * NVARS
P4 = sum((x**4 for x in X), Polynomial.zero())
NEG_P2_SQUARED = -(sum((x**2 for x in X), Polynomial.zero()) ** 2)
P4_GRADIENT = P4.gradient()
NEG_P2_SQUARED_GRADIENT = NEG_P2_SQUARED.gradient()


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


def solve_linear_in_t(conditions):
    """Common rational roots t of the conditions alpha + t*beta = 0.

    Every condition goes into the one solve before a root is judged: an
    identically zero condition imposes nothing, a nonzero constant or two
    different roots leave no t, and a common root outside Q leaves no
    rational t either.
    """
    root = None
    for alpha, beta in conditions:
        if not beta:
            if alpha:
                return EMPTY
            continue
        r = -alpha / beta
        if root is None:
            root = r
        elif r != root:
            return EMPTY
    if root is None:
        return ALL_T
    return TSolutionSet.finite([root.re]) if root.is_rational() else EMPTY


def proportionality_minors(v0, v1, w):
    """The 2x2 minors of the rows v0 + t*v1 and w, as (alpha, beta) pairs."""
    n = len(w)
    return [
        (v0[i] * w[j] - v0[j] * w[i], v1[i] * w[j] - v1[j] * w[i])
        for i in range(n)
        for j in range(i + 1, n)
    ]


def symbolic_t_values(point):
    coords = point.coords
    v0 = [g.evaluate(coords) for g in NEG_P2_SQUARED_GRADIENT]
    v1 = [g.evaluate(coords) for g in P4_GRADIENT]
    on_member = (NEG_P2_SQUARED.evaluate(coords), P4.evaluate(coords))
    return solve_linear_in_t(proportionality_minors(v0, v1, ONES) + [on_member])


class TestOracleSolver:
    def test_no_conditions_means_all_t(self):
        assert solve_linear_in_t([]) == ALL_T

    def test_trivial_conditions_skipped(self):
        zero = Eisenstein(0)
        assert solve_linear_in_t([(zero, zero)]) == ALL_T

    def test_single_root(self):
        # alpha + t*beta = 0 with alpha = -36, beta = 6 gives t = 6.
        s = solve_linear_in_t([(Eisenstein(-36), Eisenstein(6))])
        assert s == TSolutionSet.finite([Fraction(6)])

    def test_unsatisfiable_constant(self):
        assert solve_linear_in_t([(Eisenstein(1), Eisenstein(0))]) == EMPTY

    def test_conflicting_roots(self):
        s = solve_linear_in_t(
            [
                (Eisenstein(-1), Eisenstein(1)),
                (Eisenstein(-2), Eisenstein(1)),
            ]
        )
        assert s == EMPTY

    def test_lone_irrational_root_is_empty(self):
        assert solve_linear_in_t([(OMEGA, Eisenstein(1))]) == EMPTY
        assert solve_linear_in_t([(OMEGA, Eisenstein(1))] * 2) == EMPTY

    def test_balanced_sign_point_forces_t_6(self):
        # v0 + t*v1 must be proportional to the all-ones vector, where v0 and
        # v1 are the two gradient halves at (1, 1, 1, -1, -1, -1).
        signs = [1, 1, 1, -1, -1, -1]
        v0 = [Eisenstein(-24 * s) for s in signs]
        v1 = [Eisenstein(4 * s) for s in signs]
        s = solve_linear_in_t(proportionality_minors(v0, v1, ONES))
        assert s == TSolutionSet.finite([Fraction(6)])

    def test_already_proportional_for_all_t(self):
        v0 = [Eisenstein(2)] * 6
        v1 = [Eisenstein(-3)] * 6
        assert solve_linear_in_t(proportionality_minors(v0, v1, ONES)) == ALL_T

    def test_never_proportional(self):
        v0 = [Eisenstein(i) for i in (1, 2, 3, 4, 5, 6)]
        v1 = [Eisenstein(0)] * 6
        assert solve_linear_in_t(proportionality_minors(v0, v1, ONES)) == EMPTY


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


# Its 15 minors alone pin t = 850/299 - 600/299*w, outside Q.
IRRATIONAL_MINOR_ROOT = ProjectivePoint.from_text(
    "[1, 6/7 + 4/7*w, -10/7 - 2/7*w, -1, 1/7 + 3/7*w, 3/7 - 5/7*w]"
)


def test_a_point_whose_minors_pin_an_irrational_root_is_singular_nowhere():
    assert symbolic_t_values(IRRATIONAL_MINOR_ROOT) == EMPTY
    assert singular_t_values(IRRATIONAL_MINOR_ROOT) == EMPTY


def test_singular_parameters_match_the_oracle_on_random_hyperplane_points():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-2, 2)
    heads = st.lists(st.builds(Eisenstein, small, small), min_size=5, max_size=5)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(heads)
    def check(head):
        hypothesis.assume(any(head))
        p = ProjectivePoint(head + [-sum(head, ZERO)])
        values = singular_t_values(p)
        assert values == symbolic_t_values(p), p
        for t in values.values:
            assert is_singular_on_family(t, p), (t, p)
        for t in T_VALUES:
            expected = values.is_all or t in values.values
            assert is_singular_on_family(t, p) == expected, (t, p)

    check()


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


@pytest.mark.parametrize(
    "point",
    [
        CUBE_ROOT_POINT,
        SIGN_POINT,
        ProjectivePoint([1, 0, 0, 0, 0, 0]),
        ProjectivePoint([1, -1, 0, 0, 0, 0]),
        ProjectivePoint([2, -1, -1, 2, -1, -1]),
        ProjectivePoint([1, 2, -3, 1, 2, -3]),
        ProjectivePoint([1, OMEGA, 0, 2, -OMEGA, 5]),
    ],
    ids=str,
)
def test_projective_orbit_matches_the_point_action(point):
    group = PermGroup.symmetric(6)
    expected = {act_on_point(g, point) for g in group}
    orbit = projective_orbit(point)
    assert set(orbit) == expected
    assert len(orbit) == len(expected)
    assert list(orbit) == sorted(expected, key=ProjectivePoint.sort_key)


@pytest.mark.parametrize("index", [0, 1])
def test_cached_translates_match_a_fresh_action_per_element(index):
    _quadric_translates.cache_clear()
    translates = _quadric_translates(index)
    group = PermGroup.generate([TAU, H_SHIFT])
    assert set(translates) == set(group)
    for g, image in translates.items():
        fresh = _act_on_quadric(g, QUADRIC_SURFACES[index])
        assert image.canonical() == canonicalize(fresh)


def test_divisor_bookkeeping_from_the_translates_matches_the_group_path():
    _quadric_translates.cache_clear()
    group = _label_group()
    x = QUADRIC_SURFACES[0]
    translates = _quadric_translates(0)
    orbit, stabilizer = orbit_and_stabilizer(group, x, lambda g, _: translates[g])
    expected_orbit, expected_stabilizer = orbit_and_stabilizer(
        group, x, _act_on_quadric
    )
    assert [canonicalize(v) for v in orbit] == [
        canonicalize(v) for v in expected_orbit
    ]
    assert stabilizer == expected_stabilizer

    # The incidence loop over group elements, one fresh action each.
    expected_table = {}
    for g in group:
        image = _act_on_quadric(g, x)
        if image.contains(CUBE_ROOT_POINT):
            key = canonicalize(image)
            expected_table[key] = expected_table.get(key, 0) + 1
    table = incidence_table(translates, CUBE_ROOT_POINT)
    assert {v.canonical(): n for v, n in table.items()} == expected_table
    assert table == incidence_table(label_translates(group, x), CUBE_ROOT_POINT)
    assert sorted(table.values()) == [2, 2, 2, 2]
