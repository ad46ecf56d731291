"""The closed-form family geometry and hash-keyed orbits against slow paths.

The oracles below are the symbolic route the package no longer takes:
the gradient and Hessian of the quartic come from the term-by-term
partial_derivative defined here (the other tests import it too), the
singularity test is the rank of the 2x6 Jacobian of (linear form,
quartic), the node test the rank of the symbolic chart Hessian (both
ranks by the field elimination of test_linalg, not the package's), the
singular parameters solve the 2x2 minors of that Jacobian and the quartic
itself as one system linear in t, orbits of varieties compare
canonical forms pair by pair, and the translates of a quadric surface
come from one act_on_variety per label element (label_translates).  They
are compared with the package,
alphabet by alphabet, on every projectively distinct point with
coordinates in pm1, zero_pm1, cube_roots or [0, 1, -1, 2, -2] and on the
orbit of (-5, 1, 1, 1, 1, 1), and the singular parameters also on random
hyperplane points with coordinates a + b*w.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest

from s6quartic import (
    CUBE_ROOT_POINT,
    DEFAULT_ALPHABETS,
    H_SHIFT,
    PLANE_FORMS,
    QUADRIC_SURFACES,
    RunConfig,
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
    orbit_and_stabilizer,
    parse_point_coordinates,
    projective_orbit,
    quartic_family,
    singular_t_values,
)
from s6quartic.perms import Permutation
from s6quartic.poly import NVARS, X
from s6quartic.linalg import ALL_T, EMPTY, TSolutionSet, rref_linear_forms
from s6quartic.checks import _check_divisor_incidence, _keeps_plane
from s6quartic.checks import _label_action, _label_group, _quadric_translates
from s6quartic.eisenstein import OMEGA, ZERO
from s6quartic.varieties import act_on_point, canonicalize
from test_linalg import oracle_rank

T_VALUES = tuple(
    Fraction(t)
    for t in (
        6, 2, 4, 0, Fraction(1, 2), 7, Fraction(-11, 3), Fraction(10, 7),
        Fraction(3, 2),
    )
)
ONES = [Eisenstein(1)] * NVARS


def partial_derivative(poly, index):
    """The symbolic derivative of poly by x_index, term by term."""
    terms = {}
    for mono, coeff in poly.terms.items():
        e = mono[index]
        if e:
            lowered = mono[:index] + (e - 1,) + mono[index + 1:]
            terms[lowered] = terms.get(lowered, ZERO) + coeff * e
    return Polynomial(terms)


def gradient(poly):
    return tuple(partial_derivative(poly, i) for i in range(NVARS))


P4 = sum((x**4 for x in X), Polynomial.zero())
NEG_P2_SQUARED = -(sum((x**2 for x in X), Polynomial.zero()) ** 2)
P4_GRADIENT = gradient(P4)
NEG_P2_SQUARED_GRADIENT = gradient(NEG_P2_SQUARED)


def alphabet_points(letters):
    points = {
        ProjectivePoint(coords)
        for coords in product(letters, repeat=NVARS)
        if any(coords)
    }
    return sorted(points, key=ProjectivePoint.sort_key)


# A point is normalised to first nonzero coordinate 1, so the letters 2 and
# -2 give points with coordinates in (1/2)Z.  The orbit of
# (-5, 1, 1, 1, 1, 1) is singular at t = 10/7 and holds the non-integral
# point [1 : -1/5 : -1/5 : -1/5 : -1/5 : -1/5].  With the non-integral t
# values they exercise the clearing of both denominators.  Of
# [0, 1, -1, 2, -2] only the points on the hyperplane are kept: the package
# and the oracle refuse the others at their first test, as the named
# alphabets already show.
WIDE_POINTS = sorted(
    {
        ProjectivePoint(coords)
        for coords in product((0, 1, -1, 2, -2), repeat=NVARS)
        if any(coords) and not sum(coords)
    },
    key=ProjectivePoint.sort_key,
) + [ProjectivePoint(c) for c in set(permutations((-5, 1, 1, 1, 1, 1)))]
# The alphabets share a few points; each is checked once per alphabet.
POINTS = [
    p
    for name in ("pm1", "zero_pm1", "cube_roots")
    for p in alphabet_points(DEFAULT_ALPHABETS[name])
] + WIDE_POINTS
ON_HYPERPLANE = [p for p in POINTS if not sum(p.coords, Eisenstein(0))]


class Symbolic:
    """The t-member's quartic with its symbolic gradient and Hessian."""

    def __init__(self, t):
        self.linear, self.quartic = quartic_family(t)
        self.gradient = gradient(self.quartic)
        self.hessian = [gradient(g) for g in self.gradient]

    def is_singular(self, point):
        coords = point.coords
        if self.linear.evaluate(coords) or self.quartic.evaluate(coords):
            return False
        rows = [ONES, [g.evaluate(coords) for g in self.gradient]]
        return oracle_rank(rows) <= 1

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
        return oracle_rank(chart_hessian) == len(rest)


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
    return TSolutionSet.finite([root.re]) if not root.om else EMPTY


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
IRRATIONAL_MINOR_ROOT = ProjectivePoint(
    parse_point_coordinates(
        "[1, 6/7 + 4/7*w, -10/7 - 2/7*w, -1, 1/7 + 3/7*w, 3/7 - 5/7*w]"
    )
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
    assert len(POINTS) == 1450
    singular = [
        p for p in POINTS if any(is_singular_on_family(t, p) for t in T_VALUES)
    ]
    assert len(singular) == 201
    pairs = [
        (t, p) for t in T_VALUES for p in singular if is_singular_on_family(t, p)
    ]
    assert {is_node(t, p) for t, p in pairs} == {True, False}
    # Both denominators are cleared at a singular point at least once.
    assert [
        (t, p)
        for t, p in pairs
        if t.denominator != 1
        and any(c.re.denominator != 1 or c.om.denominator != 1 for c in p)
    ] == [(Fraction(10, 7), ProjectivePoint([5, -1, -1, -1, -1, -1]))]


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


def _field_action(perm, point):
    """(g.p)_{g(i)} = p_i on the field coordinates, normalized by the
    public constructor rather than from an int key."""
    image = [None] * NVARS
    for target, c in zip(perm.index_map(), point.coords):
        image[target] = c
    return ProjectivePoint(image)


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
    group = list(map(Permutation, permutations(range(1, NVARS + 1))))
    images = [_field_action(g, point) for g in group]
    assert [act_on_point(g, point) for g in group] == images
    expected = set(images)
    orbit = projective_orbit(point)
    assert set(orbit) == expected
    assert len(orbit) == len(expected)
    assert list(orbit) == sorted(expected, key=ProjectivePoint.sort_key)


def label_translates(group, variety):
    """Each label permutation of the group mapped to its translate of the
    variety, one act_on_variety each."""
    induced = STANDARD_LABELS.induced_variable_permutation
    return {gamma: act_on_variety(induced(gamma), variety) for gamma in group}


def incidence_table(translates, point):
    """Each distinct translate of a label_translates map through the point,
    in order of first appearance, mapped to the number of group elements
    that land on it."""
    counts = {}
    for image in translates.values():
        if image.contains(point):
            counts[image] = counts.get(image, 0) + 1
    return counts


def test_the_block_rule_matches_the_span_test():
    assert {frozenset(m.index(1) for m in f.terms) for f in PLANE_FORMS} == {
        frozenset({0, 2, 5}),
        frozenset({1, 3, 4}),
    }
    span = rref_linear_forms(list(PLANE_FORMS))

    def keeps_span(perm):
        m = perm.index_map()
        return rref_linear_forms([f.apply_permutation(m) for f in PLANE_FORMS]) == span

    induced = STANDARD_LABELS.induced_variable_permutation
    label = [induced(g) for g in PermGroup.generate([TAU, H_SHIFT])]
    assert [p for p in label if keeps_span(p)] == [p for p in label if _keeps_plane(p)]
    assert sum(map(_keeps_plane, label)) == 2
    for images in permutations(range(1, NVARS + 1)):
        perm = Permutation(images)
        assert _keeps_plane(perm) == keeps_span(perm), perm


@pytest.mark.parametrize("index", [0, 1])
def test_cached_translates_match_a_fresh_action_per_element(index):
    _label_action.cache_clear()
    _quadric_translates.cache_clear()
    cosets, hits = _quadric_translates(index)
    group = PermGroup.generate([TAU, H_SHIFT])
    quadric = QUADRIC_SURFACES[index]
    translates = label_translates(group, quadric)
    assert set(cosets) == set(group)
    assert hits == {
        g for g, image in translates.items() if image.contains(CUBE_ROOT_POINT)
    }
    # Each coset gK is exactly the set of h with h.S = g.S, which settles
    # equality on all 20 x 20 pairs; K is the stabilizer.
    for g in group:
        assert cosets[g] == {h for h in group if translates[h] == translates[g]}, g
    assert cosets[group.identity()] == {
        g for g, image in translates.items() if image == quadric
    }
    assert len(hits) == 8 and len(cosets[group.identity()]) == 2
    assert len(set(cosets.values())) == 10


def test_divisor_bookkeeping_from_the_translates_matches_the_group_path():
    _label_action.cache_clear()
    _quadric_translates.cache_clear()
    group = _label_group()
    x = QUADRIC_SURFACES[0]
    orbit, stabilizer = orbit_and_stabilizer(group, x, _act_on_quadric)
    table = incidence_table(label_translates(group, x), CUBE_ROOT_POINT)
    ok, details = _check_divisor_incidence(RunConfig())
    assert ok
    assert details == {
        "orbit_size": len(orbit),
        "stabilizer_order": stabilizer.order,
        "stabilizer": [str(g) for g in stabilizer],
        "hit_count": sum(table.values()),
        "distinct_through_point": len(table),
        "multiplicities": sorted(table.values()),
    }
    assert sorted(table.values()) == [2, 2, 2, 2]
