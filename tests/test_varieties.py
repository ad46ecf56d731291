"""Unit tests for projective points, sliced varieties, and the quartic family."""

from fractions import Fraction

import pytest

from s6quartic import (
    CUBE_ROOT_POINT,
    H_SHIFT,
    OMEGA,
    PLANE_FORMS,
    QUADRIC_PAIR,
    QUADRIC_SURFACES,
    SIGN_POINT,
    TAU,
    Eisenstein,
    PermGroup,
    Polynomial,
    ProjectivePoint,
    act_on_variety,
    family_member,
    is_node,
    is_singular_on_family,
    parse_point_coordinates,
    projective_orbit,
    quartic_family,
    restrict_to_plane,
    restriction_factorization_check,
    scan_alphabet,
    singular_t_values,
)
from s6quartic.eisenstein import OMEGA_SQUARED
from s6quartic.poly import X
from s6quartic.linalg import ALL_T, EMPTY, TSolutionSet
from s6quartic.perms import LabelDictionary, Permutation
from s6quartic import varieties
from s6quartic.varieties import (
    SCAN_CAP,
    LinearSliceVariety,
    act_on_point,
    quadric_pair_quotient,
)
from s6quartic.checks import S_SWAP
from test_geometry_oracle import incidence_table, label_translates

X0, X1, X2, X3, X4, X5 = X
W = OMEGA
W2 = OMEGA_SQUARED

DICT = LabelDictionary()
COORD_G20 = PermGroup.generate(
    [DICT.induced_variable_permutation(TAU), DICT.induced_variable_permutation(H_SHIFT)]
)


@pytest.fixture(scope="module")
def cube_orbit():
    return projective_orbit(CUBE_ROOT_POINT)


@pytest.fixture(scope="module")
def sign_orbit():
    return projective_orbit(SIGN_POINT)


class TestProjectivePoint:
    def test_normalization(self):
        p = ProjectivePoint([2, 2, 2 * W, 2 * W, 2 * W2, 2 * W2])
        assert p == CUBE_ROOT_POINT
        assert p[0] == Eisenstein(1)

    def test_normalization_skips_leading_zeros(self):
        p = ProjectivePoint([0, 0, W, 0, 0, 0])
        assert list(p) == [Eisenstein(0)] * 2 + [Eisenstein(1)] + [Eisenstein(0)] * 3

    def test_normalization_is_idempotent(self):
        p = ProjectivePoint([3, -3, 0, 0, 0, 0])
        assert ProjectivePoint(list(p)) == p

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="all coordinates are zero"):
            ProjectivePoint([0, Fraction(0), Eisenstein(0), 0, 0, 0])

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ProjectivePoint([1, 2, 3])

    def test_from_text(self):
        parsed = ProjectivePoint(parse_point_coordinates("[1, 1, w, w, w^2, w^2]"))
        assert parsed == CUBE_ROOT_POINT
        parsed = ProjectivePoint(parse_point_coordinates("[2, 2, 2, -2, -2, -2]"))
        assert parsed == SIGN_POINT

    def test_scaling_invariance_of_equality_and_hash(self):
        a = ProjectivePoint([1, W, 0, 0, 0, 0])
        b = ProjectivePoint([W, W * W, 0, 0, 0, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_str(self):
        assert str(CUBE_ROOT_POINT) == "[1 : 1 : w : w : -1 - w : -1 - w]"
        assert str(SIGN_POINT) == "[1 : 1 : 1 : -1 : -1 : -1]"

    def test_sort_key_gives_total_order(self):
        pts = [SIGN_POINT, CUBE_ROOT_POINT]
        assert sorted(pts, key=lambda p: p.sort_key()) == sorted(
            pts, key=lambda p: p.sort_key()
        )


class TestPointAction:
    def test_identity_action(self):
        e = DICT.induced_variable_permutation(TAU**0)
        assert act_on_point(e, CUBE_ROOT_POINT) == CUBE_ROOT_POINT

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            act_on_point(TAU, CUBE_ROOT_POINT)

    def test_action_composes_on_the_left(self):
        g = DICT.induced_variable_permutation(TAU)
        d = DICT.induced_variable_permutation(H_SHIFT)
        p = ProjectivePoint([1, 2, 3, 4, 5, 6])
        assert act_on_point(g, act_on_point(d, p)) == act_on_point(g * d, p)

    def test_pushforward_equivariance_with_polynomials(self):
        g = DICT.induced_variable_permutation(TAU)
        poly = X0**2 * X3 + W * X5
        p = ProjectivePoint([1, 2, W, 0, -1, W2])
        moved_poly = poly.apply_permutation(g.index_map())
        moved_point = act_on_point(g, p)
        # The pair (pushforward, pushforward) preserves evaluation up to the
        # scaling absorbed by point normalization; both sides vanish together.
        original = poly.evaluate(list(p))
        moved = moved_poly.evaluate(list(moved_point))
        assert (original == Eisenstein(0)) == (moved == Eisenstein(0))


class TestLinearSliceVariety:
    def test_contains(self):
        x6 = family_member(6)
        assert x6.contains(SIGN_POINT)
        assert x6.contains(CUBE_ROOT_POINT)
        assert not x6.contains(ProjectivePoint([1, 0, 0, 0, 0, 0]))

    def test_linear_forms_are_echelonized(self):
        v = LinearSliceVariety([X1 + X2 + X4, X0 + X2 + X5], X0**2)
        assert [str(f) for f in v.linear_forms] == ["x0 + x2 + x5", "x1 + x2 + x4"]

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSliceVariety([X0 + 1], X0**2)  # inhomogeneous linear form
        with pytest.raises(ValueError):
            LinearSliceVariety([], X0)  # degree-1 form in the form slot
        with pytest.raises(ValueError):
            LinearSliceVariety([], Polynomial.zero())
        with pytest.raises(ValueError):
            LinearSliceVariety([], X0**2 + X1)  # inhomogeneous

    def test_list_of_forms_is_refused(self):
        # The constructor holds exactly one form, so the list shape of
        # several forms is a type error rather than a different slice.
        for forms in ([QUADRIC_PAIR[0]], [], list(QUADRIC_PAIR)):
            with pytest.raises(TypeError):
                LinearSliceVariety(PLANE_FORMS, forms)

    def test_no_linear_forms(self):
        cone = LinearSliceVariety([], X0**2 - X1 * X2)
        assert cone.linear_forms == ()
        assert cone.contains(ProjectivePoint([1, 1, 1, 5, 7, 9]))
        assert not cone.contains(ProjectivePoint([1, 0, 0, 0, 0, 0]))

    def test_quadric_surfaces_contain_base_point(self):
        for surface in QUADRIC_SURFACES:
            assert surface.contains(CUBE_ROOT_POINT)
            assert not surface.contains(SIGN_POINT)


class TestCanonicalization:
    def test_scaling_invariance(self):
        q1 = QUADRIC_PAIR[0]
        a = LinearSliceVariety(list(PLANE_FORMS), q1)
        b = LinearSliceVariety([2 * f for f in PLANE_FORMS], W * q1)
        assert a == b
        assert hash(a) == hash(b)

    def test_reordered_linear_forms(self):
        a = LinearSliceVariety([PLANE_FORMS[1], PLANE_FORMS[0]], QUADRIC_PAIR[0])
        assert a == QUADRIC_SURFACES[0]

    def test_distinct_conjugates(self):
        assert QUADRIC_SURFACES[0] != QUADRIC_SURFACES[1]
        assert not QUADRIC_SURFACES[0] == QUADRIC_SURFACES[1]

    def test_degenerate_slice_rejected(self):
        # x0*(x0 + x2 + x5) lies in the ideal of the plane, so the sliced
        # quadric collapses.
        q = X0 * (X0 + X2 + X5)
        with pytest.raises(ValueError) as info:
            canonical = LinearSliceVariety(list(PLANE_FORMS), q).canonical()
        assert "degenerate" in str(info.value)

    def test_general_shape_equality(self):
        a = family_member(6)
        linear, quartic = (a.linear_forms[0], a.form)
        scaled = LinearSliceVariety([linear], W * quartic)
        assert scaled == a

    def test_higher_forms_reduced_modulo_the_span(self):
        # Q + L*x0^3 and Q agree on the hyperplane L = 0.
        member = family_member(6)
        linear, quartic = member.linear_forms[0], member.form
        shifted = LinearSliceVariety([linear], quartic + linear * X0**3)
        assert shifted == member
        assert hash(shifted) == hash(member)

    def test_reduction_with_three_linear_forms(self):
        span = [X0 + X1, X2 - X3, X4 + X5]
        # On the span x0 = -x1, x2 = x3, x4 = -x5 both forms reduce to
        # -x1*x3*x5, the first scaled by -1.
        a = LinearSliceVariety(span, X1 * X3 * X5)
        b = LinearSliceVariety(
            [span[2], 3 * span[0], span[1] + span[0]],
            X0 * X2 * X5 + span[1] * X2**2 + span[0] * X4**2,
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a != LinearSliceVariety(span, X1 * X3 * X5 + X1**3)
        assert a != LinearSliceVariety(span[:2], X1 * X3 * X5)

    def test_quadric_image_identities(self):
        # tau^2 and h^4 push the first quadric surface to the same image,
        # and h*tau^2 stabilizes it.
        t2 = DICT.induced_variable_permutation(TAU**2)
        h4 = DICT.induced_variable_permutation(H_SHIFT**4)
        ht2 = DICT.induced_variable_permutation(H_SHIFT * TAU**2)
        q = QUADRIC_SURFACES[0]
        assert act_on_variety(t2, q) == act_on_variety(h4, q)
        assert act_on_variety(t2, q) != q
        assert act_on_variety(ht2, q) == q


class TestIncidence:
    """The test-side translate map the quadric-translate checks are
    compared with in test_geometry_oracle."""

    def test_trivial_group_single_hit(self):
        translates = label_translates(
            PermGroup([Permutation.identity(5)], 5), QUADRIC_SURFACES[0]
        )
        table = incidence_table(translates, CUBE_ROOT_POINT)
        assert table == {QUADRIC_SURFACES[0]: 1}

    def test_full_orbit_incidence(self):
        g20 = PermGroup.generate([TAU, H_SHIFT])
        translates = label_translates(g20, QUADRIC_SURFACES[0])
        table = incidence_table(translates, CUBE_ROOT_POINT)
        assert sum(table.values()) == 8
        assert len(table) == 4
        assert list(table.values()) == [2, 2, 2, 2]
        assert all(v.contains(CUBE_ROOT_POINT) for v in table)

    def test_group_degree_checked(self):
        with pytest.raises(ValueError):
            label_translates(
                PermGroup([Permutation.identity(6)], 6), QUADRIC_SURFACES[0]
            )


class TestOrbits:
    def test_coordinate_point_orbit_under_s6(self):
        p = ProjectivePoint([1, 0, 0, 0, 0, 0])
        assert len(projective_orbit(p)) == 6

    def test_cube_root_orbit_size_30(self, cube_orbit):
        assert len(cube_orbit) == 30
        assert CUBE_ROOT_POINT in cube_orbit

    def test_sign_orbit_size_10(self, sign_orbit):
        assert len(sign_orbit) == 10

    def test_orbits_disjoint(self, cube_orbit, sign_orbit):
        assert not (set(cube_orbit) & set(sign_orbit))

    def test_orbit_is_sorted_and_deduped(self, sign_orbit):
        keys = [p.sort_key() for p in sign_orbit]
        assert keys == sorted(keys)
        assert len(set(sign_orbit)) == len(sign_orbit)


class TestSingularity:
    def test_base_point_singular_for_any_t(self):
        for t in (0, 6, Fraction(7, 3)):
            assert is_singular_on_family(t, CUBE_ROOT_POINT)

    def test_sign_point_singular_exactly_at_6(self):
        assert is_singular_on_family(6, SIGN_POINT)
        assert not is_singular_on_family(7, SIGN_POINT)
        assert not is_singular_on_family(5, SIGN_POINT)

    def test_point_off_hyperplane_is_not_on_member(self):
        assert not is_singular_on_family(6, ProjectivePoint([1, 0, 0, 0, 0, 0]))

    def test_generic_member_point_is_smooth(self):
        # On the t = 6 member but smooth there.
        p = ProjectivePoint([1, -2 - W, 1, 0, 2 + W, -2])
        assert family_member(6).contains(p)
        assert not is_singular_on_family(6, p)

    def test_t_values_for_base_point(self):
        assert singular_t_values(CUBE_ROOT_POINT) == ALL_T

    def test_t_values_for_sign_point(self):
        assert singular_t_values(SIGN_POINT) == TSolutionSet.finite([Fraction(6)])

    def test_t_values_for_generic_point(self):
        p = ProjectivePoint([1, -2 - W, 1, 0, 2 + W, -2])
        assert singular_t_values(p) == EMPTY

    def test_t_values_where_p4_vanishes_but_p2_does_not(self):
        # The quartic is -p2^2 at every t, nonzero at the point.
        p = ProjectivePoint(
            parse_point_coordinates("[1, 1, 1/2 - w, w, -1 + 1/2*w, -3/2 - 1/2*w]")
        )
        assert singular_t_values(p) == EMPTY

    def test_t_values_where_p2_and_p4_vanish_but_cubes_differ(self):
        # On the double quadric t = 0 only: the gradient is 4t*x_i^3.
        p = ProjectivePoint([1, W, W * W, 0, 0, 0])
        assert singular_t_values(p) == TSolutionSet.finite([0])

    def test_t_values_requires_hyperplane_point(self):
        with pytest.raises(ValueError) as info:
            singular_t_values(ProjectivePoint([1, 0, 0, 0, 0, 0]))
        assert "requires the linear form to vanish" in str(info.value)


class TestNodes:
    def test_orbit_points_are_nodes_at_t_6(self):
        assert is_node(6, CUBE_ROOT_POINT)
        assert is_node(6, SIGN_POINT)

    def test_degenerate_singularity_is_not_a_node(self):
        p = ProjectivePoint([1, W, W2, 0, 0, 0])
        assert is_singular_on_family(0, p)
        assert not is_node(0, p)

    def test_smooth_point_rejected(self):
        with pytest.raises(ValueError) as info:
            is_node(7, SIGN_POINT)
        assert "smooth" in str(info.value)

    def test_node_test_is_action_invariant(self):
        g = DICT.induced_variable_permutation(TAU)
        assert is_node(6, act_on_point(g, SIGN_POINT))


class TestScans:
    def test_sign_alphabet_at_6_recovers_orbit(self, sign_orbit):
        found = scan_alphabet(6, [Eisenstein(1), Eisenstein(-1)])
        assert tuple(found) == sign_orbit

    def test_sign_alphabet_at_7_is_empty(self):
        assert scan_alphabet(7, [Eisenstein(1), Eisenstein(-1)]) == []

    def test_cube_root_alphabet_recovers_orbit(self, cube_orbit):
        letters = [Eisenstein(1), W, W2]
        found = scan_alphabet(6, letters)
        assert tuple(found) == cube_orbit

    def test_scan_results_are_singular(self):
        for p in scan_alphabet(6, [Eisenstein(0), Eisenstein(1), Eisenstein(-1)]):
            assert is_singular_on_family(6, p)

    def test_duplicate_letters_collapse(self):
        a = scan_alphabet(6, [Eisenstein(1), Eisenstein(1), Eisenstein(-1)])
        b = scan_alphabet(6, [Eisenstein(1), Eisenstein(-1)])
        assert a == b

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            scan_alphabet(6, [])
        with pytest.raises(ValueError) as info:
            scan_alphabet(6, range(-7, 8))
        assert str(info.value) == "scan space 15^6 exceeds the cap 10000000"
        assert 15**6 > SCAN_CAP >= 14**6

    def test_scan_is_deterministic(self):
        letters = [Eisenstein(1), Eisenstein(-1)]
        assert scan_alphabet(6, letters) == scan_alphabet(6, letters)


_PARAMETER_ENTRY_POINTS = {
    "quartic_family": quartic_family,
    "family_member": family_member,
    "restriction_factorization_check": restriction_factorization_check,
    "is_singular_on_family": lambda t: is_singular_on_family(t, SIGN_POINT),
    "is_node": lambda t: is_node(t, CUBE_ROOT_POINT),
    "scan_alphabet": lambda t: scan_alphabet(t, [1, -1]),
}


class TestFamilyParameter:
    @pytest.mark.parametrize("t", [0.1, 6.0, "6"], ids=repr)
    @pytest.mark.parametrize("name", sorted(_PARAMETER_ENTRY_POINTS))
    def test_float_and_text_parameters_are_refused(self, name, t):
        with pytest.raises(TypeError) as info:
            _PARAMETER_ENTRY_POINTS[name](t)
        assert str(info.value) == (
            f"a family parameter is an int or Fraction, not {t!r}"
        )

    @pytest.mark.parametrize("name", sorted(_PARAMETER_ENTRY_POINTS))
    def test_int_and_fraction_parameters_agree(self, name):
        call = _PARAMETER_ENTRY_POINTS[name]
        for t in (6, 7):
            assert call(t) == call(Fraction(t))

    def test_int_and_fraction_results(self):
        assert is_singular_on_family(6, SIGN_POINT)
        assert is_node(Fraction(6), SIGN_POINT)
        assert not is_singular_on_family(Fraction(13, 2), SIGN_POINT)
        assert len(scan_alphabet(Fraction(6), [1, -1])) == 10
        assert restriction_factorization_check(Fraction(6)) == Eisenstein(8)


class TestPlaneRestriction:
    def test_restrict_eliminates_two_variables(self):
        restricted = restrict_to_plane(family_member(6).form)
        assert restricted.variables_used() <= {0, 1, 2, 3}

    def test_factorization_at_6(self):
        assert restriction_factorization_check(6) == Eisenstein(8)
        q1, q2 = QUADRIC_PAIR
        assert restrict_to_plane(family_member(6).form) == 8 * q1 * q2

    def test_factorization_fails_off_6(self):
        for t in (0, 2, 7):
            assert restriction_factorization_check(t) is None

    def test_quotient_of_exact_product(self):
        q1, q2 = QUADRIC_PAIR
        assert quadric_pair_quotient(q1 * q2) == Eisenstein(1)
        assert quadric_pair_quotient(-3 * q1 * q2) == Eisenstein(-3)

    def test_quotient_rejects_non_multiples(self):
        assert quadric_pair_quotient(X0**4) is None
        assert quadric_pair_quotient(QUADRIC_PAIR[0] ** 2) is None


class TestFamilyCacheBound:
    def test_many_fresh_parameters_stay_within_the_bound(self):
        # No family member is memoised per t, so fresh t values hold nothing.
        for k in range(100):
            t = Fraction(2 * k + 1, 7)
            assert is_singular_on_family(t, CUBE_ROOT_POINT)
            is_node(t, CUBE_ROOT_POINT)
            assert family_member(t).contains(CUBE_ROOT_POINT)
        assert not any(hasattr(v, "cache_info") for v in vars(varieties).values())
