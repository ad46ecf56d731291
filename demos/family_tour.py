"""A tour of the quartic family: members, singular points, and node tests.

Run with: python3 demos/family_tour.py
"""

from fractions import Fraction

from s6quartic import (
    CUBE_ROOT_POINT,
    SIGN_POINT,
    ProjectivePoint,
    family_member,
    is_node,
    is_singular_on_family,
    parse_point_coordinates,
    quartic_family,
    singular_t_values,
)


def main() -> None:
    print("The family lives in the hyperplane where the coordinates sum to zero.")
    linear, quartic = quartic_family(6)
    print(f"  linear form : {linear}")
    print(f"  quartic (t=6) has {len(quartic.terms)} terms, degree {quartic.degree()}")
    print()

    print("Two distinguished points:")
    print(f"  cube-root point  o  = {CUBE_ROOT_POINT}")
    print(f"  balanced signs   o' = {SIGN_POINT}")
    print()

    print("Where is each point a singular point of the family member?")
    for name, point in (("o ", CUBE_ROOT_POINT), ("o'", SIGN_POINT)):
        solutions = singular_t_values(point)
        print(f"  {name}: singular exactly for t in {solutions}")
    assert str(singular_t_values(CUBE_ROOT_POINT)) == "all-t"
    assert str(singular_t_values(SIGN_POINT)) == "{6}"
    print()

    print("Spot checks with the membership and singularity predicates:")
    x6 = family_member(6)
    for t in (5, 6, 7):
        flag = is_singular_on_family(t, SIGN_POINT)
        print(f"  t = {t}: o' singular? {flag}")
    assert x6.contains(SIGN_POINT)
    assert is_singular_on_family(6, SIGN_POINT)
    assert not is_singular_on_family(7, SIGN_POINT)
    print()

    print("Both distinguished points are ordinary double points (nodes) at t = 6:")
    for name, point in (("o ", CUBE_ROOT_POINT), ("o'", SIGN_POINT)):
        print(f"  {name}: node? {is_node(6, point)}")
    assert is_node(6, CUBE_ROOT_POINT) and is_node(6, SIGN_POINT)
    print()

    print("Not every singular point is a node.  At t = 0 the point below is")
    print("singular with a degenerate (rank-1) Hessian:")
    degenerate = ProjectivePoint(parse_point_coordinates("[1, w, w^2, 0, 0, 0]"))
    print(f"  p = {degenerate}")
    print(f"  singular at t = 0? {is_singular_on_family(0, degenerate)}")
    print(f"  node at t = 0?     {is_node(0, degenerate)}")
    assert is_singular_on_family(0, degenerate)
    assert not is_node(0, degenerate)
    print()

    print("A generic member point is smooth, so no parameter makes it singular:")
    generic = ProjectivePoint(parse_point_coordinates("[1, -2 - w, 1, 0, 2 + w, -2]"))
    assert family_member(6).contains(generic)
    print(f"  p = {generic} lies on the t = 6 member")
    print(f"  singular parameter set: {singular_t_values(generic)}")
    assert str(singular_t_values(generic)) == "empty"

    print()
    print("Rational parameters work throughout:")
    half = Fraction(1, 2)
    print(f"  o singular at t = 1/2? {is_singular_on_family(half, CUBE_ROOT_POINT)}")
    assert is_singular_on_family(half, CUBE_ROOT_POINT)
    print("done.")


if __name__ == "__main__":
    main()
