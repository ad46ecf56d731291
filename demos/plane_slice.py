"""Slicing the t = 6 member by a distinguished plane: the exact factorization.

Run with: python3 demos/plane_slice.py
"""

from s6quartic import (
    PLANE_FORMS,
    QUADRIC_PAIR,
    divide_exact,
    family_member,
    gram_matrix,
    restrict_to_plane,
    restriction_factorization_check,
)


def main() -> None:
    print("Two linear forms cut out a distinguished projective 3-space:")
    for form in PLANE_FORMS:
        print(f"  {form} = 0")
    print()

    print("Restricting the t = 6 quartic to that subspace (substituting the")
    print("two pivot variables away) leaves a quartic in x0..x3:")
    quartic = family_member(6).form
    restricted = restrict_to_plane(quartic)
    print(f"  {len(restricted.terms)} terms in variables {sorted(restricted.variables_used())}")
    print()

    print("A conjugate pair of quadratic forms:")
    q1, q2 = QUADRIC_PAIR
    print(f"  q1 = {q1}")
    print(f"  q2 = {q2}")
    print()

    print("The restriction factors exactly as a scalar times q1*q2:")
    scalar = restriction_factorization_check(6)
    print(f"  factors: {scalar is not None}   scalar: {scalar}")
    assert str(scalar) == "8"
    assert restricted == 8 * q1 * q2
    print()

    print("Exact division confirms the quotients both ways:")
    print(f"  restricted / q1 = 8*q2? {divide_exact(restricted, q1) == 8 * q2}")
    print(f"  restricted / q2 = 8*q1? {divide_exact(restricted, q2) == 8 * q1}")
    assert divide_exact(restricted, q1) == 8 * q2
    assert divide_exact(restricted, q2) == 8 * q1
    print()

    print("Away from t = 6 the factorization breaks down:")
    for t in (0, 2, 7):
        scalar = restriction_factorization_check(t)
        print(f"  t = {t}: factors? {scalar is not None}")
        assert scalar is None
    print()

    print("Each quadric is a smooth surface in the 3-space: its symmetric")
    print("Gram matrix over the four variables has full rank 4:")
    for name, q in (("q1", q1), ("q2", q2)):
        rank = gram_matrix(q, [0, 1, 2, 3]).rank()
        print(f"  rank of Gram({name}) = {rank}")
        assert rank == 4
    print("done.")


if __name__ == "__main__":
    main()
