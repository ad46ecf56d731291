"""The order-20 label group, its coordinate action, and orbit bookkeeping.

Run with: python3 demos/group_action.py
"""

from s6quartic import (
    CUBE_ROOT_POINT,
    H_SHIFT,
    QUADRIC_SURFACES,
    SIGN_POINT,
    STANDARD_LABELS,
    TAU,
    PermGroup,
    act_on_variety,
    irreducible_degrees,
    orbit_and_stabilizer,
    projective_orbit,
    semidirect_structure_check,
)


def main() -> None:
    print("Two permutations of the labels 1..5 generate a group of order 20:")
    print(f"  tau = {TAU}   (order {TAU.order()})")
    print(f"  h   = {H_SHIFT}   (order {H_SHIFT.order()})")
    group = PermGroup.generate([TAU, H_SHIFT])
    print(f"  |<tau, h>| = {group.order}")
    assert group.order == 20
    print()

    print("Its normal subgroups and semidirect decomposition:")
    orders = sorted(n.order for n in group.normal_subgroups())
    print(f"  normal subgroup orders: {orders}")
    translations = PermGroup.generate([H_SHIFT])
    complement = PermGroup.generate([TAU])
    ok = semidirect_structure_check(group, translations, complement)
    print(f"  <h> normal, <tau> complement, orders 5 x 4 = 20: {ok}")
    assert orders == [1, 5, 10, 20] and ok
    print()

    print("Complex irreducible representation degrees, recovered from the")
    print("class count and the abelianization alone:")
    degrees = irreducible_degrees(group)
    print(f"  degrees: {degrees}")
    assert degrees == (1, 1, 1, 1, 4)
    print()

    print("The label group acts on the five labels transitively:")
    orbit, stabilizer = orbit_and_stabilizer(group, 1, lambda p, x: p(x))
    print(f"  orbit of 1: {sorted(orbit)}   stabilizer order: {stabilizer.order}")
    assert len(orbit) * stabilizer.order == group.order
    print()

    print("A dictionary identifies labels with coordinates (label 5 is spare,")
    print("the sixth coordinate is fixed):")
    print(f"  label -> variable: {STANDARD_LABELS.label_to_var}")
    induced_tau = STANDARD_LABELS.induced_variable_permutation(TAU)
    print(f"  tau acts on (x0..x5) by index map {induced_tau.index_map()}")
    print()

    print("Orbits of the distinguished points under all 720 coordinate")
    print("permutations:")
    cube_orbit = projective_orbit(CUBE_ROOT_POINT)
    sign_orbit = projective_orbit(SIGN_POINT)
    print(f"  |orbit of o | = {len(cube_orbit)}")
    print(f"  |orbit of o'| = {len(sign_orbit)}")
    assert (len(cube_orbit), len(sign_orbit)) == (30, 10)
    print()

    print("How translates of one quadric surface pass through o: the group")
    print("has order 20, 8 translates hit the point, and they bunch into 4")
    print("distinct surfaces counted twice each:")
    # Each translate through o, with the number of elements landing on it;
    # slices compare, and so hash, by their canonical forms.
    table = {}
    for g in group:
        induced = STANDARD_LABELS.induced_variable_permutation(g)
        image = act_on_variety(induced, QUADRIC_SURFACES[0])
        if image.contains(CUBE_ROOT_POINT):
            table[image] = table.get(image, 0) + 1
    multiplicities = list(table.values())
    print(f"  hits: {sum(multiplicities)}")
    print(f"  distinct surfaces through o: {len(table)}")
    print(f"  multiplicities: {multiplicities}")
    assert sum(multiplicities) == 8 and multiplicities == [2, 2, 2, 2]
    print()

    print("The stabilizing element h*tau^2 genuinely fixes the surface:")
    ht2 = STANDARD_LABELS.induced_variable_permutation(H_SHIFT * TAU**2)
    fixed = act_on_variety(ht2, QUADRIC_SURFACES[0]) == QUADRIC_SURFACES[0]
    print(f"  h*tau^2 = {H_SHIFT * TAU ** 2} fixes the surface: {fixed}")
    assert fixed
    print("done.")


if __name__ == "__main__":
    main()
