"""Unit tests for permutations, finite groups, and the label dictionary."""

import json
import random
import time
from itertools import permutations

import pytest

from s6quartic import (
    H_SHIFT,
    STANDARD_LABELS,
    TAU,
    PermGroup,
    irreducible_degrees,
    orbit_and_stabilizer,
    semidirect_structure_check,
)
from s6quartic.perms import GENERATE_CAP, LabelDictionary, Permutation
from s6quartic.checks import S_SWAP


def G20() -> PermGroup:
    return PermGroup.generate([TAU, H_SHIFT])


def symmetric(degree: int) -> PermGroup:
    """S_n, element by element; the package itself never builds it."""
    return PermGroup(map(Permutation, permutations(range(1, degree + 1))), degree)


class TestPermutation:
    def test_one_line_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation(())

    def test_str_round_trip(self):
        assert str(TAU) == "[1, 3, 5, 2, 4]"
        assert Permutation(json.loads(str(H_SHIFT))) == H_SHIFT

    def test_call_and_range(self):
        # One-line notation: position i holds the image of i.
        assert TAU(1) == 1
        assert TAU(2) == 3
        assert TAU(5) == 4
        with pytest.raises(ValueError):
            TAU(0)
        with pytest.raises(ValueError):
            TAU(6)

    def test_identity(self):
        e = Permutation.identity(5)
        assert e.is_identity()
        assert e * TAU == TAU
        assert TAU * e == TAU

    def test_composition_order(self):
        # (a * b)(i) = a(b(i)): the right factor acts first.
        a = Permutation((2, 1, 3))
        b = Permutation((1, 3, 2))
        assert (a * b)(2) == a(b(2)) == a(3) == 3
        assert (a * b).images == (2, 3, 1)
        assert (b * a).images == (3, 1, 2)
        with pytest.raises(ValueError):
            a * TAU

    def test_inverse_and_power(self):
        assert TAU * TAU.inverse() == Permutation.identity(5)
        assert TAU**-1 == TAU.inverse()
        assert TAU**4 == Permutation.identity(5)
        assert TAU**6 == TAU**2
        assert H_SHIFT**0 == Permutation.identity(5)

    def test_orders_of_named_elements(self):
        assert TAU.order() == 4
        assert H_SHIFT.order() == 5
        assert S_SWAP.order() == 2

    def test_distinguished_stabilizer_element(self):
        # h * tau^2 swaps labels 1,2 and 3,5 while fixing 4.
        assert (H_SHIFT * TAU**2).images == (2, 1, 5, 4, 3)

    def test_index_map_and_back(self):
        m = TAU.index_map()
        assert Permutation.from_index_map(m) == TAU

    def test_sorting(self):
        assert Permutation.identity(5) < TAU
        assert sorted([TAU, Permutation.identity(5)])[0].is_identity()


def _validated_product(a, b):
    return Permutation(tuple(a.images[v - 1] for v in b.images))


def _validated_inverse(p):
    return Permutation(tuple(p.images.index(i) + 1 for i in range(1, p.degree + 1)))


def _validated_power(p, exponent):
    base = p if exponent >= 0 else _validated_inverse(p)
    result = Permutation.identity(p.degree)
    for _ in range(abs(exponent)):
        result = _validated_product(result, base)
    return result


class TestUncheckedConstruction:
    """Products, inverses and powers skip validation; each must equal the
    validated construction and be a valid permutation itself."""

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_against_validated_constructions(self, degree):
        rng = random.Random(8100 + degree)
        for _ in range(40):
            a, b = (
                Permutation(rng.sample(range(1, degree + 1), degree))
                for _ in range(2)
            )
            exponent = rng.randint(-9, 9)
            for fast, slow in (
                (a * b, _validated_product(a, b)),
                (a.inverse(), _validated_inverse(a)),
                (a**exponent, _validated_power(a, exponent)),
            ):
                assert type(fast) is Permutation
                assert fast.images == slow.images
                assert Permutation(fast.images) == fast

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))


class TestPermGroup:
    def test_generate_order_20(self):
        g = G20()
        assert g.order == 20
        assert TAU in g
        assert H_SHIFT in g
        assert S_SWAP not in g

    def test_generate_validates(self):
        with pytest.raises(ValueError):
            PermGroup.generate([])
        with pytest.raises(ValueError):
            PermGroup.generate([TAU, Permutation((2, 1))])

    def test_generation_cap(self):
        # A transposition and an 8-cycle generate S8, of order 40320.
        gens = [
            Permutation((2, 1, 3, 4, 5, 6, 7, 8)),
            Permutation((2, 3, 4, 5, 6, 7, 8, 1)),
        ]
        with pytest.raises(ValueError) as info:
            PermGroup.generate(gens)
        assert str(info.value) == f"group order exceeds cap {GENERATE_CAP}"

    def test_iteration_is_sorted(self):
        elements = list(G20())
        assert elements == sorted(elements)
        assert elements[0].is_identity()

    def test_subgroup_relation(self):
        g = G20()
        h = PermGroup.generate([H_SHIFT])
        assert h.is_subgroup_of(g)
        assert g.is_subgroup_of(symmetric(5))
        assert not g.is_subgroup_of(h)


class TestStructure:
    def test_conjugacy_class_sizes(self):
        sizes = [len(c) for c in G20().conjugacy_classes()]
        assert sizes == [1, 4, 5, 5, 5]

    def test_class_containing_identity_is_first(self):
        classes = G20().conjugacy_classes()
        assert classes[0][0].is_identity()

    def test_normal_subgroup_orders(self):
        orders = sorted(n.order for n in G20().normal_subgroups())
        assert orders == [1, 5, 10, 20]

    def test_normal_subgroup_cap(self):
        with pytest.raises(ValueError):
            symmetric(6).normal_subgroups()

    def test_normal_subgroup_cap_counts_class_unions(self):
        # 5 disjoint transpositions: order 32 is under the order cap, but
        # its 31 non-identity classes would give 2^31 unions.
        swaps = [[i ^ (i // 2 == k) for i in range(10)] for k in range(5)]
        group = PermGroup.generate([Permutation.from_index_map(m) for m in swaps])
        assert group.order == 32
        start = time.perf_counter()
        with pytest.raises(ValueError, match="class unions"):
            group.normal_subgroups()
        assert time.perf_counter() - start < 1
        assert sorted(n.order for n in G20().normal_subgroups()) == [1, 5, 10, 20]

    def test_commutator_subgroup(self):
        derived = G20().commutator_subgroup()
        assert derived.order == 5
        assert derived == PermGroup.generate([H_SHIFT])
        # S4 has derived subgroup A4 of order 12.
        assert symmetric(4).commutator_subgroup().order == 12

    @pytest.mark.parametrize(
        "name", ["trivial", "S3", "S4", "D5", "C5", "G20"]
    )
    def test_commutator_subgroup_matches_the_closure_of_ordered_pairs(self, name):
        group = {
            "trivial": lambda: PermGroup.generate([Permutation.identity(3)]),
            "S3": lambda: symmetric(3),
            "S4": lambda: symmetric(4),
            "D5": lambda: PermGroup.generate(
                [Permutation([2, 3, 4, 5, 1]), Permutation([1, 5, 4, 3, 2])]
            ),
            "C5": lambda: PermGroup.generate([H_SHIFT]),
            "G20": G20,
        }[name]()
        # Every ordered commutator, closed under products by hand.
        closure = {
            a * b * a.inverse() * b.inverse() for a in group for b in group
        }
        frontier = set(closure)
        while frontier:
            new = {a * b for a in frontier for b in closure} - closure
            closure |= new
            frontier = new
        derived = group.commutator_subgroup()
        assert set(derived.elements) == closure
        assert derived.degree == group.degree

    def test_semidirect_product_structure(self):
        g = G20()
        translations = PermGroup.generate([H_SHIFT])
        complement = PermGroup.generate([TAU])
        assert semidirect_structure_check(g, translations, complement)
        # Swapping the roles fails: the order-4 subgroup is not normal.
        assert not semidirect_structure_check(g, complement, translations)
        # Normal, with orders multiplying to 4, but the two subgroups meet
        # in the double transposition.
        cyclic = PermGroup.generate([Permutation((2, 3, 4, 1))])
        half_turn = PermGroup.generate([Permutation((3, 4, 1, 2))])
        assert not semidirect_structure_check(cyclic, half_turn, half_turn)

    def test_semidirect_rejects_non_subgroups(self):
        g = G20()
        with pytest.raises(ValueError):
            semidirect_structure_check(
                PermGroup.generate([H_SHIFT]), g, PermGroup.generate([TAU])
            )


class TestIrreducibleDegrees:
    def test_frobenius_group_of_order_20(self):
        assert irreducible_degrees(G20()) == (1, 1, 1, 1, 4)

    def test_cyclic_group(self):
        assert irreducible_degrees(PermGroup.generate([H_SHIFT])) == (1,) * 5

    def test_symmetric_group_4(self):
        assert irreducible_degrees(symmetric(4)) == (1, 1, 2, 3, 3)

    def test_symmetric_group_5_is_ambiguous(self):
        # Order 120, 7 classes, abelianization 2: two multisets fit.
        with pytest.raises(ValueError) as info:
            irreducible_degrees(symmetric(5))
        assert "(2, 3, 4, 5, 8)" in str(info.value)
        assert "(4, 4, 5, 5, 6)" in str(info.value)

    def test_cap(self):
        with pytest.raises(ValueError):
            irreducible_degrees(symmetric(6))


class TestOrbitStabilizer:
    def test_natural_action(self):
        g = G20()
        orbit, stab = orbit_and_stabilizer(g, 1, lambda p, x: p(x))
        assert sorted(orbit) == [1, 2, 3, 4, 5]
        assert stab.order == 4
        assert len(orbit) * stab.order == g.order

    def test_stabilizer_is_a_group(self):
        g = G20()
        _, stab = orbit_and_stabilizer(g, 4, lambda p, x: p(x))
        assert stab.is_subgroup_of(g)

    def test_custom_equality(self):
        g = PermGroup.generate([Permutation((2, 3, 1))])
        # Act on strings via positions; images are keyed by hash and ==.
        orbit, stab = orbit_and_stabilizer(
            g,
            "abc",
            lambda p, s: "".join(s[p(i) - 1] for i in range(1, 4)),
        )
        assert len(orbit) * stab.order == g.order

    def test_inconsistent_action_rejected(self):
        g = G20()
        with pytest.raises(ValueError) as info:
            orbit_and_stabilizer(g, 1, lambda p, x: x + 1)
        assert "action inconsistency" in str(info.value)


class TestLabelDictionary:
    def test_default_mapping(self):
        assert STANDARD_LABELS.label_to_var == {1: 2, 2: 0, 3: 4, 4: 3, 5: 1}

    def test_induced_variable_permutations(self):
        d = LabelDictionary()
        assert d.induced_variable_permutation(TAU).index_map() == (4, 3, 2, 0, 1, 5)
        assert d.induced_variable_permutation(H_SHIFT).index_map() == (4, 2, 0, 1, 3, 5)
        # The transposition of labels 1,2 swaps variables x0 and x2.
        assert d.induced_variable_permutation(S_SWAP).index_map() == (2, 1, 0, 3, 4, 5)

    def test_induced_fixes_last_variable(self):
        d = LabelDictionary()
        for sigma in PermGroup.generate([TAU, H_SHIFT]):
            assert d.induced_variable_permutation(sigma).index_map()[5] == 5

    def test_induced_is_homomorphism(self):
        d = LabelDictionary()
        lhs = d.induced_variable_permutation(H_SHIFT * TAU)
        rhs = d.induced_variable_permutation(H_SHIFT) * d.induced_variable_permutation(TAU)
        assert lhs == rhs

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            LabelDictionary().induced_variable_permutation(Permutation.identity(6))
