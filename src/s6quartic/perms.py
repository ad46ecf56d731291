"""Permutations in one-line notation and small permutation groups.

One-line notation writes a permutation of {1..n} as the list of images
(i1 i2 ... in), meaning 1 -> i1, 2 -> i2, and so on.  This is the only
input notation: it matches how the group generators are quoted, and it is
unambiguous where cycle notation would need extra convention.

Groups are stored as explicit sorted element tuples, which keeps every
derived computation (conjugacy classes, normal subgroups, commutators)
deterministic.  All of this is sized for groups of order a few hundred.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

GENERATE_CAP = 5040
SUBGROUP_SCAN_CAP = 120

_new = object.__new__


def _perm(images: tuple) -> "Permutation":
    """Wrap an images tuple that is already a one-line permutation.

    Products, inverses and powers are bijections by construction, so they
    skip the validation of the public constructor.
    """
    p = _new(Permutation)
    p.images = images
    return p


class Permutation:
    """A bijection of {1..n} in one-line notation; immutable and ordered."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if not imgs or sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a one-line permutation of 1..n: {imgs!r}")
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_index_map(cls, index_map: Sequence[int]) -> "Permutation":
        """Build from a 0-based image map (index_map[i] = image of i)."""
        return cls(tuple(v + 1 for v in index_map))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self.images[point - 1]

    def index_map(self) -> tuple:
        """The same bijection on {0..n-1}, for acting on sequences."""
        return tuple(v - 1 for v in self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degree")
        images = self.images
        return _perm(tuple([images[v - 1] for v in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images, 1):
            inv[v - 1] = i
        return _perm(tuple(inv))

    def __pow__(self, exponent: int) -> "Permutation":
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        result = Permutation.identity(self.degree)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def order(self) -> int:
        power = self
        n = 1
        while not power.is_identity():
            power = power * self
            n += 1
        return n

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Permutation"):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return "[" + ", ".join(str(v) for v in self.images) + "]"


class PermGroup:
    """A finite permutation group as an explicit sorted element tuple.

    The constructor trusts its caller: the elements must already be a
    closed set of permutations of the given degree.
    """

    __slots__ = ("degree", "elements")

    def __init__(self, elements: Iterable[Permutation], degree: int):
        self.degree = degree
        self.elements = tuple(sorted(elements))

    @classmethod
    def generate(cls, generators: Sequence[Permutation]) -> "PermGroup":
        """Closure of the generators under composition, bounded by
        GENERATE_CAP."""
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        seen = {Permutation.identity(degree)}
        frontier = list(seen)
        while frontier:
            new = []
            for g in frontier:
                for s in gens:
                    e = s * g
                    if e not in seen:
                        seen.add(e)
                        new.append(e)
            if len(seen) > GENERATE_CAP:
                raise ValueError(f"group order exceeds cap {GENERATE_CAP}")
            frontier = new
        return cls(seen, degree)

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"PermGroup(order={self.order}, degree={self.degree})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and set(self.elements) <= set(
            other.elements
        )

    def conjugacy_classes(self) -> list:
        """Partition into conjugacy classes, each a sorted tuple; the class
        list is ordered by (size, smallest member)."""
        remaining = set(self.elements)
        with_inverses = [(g, g.inverse()) for g in self.elements]
        classes = []
        while remaining:
            seed = min(remaining)
            cls_set = {g * seed * g_inv for g, g_inv in with_inverses}
            classes.append(tuple(sorted(cls_set)))
            remaining -= cls_set
        classes.sort(key=lambda c: (len(c), c[0]))
        return classes

    def normal_subgroups(self) -> list:
        """All normal subgroups, found by closing unions of conjugacy
        classes that contain the identity and keeping the closed ones.
        SUBGROUP_SCAN_CAP bounds the order and the 2^k unions of k classes."""
        from itertools import combinations

        if self.order > SUBGROUP_SCAN_CAP:
            raise ValueError(
                f"group order {self.order} exceeds cap {SUBGROUP_SCAN_CAP}"
            )
        ident = self.identity()
        classes = self.conjugacy_classes()
        others = [c for c in classes if c != (ident,)]
        if 2 ** len(others) > SUBGROUP_SCAN_CAP:
            raise ValueError(
                f"{2 ** len(others)} class unions exceed cap {SUBGROUP_SCAN_CAP}"
            )
        found = []
        for k in range(len(others) + 1):
            for pick in combinations(range(len(others)), k):
                union = {ident}
                for idx in pick:
                    union.update(others[idx])
                if self.order % len(union) != 0:
                    continue
                if all(a * b in union for a in union for b in union):
                    found.append(PermGroup(union, self.degree))
        found.sort(key=lambda g: (g.order, g.elements))
        return found

    def commutator_subgroup(self) -> "PermGroup":
        """The subgroup generated by every commutator [a, b] = a b a^-1 b^-1.

        Since [b, a] = [a, b]^-1 lies in the closure of [a, b], the
        unordered pairs are enough to generate it.
        """
        with_inverses = [(g, g.inverse()) for g in self.elements]
        commutators = {
            a * b * a_inv * b_inv
            for k, (a, a_inv) in enumerate(with_inverses)
            for b, b_inv in with_inverses[k + 1:]
        }
        commutators.add(self.identity())
        return PermGroup.generate(sorted(commutators))


def orbit_and_stabilizer(group: PermGroup, x, act: Callable):
    """Orbit of x under the callback action and the stabilizer subgroup.

    act(g, x) must define a left action with hashable images; the orbit
    lists the distinct images (by hash and ==) in order of first
    appearance.  The identity is checked first so inconsistent callbacks
    fail loudly instead of silently producing a wrong orbit.
    """
    if act(group.identity(), x) != x:
        raise ValueError("action inconsistency detected (act(id, x) != x)")
    orbit = {}
    stabilizer = []
    for g in group:
        image = act(g, x)
        orbit.setdefault(image)
        if image == x:
            stabilizer.append(g)
    return list(orbit), PermGroup(stabilizer, group.degree)


def semidirect_structure_check(
    group: PermGroup, normal: PermGroup, complement: PermGroup
) -> bool:
    """True iff normal is normal in group, meets complement trivially, and
    the orders multiply up: the semidirect decomposition witness."""
    if not normal.is_subgroup_of(group) or not complement.is_subgroup_of(group):
        raise ValueError("non-subgroup input")
    n_set = set(normal.elements)
    is_normal = all(
        g * n * g_inv in n_set
        for g, g_inv in ((g, g.inverse()) for g in group)
        for n in normal
    )
    trivial_meet = n_set & set(complement.elements) == {group.identity()}
    orders_multiply = normal.order * complement.order == group.order
    return is_normal and trivial_meet and orders_multiply


def irreducible_degrees(group: PermGroup) -> tuple:
    """Degrees of the complex irreducible representations, as a sorted tuple.

    Determined arithmetically: the class count r fixes the number of
    degrees, the abelianization order a fixes how many equal 1, and the
    remaining degrees d >= 2 must divide |G| with sum of squares |G| - a.
    If that data does not pin a unique multiset, this raises rather than
    guess.
    """
    if group.order > SUBGROUP_SCAN_CAP:
        raise ValueError(f"group order {group.order} exceeds cap {SUBGROUP_SCAN_CAP}")
    r = len(group.conjugacy_classes())
    a = group.order // group.commutator_subgroup().order
    remaining = r - a
    target = group.order - a
    divisors = [d for d in range(2, group.order + 1) if group.order % d == 0]

    solutions = []

    def extend(prefix, count, budget, minimum):
        if count == 0:
            if budget == 0:
                solutions.append(tuple(prefix))
            return
        for d in divisors:
            if d < minimum:
                continue
            # every remaining degree is >= d, so d^2 * count <= budget
            if d * d * count > budget:
                break
            prefix.append(d)
            extend(prefix, count - 1, budget - d * d, d)
            prefix.pop()

    extend([], remaining, target, 2)
    if not solutions:
        raise ValueError("no degree multiset satisfies the constraints")
    if len(solutions) > 1:
        raise ValueError(
            f"ambiguous degree data: {sorted(solutions)} all satisfy the constraints"
        )
    return tuple([1] * a + list(solutions[0]))


class LabelDictionary:
    """The fixed identification of the labels {1..5} with five variables:
    1 -> x2, 2 -> x0, 3 -> x4, 4 -> x3, 5 -> x1, with x5 untouched by
    every label permutation.
    """

    __slots__ = ()

    label_to_var = {1: 2, 2: 0, 3: 4, 4: 3, 5: 1}

    def induced_variable_permutation(self, sigma: Permutation) -> Permutation:
        """The degree-6 variable permutation with gamma(dict(i)) =
        dict(sigma(i)) and gamma fixing index 5."""
        if sigma.degree != 5:
            raise ValueError("label permutations have degree 5")
        index_map = [0] * 6
        for label, var in self.label_to_var.items():
            index_map[var] = self.label_to_var[sigma(label)]
        index_map[5] = 5
        return Permutation.from_index_map(index_map)


STANDARD_LABELS = LabelDictionary()
