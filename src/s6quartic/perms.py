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

from typing import Callable, Iterable, Sequence

GENERATE_CAP = 5040
SUBGROUP_SCAN_CAP = 120


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
    def from_text(cls, text: str) -> "Permutation":
        """Parse the one-line syntax '[1,3,5,2,4]' (whitespace optional)."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"expected bracketed one-line images: {text!r}")
        try:
            images = [int(part) for part in body[1:-1].split(",")]
        except ValueError as exc:
            raise ValueError(f"bad one-line images: {text!r}") from exc
        return cls(images)

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
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

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
    """A finite permutation group as an explicit sorted element tuple."""

    __slots__ = ("degree", "elements", "generators")

    def __init__(self, elements: Iterable[Permutation], generators=()):
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("a group needs at least the identity")
        degree = elems[0].degree
        if any(e.degree != degree for e in elems):
            raise ValueError("mixed degrees")
        elem_set = set(elems)
        for a in elems:
            for b in elems:
                if a * b not in elem_set:
                    raise ValueError(
                        f"element set is not closed: {a} * {b} missing"
                    )
        self.degree = degree
        self.elements = elems
        self.generators = tuple(generators)

    @classmethod
    def _closed(cls, elements, degree, generators=()) -> "PermGroup":
        """Internal: wrap a set already known to be closed."""
        group = cls.__new__(cls)
        group.degree = degree
        group.elements = tuple(sorted(elements))
        group.generators = tuple(generators)
        return group

    @classmethod
    def generate(
        cls, generators: Sequence[Permutation], cap: int = GENERATE_CAP
    ) -> "PermGroup":
        """Closure of the generators under composition, bounded by cap."""
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
            if len(seen) > cap:
                raise ValueError(f"group order exceeds cap {cap}")
            frontier = new
        return cls._closed(seen, degree, gens)

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        from itertools import permutations as iter_perms

        if degree < 1 or degree > 7:
            raise ValueError("symmetric groups supported for degree 1..7")
        elems = [Permutation(p) for p in iter_perms(range(1, degree + 1))]
        return cls._closed(elems, degree)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls._closed([Permutation.identity(degree)], degree)

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

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
        classes = []
        while remaining:
            seed = min(remaining)
            cls_set = {g * seed * g.inverse() for g in self.elements}
            classes.append(tuple(sorted(cls_set)))
            remaining -= cls_set
        classes.sort(key=lambda c: (len(c), c[0]))
        return classes

    def normal_subgroups(self, cap: int = SUBGROUP_SCAN_CAP) -> list:
        """All normal subgroups, found by closing unions of conjugacy
        classes that contain the identity and keeping the closed ones."""
        from itertools import combinations

        if self.order > cap:
            raise ValueError(f"group order {self.order} exceeds cap {cap}")
        ident = self.identity()
        classes = self.conjugacy_classes()
        others = [c for c in classes if c != (ident,)]
        found = []
        for k in range(len(others) + 1):
            for pick in combinations(range(len(others)), k):
                union = {ident}
                for idx in pick:
                    union.update(others[idx])
                if self.order % len(union) != 0:
                    continue
                if all(a * b in union for a in union for b in union):
                    found.append(
                        PermGroup._closed(union, self.degree)
                    )
        found.sort(key=lambda g: (g.order, g.elements))
        return found

    def commutator_subgroup(self) -> "PermGroup":
        commutators = {
            a * b * a.inverse() * b.inverse()
            for a in self.elements
            for b in self.elements
        }
        return PermGroup.generate(sorted(commutators), cap=self.order)


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
    return list(orbit), PermGroup._closed(stabilizer, group.degree)


def semidirect_structure_check(
    group: PermGroup, normal: PermGroup, complement: PermGroup
) -> bool:
    """True iff normal is normal in group, meets complement trivially, and
    the orders multiply up: the semidirect decomposition witness."""
    if not normal.is_subgroup_of(group) or not complement.is_subgroup_of(group):
        raise ValueError("non-subgroup input")
    n_set = set(normal.elements)
    is_normal = all(
        g * n * g.inverse() in n_set for g in group for n in normal
    )
    trivial_meet = n_set & set(complement.elements) == {group.identity()}
    orders_multiply = normal.order * complement.order == group.order
    return is_normal and trivial_meet and orders_multiply


def irreducible_degrees(group: PermGroup, cap: int = SUBGROUP_SCAN_CAP) -> tuple:
    """Degrees of the complex irreducible representations, as a sorted tuple.

    Determined arithmetically: the class count r fixes the number of
    degrees, the abelianization order a fixes how many equal 1, and the
    remaining degrees d >= 2 must divide |G| with sum of squares |G| - a.
    If that data does not pin a unique multiset, this raises rather than
    guess.
    """
    if group.order > cap:
        raise ValueError(f"group order {group.order} exceeds cap {cap}")
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
    """The fixed identification of the labels {1..5} with five variables.

    The default is 1 -> x2, 2 -> x0, 3 -> x4, 4 -> x3, 5 -> x1, with x5
    untouched by every label permutation.
    """

    DEFAULT = {1: 2, 2: 0, 3: 4, 4: 3, 5: 1}

    __slots__ = ("label_to_var",)

    def __init__(self, label_to_var: dict | None = None):
        mapping = dict(label_to_var or self.DEFAULT)
        if sorted(mapping) != [1, 2, 3, 4, 5] or sorted(
            mapping.values()
        ) != [0, 1, 2, 3, 4]:
            raise ValueError(
                "dictionary must biject labels 1..5 onto variables 0..4"
            )
        self.label_to_var = mapping

    def var(self, label: int) -> int:
        return self.label_to_var[label]

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
