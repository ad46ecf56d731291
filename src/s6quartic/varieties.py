"""Projective points and linear-slice varieties for the quartic family.

Everything here works over the exact field Q(w): points are normalized
coordinate vectors, varieties are linear forms plus one higher-degree form,
and the geometric questions (incidence, singularity, node type, the set
of parameters at which a point is singular) reduce to exact rank and
divisibility computations from the other modules.

The distinguished objects of the suite live here as module constants:
the plane spanned by two linear forms, the conjugate pair of quadric
surfaces on it, and the two distinguished singular points of the t = 6
family member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED, ONE, ZERO
from .eisenstein import _cleared, _pair_mul
from .linalg import ALL_T, EMPTY, TSolutionSet, _echelon, rref_linear_forms
from .parsing import parse_point_coordinates
from .perms import STANDARD_LABELS, Permutation
from .poly import NVARS, Polynomial, X, divide_exact, family_parameter
from .poly import quartic_family

SCAN_CAP = 10**7


class ProjectivePoint:
    """A point of P^5 over Q(w), stored with first nonzero coordinate 1.

    Normalization makes equality of points the same as equality of the
    stored coordinate tuples, so points can live in sets and dicts.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = tuple(Eisenstein.coerce(c) for c in coords)
        if len(vals) != NVARS:
            raise ValueError(f"a point needs {NVARS} homogeneous coordinates")
        pivot = next((c for c in vals if c), None)
        if pivot is None:
            raise ValueError("all coordinates are zero")
        if pivot != ONE:
            scale = pivot.inverse()
            vals = tuple(scale * c for c in vals)
        self.coords = vals

    @classmethod
    def from_text(cls, text: str) -> "ProjectivePoint":
        """Parse the bracketed point syntax, e.g. '[1, 1, w, w, w^2, w^2]'."""
        return cls(parse_point_coordinates(text))

    def __getitem__(self, index: int) -> Eisenstein:
        return self.coords[index]

    def __iter__(self):
        return iter(self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjectivePoint({[str(c) for c in self.coords]})"

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def act_on_point(perm: Permutation, point: ProjectivePoint) -> ProjectivePoint:
    """Pushforward action on points: (g.p)_{g(i)} = p_i, re-normalized.

    This is the action dual to Polynomial.apply_permutation, so that
    evaluating a transformed polynomial at a transformed point gives the
    original value.
    """
    if perm.degree != NVARS:
        raise ValueError(f"need a permutation of the {NVARS} coordinates")
    image = [None] * NVARS
    for target, c in zip(perm.index_map(), point.coords):
        image[target] = c
    return ProjectivePoint(image)


class LinearSliceVariety:
    """Common zero locus of linear forms and one higher-degree form in P^5.

    The linear forms are reduced to an echelon basis on construction, so
    the linear span is stored canonically.  Equality goes through
    canonicalize(), which additionally reduces the form.
    """

    __slots__ = ("linear_forms", "form", "_canonical")

    def __init__(self, linear_forms, form):
        self.linear_forms = tuple(rref_linear_forms(list(linear_forms)))
        if not isinstance(form, Polynomial):
            raise TypeError("the form must be a Polynomial instance")
        if form.is_zero() or form.degree() < 2 or not form.is_homogeneous():
            raise ValueError(f"not a homogeneous form of degree >= 2: {form}")
        self.form = form
        self._canonical = None

    def contains(self, point: ProjectivePoint) -> bool:
        return all(
            not f.evaluate(point.coords) for f in self.linear_forms + (self.form,)
        )

    def canonical(self):
        if self._canonical is None:
            self._canonical = canonicalize(self)
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, LinearSliceVariety):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        linears = ", ".join(str(f) for f in self.linear_forms)
        return f"LinearSliceVariety([{linears}], {self.form})"


def act_on_variety(
    perm: Permutation, variety: LinearSliceVariety
) -> LinearSliceVariety:
    """Pushforward of every defining form; the image is re-canonicalized."""
    if perm.degree != NVARS:
        raise ValueError(f"need a permutation of the {NVARS} coordinates")
    m = perm.index_map()
    return LinearSliceVariety(
        [f.apply_permutation(m) for f in variety.linear_forms],
        variety.form.apply_permutation(m),
    )


def canonicalize(variety: LinearSliceVariety):
    """Canonical form deciding equality of slices.

    The linear forms are already a reduced echelon basis.  Their pivot
    variables are substituted out of the form, so it is reduced modulo the
    linear span, and the reduced form is scaled to lex-leading
    coefficient 1.  A form that vanishes identically after reduction means
    the input was degenerate (the form contained the linear span) and is
    rejected.

    Two slices get the same canonical form iff their linear spans agree
    and their forms agree up to a scalar modulo that span.  This decides
    equality of the defining data, not of the zero sets: slices cut out by
    different forms with the same radical stay distinct.
    """
    assignments = {}
    for f in variety.linear_forms:
        pivot = f.leading_monomial().index(1)
        assignments[pivot] = X[pivot] - f
    reduced = variety.form.substitute_linear(assignments)
    if reduced.is_zero():
        raise ValueError("degenerate slice: the form vanishes on the linear span")
    linear_key = tuple(f.key() for f in variety.linear_forms)
    return (linear_key, (reduced / reduced.leading_coefficient()).key())


def label_translates(group, variety: LinearSliceVariety) -> dict:
    """Each label permutation of the group mapped to its translate of the
    variety, the group acting on the coordinates through STANDARD_LABELS.
    Orbit, stabilizer and incidence bookkeeping can all read this one map.
    """
    induced = STANDARD_LABELS.induced_variable_permutation
    return {gamma: act_on_variety(induced(gamma), variety) for gamma in group}


def incidence_table(translates: dict, point: ProjectivePoint) -> dict:
    """Which translates of a label_translates map pass through the point.

    The result maps each distinct translate through the point, in order of
    first appearance, to the number of group elements that land on it.
    """
    counts = {}
    for image in translates.values():
        if image.contains(point):
            counts[image] = counts.get(image, 0) + 1
    return counts


def projective_orbit(point: ProjectivePoint) -> tuple:
    """Orbit of the point under all permutations of the coordinates,
    deduplicated projectively and sorted deterministically.

    The orbit is the set of distinct rearrangements of the coordinate
    tuple, so no group is built: the rearrangements are enumerated on
    small-int labels of the distinct coordinates, and only the distinct
    tuples are normalised.
    """
    values = list(dict.fromkeys(point.coords))
    labels = tuple(values.index(c) for c in point.coords)
    seen = {
        ProjectivePoint([values[k] for k in arrangement])
        for arrangement in set(permutations(labels))
    }
    return tuple(sorted(seen, key=ProjectivePoint.sort_key))


# -- the quartic family -------------------------------------------------------
#
# The member at t is L = sum x_i and Q = t*p4 - p2^2, where pk = sum x_i^k.
# Its geometry has a closed form in p2, p4 and the coordinates:
#
#   dQ/dx_i = 4*(t*x_i^2 - p2)*x_i,
#   H_ij    = (12*t*x_i^2 - 4*p2)*delta_ij - 8*x_i*x_j,
#
# so no symbolic derivative is ever taken.  Every condition is homogeneous
# in the coordinates and in (t, 1), so the tests run on the coordinates
# times their common denominator, as (a, b) int pairs meaning a + b*w, and
# on t = p/q cleared to p and q: plain int arithmetic, no field division.


def family_member(t) -> LinearSliceVariety:
    """The slice (hyperplane, degree-4 member) of the family at parameter t."""
    linear, quartic = quartic_family(t)
    return LinearSliceVariety([linear], quartic)


def _on_hyperplane(xs) -> bool:
    return not any(map(sum, zip(*xs)))


def _power_sums(xs) -> tuple:
    """(squares of the coordinates, p2, p4) at int-pair coordinates."""
    squares = [(a * a - b * b, (2 * a - b) * b) for a, b in xs]
    p2 = tuple(map(sum, zip(*squares)))
    p4 = tuple(map(sum, zip(*[_pair_mul(s, s) for s in squares])))
    return squares, p2, p4


def is_singular_on_family(t, point: ProjectivePoint) -> bool:
    """Jacobian test on the pair (linear form, quartic) in P^5.

    The point is singular iff it lies on both forms and the 2x6 matrix of
    their gradients has rank at most 1, i.e. the gradient of Q is a
    multiple of the all-ones gradient of L: (t*x_i^2 - p2)*x_i is the
    same for every i.  With t = p/q both conditions are tested times q:
    p*p4 = q*p2^2, and (p*x_i^2 - q*p2)*x_i is the same for every i.
    """
    t = family_parameter(t)
    p, q = t.numerator, t.denominator
    xs = _cleared(point.coords)
    if not _on_hyperplane(xs):
        return False
    squares, p2, p4 = _power_sums(xs)
    p2_squared = _pair_mul(p2, p2)
    if p * p4[0] != q * p2_squared[0] or p * p4[1] != q * p2_squared[1]:
        return False
    qa, qb = q * p2[0], q * p2[1]
    gradient = {
        _pair_mul((p * sa - qa, p * sb - qb), x)
        for (sa, sb), x in zip(squares, xs)
    }
    return len(gradient) == 1


def is_node(t, point: ProjectivePoint) -> bool:
    """Whether a singular point of the family member is an ordinary double
    point, by the rank of a 4x4 Hessian in a fixed affine chart.

    Chart rule: dehomogenize at the first nonzero coordinate, then
    eliminate the lowest-index remaining variable using the linear form.
    The Hessian rank of an isolated singularity does not depend on this
    choice; fixing it makes reports reproducible.  Calling this on a
    point that is not singular on the family member is an error.
    """
    t = family_parameter(t)
    if not is_singular_on_family(t, point):
        raise ValueError(
            f"node test requires a singular point; {point} is smooth on the "
            f"t = {t} member"
        )
    xs = _cleared(point.coords)
    chart = next(i for i, x in enumerate(xs) if x != (0, 0))
    e = next(i for i in range(NVARS) if i != chart)
    rest = [i for i in range(NVARS) if i not in (chart, e)]
    # On the chart x_chart = 1 the linear form solves to x_e = -1 -
    # sum(rest), an affine substitution.  The Hessian of the substituted
    # quartic is therefore A^T H A for the constant Jacobian A whose column
    # for the variable r is e_r - e_e, i.e. entrywise H[r][s] - H[r][e] -
    # H[e][s] + H[e][e] on the full Hessian H at the point.  Times q/4,
    # H_ij = d_i*delta_ij - 2q*x_i*x_j with d_i = 3p*x_i^2 - q*p2, so that
    # entry is d_r*delta_rs + d_e - 2q*(x_r - x_e)*(x_s - x_e).
    p, q = t.numerator, t.denominator
    squares, p2, _ = _power_sums(xs)
    d = [(3 * p * a - q * p2[0], 3 * p * b - q * p2[1]) for a, b in squares]
    ea, eb = xs[e]
    u = [(xs[r][0] - ea, xs[r][1] - eb) for r in rest]
    da, db = d[e]
    hessian = [
        [
            (da - 2 * q * a, db - 2 * q * b)
            for a, b in (_pair_mul(ur, us) for us in u)
        ]
        for ur in u
    ]
    for k, r in enumerate(rest):
        a, b = hessian[k][k]
        hessian[k][k] = (a + d[r][0], b + d[r][1])
    return len(_echelon(hessian)) == len(rest)


def singular_t_values(point: ProjectivePoint) -> TSolutionSet:
    """Exact set of rational parameters t at which the point is singular.

    Requires the point to lie on the hyperplane (the t-independent linear
    condition).  The quartic t*p4 - p2^2 vanishes at the point only at
    t = p2^2/p4 when p4 != 0, and nowhere when p4 = 0 != p2.  When
    p2 = p4 = 0 it vanishes for every t, and the gradient 4*t*x_i^3 is a
    multiple of the all-ones vector for every t if the cubes x_i^3 agree,
    and only at t = 0 otherwise.  Clearing the coordinates' denominator
    leaves p2^2/p4 and the agreement of the cubes unchanged.
    """
    xs = _cleared(point.coords)
    if not _on_hyperplane(xs):
        raise ValueError(
            f"singular-parameter analysis requires the linear form to vanish "
            f"at {point}"
        )
    squares, p2, p4 = _power_sums(xs)
    if p4 != (0, 0):
        # p2^2/p4 = p2^2 * conj(p4) / N(p4), with conj(c + d*w) = c - d - d*w.
        c, d = p4
        num, num_w = _pair_mul(_pair_mul(p2, p2), (c - d, -d))
        if not num_w:
            t = Fraction(num, c * c - c * d + d * d)
            if is_singular_on_family(t, point):
                return TSolutionSet.finite([t])
        return EMPTY
    if p2 != (0, 0):
        return EMPTY
    cubes = {_pair_mul(s, x) for s, x in zip(squares, xs)}
    return ALL_T if len(cubes) == 1 else TSolutionSet.finite([0])


def scan_alphabet(t, alphabet) -> list:
    """All singular points of the t-member whose coordinates lie in the
    alphabet, deduplicated projectively and sorted deterministically.

    Every member lies on the hyperplane sum(x) = 0, so only the first five
    coordinates are enumerated: the sixth is minus their sum, kept when it
    is a letter.  SCAN_CAP bounds the whole space, len(alphabet)^6.
    """
    members = {Eisenstein.coerce(entry) for entry in alphabet}
    letters = sorted(members, key=Eisenstein.sort_key)
    if not letters:
        raise ValueError("the alphabet must be nonempty")
    if len(letters) ** NVARS > SCAN_CAP:
        raise ValueError(
            f"scan space {len(letters)}^{NVARS} exceeds the cap {SCAN_CAP}"
        )
    t = family_parameter(t)
    seen = set()
    found = []
    for head in product(letters, repeat=NVARS - 1):
        last = -sum(head, ZERO)
        if last not in members or not any(head):
            continue
        p = ProjectivePoint(head + (last,))
        if p in seen:
            continue
        seen.add(p)
        if is_singular_on_family(t, p):
            found.append(p)
    found.sort(key=ProjectivePoint.sort_key)
    return found


# -- the distinguished plane, quadrics, and points ----------------------------

PLANE_FORMS = (X[0] + X[2] + X[5], X[1] + X[3] + X[4])

_FRONT = X[0] ** 2 + X[0] * X[2] + X[2] ** 2
_BACK = X[1] ** 2 + X[1] * X[3] + X[3] ** 2

QUADRIC_PAIR = (_FRONT + OMEGA * _BACK, _FRONT + OMEGA_SQUARED * _BACK)

QUADRIC_SURFACES = (
    LinearSliceVariety(PLANE_FORMS, QUADRIC_PAIR[0]),
    LinearSliceVariety(PLANE_FORMS, QUADRIC_PAIR[1]),
)

CUBE_ROOT_POINT = ProjectivePoint(
    (ONE, ONE, OMEGA, OMEGA, OMEGA_SQUARED, OMEGA_SQUARED)
)
SIGN_POINT = ProjectivePoint((-1, -1, -1, 1, 1, 1))


def restrict_to_plane(poly: Polynomial) -> Polynomial:
    """Restriction to the distinguished plane: substitute the two echelon
    pivot variables, x5 -> -x0 - x2 and x4 -> -x1 - x3."""
    return poly.substitute_linear({5: -X[0] - X[2], 4: -X[1] - X[3]})


def quadric_pair_quotient(poly: Polynomial):
    """Exact quotient of poly by both distinguished quadrics, if it is a
    nonzero constant; None when the division fails or leaves a non-unit."""
    once = divide_exact(poly, QUADRIC_PAIR[0])
    if once is None:
        return None
    twice = divide_exact(once, QUADRIC_PAIR[1])
    if twice is None or twice.is_zero() or not twice.is_constant():
        return None
    return twice.constant_value()


def restriction_factorization_check(t):
    """The scalar c with the t-member restricted to the distinguished plane
    equal to c times the product of the two quadrics; None if it does not
    split that way."""
    _, quartic = quartic_family(t)
    return quadric_pair_quotient(restrict_to_plane(quartic))
