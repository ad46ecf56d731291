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
from itertools import permutations, product, repeat
from math import gcd

from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED, ONE
from .eisenstein import _cleared, _pair_mul, _reduced
from .linalg import ALL_T, EMPTY, TSolutionSet, _echelon, rref_linear_forms
from .perms import Permutation
from .poly import NVARS, Polynomial, X, divide_exact, family_parameter
from .poly import quartic_family

SCAN_CAP = 10**7

_new = object.__new__


def _projective_key(xs) -> tuple:
    """The normal form of the point with int-pair coordinates xs, not all
    (0, 0): the 12 ints of every pair times the conjugate (c - d, -d) of
    the first nonzero pair (c, d), then its norm c^2 - c*d + d^2, all
    divided by their gcd.  Each coordinate is its pair over that norm, so
    the first nonzero one is 1, and two tuples get the same key iff they
    are nonzero Q(w)-multiples of each other.
    """
    for c, d in xs:
        if c or d:
            break
    e = c - d
    # (a + b*w)(e - d*w) = a*e + b*d + (b*c - a*d)*w, since w^2 = -1 - w.
    ints = [v for a, b in xs for v in (a * e + b * d, b * c - a * d)]
    ints.append(c * c - c * d + d * d)
    g = gcd(*ints)
    return tuple(ints) if g == 1 else tuple(v // g for v in ints)


def _coords(key) -> tuple:
    """The field coordinates a _projective_key stands for."""
    return tuple(map(_reduced, key[:-1:2], key[1::2], repeat(key[-1], NVARS)))


def _point(key) -> "ProjectivePoint":
    """Wrap the point of a _projective_key, skipping the coercion and
    validation of the public constructor."""
    p = _new(ProjectivePoint)
    p.coords = _coords(key)
    return p


def _sorted_points(keys) -> list:
    """One point per distinct _projective_key, sorted deterministically."""
    return sorted(map(_point, set(keys)), key=ProjectivePoint.sort_key)


class ProjectivePoint:
    """A point of P^5 over Q(w), stored with first nonzero coordinate 1.

    Normalization makes equality of points the same as equality of the
    stored coordinate tuples, so points can live in sets and dicts.  The
    coordinates are cleared to int pairs and normalized by
    _projective_key, the one normalization of points.  The constructor
    coerces and validates outside input; points derived from other points
    are built from their keys by _point.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = [Eisenstein.coerce(c) for c in coords]
        if len(vals) != NVARS:
            raise ValueError(f"a point needs {NVARS} homogeneous coordinates")
        if not any(vals):
            raise ValueError("all coordinates are zero")
        self.coords = _coords(_projective_key(_cleared(vals)))

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
    for target, x in zip(perm.index_map(), _cleared(point.coords)):
        image[target] = x
    return _point(_projective_key(image))


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


def projective_orbit(point: ProjectivePoint) -> tuple:
    """Orbit of the point under all permutations of the coordinates,
    deduplicated projectively and sorted deterministically.

    The orbit is the set of distinct rearrangements of the coordinate
    tuple, so no group is built: the coordinates are cleared once to int
    pairs, each distinct rearrangement is reduced to its _projective_key,
    and each distinct key becomes one point.
    """
    arrangements = set(permutations(_cleared(point.coords)))
    return tuple(_sorted_points(map(_projective_key, arrangements)))


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


def _hyperplane_pairs(point: ProjectivePoint):
    """(xs, squares, p2, p4): the point's coordinates cleared to int pairs
    xs, their squares and the power sums p2 and p4; None when the point is
    off the hyperplane sum(x) = 0."""
    xs = _cleared(point.coords)
    if any(map(sum, zip(*xs))):
        return None
    squares = [(a * a - b * b, (2 * a - b) * b) for a, b in xs]
    p2 = tuple(map(sum, zip(*squares)))
    p4 = tuple(map(sum, zip(*[_pair_mul(s, s) for s in squares])))
    return xs, squares, p2, p4


def _singular(p: int, q: int, xs, squares, p2, p4) -> bool:
    """Jacobian test on the t = p/q member at int-pair coordinates xs on
    the hyperplane, given their squares, p2 and p4 (_hyperplane_pairs): the
    point is singular iff the 2x6 matrix of the gradients of (L, Q) has
    rank at most 1, i.e. dQ/dx_i = c for every i: (t*x_i^2 - p2)*x_i is the
    same for every i, tested times q as (p*x_i^2 - q*p2)*x_i.  That alone
    puts the point on the quartic, as 4Q = sum x_i*dQ/dx_i = c*sum x_i = 0
    by Euler, so the quartic test p*p4 = q*p2^2 is only an early exit.
    """
    a, b = p2
    if p * p4[0] != q * (a * a - b * b) or p * p4[1] != q * (2 * a - b) * b:
        return False
    qa, qb = q * a, q * b
    gradient = {
        _pair_mul((p * sa - qa, p * sb - qb), x)
        for (sa, sb), x in zip(squares, xs)
    }
    return len(gradient) == 1


def is_singular_on_family(t, point: ProjectivePoint) -> bool:
    """Whether the point is a singular point of the t-member: it lies on
    the hyperplane and passes the Jacobian test of _singular."""
    t = family_parameter(t)
    pairs = _hyperplane_pairs(point)
    return pairs is not None and _singular(t.numerator, t.denominator, *pairs)


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
    p, q = t.numerator, t.denominator
    pairs = _hyperplane_pairs(point)
    if pairs is None or not _singular(p, q, *pairs):
        raise ValueError(
            f"node test requires a singular point; {point} is smooth on the "
            f"t = {t} member"
        )
    xs, squares, p2, _ = pairs
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
    and only at t = 0 otherwise; that is the Jacobian test at t = 1.
    Clearing the coordinates' denominator leaves p2^2/p4 and the agreement
    of the cubes unchanged.
    """
    pairs = _hyperplane_pairs(point)
    if pairs is None:
        raise ValueError(
            f"singular-parameter analysis requires the linear form to vanish "
            f"at {point}"
        )
    _, _, p2, p4 = pairs
    if p4 != (0, 0):
        # p2^2/p4 = p2^2 * conj(p4) / N(p4), with conj(c + d*w) = c - d - d*w.
        c, d = p4
        num, num_w = _pair_mul(_pair_mul(p2, p2), (c - d, -d))
        if not num_w:
            t = Fraction(num, c * c - c * d + d * d)
            if _singular(t.numerator, t.denominator, *pairs):
                return TSolutionSet.finite([t])
        return EMPTY
    if p2 != (0, 0):
        return EMPTY
    return ALL_T if _singular(1, 1, *pairs) else TSolutionSet.finite([0])


def scan_alphabet(t, alphabet) -> list:
    """All singular points of the t-member whose coordinates lie in the
    alphabet, deduplicated projectively and sorted deterministically.

    The letters are cleared once to int pairs, and one table maps each
    cleared letter to the int pairs of x, x^2 and x^4.  Every member lies
    on the hyperplane sum(x) = 0, so only the first five coordinates are
    enumerated, as a stream: the sums of x, x^2 and x^4 over each
    four-letter prefix are taken once, and each fifth letter adds its
    entry.  The sixth coordinate is minus the sum of x, kept only when it
    is a letter, and its entry completes p2 and p4 for the Jacobian test.
    Each tuple that passes it is reduced to its _projective_key, and each
    distinct key becomes one point.  SCAN_CAP bounds the whole space,
    len(alphabet)^6.
    """
    letters = sorted({Eisenstein.coerce(c) for c in alphabet}, key=Eisenstein.sort_key)
    if not letters:
        raise ValueError("the alphabet must be nonempty")
    if len(letters) ** NVARS > SCAN_CAP:
        raise ValueError(
            f"scan space {len(letters)}^{NVARS} exceeds the cap {SCAN_CAP}"
        )
    t = family_parameter(t)
    p, q = t.numerator, t.denominator
    table = {}
    for x in _cleared(letters):
        square = _pair_mul(x, x)
        table[x] = (x, square, _pair_mul(square, square))
    entries = tuple(table.values())
    keys = set()
    for prefix in product(entries, repeat=NVARS - 2):
        head, head_squares, head_fourths = zip(*prefix)
        a, b = map(sum, zip(*head))
        sa, sb = map(sum, zip(*head_squares))
        fa, fb = map(sum, zip(*head_fourths))
        for x5, s5, f5 in entries:
            last = table.get((-a - x5[0], -b - x5[1]))
            if last is None:
                continue
            x6, s6, f6 = last
            xs = head + (x5, x6)
            p2 = (sa + s5[0] + s6[0], sb + s5[1] + s6[1])
            p4 = (fa + f5[0] + f6[0], fb + f5[1] + f6[1])
            # The zero tuple passes the test but is no point.
            if _singular(p, q, xs, head_squares + (s5, s6), p2, p4) and any(
                map(any, xs)
            ):
                keys.add(_projective_key(xs))
    return _sorted_points(keys)


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
