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
from itertools import combinations_with_replacement, repeat
from math import gcd

from . import perms
from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED, ONE, ZERO
from .eisenstein import _cleared, _pair_mul, _reduced
from .linalg import ALL_T, EMPTY, TSolutionSet, _echelon, rref_linear_forms
from .perms import Permutation
from .poly import NVARS, Polynomial, X, family_parameter
from .poly import quartic_family

SCAN_CAP = 10**7

_new = object.__new__


def _scaled(xs, c, d) -> list:
    """The 12 ints of the int pairs xs times the conjugate (c - d, -d) of
    c + d*w, then the norm c^2 - c*d + d^2, all divided by their gcd.
    Each pair over that norm is a coordinate of xs / (c + d*w)."""
    e = c - d
    # (a + b*w)(e - d*w) = a*e + b*d + (b*c - a*d)*w, since w^2 = -1 - w.
    ints = [v for a, b in xs for v in (a * e + b * d, b * c - a * d)]
    ints.append(c * c - c * d + d * d)
    g = gcd(*ints)
    return ints if g == 1 else [v // g for v in ints]


def _projective_key(xs) -> tuple:
    """The normal form of the point with int-pair coordinates xs, not all
    (0, 0): xs _scaled by its first nonzero pair, so that pair becomes
    (n, 0) over the norm n and the first nonzero coordinate is 1.  Two
    tuples get the same key iff they are nonzero Q(w)-multiples of each
    other.
    """
    return tuple(_scaled(xs, *next(filter(any, xs))))


def _coords(key) -> tuple:
    """The field coordinates a _projective_key stands for."""
    return tuple(map(_reduced, key[:-1:2], key[1::2], repeat(key[-1], NVARS)))


def _point(coords, text, key) -> "ProjectivePoint":
    """Wrap normalized field coordinates, skipping the coercion and
    validation of the public constructor.  text and key are the point's
    str and sort_key when the caller has them already, else None."""
    p = _new(ProjectivePoint)
    p.coords = coords
    p._text = text
    p._key = key
    return p


def _orbit_points(xs, seen) -> list:
    """One point per distinct rearrangement of the int pairs xs up to a
    nonzero scalar, skipping the batches named in seen and adding new ones.

    xs is _scaled once per distinct nonzero value v.  Each distinct
    arrangement of the image that starts, after zeros, with v's image
    (n, 0) is a _projective_key as it stands, and each key of the orbit
    arises so.  A batch is named by its sorted pairs and n: the scalings
    of the cube-root tuple by 1, w and w^2 give the same keys, but
    [1 : 2 : -3 : 1 : 2 : -3] scales to the same pairs by 1 and by 2,
    with n = 1 and 2.

    Each batch makes the field value, text and sort key of its at most six
    distinct values once, and every point's coordinates, str and sort_key
    are joined from those.  The distinct arrangements of a tail come from
    perms._arrangements, a table keyed by the tail's multiplicities alone.
    """
    points = []
    for v in set(xs) - {(0, 0)}:
        *ints, n = _scaled(xs, *v)
        pairs = sorted(zip(ints[::2], ints[1::2]))
        batch = (tuple(pairs), n)
        if batch in seen:
            continue
        seen.add(batch)
        rest = [x for x in pairs if any(x)]
        rest.remove((n, 0))
        zeros = NVARS - 1 - len(rest)
        distinct = sorted(set(rest))
        counts = tuple(map(rest.count, distinct))
        # Index i < len(distinct) stands for distinct[i], then 0 and 1.
        zero = len(distinct)
        values = [_reduced(*x, n) for x in distinct] + [ZERO, ONE]
        texts = list(map(str, values))
        keys = [c.sort_key() for c in values]
        # k zeros, then v's image 1, then any arrangement of what is left.
        for k in range(zeros + 1):
            head = (zero,) * k + (zero + 1,)
            shape = counts + (zeros - k,) if k < zeros else counts
            for tail in perms._arrangements(shape):
                a = head + tail
                points.append(
                    _point(
                        tuple(map(values.__getitem__, a)),
                        "[" + " : ".join(map(texts.__getitem__, a)) + "]",
                        tuple(map(keys.__getitem__, a)),
                    )
                )
    return points


class ProjectivePoint:
    """A point of P^5 over Q(w), stored with first nonzero coordinate 1.

    Normalization makes equality of points the same as equality of the
    stored coordinate tuples, so points can live in sets and dicts.  The
    coordinates are cleared to int pairs and normalized by
    _projective_key, the one normalization of points.  The constructor
    coerces and validates outside input; points derived from other points
    wrap their normalized coordinates with _point.

    Two more slots carry the point's str and sort_key.  _orbit_points
    fills them from its batch's per-value texts and keys; the constructor
    and act_on_point leave them None, and the first use fills them from
    the coordinates.  Equality and hashing use the coordinates alone.
    """

    __slots__ = ("coords", "_text", "_key")

    def __init__(self, coords):
        vals = [Eisenstein.coerce(c) for c in coords]
        if len(vals) != NVARS:
            raise ValueError(f"a point needs {NVARS} homogeneous coordinates")
        if not any(vals):
            raise ValueError("all coordinates are zero")
        self.coords = _coords(_projective_key(_cleared(vals)))
        self._text = self._key = None

    def __getitem__(self, index: int) -> Eisenstein:
        return self.coords[index]

    def __iter__(self):
        return iter(self.coords)

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = tuple(c.sort_key() for c in self.coords)
        return key

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjectivePoint({[str(c) for c in self.coords]})"

    def __str__(self):
        text = self._text
        if text is None:
            text = self._text = "[" + " : ".join(map(str, self.coords)) + "]"
        return text


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
    return _point(_coords(_projective_key(image)), None, None)


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
    pairs, and _orbit_points scales them once per distinct nonzero value
    and builds each point of the orbit once.
    """
    points = _orbit_points(_cleared(point.coords), set())
    return tuple(sorted(points, key=ProjectivePoint.sort_key))


# -- the quartic family -------------------------------------------------------
#
# The member at t is L = sum x_i and Q = t*p4 - p2^2, where pk = sum x_i^k.
# Its geometry has a closed form in p2 and the coordinates:
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
    """The point's coordinates cleared to int pairs; None when the point is
    off the hyperplane sum(x) = 0."""
    xs = _cleared(point.coords)
    return None if any(map(sum, zip(*xs))) else xs


def _squares(xs) -> tuple:
    """(squares, p2): the squares of the int pairs xs and their sum."""
    squares = [(a * a - b * b, (2 * a - b) * b) for a, b in xs]
    return squares, tuple(map(sum, zip(*squares)))


def _singular(p: int, q: int, xs) -> bool:
    """Jacobian test on the t = p/q member at int-pair coordinates xs on
    the hyperplane: the point is singular iff the 2x6 matrix of the
    gradients of (L, Q) has rank at most 1, i.e. dQ/dx_i = c for every i:
    (t*x_i^2 - p2)*x_i is the same for every i, tested times q as
    (p*x_i^2 - q*p2)*x_i.  That alone puts the point on the quartic, as
    4Q = sum x_i*dQ/dx_i = c*sum x_i = 0 by Euler.
    """
    squares, (a, b) = _squares(xs)
    qa, qb = q * a, q * b
    gradients = (
        _pair_mul((p * sa - qa, p * sb - qb), x)
        for (sa, sb), x in zip(squares, xs)
    )
    first = next(gradients)
    return all(g == first for g in gradients)


def is_singular_on_family(t, point: ProjectivePoint) -> bool:
    """Whether the point is a singular point of the t-member: it lies on
    the hyperplane and passes the Jacobian test of _singular."""
    t = family_parameter(t)
    xs = _hyperplane_pairs(point)
    return xs is not None and _singular(t.numerator, t.denominator, xs)


def is_node(t, point: ProjectivePoint) -> bool:
    """Whether a singular point P of the family member is an ordinary
    double point, by the rank of the Hessian H on the hyperplane V of
    sum(x) = 0.

    By Euler, H.P = 3*grad Q(P), a multiple of the all-ones vector at a
    singular point, so v.H.P = 0 for every v in V: P lies in the kernel of
    H on V.  An affine chart at P sees H on a complement W of <P> in V
    (the directions along which the chart coordinate is zero), and
    V = W + <P>, so H on V has the rank of H on W whatever the chart.  The
    point is a node iff that rank is NVARS - 2, the dimension of W.
    Calling this on a point that is not singular on the family member is
    an error.
    """
    t = family_parameter(t)
    p, q = t.numerator, t.denominator
    xs = _hyperplane_pairs(point)
    if xs is None or not _singular(p, q, xs):
        raise ValueError(
            f"node test requires a singular point; {point} is smooth on the "
            f"t = {t} member"
        )
    squares, p2 = _squares(xs)
    # The hyperplane has the basis e_r - e_5 (r < 5), so its Hessian is
    # entrywise H[r][s] - H[r][5] - H[5][s] + H[5][5] on the full Hessian H
    # at the point.  Times q/4, H_ij = d_i*delta_ij - 2q*x_i*x_j with
    # d_i = 3p*x_i^2 - q*p2, so that entry is
    # d_r*delta_rs + d_5 - 2q*(x_r - x_5)*(x_s - x_5).
    d = [(3 * p * a - q * p2[0], 3 * p * b - q * p2[1]) for a, b in squares]
    (ea, eb), (da, db) = xs[-1], d[-1]
    u = [(a - ea, b - eb) for a, b in xs[:-1]]
    hessian = [
        [
            (da - 2 * q * a, db - 2 * q * b)
            for a, b in (_pair_mul(ur, us) for us in u)
        ]
        for ur in u
    ]
    for r, (a, b) in enumerate(d[:-1]):
        hessian[r][r] = (hessian[r][r][0] + a, hessian[r][r][1] + b)
    return len(_echelon(hessian)) == NVARS - 2


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
    xs = _hyperplane_pairs(point)
    if xs is None:
        raise ValueError(
            f"singular-parameter analysis requires the linear form to vanish "
            f"at {point}"
        )
    squares, p2 = _squares(xs)
    p4 = tuple(map(sum, zip(*[_pair_mul(s, s) for s in squares])))
    if p4 != (0, 0):
        # p2^2/p4 = p2^2 * conj(p4) / N(p4), with conj(c + d*w) = c - d - d*w.
        c, d = p4
        num, num_w = _pair_mul(_pair_mul(p2, p2), (c - d, -d))
        # Only an early exit: an irrational p2^2/p4 gives no rational t,
        # and by Euler no rational t passes _singular at such a point.
        if not num_w:
            t = Fraction(num, c * c - c * d + d * d)
            if _singular(t.numerator, t.denominator, xs):
                return TSolutionSet.finite([t])
        return EMPTY
    if p2 != (0, 0):
        return EMPTY
    return ALL_T if _singular(1, 1, xs) else TSolutionSet.finite([0])


def scan_alphabet(t, alphabet) -> list:
    """All singular points of the t-member whose coordinates lie in the
    alphabet, deduplicated projectively and sorted deterministically.

    Every member lies on sum(x) = 0 and is symmetric in the coordinates,
    so each multiset of six letters is tested once.  One table gives each
    letter's int pair x and its index.  The first five indices are
    streamed non-decreasing, C(len + 4, 5) heads, with the sum of x over
    each four-letter prefix taken once.  The sixth coordinate is minus the
    sum of the other five, kept when it is a letter of index at least the
    fifth's, and the tuple gets the Jacobian test.  _orbit_points builds
    the points of a passing tuple's rearrangements, each once, and skips
    the orbits the scan has already built: the sixth-root multiples of the
    cube-root tuple are one orbit.  SCAN_CAP bounds len(alphabet)^6.
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
    entries = tuple(enumerate(_cleared(letters)))
    index = {x: i for i, x in entries}
    seen = set()
    points = []
    for prefix in combinations_with_replacement(entries, NVARS - 2):
        _, head = zip(*prefix)
        a, b = map(sum, zip(*head))
        for i5, x5 in entries[prefix[-1][0] :]:
            x6 = (-a - x5[0], -b - x5[1])
            if index.get(x6, -1) < i5:
                continue
            xs = head + (x5, x6)
            # The zero tuple passes the test but has no nonzero value, so
            # it makes no point.
            if _singular(p, q, xs):
                points += _orbit_points(xs, seen)
    return sorted(points, key=ProjectivePoint.sort_key)


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
    """Restriction to the distinguished plane: substitute x5 -> -x0 - x2
    and x4 -> -x1 - x3, so that the result is a form in x0..x3."""
    return poly.substitute_linear({5: -X[0] - X[2], 4: -X[1] - X[3]})


def restriction_factorization_check(t):
    """The scalar c with the t-member restricted to the distinguished plane
    equal to c times the product of the two quadrics; None if it does not
    split that way."""
    _, quartic = quartic_family(t)
    restricted = restrict_to_plane(quartic)
    if restricted.is_zero():
        return None
    # The lex-leading term of a product is the product of the leading terms.
    product = QUADRIC_PAIR[0] * QUADRIC_PAIR[1]
    c = restricted.leading_coefficient() / product.leading_coefficient()
    return c if restricted == c * product else None
