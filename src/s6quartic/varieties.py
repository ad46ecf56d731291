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
from itertools import combinations_with_replacement, permutations
from math import gcd

from .eisenstein import Eisenstein, OMEGA, OMEGA_SQUARED, ONE
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


def _point(pairs) -> "ProjectivePoint":
    """Wrap normalized int pairs, skipping the coercion and validation of
    the public constructor; str and sort_key fill their slots on first
    read."""
    p = _new(ProjectivePoint)
    p._pairs, p._text, p._key = pairs, None, None
    return p


def _normalized(xs) -> "ProjectivePoint":
    """The point of the int pairs xs, not all (0, 0): xs _scaled by its
    first nonzero pair, which becomes (n, 0) over the norm n, so that the
    first nonzero coordinate is 1."""
    *ints, n = _scaled(xs, *next(filter(any, xs)))
    return _point(tuple(zip(ints[::2], ints[1::2])))


def _orbit_points(xs, seen) -> list:
    """One point per distinct rearrangement of the int pairs xs up to a
    nonzero scalar, skipping the batches named in seen and adding new ones.

    xs is _scaled once per distinct nonzero value v.  Each distinct
    arrangement of the image whose first nonzero pair is v's image (n, 0)
    is in _normalized form as it stands, and each point of the orbit
    arises so.  A batch is named by its sorted pairs and n: the scalings
    of the cube-root tuple by 1, w and w^2 give the same points, but
    [1 : 2 : -3 : 1 : 2 : -3] scales to the same pairs by 1 and by 2,
    with n = 1 and 2.  The arrangements are one set of the permutations
    of the scaled pairs.
    """
    points = []
    for v in set(xs) - {(0, 0)}:
        *ints, n = _scaled(xs, *v)
        pairs = sorted(zip(ints[::2], ints[1::2]))
        batch = (tuple(pairs), n)
        if batch in seen:
            continue
        seen.add(batch)
        points += [
            _point(a)
            for a in set(permutations(pairs))
            if next(filter(any, a)) == (n, 0)
        ]
    return points


class ProjectivePoint:
    """A point of P^5 over Q(w), stored as the int pairs of its coordinates
    times n, with first nonzero pair (n, 0) and gcd 1 over the 13 ints.

    That form is unique, so equality and hashing compare the pairs, and
    points can live in sets and dicts; coords is derived and read-only.
    The constructor coerces and validates outside input, clears it to int
    pairs and _normalizes them, as act_on_point does.  Two more slots hold
    the str and sort_key, each made from coords on first read.
    """

    __slots__ = ("_pairs", "_text", "_key")

    def __init__(self, coords):
        vals = [Eisenstein.coerce(c) for c in coords]
        if len(vals) != NVARS:
            raise ValueError(f"a point needs {NVARS} homogeneous coordinates")
        if not any(vals):
            raise ValueError("all coordinates are zero")
        p = _normalized(_cleared(vals))
        self._pairs, self._text, self._key = p._pairs, None, None

    @property
    def coords(self) -> tuple:
        n = next(filter(any, self._pairs))[0]
        return tuple(_reduced(a, b, n) for a, b in self._pairs)

    def __getitem__(self, index):
        return self.coords[index]

    def sort_key(self):
        if self._key is None:
            self._key = tuple(c.sort_key() for c in self.coords)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        return f"ProjectivePoint({[str(c) for c in self.coords]})"

    def __str__(self):
        if self._text is None:
            self._text = "[" + " : ".join(map(str, self.coords)) + "]"
        return self._text


def act_on_point(perm: Permutation, point: ProjectivePoint) -> ProjectivePoint:
    """Pushforward action on points: (g.p)_{g(i)} = p_i, _normalized from
    the point's permuted int pairs.

    This is the action dual to Polynomial.apply_permutation, so that
    evaluating a transformed polynomial at a transformed point gives the
    original value.
    """
    if perm.degree != NVARS:
        raise ValueError(f"need a permutation of the {NVARS} coordinates")
    image = [None] * NVARS
    for target, x in zip(perm.index_map(), point._pairs):
        image[target] = x
    return _normalized(image)


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
    tuple, so no group is built: _orbit_points scales the point's int
    pairs once per distinct nonzero value and builds each point of the
    orbit once.
    """
    points = _orbit_points(point._pairs, set())
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
    """The point's int pairs, its coordinates times n; None when the point
    is off the hyperplane sum(x) = 0."""
    return None if any(map(sum, zip(*point._pairs))) else point._pairs


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
    The point's int pairs are its coordinates times n, which leaves p2^2/p4
    and the agreement of the cubes unchanged.
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


# The int pairs of the cube-root tuple [1 : 1 : w : w : w^2 : w^2], and of
# the tuple whose orbit each special member adds to its orbit.
_CUBE_ROOTS = ((1, 0), (1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1))
_EXTRA_ORBITS = {
    Fraction(6): ((1, 0),) * 3 + ((-1, 0),) * 3,
    Fraction(2): ((1, 0), (-1, 0)) + ((0, 0),) * 4,
    Fraction(10, 7): ((5, 0),) + ((-1, 0),) * 5,
}

# The finite singular locus of each class of members, keyed by the class's
# extra tuple (() for the generic class): at most four entries, each built
# once per process.
_LOCI = {}


def _locus(t) -> tuple:
    """(batches, points) for the t-member, t not 0 or 4: its singular
    points sorted by sort_key, each with the index in batches of its
    (values, n), the set of its int pairs and the norm n they are over."""
    extra = _EXTRA_ORBITS.get(t, ())
    locus = _LOCI.get(extra)
    if locus is None:
        seen = set()
        points = _orbit_points(_CUBE_ROOTS, seen) + _orbit_points(extra, seen)
        batches = {}
        ranked = []
        for p in sorted(points, key=ProjectivePoint.sort_key):
            batch = (frozenset(p._pairs), next(filter(any, p._pairs))[0])
            ranked.append((p, batches.setdefault(batch, len(batches))))
        locus = _LOCI[extra] = (list(batches), ranked)
    return locus


def _spelled(values, n, table) -> bool:
    """Whether some nonzero letter l makes l*v a letter for each value v of
    a batch, an int pair over n.  The table holds the letters' int pairs x,
    cleared by one denominator, so l*v is a letter iff x*v/n is in it."""
    return any(
        all(
            not (c % n or d % n) and (c // n, d // n) in table
            for c, d in (_pair_mul(x, v) for v in values)
        )
        for x in table
        if any(x)
    )


def scan_alphabet(t, alphabet) -> list:
    """All singular points of the t-member whose coordinates lie in the
    alphabet: the points with a representative whose every coordinate is a
    letter, sorted deterministically.  SCAN_CAP bounds len(alphabet)^6 at
    every t.

    For t not 0 or 4 this is a membership test against the proven locus.
    On sum(x) = 0 a point is singular iff (t*x_i^2 - p2)*x_i = mu for
    every i (_singular).  For t != 0 every coordinate is then a root of
    t*x^3 - p2*x - mu, so a point takes at most three values, which sum to
    0 when there are three:
      - two values, k and 6 - k times, at ((6 - k)^k, (-k)^(6 - k)):
        singular only at t = 10/7 for k = 1 (6 points), t = 4 for k = 2
        (15 points) and t = 6 for k = 3 (10 points);
      - pattern (1, 1, 4): the repeated value is 0, and (1, -1, 0^4) is
        singular only at t = 2 (15 points);
      - pattern (2, 2, 2): either e2 = 0, which gives l*(1, w, w^2), the
        30 points of the cube-root orbit, singular on every member; or
        t = 4, where every a + b + c = 0 works: 15 lines, one per pairing
        of the coordinates;
      - pattern (1, 2, 3) gives nothing new.
    So the locus is the cube-root orbit, plus the orbit of _EXTRA_ORBITS[t]
    at t = 6, 2 and 10/7: 30, 40, 45 and 36 points.  _locus builds each of
    these four classes once per process, into a table of at most four
    entries that no t or alphabet adds to.  The points of an _orbit_points
    batch are the arrangements of one set of values led by 1, so they are
    found together, iff some nonzero letter maps every value to a letter:
    one _spelled test per batch, on the letters' int pairs.

    At t = 0 the member is the double quadric -p2^2, singular along the
    surface sum(x) = p2 = 0, and at t = 4 its locus has the 15 lines, so
    there _scan_by_enumeration tests each multiset of six letters.
    """
    letters = sorted({Eisenstein.coerce(c) for c in alphabet}, key=Eisenstein.sort_key)
    if not letters:
        raise ValueError("the alphabet must be nonempty")
    if len(letters) ** NVARS > SCAN_CAP:
        raise ValueError(
            f"scan space {len(letters)}^{NVARS} exceeds the cap {SCAN_CAP}"
        )
    t = family_parameter(t)
    if not t or t == 4:
        return _scan_by_enumeration(t, letters)
    batches, points = _locus(t)
    table = set(_cleared(letters))
    found = [_spelled(values, n, table) for values, n in batches]
    return [p for p, i in points if found[i]]


def _scan_by_enumeration(t: Fraction, letters) -> list:
    """scan_alphabet by enumeration, complete at every t: the singular
    points of the t-member with coordinates in the letters, sorted.

    Every member lies on sum(x) = 0 and is symmetric in the coordinates,
    so each multiset of six letters is tested once.  One table gives each
    letter's int pair x and its index.  The first five indices are
    streamed non-decreasing, C(len + 4, 5) heads, with the sum of x over
    each four-letter prefix taken once.  The sixth coordinate is minus the
    sum of the other five, kept when it is a letter of index at least the
    fifth's, and the tuple gets the Jacobian test.  _orbit_points builds
    the points of a passing tuple's rearrangements, each once, and skips
    the orbits the scan has already built: the sixth-root multiples of the
    cube-root tuple are one orbit.
    """
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
