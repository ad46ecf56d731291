"""The singular-locus theorem of the family, derived for every t and checked
against the tables that the closed-form scan reads.

On sum(x) = 0 the t-member Q = t*p4 - p2^2 is singular at x iff
dQ/dx_i = 4*(t*x_i^3 - p2*x_i) is one value 4*mu at every i (Q = 0 then
follows, by Euler's identity).  For t != 0 every coordinate is a root of
the cubic t*x^3 - p2*x - mu, so x takes r <= 3 distinct values v_j, with
multiplicities m_j summing to 6.  Each pattern m is a linear system with
rational coefficients: sum m_j*v_j = 0, and v_1 + v_2 + v_3 = 0 when
r = 3, since the cubic has no x^2 term.  One more condition fixes t:
t*(a^2 + a*b + b^2) = p2 for two values a != b, and t*e2 = -p2 for three
values, which are then the three roots.  Both are homogeneous of degree
2, so scaling the values does not change t.

The derivation below runs in Q(w) on pairs of stdlib Fractions and shares
no code with the package.  It reads only varieties._CUBE_ROOTS,
_EXTRA_ORBITS and _locus, and requires them to equal what it derives.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import isqrt

from s6quartic.varieties import _CUBE_ROOTS, _EXTRA_ORBITS, _locus

ZERO = (Fraction(0), Fraction(0))
# 1 + 2w, a square root of -3.
ROOT_MINUS_3 = (Fraction(1), Fraction(2))

# The partitions of 6 into at most three parts.
PATTERNS = [
    m
    for r in (1, 2, 3)
    for m in combinations_with_replacement(range(1, 7), r)
    if sum(m) == 6
]


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y):
    (a, b), (c, d) = x, y
    # w^2 = -1 - w
    return (a * c - b * d, a * d + b * c - b * d)


def _inverse(x):
    a, b = x
    n = a * a - a * b + b * b
    return ((a - b) / n, -b / n)


def _rational(q):
    return (Fraction(q), Fraction(0))


def _nullspace(rows, n):
    """A basis of the rational solutions of rows * v = 0, v of length n."""
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for col in range(n):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        r = len(pivots)
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [v - row[col] * p for v, p in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _forms(pattern, values):
    """(c, p2) for the values v_j of a pattern: the condition is t*c = p2."""
    p2 = ZERO
    for m, v in zip(pattern, values):
        p2 = _add(p2, _mul(_rational(m), _mul(v, v)))
    if len(values) == 2:
        a, b = values
        return _add(_add(_mul(a, a), _mul(a, b)), _mul(b, b)), p2
    a, b, c = values
    e2 = _add(_add(_mul(a, b), _mul(a, c)), _mul(b, c))
    return e2, (-p2[0], -p2[1])


def _coordinates(pattern, values) -> tuple:
    return tuple(v for m, v in zip(pattern, values) for _ in range(m))


def _quadratic(form):
    """(A, B, C) with form(x*u + y*v) = A*x^2 + B*x*y + C*y^2, from its
    values at (1, 0), (0, 1) and (1, 1); rational here."""
    a, c, s = form(1, 0), form(0, 1), form(1, 1)
    assert not (a[1] or c[1] or s[1])
    return a[0], s[0] - a[0] - c[0], c[0]


def _sqrt(q: Fraction):
    """The rational square root of q, or None."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(n, d) if Fraction(n * n, d * d) == q else None


def derive() -> dict:
    """pattern -> what singular points of that pattern exist at t != 0:
    None, ("t", t, coordinates) for one orbit on one member, or
    ("plane", k, [coordinates]) for a plane of solutions on the k-member
    whose other solutions, singular on every member, are listed."""
    table = {}
    for pattern in PATTERNS:
        r = len(pattern)
        rows = [pattern] + ([[1] * r] if r == 3 else [])
        basis = _nullspace(rows, r)
        if not basis:
            table[pattern] = None
            continue
        if len(basis) == 1:
            values = [_rational(q) for q in basis[0]]
            if len(set(values)) < r:
                # Two values coincide: a coarser pattern, not this one.
                table[pattern] = None
                continue
            c, p2 = _forms(pattern, values)
            assert c != ZERO and not c[1] and not p2[1]
            t = p2[0] / c[0]
            assert t
            table[pattern] = ("t", t, _coordinates(pattern, values))
            continue
        # Two free values: the solutions x*u + y*v form a plane, on which
        # the condition t*c = p2 is a pair of quadratic forms.
        assert len(basis) == 2 and r == 3
        u, v = ([_rational(q) for q in b] for b in basis)

        def point(x, y):
            x, y = _rational(x), _rational(y)
            return [_add(_mul(x, a), _mul(y, b)) for a, b in zip(u, v)]

        c_form = _quadratic(lambda x, y: _forms(pattern, point(x, y))[0])
        p2_form = _quadratic(lambda x, y: _forms(pattern, point(x, y))[1])
        # p2 is a multiple k of c, so (t - k)*c = 0: the whole plane at
        # t = k, and the zeros of c on every member.
        k = p2_form[0] / c_form[0]
        assert p2_form == tuple(k * q for q in c_form)
        a, b, c = c_form
        s = _sqrt((b * b - 4 * a * c) / -3)
        assert c and s is not None, "the zeros of c lie in Q(w)"
        every_t = []
        for sign in (1, -1):
            # x = 1 and y = (-b +- s*sqrt(-3)) / 2c
            root = _add(_rational(-b), _mul(_rational(sign * s), ROOT_MINUS_3))
            root = _mul(root, _rational(1 / (2 * c)))
            values = [_add(p, _mul(root, q)) for p, q in zip(u, v)]
            assert len(set(values)) == 3
            every_t.append(_coordinates(pattern, values))
        table[pattern] = ("plane", k, every_t)
    return table


def _points(coordinates) -> frozenset:
    """The projective points of all rearrangements, each scaled so that its
    first nonzero coordinate is 1, as tuples of Fraction pairs."""
    points = set()
    for xs in set(permutations(coordinates)):
        scale = _inverse(next(x for x in xs if x != ZERO))
        points.add(tuple(_mul(x, scale) for x in xs))
    return frozenset(points)


def _field(pairs) -> tuple:
    return tuple((Fraction(a), Fraction(b)) for a, b in pairs)


TABLE = derive()
# t = 0 is Q = -p2^2, singular along the whole surface sum(x) = p2 = 0;
# the plane row gives the lines of one other member.
((_, PLANE_T, EVERY_T),) = [r for r in TABLE.values() if r and r[0] == "plane"]
INFINITE = {Fraction(0), PLANE_T}
EXTRA = {
    r[1]: r[2]
    for r in TABLE.values()
    if r and r[0] == "t" and r[1] not in INFINITE
}


def test_the_table():
    t_of = {m: row[1] for m, row in TABLE.items() if row}
    assert t_of == {
        (1, 5): Fraction(10, 7),
        (2, 4): Fraction(4),
        (3, 3): Fraction(6),
        (1, 1, 4): Fraction(2),
        (2, 2, 2): Fraction(4),
    }
    assert TABLE[(6,)] is None and TABLE[(1, 2, 3)] is None
    sizes = {
        m: len(_points(row[2])) for m, row in TABLE.items() if row and row[0] == "t"
    }
    assert sizes == {(1, 5): 6, (2, 4): 15, (3, 3): 10, (1, 1, 4): 15}
    # Both zeros of the plane's form give one orbit: l*(1, w, w^2), twice each.
    first, second = map(_points, EVERY_T)
    assert first == second and len(first) == 30
    singular_members = {row[1] for row in TABLE.values() if row} | INFINITE
    assert singular_members == {0, 2, 4, 6, Fraction(10, 7)}


def test_the_cube_root_tuple_is_the_orbit_on_every_member():
    assert _points(_field(_CUBE_ROOTS)) == _points(EVERY_T[0])


def test_the_extra_orbits_are_the_table():
    assert set(EXTRA) == {Fraction(2), Fraction(6), Fraction(10, 7)}
    assert set(_EXTRA_ORBITS) == set(EXTRA)
    for t, pairs in _EXTRA_ORBITS.items():
        assert _points(_field(pairs)) == _points(EXTRA[t]), t


def test_each_class_of_the_locus_is_its_orbits():
    generic = _points(EVERY_T[0])
    classes = {Fraction(1): generic}
    for t, coordinates in EXTRA.items():
        classes[t] = generic | _points(coordinates)
    sizes = {t: len(points) for t, points in classes.items()}
    assert sizes == {
        Fraction(1): 30,
        Fraction(6): 40,
        Fraction(2): 45,
        Fraction(10, 7): 36,
    }
    for t, points in classes.items():
        locus = {tuple((c.re, c.om) for c in p.coords) for p, _ in _locus(t)[1]}
        assert locus == points, t
