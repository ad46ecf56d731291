"""Sparse multivariate polynomials over Q(w) in the fixed variables x0..x5.

A polynomial is a map from exponent vectors (6-tuples of non-negative ints)
to nonzero Eisenstein coefficients; zero coefficients are pruned on every
operation, so structural equality is mathematical equality.  The ambient
variable set is fixed at six, matching the projective space P^5 all the
geometry lives in.

The monomial order used everywhere (leading terms, text output) is
lexicographic on the exponent vector with x0 most significant.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import add

from .eisenstein import Eisenstein, ONE, ZERO, _make, _operand, _reduced

NVARS = 6

Monomial = tuple  # 6-tuple of non-negative ints

_CONST = (0,) * NVARS


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, scalar /, ** and hashing."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != NVARS or any(
                    not isinstance(e, int) or e < 0 for e in mono
                ):
                    raise ValueError(f"bad exponent vector {mono!r}")
                c = Eisenstein.coerce(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "Polynomial":
        c = Eisenstein.coerce(value)
        return _raw({_CONST: c} if c else {})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if not 0 <= index < NVARS:
            raise ValueError(f"variable index {index} out of range")
        return _raw({tuple(int(i == index) for i in range(NVARS)): ONE})

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        return _combined(self, other, Eisenstein.__add__)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return _combined(self, other, Eisenstein.__sub__)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _operand(other)
            if c is NotImplemented:
                return NotImplemented
            return _shifted(self, _CONST, c)
        # A one-term operand shifts the exponents of the other and scales it.
        if len(other.terms) == 1:
            return _shifted(self, *next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return _shifted(other, *next(iter(self.terms.items())))
        width = (_top_exponent(self) + _top_exponent(other)).bit_length()
        d1, left = _int_pairs(self, width)
        d2, right = _int_pairs(other, width)
        return _unpacked(_product(left, right), d1 * d2, width)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Eisenstein.coerce(scalar)
        return self * c.inverse()

    def __pow__(self, exponent: int):
        """self**exponent by square and multiply: p**8 is three squarings,
        and each squaring (_square) multiplies each unordered pair of terms
        once, T(T + 1)/2 term products for T terms instead of T^2."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        if exponent == 0:
            return Polynomial.constant(1)
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            return _raw({tuple([e * exponent for e in mono]): c**exponent})
        # No exponent of an intermediate power passes exponent * top, so
        # fields of its bit length hold them all; the coefficients stay
        # unreduced over den^k and each is reduced once, when unpacked.
        width = (_top_exponent(self) * exponent).bit_length()
        den, base = _int_pairs(self, width)
        result = None
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else _product(result, base)
            e >>= 1
            if not e:
                return _unpacked(result, den**exponent, width)
            base = _square(base)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _CONST for m in self.terms)

    def constant_value(self) -> Eisenstein:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_CONST, ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_coefficient(self) -> Eisenstein:
        return self.terms[self.leading_monomial()]

    def coefficient(self, mono: Monomial) -> Eisenstein:
        return self.terms.get(tuple(mono), ZERO)

    def variables_used(self) -> set:
        return {
            i for m in self.terms for i in range(NVARS) if m[i] > 0
        }

    # -- evaluation and actions -----------------------------------------------

    def evaluate(self, point: Sequence):
        """The value at the point.  A Polynomial coordinate is used as it
        is, so the value is then a Polynomial; every other coordinate is
        coerced to a field element.

        At a field point the sum runs on ints: with coordinate i written
        (a + b*w)/d, row i holds (a + b*w)^e * d^(top_i - e) up to the top
        exponent top_i of x_i, each coefficient is taken over the common
        denominator L, and the value is reduced once, over L * prod d^top_i.
        """
        if len(point) != NVARS:
            raise ValueError(f"point must have {NVARS} coordinates")
        values = [
            c if isinstance(c, (Eisenstein, Polynomial)) else Eisenstein.coerce(c)
            for c in point
        ]
        tops = list(map(max, zip(*self.terms))) or [0] * NVARS
        if Polynomial in map(type, values):
            return _substituted(self, values, tops)
        rows = []
        den = 1
        for i, top in enumerate(tops):
            if not top:
                continue
            v = values[i]
            a, b, d = v._a, v._b, v._den
            s = d**top
            den *= s
            row = []
            x, y = 1, 0
            for _ in range(top):
                row.append((x * s, y * s))
                s //= d
                # (x + y*w)(a + b*w) with w^2 = -1 - w
                yb = y * b
                x, y = x * a - yb, x * b + y * a - yb
            row.append((x, y))
            rows.append((i, row))
        common = lcm(*(c._den for c in self.terms.values()))
        total_x = total_y = 0
        for mono, c in self.terms.items():
            k = common // c._den
            x, y = c._a * k, c._b * k
            for i, row in rows:
                p, q = row[mono[i]]
                if q:
                    qy = q * y
                    x, y = x * p - qy, x * q + y * p - qy
                elif p != 1:
                    x *= p
                    y *= p
            total_x += x
            total_y += y
        return _reduced(total_x, total_y, common * den)

    def substitute_linear(self, assignments: Mapping[int, object]) -> "Polynomial":
        """Replace variables by polynomials of degree <= 1 (constants allowed)."""
        point = list(X)
        for index, value in assignments.items():
            if not 0 <= index < NVARS:
                raise ValueError(f"variable index {index} out of range")
            p = value if isinstance(value, Polynomial) else Polynomial.constant(value)
            if p.degree() > 1:
                raise ValueError(
                    f"substitution for x{index} has degree {p.degree()} > 1"
                )
            point[index] = p
        value = self.evaluate(point)
        return value if isinstance(value, Polynomial) else Polynomial.constant(value)

    def apply_permutation(self, index_map: Sequence[int]) -> "Polynomial":
        """Pushforward: replace x_j by x_{index_map[j]} everywhere."""
        m = tuple(index_map)
        if sorted(m) != list(range(NVARS)):
            raise ValueError(f"not a bijection of the variable indices: {m!r}")
        terms = {}
        for mono, coeff in self.terms.items():
            image = [0] * NVARS
            for i, e in enumerate(mono):
                image[m[i]] = e
            terms[tuple(image)] = coeff
        return _raw(terms)

    # -- identity ---------------------------------------------------------------

    def key(self):
        """Sorted term tuple; the canonical identity of the polynomial.

        Coefficients enter as their normalised int triples, which are
        ordered and hash without building Fractions.
        """
        return tuple(
            (m, c._parts()) for m, c in sorted(self.terms.items(), reverse=True)
        )

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, Eisenstein)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        return format_polynomial(self)


def _raw(terms: dict) -> Polynomial:
    """Internal: wrap an already-clean term dict without re-validation."""
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


def _combined(p: Polynomial, other, op, in_place: bool = False):
    """p + other or p - other, with op the field's add or sub.

    In place, p's own terms are updated and p is returned, in time linear
    in other alone: only for a p that nothing else holds.  A field element
    is one constant term, and zero adds nothing.
    """
    if type(other) is Eisenstein:
        items = ((_CONST, other),) if other else ()
    else:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        items = other.terms.items()
    terms = p.terms if in_place else dict(p.terms)
    for mono, coeff in items:
        acc = op(terms.get(mono, ZERO), coeff)
        if acc:
            terms[mono] = acc
        else:
            terms.pop(mono, None)
    return p if in_place else _raw(terms)


def _shifted(p: Polynomial, mono: Monomial, c: Eisenstein) -> Polynomial:
    """p times the term c*mono: its exponents shifted and coefficients scaled."""
    if not c:
        return _raw({})
    if mono is _CONST:
        return _raw({m: coeff * c for m, coeff in p.terms.items()})
    return _raw({tuple(map(add, m, mono)): coeff * c for m, coeff in p.terms.items()})


def _substituted(p: Polynomial, values: list, tops: list):
    """p at a point with a Polynomial coordinate, from a table of powers."""
    powers = []
    for v, top in zip(values, tops):
        row = [ONE, v]
        for _ in range(top - 1):
            row.append(row[-1] * v)
        powers.append(row)
    total = ZERO
    for mono, coeff in p.terms.items():
        acc = coeff
        for row, e in zip(powers, mono):
            if e:
                acc = acc * row[e]
        total = total + acc
    return total


def _top_exponent(p: Polynomial) -> int:
    """The largest exponent of any variable in any term; 0 if none."""
    return max(map(max, p.terms), default=0)


def _int_pairs(p: Polynomial, width: int):
    """(D, [(packed monomial, a, b)]) with every coefficient equal to
    (a + b*w)/D.

    A monomial is packed into one int, x0 in the most significant of six
    fields of width bits.  While every exponent of a product stays below
    2**width no field carries into the next, so multiplying two monomials
    is adding their packed ints.  A width of at most 8 packs the exponents
    as bytes, in fields of 8 bits, which int.from_bytes builds at once.
    """
    den = lcm(*(c._den for c in p.terms.values()))
    pairs = []
    for mono, c in p.terms.items():
        a, b, d = c._parts()
        k = den // d
        if width <= 8:
            packed = int.from_bytes(bytes(mono), "big")
        else:
            packed = 0
            for e in mono:
                packed = packed << width | e
        pairs.append((packed, a * k, b * k))
    return den, pairs


def _product(left: list, right: list) -> list:
    """The product of two packed pair lists, without its zero terms.

    Every term product is plain int arithmetic; nothing is reduced here.
    """
    acc: dict = {}
    get = acc.get
    for m1, a, b in left:
        for m2, c, d in right:
            m = m1 + m2
            # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd)*w
            bd = b * d
            x = a * c - bd
            y = a * d + b * c - bd
            old = get(m)
            acc[m] = (x, y) if old is None else (old[0] + x, old[1] + y)
    return [(m, x, y) for m, (x, y) in acc.items() if x or y]


def _square(pairs: list) -> list:
    """_product(pairs, pairs) from T(T + 1)/2 term products, not T^2: each
    unordered pair of terms is multiplied once and a cross term doubled.

    Its terms come in the same order: a monomial first appears at the same
    pair i <= j of indices.
    """
    acc: dict = {}
    get = acc.get
    for i, (m1, a, b) in enumerate(pairs):
        # (a + b*w)^2 = a^2 - b^2 + (2ab - b^2)*w
        m = m1 + m1
        bb = b * b
        x, y = a * a - bb, 2 * a * b - bb
        old = get(m)
        acc[m] = (x, y) if old is None else (old[0] + x, old[1] + y)
        a, b = 2 * a, 2 * b
        for m2, c, d in pairs[i + 1 :]:
            m = m1 + m2
            bd = b * d
            x = a * c - bd
            y = a * d + b * c - bd
            old = get(m)
            acc[m] = (x, y) if old is None else (old[0] + x, old[1] + y)
    return [(m, x, y) for m, (x, y) in acc.items() if x or y]


def _unpacked(pairs: list, den: int, width: int) -> Polynomial:
    """The polynomial of a packed pair list over den, packed by _int_pairs
    at width; each coefficient is reduced here, once."""
    reduced = _make if den == 1 else _reduced
    if width <= 8:
        return _raw(
            {tuple(m.to_bytes(NVARS, "big")): reduced(x, y, den) for m, x, y in pairs}
        )
    mask = (1 << width) - 1
    shifts = [width * i for i in range(NVARS - 1, -1, -1)]
    return _raw(
        {
            tuple([m >> s & mask for s in shifts]): reduced(x, y, den)
            for m, x, y in pairs
        }
    )


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction, Eisenstein)):
        return Polynomial.constant(value)
    return NotImplemented


X = tuple(Polynomial.variable(i) for i in range(NVARS))


# -- text output ------------------------------------------------------------
#
# format_polynomial is the inverse of parsing.parse_polynomial: terms are
# emitted most-significant first under the lex order, coefficients in a form
# the grammar accepts, so parse(format(P)) == P.

def _monomial_text(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _term_text(mono: Monomial, coeff: Eisenstein):
    """Return (sign, body) with sign in {+1, -1} and body free of a sign.

    The coefficient is written by str(coeff), parenthesized when it has
    both a rational and a w part, else with its leading '-' split off."""
    mtext = _monomial_text(mono)
    ctext = str(coeff)
    sign = 1
    if coeff.re and coeff.om:
        ctext = f"({ctext})"
    elif ctext.startswith("-"):
        sign, ctext = -1, ctext[1:]
    if not mtext:
        return sign, ctext
    return sign, mtext if ctext == "1" else f"{ctext}*{mtext}"


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in sorted(p.terms.items(), reverse=True):
        sign, body = _term_text(mono, coeff)
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(pieces)


# -- the pencil of invariant quartics -----------------------------------------

def family_parameter(t) -> Fraction:
    """A parameter t of the family as a Fraction.  Only ints and Fractions
    are parameters: a float or a string would be read approximately or by
    its text, so anything else is a TypeError."""
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    raise TypeError(f"a family parameter is an int or Fraction, not {t!r}")


def quartic_family(t) -> tuple:
    """The hyperplane L = sum x_i and the quartic t*sum x_i^4 - (sum x_i^2)^2."""
    t = family_parameter(t)
    linear = Polynomial.zero()
    fourth = Polynomial.zero()
    square = Polynomial.zero()
    for i in range(NVARS):
        linear = linear + X[i]
        fourth = fourth + X[i] ** 4
        square = square + X[i] ** 2
    return linear, fourth * t - square * square
