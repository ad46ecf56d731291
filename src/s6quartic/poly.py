"""Sparse multivariate polynomials over Q(w) in the fixed variables x0..x5.

A polynomial is a map from exponent vectors (6-tuples of non-negative ints)
to nonzero Eisenstein coefficients; zero coefficients are pruned on every
operation, so structural equality is mathematical equality.  The ambient
variable set is fixed at six, matching the projective space P^5 all the
geometry lives in.

The monomial order used everywhere (leading terms, exact division, text
output) is lexicographic on the exponent vector with x0 most significant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Mapping, Sequence

from .eisenstein import Eisenstein, ONE, ZERO, _operand, _reduced

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
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, ZERO) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return _raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _operand(other)
            if c is NotImplemented:
                return NotImplemented
            if not c:
                return _raw({})
            return _raw({m: coeff * c for m, coeff in self.terms.items()})
        # Both operands as (monomial, a, b) over one common denominator each,
        # so every term product is plain int arithmetic and the only gcds are
        # taken once per surviving monomial of the result.
        d1, left = _int_pairs(self)
        d2, right = _int_pairs(other)
        acc: dict = {}
        get = acc.get
        for m1, a, b in left:
            for m2, c, d in right:
                mono = tuple(map(add, m1, m2))
                # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd)*w
                bd = b * d
                x = a * c - bd
                y = a * d + b * c - bd
                old = get(mono)
                acc[mono] = (x, y) if old is None else (old[0] + x, old[1] + y)
        den = d1 * d2
        return _raw(
            {m: _reduced(x, y, den) for m, (x, y) in acc.items() if x or y}
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Eisenstein.coerce(scalar)
        return self * c.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        if exponent == 0:
            return Polynomial.constant(1)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

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

    def evaluate(self, point: Sequence) -> Eisenstein:
        if len(point) != NVARS:
            raise ValueError(f"point must have {NVARS} coordinates")
        # powers[i][e] is the e-th power of coordinate i, built once per call
        # up to the highest exponent of x_i in any term.
        tops = [0] * NVARS
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e > tops[i]:
                    tops[i] = e
        powers = []
        for c, top in zip(point, tops):
            v = Eisenstein.coerce(c)
            row = [ONE, v]
            for _ in range(top - 1):
                row.append(row[-1] * v)
            powers.append(row)
        total = ZERO
        for mono, coeff in self.terms.items():
            acc = coeff
            for row, e in zip(powers, mono):
                if e:
                    acc = acc * row[e]
            total = total + acc
        return total

    def substitute_linear(self, assignments: Mapping[int, object]) -> "Polynomial":
        """Replace variables by polynomials of degree <= 1 (constants allowed)."""
        subs = {}
        for index, value in assignments.items():
            if not 0 <= index < NVARS:
                raise ValueError(f"variable index {index} out of range")
            p = value if isinstance(value, Polynomial) else Polynomial.constant(value)
            if p.degree() > 1:
                raise ValueError(
                    f"substitution for x{index} has degree {p.degree()} > 1"
                )
            subs[index] = p
        total = Polynomial.zero()
        for mono, coeff in self.terms.items():
            factor = Polynomial.constant(coeff)
            plain = list(_CONST)
            for i, e in enumerate(mono):
                if e and i in subs:
                    factor = factor * subs[i] ** e
                else:
                    plain[i] = e
            if any(plain):
                factor = factor * _raw({tuple(plain): ONE})
            total = total + factor
        return total

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


def _int_pairs(p: Polynomial):
    """(D, [(monomial, a, b)]) with every coefficient equal to (a + b*w)/D."""
    den = lcm(*(c._den for c in p.terms.values()))
    pairs = []
    for mono, c in p.terms.items():
        a, b, d = c._parts()
        k = den // d
        pairs.append((mono, a * k, b * k))
    return den, pairs


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
    """Return (sign, body) with sign in {+1, -1} and body free of a sign."""
    mtext = _monomial_text(mono)
    if coeff.om == 0:
        sign = 1 if coeff.re > 0 else -1
        mag = abs(coeff.re)
        if mtext and mag == 1:
            return sign, mtext
        ctext = str(mag)
        return sign, f"{ctext}*{mtext}" if mtext else ctext
    if coeff.re == 0:
        sign = 1 if coeff.om > 0 else -1
        mag = abs(coeff.om)
        ctext = "w" if mag == 1 else f"{mag}*w"
        return sign, f"{ctext}*{mtext}" if mtext else ctext
    inner_sign = "+" if coeff.om > 0 else "-"
    om_mag = abs(coeff.om)
    wtext = "w" if om_mag == 1 else f"{om_mag}*w"
    ctext = f"({coeff.re} {inner_sign} {wtext})"
    return 1, f"{ctext}*{mtext}" if mtext else ctext


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


# -- exact division -----------------------------------------------------------

def divide_exact(numerator: Polynomial, divisor: Polynomial):
    """Quotient with zero remainder, or None when the division is not exact.

    Single-divisor division under the lex order: at every step the divisor's
    leading term must divide the running remainder's leading term, otherwise
    no exact quotient exists (any cofactor would contribute that leading
    term).  The leading monomial strictly decreases, so this terminates.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead_mono = divisor.leading_monomial()
    lead_coeff = divisor.terms[lead_mono]
    remainder = dict(numerator.terms)
    quotient: dict = {}
    while remainder:
        top = max(remainder)
        qm = tuple(map(sub, top, lead_mono))
        if min(qm) < 0:
            return None
        qc = remainder[top] / lead_coeff
        quotient[qm] = qc
        for mono, coeff in divisor.terms.items():
            target = tuple(map(add, qm, mono))
            acc = remainder.get(target, ZERO) - qc * coeff
            if acc:
                remainder[target] = acc
            else:
                remainder.pop(target, None)
    return _raw(quotient)


# -- the pencil of invariant quartics -----------------------------------------

def quartic_family(t) -> tuple:
    """The hyperplane L = sum x_i and the quartic t*sum x_i^4 - (sum x_i^2)^2."""
    t = Fraction(t)
    linear = Polynomial.zero()
    fourth = Polynomial.zero()
    square = Polynomial.zero()
    for i in range(NVARS):
        linear = linear + X[i]
        fourth = fourth + X[i] ** 4
        square = square + X[i] ** 2
    return linear, fourth * t - square * square
