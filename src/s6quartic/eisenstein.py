"""Exact arithmetic in the Eisenstein field Q(w), where w^2 + w + 1 = 0.

An element is stored as three plain ints (a, b, den) meaning
(a + b*w) / den, with den > 0 and gcd(a, b, den) == 1.  That form is
unique, so equality and hashing compare the triples directly, and every
operation eagerly rewrites w^2 as -1 - w.  Most values in the checks are
Eisenstein integers (den == 1), for which no gcd is taken at all.

Results of arithmetic are built by the private _make, which skips the
coercion and validation of the public constructor.  The components on the
basis {1, w} are available as the Fraction properties re and om.

Division uses the field norm N(a + b*w) = a^2 - a*b + b^2: the inverse of
(a + b*w)/d is d*((a - b) - b*w)/N(a + b*w).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _make(a: int, b: int, den: int) -> "Eisenstein":
    """Wrap a triple that is already normalised (den > 0, gcd 1)."""
    e = _new(Eisenstein)
    e._a = a
    e._b = b
    e._den = den
    return e


def _reduced(a: int, b: int, den: int) -> "Eisenstein":
    """Normalise (a + b*w)/den for a positive den."""
    if den != 1:
        g = gcd(a, b, den)
        if g != 1:
            a //= g
            b //= g
            den //= g
    return _make(a, b, den)


def _cleared(values) -> list:
    """The values times their common denominator, as (a, b) int pairs
    meaning a + b*w: the same row or projective point up to a nonzero
    scalar, with every later product and sum in plain ints."""
    parts = [v._parts() for v in values]
    den = lcm(*(d for _, _, d in parts))
    if den == 1:
        return [(a, b) for a, b, _ in parts]
    return [(a * (den // d), b * (den // d)) for a, b, d in parts]


def _pair_mul(x, y) -> tuple:
    """The product of two int pairs: (a + b*w)(c + d*w) = ac - bd +
    (ad + bc - bd)*w."""
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def _operand(value):
    """The Eisenstein for an int, Fraction or Eisenstein; else NotImplemented."""
    if isinstance(value, Eisenstein):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return NotImplemented


class Eisenstein:
    """An element a + b*w of Q(w); immutable and hashable."""

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, re=0, om=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(om, (int, Fraction)):
            raise TypeError("field components must be int or Fraction")
        re = Fraction(re)
        om = Fraction(om)
        p, q = re.denominator, om.denominator
        den = p * q // gcd(p, q)
        # The common denominator of two reduced fractions leaves the triple
        # coprime: a prime dividing den survives in one of the quotients.
        self._a = re.numerator * (den // p)
        self._b = om.numerator * (den // q)
        self._den = den

    @classmethod
    def coerce(cls, value) -> "Eisenstein":
        """Accept int, Fraction, or Eisenstein; reject everything else."""
        result = _operand(value)
        if result is NotImplemented:
            raise TypeError(f"cannot interpret {value!r} as a field element")
        return result

    @property
    def re(self) -> Fraction:
        """The coefficient of 1."""
        return Fraction(self._a, self._den)

    @property
    def om(self) -> Fraction:
        """The coefficient of w."""
        return Fraction(self._b, self._den)

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Eisenstein:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._den, other._den
        if d == f:
            if d == 1:
                return _make(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(
            self._a * f + other._a * d, self._b * f + other._b * d, d * f
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._den)

    def __sub__(self, other):
        if type(other) is not Eisenstein:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._den, other._den
        if d == f:
            if d == 1:
                return _make(self._a - other._a, self._b - other._b, 1)
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(
            self._a * f - other._a * d, self._b * f - other._b * d, d * f
        )

    def __rsub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Eisenstein:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._a, self._b
        c, d = other._a, other._b
        bd = b * d
        # (a + b*w)(c + d*w) = ac + (ad + bc)*w + bd*w^2,  w^2 = -1 - w
        den = self._den * other._den
        if den == 1:
            return _make(a * c - bd, a * d + b * c - bd, 1)
        return _reduced(a * c - bd, a * d + b * c - bd, den)

    __rmul__ = __mul__

    def inverse(self) -> "Eisenstein":
        a, b, d = self._a, self._b, self._den
        if not b and a:
            # The inverse d/a of a rational a/d is already in lowest terms.
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        n = a * a - a * b + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        # n > 0 for every nonzero element, so the denominator stays positive.
        return _reduced(d * (a - b), -d * b, n)

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        if exponent == 0:
            return ONE
        result = None
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    # -- structure queries ------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, Eisenstein):
            return (
                self._a == other._a
                and self._b == other._b
                and self._den == other._den
            )
        if isinstance(other, int):
            return self._b == 0 and self._den == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def _parts(self) -> tuple:
        """The normalised (a, b, den) triple: an ordered, hashable identity."""
        return (self._a, self._b, self._den)

    def __hash__(self):
        if self._b:
            return hash(self._parts())
        # A rational value hashes like the int or Fraction it equals.
        if self._den == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._den))

    def sort_key(self):
        """Arbitrary but fixed total order, used for deterministic output:
        (re, om).  An Eisenstein integer gives its int pair, which compares
        exactly with the Fraction pairs of the others."""
        if self._den == 1:
            return (self._a, self._b)
        return (self.re, self.om)

    def __repr__(self):
        return f"Eisenstein({self.re!r}, {self.om!r})"

    def __str__(self):
        if self._den == 1:
            re, om = self._a, self._b
        else:
            re, om = self.re, self.om
        if om == 0:
            return str(re)
        if om == 1:
            wpart = "w"
        elif om == -1:
            wpart = "-w"
        else:
            wpart = f"{om}*w"
        if re == 0:
            return wpart
        sign = "-" if om < 0 else "+"
        mag = wpart.lstrip("-")
        return f"{re} {sign} {mag}"


ZERO = Eisenstein(0)
ONE = Eisenstein(1)
OMEGA = Eisenstein(0, 1)
OMEGA_SQUARED = Eisenstein(-1, -1)
