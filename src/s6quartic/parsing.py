"""Text grammar for polynomials, field elements, and coordinate lists.

    expression := term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := ('-' | '+')* atom ('^' integer)*
    atom       := x0..x5 | 'w' | integer | '(' expression ')'

'^' binds tighter than '*' and '/', which bind tighter than '+' and '-';
unary minus is allowed and whitespace is insignificant.  'w' is the cube
root of unity (w^2 parses and reduces to -1 - w).  '/' is division by a
nonzero constant, which is how rational scalars like 2/3 are written.
Parentheses nest at most MAX_NESTING deep, no product or power may
expand to more than MAX_TERMS terms or have a degree past MAX_EXPONENT,
and no sum, difference, product, quotient or power may have a
coefficient of more than MAX_CONSTANT_BITS bits.  A power is refused
before it is expanded, from a bound on its coefficients.

Tokens are ASCII: integers are runs of 0-9 and names start with A-Z or
a-z.  A literal longer than Python's limit on decimal conversion is a
ParseError.  Constant subexpressions are folded as field elements; only a
variable makes a value a Polynomial.

Coordinate lists use square brackets: [1, 1, w, w, w^2, w^2].

Parsing is one flat pass over the tokens, without recursion: open
parentheses are a list of saved accumulators.  It reduces where a
recursive descent over the grammar would, so every bound is checked at
the same operator, in the same order, with the same position.
"""

from __future__ import annotations

from math import comb, lcm

from .eisenstein import Eisenstein, OMEGA, _make
from .poly import NVARS, Polynomial, X, _CONST, _combined

MAX_EXPONENT = 1000
# An input bound: open parentheses are a list, not Python recursion.
MAX_NESTING = 100
MAX_TERMS = 10_000
# About 4.5 times the 14,284 bits of Python's 4,300-digit print limit.
MAX_CONSTANT_BITS = 1 << 16


class ParseError(ValueError):
    """Syntax or range error, carrying the 0-based position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = set("+-*/^()[],")
# ASCII classes: str.isdigit and str.isalpha accept other scripts too.
_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:
                # Python refuses to convert decimal strings past its limit.
                raise ParseError(
                    f"integer literal too long ({j - i} digits)", i
                ) from None
            i = j
        elif ch in _LETTERS:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            name = text[i:j]
            if name == "w":
                tokens.append(("w", name, i))
            elif name[0] == "x" and name[1:].isdigit():
                # Leading zeros are allowed (x01 is x1); a longer index is
                # refused without converting it, whatever its length.
                digits = name[1:].lstrip("0") or "0"
                if len(digits) > 1 or int(digits) >= NVARS:
                    raise ParseError(f"unknown variable '{name}'", i)
                tokens.append(("var", int(digits), i))
            else:
                raise ParseError(f"unknown name '{name}'", i)
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _expression(tokens: list, k: int):
    """The value of the expression at tokens[k], and the index after it.

    The sum and the product so far are kept with the operators that join
    them, with the sign of the pending factor; '(' saves them on a frame
    and ')' restores them.  A value stays an Eisenstein until a variable
    makes it a Polynomial.
    """
    frames = []
    # (value, operator token) or None; the sum so far also records whether
    # its value is a polynomial that this loop built and holds alone.
    total = product = None
    negate = False
    while True:
        kind, value, pos = tokens[k]
        k += 1
        if kind == "-" or kind == "+":
            negate ^= kind == "-"
            continue
        if kind == "(":
            if len(frames) == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            frames.append((total, product, negate))
            total = product = None
            negate = False
            continue
        if kind == "int":
            result = _make(value, 0, 1)
        elif kind == "w":
            result = OMEGA
        elif kind == "var":
            result = X[value]
        else:
            raise ParseError(f"unexpected token '{kind}'", pos)
        # Reduce the atom into its factor, term and sum, closing
        # parentheses, until an operator wants a right operand.
        while True:
            while tokens[k][0] == "^":
                caret = tokens[k][2]
                kind, value, pos = tokens[k + 1]
                k += 2
                if kind != "int":
                    raise ParseError("exponent must be an integer literal", pos)
                result = _power(result, value, pos, caret)
            if negate:
                result = -result
            if product is not None:
                lhs, op = product
                if type(lhs) is Eisenstein and type(result) is Eisenstein:
                    # Two field elements fold at once, with the refusals
                    # of _product_of at the same position.
                    if op[0] == "/":
                        if not result:
                            raise ParseError("division by zero", op[2])
                        result = result.inverse()
                    result = lhs * result
                    if _too_wide(result):
                        raise ParseError(_WIDE_MESSAGE, op[2])
                else:
                    result = _product_of(lhs, op, result)
            op = tokens[k]
            if op[0] in ("*", "/"):
                product = (result, op)
                break
            owned = False
            if total is not None:
                lhs, (kind, _, pos), owned = total
                rhs = result
                if owned:
                    # A polynomial sum that this loop built and holds alone
                    # grows in place, so a long sum is not copied per term.
                    add = Eisenstein.__add__ if kind == "+" else Eisenstein.__sub__
                    result = _combined(lhs, rhs, add, True)
                else:
                    result = lhs + rhs if kind == "+" else lhs - rhs
                if _too_wide(result, rhs if type(lhs) is Polynomial else None):
                    raise ParseError(_WIDE_MESSAGE, pos)
                owned = type(result) is Polynomial
            if op[0] in ("+", "-"):
                total = (result, op, owned)
                product = None
                break
            if not frames:
                return result, k
            k = _expect(tokens, k, ")")
            total, product, negate = frames.pop()
        k += 1
        negate = False


def _power(base, exponent: int, pos: int, caret: int):
    if exponent > MAX_EXPONENT:
        raise ParseError(f"exponent overflow ({exponent} > {MAX_EXPONENT})", pos)
    if isinstance(base, Polynomial):
        degree = base.degree() * exponent
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree exceeds {MAX_EXPONENT}", caret)
        if len(base.terms) ** exponent > MAX_TERMS:
            _bound_monomials((base,), degree, caret)
        if _power_bits(base, exponent) > MAX_CONSTANT_BITS:
            raise ParseError(_WIDE_MESSAGE, caret)
    elif exponent * (_bit_length(base) + 2) > MAX_CONSTANT_BITS:
        raise ParseError(_WIDE_MESSAGE, caret)
    return base ** exponent


def _product_of(lhs, op: tuple, rhs):
    kind, _, pos = op
    if kind == "/":
        value = _constant(rhs)
        if value is None:
            raise ParseError("division is only defined by constants", pos)
        if not value:
            raise ParseError("division by zero", pos)
        rhs = value.inverse()
    elif isinstance(lhs, Polynomial) and isinstance(rhs, Polynomial):
        degree = lhs.degree() + rhs.degree()
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree exceeds {MAX_EXPONENT}", pos)
        if len(lhs.terms) * len(rhs.terms) > MAX_TERMS:
            _bound_monomials((lhs, rhs), degree, pos)
    result = lhs * rhs
    if _too_wide(result):
        raise ParseError(_WIDE_MESSAGE, pos)
    return result


def _bound_monomials(operands, degree: int, pos: int):
    """Refuse an expansion that multiplying out term by term could grow
    past MAX_TERMS terms, unless its degree keeps it small.

    A result of degree d in the k variables of the operands has at most
    C(k + d, k) monomials.  When that bound also passes the cap, the
    input is refused before any of the expansion is computed.
    """
    k = len(set().union(*(p.variables_used() for p in operands)))
    if comb(k + degree, k) > MAX_TERMS:
        raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)


def _bit_length(value: Eisenstein) -> int:
    """Bits of the largest of the normalised triple (a, b, den).

    Each component of (a + b*w)^n is below 3^n * max(|a|, |b|)^n, so n
    times (this + 2) bounds the bits of a power.
    """
    a, b, den = value._parts()
    return max(abs(a), abs(b), den).bit_length()


def _power_bits(base: Polynomial, exponent: int) -> int:
    """An upper bound on the bits of every coefficient component of
    base ** exponent, computed from the base alone.

    Over its common denominator D the base is a sum of T terms
    (a + b*w)*m / D with |a|, |b| <= M.  A coefficient of the numerator's
    n-th power sums at most T^n products of n values of modulus at most
    |a| + |b| <= 2M, and a component of z = a + b*w is below 2|z|, so each
    component is below 2*(2*M*T)^n, and the denominator is D^n.
    """
    coeffs = base.terms.values()
    den = lcm(*(c._den for c in coeffs))
    largest = max(
        (max(abs(c._a), abs(c._b)) * (den // c._den) for c in coeffs), default=0
    )
    width = max(largest, den).bit_length() + len(coeffs).bit_length() + 1
    return exponent * width + 1


_WIDE = 1 << MAX_CONSTANT_BITS
_WIDE_MESSAGE = f"constant exceeds {MAX_CONSTANT_BITS} bits"


def _too_wide(value, operand=None) -> bool:
    """Whether a coefficient of a parsed value passes MAX_CONSTANT_BITS bits;
    given the right operand of a sum, only at that operand's monomials.

    Sums and products are checked once computed: at most one of them past
    the bound is ever built, so a chain of them cannot compound.  Every
    polynomial the parser holds is a variable or has passed this check or
    the a-priori bound of a power.  So past a polynomial on the left, a sum
    needs reading only at its right operand's monomials, and a long sum is
    checked in linear time.  A field element on the left may be a literal
    that no operator has checked, and then every coefficient is read.
    """
    if type(value) is not Polynomial:
        return not (
            -_WIDE < value._a < _WIDE and -_WIDE < value._b < _WIDE
            and value._den < _WIDE
        )
    coeffs = value.terms.values()
    if operand is not None:
        terms = value.terms
        touched = operand.terms if type(operand) is Polynomial else (_CONST,)
        coeffs = [terms[m] for m in touched if m in terms]
    for c in coeffs:
        if not (-_WIDE < c._a < _WIDE and -_WIDE < c._b < _WIDE and c._den < _WIDE):
            return True
    return False


def _constant(value):
    """The field element a parsed value stands for; None if not constant."""
    if isinstance(value, Polynomial):
        if not value.is_constant():
            return None
        return value.constant_value()
    return value


def _expect(tokens: list, k: int, kind: str) -> int:
    found, _, pos = tokens[k]
    if found != kind:
        raise ParseError(f"expected '{kind}', found '{found}'", pos)
    return k + 1


def _finish(tokens: list, k: int):
    kind, _, pos = tokens[k]
    if kind != "end":
        raise ParseError(f"trailing input '{kind}'", pos)


def parse_polynomial(text: str) -> Polynomial:
    tokens = _tokenize(text)
    result, k = _expression(tokens, 0)
    _finish(tokens, k)
    if isinstance(result, Polynomial):
        return result
    return Polynomial.constant(result)


def _parse_bracketed(text: str) -> tuple:
    tokens = _tokenize(text)
    k = _expect(tokens, 0, "[")
    entries = []
    if tokens[k][0] != "]":
        while True:
            start = tokens[k][2]
            value, k = _expression(tokens, k)
            if type(value) is not Eisenstein:
                value = _constant(value)
                if value is None:
                    raise ParseError("list entries must be constants", start)
            entries.append(value)
            if tokens[k][0] != ",":
                break
            k += 1
    _finish(tokens, _expect(tokens, k, "]"))
    return tuple(entries)


def parse_scalar_list(text: str) -> tuple:
    """A bracketed comma-separated list of field elements, any length >= 1."""
    entries = _parse_bracketed(text)
    if not entries:
        raise ParseError("empty list", 0)
    return entries


def parse_point_coordinates(text: str) -> tuple:
    """Exactly six field elements: the coordinate syntax [a, b, c, d, e, f]."""
    entries = _parse_bracketed(text)
    if len(entries) != NVARS:
        raise ParseError(
            f"a point needs exactly {NVARS} coordinates, got {len(entries)}", 0
        )
    return entries
