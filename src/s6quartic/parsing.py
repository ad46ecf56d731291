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
"""

from __future__ import annotations

from math import comb

from .eisenstein import Eisenstein, OMEGA, _make
from .poly import NVARS, Polynomial, X, _int_pairs

MAX_EXPONENT = 1000
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


def _literal(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:
        # Python refuses to convert decimal strings past its digit limit.
        raise ParseError(
            f"integer literal too long ({len(digits)} digits)", pos
        ) from None


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", _literal(text[i:j], i), i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
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
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}', found '{tok[0]}'", tok[2])
        return tok

    def bound_monomials(self, operands, degree: int, pos: int):
        """Refuse an expansion that multiplying out term by term could grow
        past MAX_TERMS terms, unless its degree keeps it small.

        A result of degree d in the k variables of the operands has at most
        C(k + d, k) monomials.  When that bound also passes the cap, the
        input is refused before any of the expansion is computed.
        """
        k = len(set().union(*(p.variables_used() for p in operands)))
        if comb(k + degree, k) > MAX_TERMS:
            raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)

    # Grammar rules, lowest precedence first.  A value stays an Eisenstein
    # while it is constant and becomes a Polynomial once a variable enters.

    def expression(self):
        tokens = self.tokens
        result = self.term()
        while tokens[self.pos][0] in ("+", "-"):
            op, _, pos = tokens[self.pos]
            self.pos += 1
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
            if _too_wide(result):
                raise ParseError(
                    f"constant exceeds {MAX_CONSTANT_BITS} bits", pos
                )
        return result

    def term(self):
        tokens = self.tokens
        result = self.factor()
        while tokens[self.pos][0] in ("*", "/"):
            kind, _, pos = tokens[self.pos]
            self.pos += 1
            rhs = self.factor()
            if kind == "/":
                value = _constant(rhs)
                if value is None:
                    raise ParseError(
                        "division is only defined by constants", pos
                    )
                if not value:
                    raise ParseError("division by zero", pos)
                rhs = value.inverse()
            elif isinstance(result, Polynomial) and isinstance(rhs, Polynomial):
                degree = result.degree() + rhs.degree()
                if degree > MAX_EXPONENT:
                    raise ParseError(f"degree exceeds {MAX_EXPONENT}", pos)
                if len(result.terms) * len(rhs.terms) > MAX_TERMS:
                    self.bound_monomials((result, rhs), degree, pos)
            result = result * rhs
            if _too_wide(result):
                raise ParseError(
                    f"constant exceeds {MAX_CONSTANT_BITS} bits", pos
                )
        return result

    def factor(self):
        tokens = self.tokens
        sign = 1
        kind, value, pos = tokens[self.pos]
        self.pos += 1
        while kind in ("+", "-"):
            if kind == "-":
                sign = -sign
            kind, value, pos = tokens[self.pos]
            self.pos += 1
        if kind == "int":
            result = _make(value, 0, 1)
        elif kind == "w":
            result = OMEGA
        elif kind == "var":
            result = X[value]
        elif kind == "(":
            # Each level recurses through every grammar rule, so the depth
            # is bounded well below the interpreter's recursion limit.
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.depth += 1
            result = self.expression()
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError(f"unexpected token '{kind}'", pos)
        while tokens[self.pos][0] == "^":
            caret = tokens[self.pos][2]
            kind, value, pos = tokens[self.pos + 1]
            self.pos += 2
            if kind != "int":
                raise ParseError("exponent must be an integer literal", pos)
            if value > MAX_EXPONENT:
                raise ParseError(
                    f"exponent overflow ({value} > {MAX_EXPONENT})", pos
                )
            if isinstance(result, Polynomial):
                degree = result.degree() * value
                if degree > MAX_EXPONENT:
                    raise ParseError(f"degree exceeds {MAX_EXPONENT}", caret)
                if len(result.terms) ** value > MAX_TERMS:
                    self.bound_monomials((result,), degree, caret)
                if _power_bits(result, value) > MAX_CONSTANT_BITS:
                    raise ParseError(
                        f"constant exceeds {MAX_CONSTANT_BITS} bits", caret
                    )
            elif value * (_bit_length(result) + 2) > MAX_CONSTANT_BITS:
                raise ParseError(
                    f"constant exceeds {MAX_CONSTANT_BITS} bits", caret
                )
            result = result ** value
        return result if sign > 0 else -result

    def finish(self):
        end = self.peek()
        if end[0] != "end":
            raise ParseError(f"trailing input '{end[0]}'", end[2])


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
    # Only the coefficients are read, so the monomials need no field width.
    den, pairs = _int_pairs(base, 0)
    largest = max((max(abs(a), abs(b)) for _, a, b in pairs), default=0)
    width = max(largest, den).bit_length() + len(pairs).bit_length() + 1
    return exponent * width + 1


_WIDE = 1 << MAX_CONSTANT_BITS


def _too_wide(value) -> bool:
    """Whether a coefficient of a parsed value passes MAX_CONSTANT_BITS bits.

    Sums and products are checked once computed: at most one of them past
    the bound is ever built, so a chain of them cannot compound.
    """
    if type(value) is Eisenstein:
        a, b, den = value._a, value._b, value._den
        return abs(a) >= _WIDE or abs(b) >= _WIDE or den >= _WIDE
    return any(map(_too_wide, value.terms.values()))


def _constant(value):
    """The field element a parsed value stands for; None if not constant."""
    if isinstance(value, Polynomial):
        if not value.is_constant():
            return None
        return value.constant_value()
    return value


def parse_polynomial(text: str) -> Polynomial:
    parser = _Parser(text)
    result = parser.expression()
    parser.finish()
    if isinstance(result, Polynomial):
        return result
    return Polynomial.constant(result)


def _parse_bracketed(parser: _Parser):
    parser.expect("[")
    entries = []
    if parser.peek()[0] != "]":
        while True:
            value = _constant(parser.expression())
            if value is None:
                pos = parser.peek()[2]
                raise ParseError("list entries must be constants", pos)
            entries.append(value)
            if parser.peek()[0] == ",":
                parser.advance()
                continue
            break
    parser.expect("]")
    parser.finish()
    return tuple(entries)


def parse_scalar_list(text: str) -> tuple:
    """A bracketed comma-separated list of field elements, any length >= 1."""
    entries = _parse_bracketed(_Parser(text))
    if not entries:
        raise ParseError("empty list", 0)
    return entries


def parse_point_coordinates(text: str) -> tuple:
    """Exactly six field elements: the coordinate syntax [a, b, c, d, e, f]."""
    entries = _parse_bracketed(_Parser(text))
    if len(entries) != NVARS:
        raise ParseError(
            f"a point needs exactly {NVARS} coordinates, got {len(entries)}", 0
        )
    return entries
