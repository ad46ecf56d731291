"""The integer-backed field kernel against a Fraction-pair reference.

The reference below stores an element a + b*w of Q(w) as a pair of
Fractions and does schoolbook arithmetic with w^2 = -1 - w.  It shares no
code with the kernel, so agreement on seeded random operands (integral and
not, zero and negative included) checks every operation independently.
The same reference evaluates polynomials term by term, as an oracle for the
power-table evaluation, and evaluates seeded expression trees, as an oracle
for the constant-folding parser.  The term-by-term Eisenstein product is
kept here as the oracle for the integer-pair polynomial product.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from s6quartic import (
    OMEGA,
    Eisenstein,
    Polynomial,
    parse_point_coordinates,
    parse_polynomial,
)
from s6quartic.eisenstein import ZERO
from s6quartic.poly import NVARS, X
from test_eisenstein import conjugate, norm
from test_parsing import parse_field_element


class Ref:
    """Reference element: a pair of Fractions on the basis {1, w}."""

    def __init__(self, re, om=0):
        self.re = Fraction(re)
        self.om = Fraction(om)

    def pair(self):
        return (self.re, self.om)

    def __add__(self, other):
        return Ref(self.re + other.re, self.om + other.om)

    def __sub__(self, other):
        return Ref(self.re - other.re, self.om - other.om)

    def __mul__(self, other):
        a, b, c, d = self.re, self.om, other.re, other.om
        return Ref(a * c - b * d, a * d + b * c - b * d)

    def norm(self):
        return self.re * self.re - self.re * self.om + self.om * self.om

    def conjugate(self):
        return Ref(self.re - self.om, -self.om)

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return Ref((self.re - self.om) / n, -self.om / n)

    def power(self, k):
        base = self.inverse() if k < 0 else self
        result = Ref(1)
        for _ in range(abs(k)):
            result = result * base
        return result

    def text(self):
        re, om = self.re, self.om
        if om == 0:
            return str(re)
        wpart = {1: "w", -1: "-w"}.get(om, f"{om}*w")
        if re == 0:
            return wpart
        return f"{re} {'-' if om < 0 else '+'} {wpart.lstrip('-')}"


def _rational(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    den = 1 if rng.random() < 0.4 else rng.randint(2, 12)
    return Fraction(rng.randint(-20, 20), den)


def _pairs(seed, count):
    rng = random.Random(seed)
    return [(_rational(rng), _rational(rng)) for _ in range(count)]


def _check(e, ref):
    """e equals the reference value and is stored in normal form."""
    assert (e.re, e.om) == ref.pair()
    assert e._den > 0
    assert gcd(e._a, e._b, e._den) == 1


OPERANDS = _pairs(7, 40)


class TestAgainstReference:
    def test_construction_and_components(self):
        for re, om in OPERANDS:
            _check(Eisenstein(re, om), Ref(re, om))

    def test_ring_operations(self):
        for (a, b), (c, d) in zip(OPERANDS, OPERANDS[1:] + OPERANDS[:1]):
            x, y = Eisenstein(a, b), Eisenstein(c, d)
            rx, ry = Ref(a, b), Ref(c, d)
            _check(x + y, rx + ry)
            _check(x - y, rx - ry)
            _check(x * y, rx * ry)
            _check(-x, Ref(0) - rx)
            if ry.norm():
                _check(x / y, rx * ry.inverse())
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y

    def test_mixed_operands(self):
        rng = random.Random(11)
        for re, om in OPERANDS:
            x, rx = Eisenstein(re, om), Ref(re, om)
            for q in (rng.randint(-9, 9), _rational(rng)):
                rq = Ref(q)
                _check(x + q, rx + rq)
                _check(q + x, rx + rq)
                _check(x - q, rx - rq)
                _check(q - x, rq - rx)
                _check(x * q, rx * rq)
                _check(q * x, rx * rq)
                if q:
                    _check(x / q, rx * rq.inverse())
                if rx.norm():
                    _check(q / x, rq * rx.inverse())

    def test_inverse_norm_conjugate(self):
        # Rationals of both signs, integral and not, take their own path.
        rationals = [(q, 0) for q in (5, -5, Fraction(7, 3), Fraction(-7, 3))]
        for re, om in OPERANDS + rationals:
            x, rx = Eisenstein(re, om), Ref(re, om)
            assert norm(x) == rx.norm()
            assert isinstance(norm(x), Fraction)
            _check(conjugate(x), rx.conjugate())
            if rx.norm():
                _check(x.inverse(), rx.inverse())
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()

    def test_inverse_of_negative_values_keeps_denominator_positive(self):
        for value in (Eisenstein(-3), Eisenstein(Fraction(-2, 7), -5),
                      Eisenstein(0, Fraction(-4, 9)), Eisenstein(-1, -1),
                      Eisenstein(Fraction(-9, 4)), Eisenstein(Fraction(9, 4))):
            inv = value.inverse()
            assert inv._den > 0
            assert gcd(inv._a, inv._b, inv._den) == 1
            assert inv * value == 1

    def test_powers_with_negative_exponents(self):
        for re, om in OPERANDS[:20]:
            x, rx = Eisenstein(re, om), Ref(re, om)
            for k in range(-4, 7):
                if k < 0 and not rx.norm():
                    with pytest.raises(ZeroDivisionError):
                        x ** k
                    continue
                _check(x ** k, rx.power(k))

    def test_equality_and_hash_with_plain_numbers(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(-50, 50)
            q = _rational(rng)
            for value in (n, q):
                e = Eisenstein(value)
                assert e == value and value == e
                assert hash(e) == hash(value)
                assert e == Eisenstein.coerce(value)
                assert hash(e) == hash(Eisenstein(Fraction(value)))
            assert Eisenstein(q, 1) != q

    def test_equal_values_built_differently_hash_equally(self):
        for (a, b), (c, d) in zip(OPERANDS, OPERANDS[2:]):
            x, y = Eisenstein(a, b), Eisenstein(c, d)
            via = (x + y) - y
            assert via == x and hash(via) == hash(x)
            assert hash(x * y) == hash(y * x)
            assert len({x, via, Eisenstein(a, b)}) == 1

    def test_text_and_order(self):
        elements = [Eisenstein(re, om) for re, om in OPERANDS]
        for e, (re, om) in zip(elements, OPERANDS):
            assert str(e) == Ref(re, om).text()
            assert e.sort_key() == (re, om)
        ordered = sorted(elements, key=Eisenstein.sort_key)
        assert [(e.re, e.om) for e in ordered] == sorted(OPERANDS)

    def test_random_triples_property(self):
        # (a + b*w)/den for any nonzero den, either sign, unreduced.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.integers(-10**6, 10**6)
        triples = st.tuples(ints, ints, st.integers(-40, 40).filter(bool))

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
        @hypothesis.given(triples, triples, st.integers(-5, 5))
        def check(first, second, k):
            (a, b, d), (c, e, f) = first, second
            x = Eisenstein(Fraction(a, d), Fraction(b, d))
            y = Eisenstein(Fraction(c, f), Fraction(e, f))
            rx = Ref(Fraction(a, d), Fraction(b, d))
            ry = Ref(Fraction(c, f), Fraction(e, f))
            _check(x + y, rx + ry)
            _check(x * y, rx * ry)
            if rx.norm():
                _check(x.inverse(), rx.inverse())
                _check(x ** k, rx.power(k))
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                if k < 0:
                    with pytest.raises(ZeroDivisionError):
                        x ** k
                else:
                    _check(x ** k, rx.power(k))

        check()


def _random_polynomial(rng, nterms, max_exp):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(NVARS))
        terms[mono] = Eisenstein(_rational(rng), _rational(rng))
    return Polynomial(terms)


def _naive_evaluate(poly, point):
    total = Ref(0)
    for mono, coeff in poly.terms.items():
        acc = Ref(coeff.re, coeff.om)
        for (re, om), e in zip(point, mono):
            for _ in range(e):
                acc = acc * Ref(re, om)
        total = total + acc
    return total


class TestEvaluateAgainstNaive:
    def test_power_table_matches_term_by_term(self):
        rng = random.Random(3)
        for _ in range(25):
            poly = _random_polynomial(rng, rng.randint(1, 12), rng.randint(0, 5))
            point = [(_rational(rng), _rational(rng)) for _ in range(NVARS)]
            value = poly.evaluate([Eisenstein(re, om) for re, om in point])
            _check(value, _naive_evaluate(poly, point))

    def test_plain_number_coordinates(self):
        rng = random.Random(4)
        poly = _random_polynomial(rng, 10, 4)
        point = [rng.randint(-3, 3) for _ in range(NVARS - 1)] + [Fraction(1, 3)]
        value = poly.evaluate(point)
        _check(value, _naive_evaluate(poly, [(Fraction(c), 0) for c in point]))


def _termwise_product(p, q):
    """The product with one Eisenstein operation per pair of terms."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            acc = terms.get(mono, ZERO) + c1 * c2
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
    return terms


def _check_product(product, p, q):
    assert product.terms == _termwise_product(p, q)
    for coeff in product.terms.values():
        assert coeff and coeff._den > 0
        assert gcd(coeff._a, coeff._b, coeff._den) == 1


class TestProductAgainstTermwise:
    def test_random_products(self):
        rng = random.Random(8)
        for _ in range(30):
            p = _random_polynomial(rng, rng.randint(1, 10), rng.randint(0, 3))
            q = _random_polynomial(rng, rng.randint(1, 10), rng.randint(0, 3))
            _check_product(p * q, p, q)

    def test_mixed_and_shared_denominators(self):
        halves = Polynomial({(1, 0, 0, 0, 0, 0): Fraction(1, 2),
                             (0, 1, 0, 0, 0, 0): Eisenstein(Fraction(3, 2), 1)})
        sixths = Polynomial({(1, 0, 0, 0, 0, 0): Eisenstein(0, Fraction(1, 6)),
                             (0, 0, 0, 0, 0, 0): Fraction(-5, 6)})
        for p, q in ((halves, sixths), (halves, halves), (sixths, halves)):
            _check_product(p * q, p, q)

    def test_common_denominator_is_divided_out(self):
        # (x0/2 + x1/2)(2*x0 - 2*x1) is computed over denominator 2, and
        # every coefficient of the result reduces to an integer.
        x0, x1 = X[0], X[1]
        p, q = x0 / 2 + x1 / 2, 2 * x0 - 2 * x1
        product = p * q
        _check_product(product, p, q)
        assert product == x0**2 - x1**2
        assert all(c._den == 1 for c in product.terms.values())

    def test_products_that_cancel_to_zero(self):
        x0, x1 = X[0], X[1]
        assert ((x0 - x1) * (x0 + x1) - (x0**2 - x1**2)).is_zero()
        rng = random.Random(9)
        for _ in range(10):
            p = _random_polynomial(rng, rng.randint(1, 8), 2)
            assert (p * (-p) + p**2).terms == {}
            q = p * (OMEGA * p) - (OMEGA * p) * p
            assert q.terms == {}

    def test_scalar_and_zero_operands_on_both_sides(self):
        rng = random.Random(10)
        zero = Polynomial.zero()
        for _ in range(10):
            p = _random_polynomial(rng, rng.randint(1, 8), 3)
            scalars = (0, rng.randint(-9, 9) or 1, _rational(rng),
                       Eisenstein(_rational(rng), _rational(rng)), OMEGA)
            for c in scalars:
                ref = _termwise_product(p, Polynomial.constant(c))
                assert (p * c).terms == ref
                assert (c * p).terms == ref
                assert (p * Polynomial.constant(c)).terms == ref
                assert (Polynomial.constant(c) * p).terms == ref
            for left, right in ((p, zero), (zero, p), (zero, zero)):
                assert (left * right).terms == {}


# -- the parser against a direct evaluation of the expression tree -----------


def _tree(rng, depth, constant_only=False):
    """A random expression tree; constant_only trees contain no variable."""
    if depth <= 0 or rng.random() < 0.15:
        if not constant_only and rng.random() < 0.5:
            return ("var", rng.randrange(NVARS))
        return ("const", _rational(rng), _rational(rng))
    kind = rng.choice(("add", "sub", "mul", "mul", "div", "pow", "neg"))
    if kind == "div":
        while True:
            divisor = _tree(rng, depth - 2, constant_only=True)
            if _tree_value(divisor, None).norm():
                break
        return ("div", _tree(rng, depth - 1, constant_only), divisor)
    if kind == "pow":
        exponents = [rng.choice((0, 1, 2, 2, 3)) for _ in range(rng.randint(1, 2))]
        return ("pow", _tree(rng, depth - 2, constant_only), exponents)
    if kind == "neg":
        return ("neg", _tree(rng, depth - 1, constant_only))
    # Mix constant-only and variable subtrees under one node.
    return (kind, _tree(rng, depth - 1, constant_only or rng.random() < 0.3),
            _tree(rng, depth - 1, constant_only))


def _const_text(re, om):
    return f"({re.numerator}/{re.denominator} + ({om.numerator})/{om.denominator}*w)"


def _tree_text(node):
    kind = node[0]
    if kind == "var":
        return f"x{node[1]}"
    if kind == "const":
        return _const_text(node[1], node[2])
    if kind == "neg":
        return f"-({_tree_text(node[1])})"
    if kind == "pow":
        return f"({_tree_text(node[1])})" + "".join(f"^{k}" for k in node[2])
    symbol = {"add": " + ", "sub": " - ", "mul": " * ", "div": " / "}[kind]
    return f"({_tree_text(node[1])}{symbol}{_tree_text(node[2])})"


def _tree_value(node, point):
    kind = node[0]
    if kind == "var":
        return Ref(*point[node[1]])
    if kind == "const":
        return Ref(node[1], node[2])
    if kind == "neg":
        return Ref(0) - _tree_value(node[1], point)
    if kind == "pow":
        value = _tree_value(node[1], point)
        for k in node[2]:
            value = value.power(k)
        return value
    left, right = _tree_value(node[1], point), _tree_value(node[2], point)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    return left * right.inverse()


class TestParserAgainstTreeEvaluation:
    def test_parsed_polynomials_evaluate_like_their_trees(self):
        rng = random.Random(12)
        for _ in range(150):
            tree = _tree(rng, 6)
            point = [(_rational(rng), _rational(rng)) for _ in range(NVARS)]
            text = "[" + ", ".join(_const_text(*c) for c in point) + "]"
            value = parse_polynomial(_tree_text(tree)).evaluate(
                parse_point_coordinates(text)
            )
            _check(value, _tree_value(tree, point))

    def test_constant_trees_parse_to_field_elements(self):
        rng = random.Random(13)
        for _ in range(40):
            tree = _tree(rng, 5, constant_only=True)
            expected = _tree_value(tree, None)
            _check(parse_field_element(_tree_text(tree)), expected)
            poly = parse_polynomial(_tree_text(tree))
            assert poly.is_constant()
            _check(poly.constant_value(), expected)
