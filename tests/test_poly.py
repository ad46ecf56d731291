"""Unit tests for sparse six-variable polynomials over the quadratic field."""

import random
from fractions import Fraction
from math import lcm
from operator import add

import pytest

from s6quartic import (
    OMEGA,
    QUADRIC_PAIR,
    Eisenstein,
    Polynomial,
    quartic_family,
)
from s6quartic.eisenstein import OMEGA_SQUARED, ONE
from s6quartic import poly
from s6quartic.poly import NVARS, X, format_polynomial
from test_geometry_oracle import gradient, partial_derivative

X0, X1, X2, X3, X4, X5 = X

# Product of the two conjugate quadrics; every coefficient is rational.
# Independently cross-checked against a general-purpose symbolic system
# before being frozen here.
GOLDEN_QUADRIC_PRODUCT = {
    (4, 0, 0, 0, 0, 0): Fraction(1),
    (3, 0, 1, 0, 0, 0): Fraction(2),
    (2, 2, 0, 0, 0, 0): Fraction(-1),
    (2, 1, 0, 1, 0, 0): Fraction(-1),
    (2, 0, 2, 0, 0, 0): Fraction(3),
    (2, 0, 0, 2, 0, 0): Fraction(-1),
    (1, 2, 1, 0, 0, 0): Fraction(-1),
    (1, 1, 1, 1, 0, 0): Fraction(-1),
    (1, 0, 3, 0, 0, 0): Fraction(2),
    (1, 0, 1, 2, 0, 0): Fraction(-1),
    (0, 4, 0, 0, 0, 0): Fraction(1),
    (0, 3, 0, 1, 0, 0): Fraction(2),
    (0, 2, 2, 0, 0, 0): Fraction(-1),
    (0, 2, 0, 2, 0, 0): Fraction(3),
    (0, 1, 2, 1, 0, 0): Fraction(-1),
    (0, 1, 0, 3, 0, 0): Fraction(2),
    (0, 0, 4, 0, 0, 0): Fraction(1),
    (0, 0, 2, 2, 0, 0): Fraction(-1),
    (0, 0, 0, 4, 0, 0): Fraction(1),
}


class TestConstruction:
    def test_zero_polynomial(self):
        assert Polynomial.zero().is_zero()
        assert not Polynomial.zero()
        assert Polynomial.zero().degree() == -1

    def test_zero_coefficients_pruned(self):
        p = Polynomial({(1, 0, 0, 0, 0, 0): 0, (0, 1, 0, 0, 0, 0): 2})
        assert p == 2 * X1
        assert len(p.terms) == 1

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(1, 0, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1, 0, 0, 0, 0, 0): 1})

    def test_variable_range(self):
        assert len(X) == NVARS
        with pytest.raises(ValueError):
            Polynomial.variable(6)
        with pytest.raises(ValueError):
            Polynomial.variable(-1)

    def test_constant(self):
        c = Polynomial.constant(OMEGA)
        assert c.is_constant()
        assert c.constant_value() == OMEGA
        with pytest.raises(ValueError):
            (X0 + 1).constant_value()


class TestRingOperations:
    def test_binomial_square(self):
        assert (X0 + X2) ** 2 == X0**2 + 2 * X0 * X2 + X2**2

    def test_subtraction_to_zero(self):
        assert (X0 * X1 - X1 * X0).is_zero()

    def test_scalar_operations_both_sides(self):
        p = X0 + OMEGA * X1
        assert 2 * p == p * 2
        assert Fraction(1, 2) * p == p / 2
        assert OMEGA * p == p * OMEGA
        assert 1 + p == p + 1
        assert (1 - p) + (p - 1) == Polynomial.zero()

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            X0 / 0

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(TypeError):
            X0 / X1

    def test_power(self):
        assert X0**0 == Polynomial.constant(1)
        assert (X0 + 1) ** 3 == X0**3 + 3 * X0**2 + 3 * X0 + 1
        with pytest.raises(ValueError):
            X0**-1

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            X0 + "x1"
        with pytest.raises(TypeError):
            X0 * 1.5

    def test_golden_quadric_product(self):
        q1, q2 = QUADRIC_PAIR
        assert (q1 * q2).terms == {
            m: Eisenstein(c) for m, c in GOLDEN_QUADRIC_PRODUCT.items()
        }


class TestStructureQueries:
    def test_degree_and_homogeneity(self):
        assert (X0**2 * X1).degree() == 3
        assert (X0**2 + X1 * X2).is_homogeneous()
        assert not (X0**2 + X1).is_homogeneous()
        assert Polynomial.constant(3).is_homogeneous()

    def test_lex_leading_monomial(self):
        # Lexicographic order with x0 most significant: x0 beats x1^4.
        p = X0 + X1**4
        assert p.leading_monomial() == (1, 0, 0, 0, 0, 0)
        assert p.leading_coefficient() == ONE

    def test_leading_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero().leading_monomial()

    def test_coefficient_lookup(self):
        p = 3 * X0**2 - X1
        assert p.coefficient((2, 0, 0, 0, 0, 0)) == Eisenstein(3)
        assert p.coefficient((0, 0, 0, 1, 0, 0)) == Eisenstein(0)

    def test_variables_used(self):
        assert (X0 * X5 + X2).variables_used() == {0, 2, 5}

    def test_equality_ignores_term_order(self):
        terms = {(1, 0, 0, 0, 0, 0): 3, (0, 2, 0, 0, 0, 1): OMEGA, (0,) * NVARS: -1}
        p = Polynomial(terms)
        q = Polynomial(dict(reversed(list(terms.items()))))
        assert list(p.terms) != list(q.terms)
        assert p == q and hash(p) == hash(q) and p.key() == q.key()
        assert p != q + X2
        # The key is computed on demand; a polynomial holds its terms only.
        assert Polynomial.__slots__ == ("terms",)

    def test_equality_with_scalars(self):
        assert Polynomial.constant(5) == 5
        assert X0 != 5
        assert Polynomial.zero() == 0


class TestEvaluation:
    def test_evaluate(self):
        p = X0**2 + OMEGA * X1
        value = p.evaluate([OMEGA, 2, 0, 0, 0, 0])
        assert value == OMEGA_SQUARED + 2 * OMEGA

    def test_evaluate_arity_checked(self):
        with pytest.raises(ValueError):
            X0.evaluate([1, 2, 3])

    def test_evaluate_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            X0.evaluate([0.5, 0, 0, 0, 0, 0])


class TestCalculus:
    def test_partial_derivative(self):
        p = X0**3 * X1 + 2 * X1
        assert partial_derivative(p, 0) == 3 * X0**2 * X1
        assert partial_derivative(p, 1) == X0**3 + 2
        assert partial_derivative(p, 5).is_zero()

    def test_gradient_length(self):
        grad = gradient(X0 * X1)
        assert len(grad) == NVARS
        assert grad[0] == X1
        assert grad[1] == X0

    def test_euler_identity_spot(self):
        p = X0**2 * X1 + X2**3  # homogeneous of degree 3
        total = Polynomial.zero()
        for i in range(NVARS):
            total = total + X[i] * partial_derivative(p, i)
        assert total == 3 * p


def substitute_linear_oracle(poly, assignments):
    """Term-by-term substitution, the independent slow path that
    Polynomial.substitute_linear (which evaluates at a point of
    polynomials) is checked against: each term is expanded on its own and
    the unsubstituted variables are multiplied back in as one monomial."""
    subs = {
        i: v if isinstance(v, Polynomial) else Polynomial.constant(v)
        for i, v in assignments.items()
    }
    total = Polynomial.zero()
    for mono, coeff in poly.terms.items():
        factor = Polynomial.constant(coeff)
        plain = [0] * NVARS
        for i, e in enumerate(mono):
            if e and i in subs:
                factor = factor * subs[i] ** e
            else:
                plain[i] = e
        total = total + factor * Polynomial({tuple(plain): 1})
    return total


def _random_scalar(rng):
    """About half the time non-integral, and about half the time off Q."""
    den = rng.choice([1, 1, 2, 3, 7])
    om = rng.randint(-3, 3) if rng.random() < 0.5 else 0
    return Eisenstein(Fraction(rng.randint(-9, 9), den), Fraction(om, den))


def _random_polynomial(rng, max_terms, max_degree, linear=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if linear:
            mono = [0] * NVARS
            if rng.random() < 0.8:
                mono[rng.randrange(NVARS)] = 1
        else:
            mono = [rng.randint(0, max_degree) for _ in range(NVARS)]
        terms[tuple(mono)] = _random_scalar(rng)
    return Polynomial(terms)


class TestSubstitution:
    def test_substitute_linear_matches_term_by_term_oracle(self):
        rng = random.Random(20261018)
        for _ in range(300):
            p = _random_polynomial(rng, 6, 3)
            assignments = {}
            for i in rng.sample(range(NVARS), rng.randint(0, NVARS)):
                kind = rng.random()
                if kind < 0.2:
                    assignments[i] = _random_scalar(rng)
                elif kind < 0.3:
                    assignments[i] = rng.randint(-5, 5)
                else:
                    assignments[i] = _random_polynomial(rng, 4, 1, linear=True)
            result = p.substitute_linear(assignments)
            assert isinstance(result, Polynomial)
            assert result == substitute_linear_oracle(p, assignments)

    def test_evaluate_at_the_variables_is_the_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            p = _random_polynomial(rng, 6, 4)
            assert p.evaluate(X) == p
            assert p.substitute_linear({}) == p

    def test_substitute_every_variable_gives_a_constant_polynomial(self):
        p = X0**2 * X5 + OMEGA * X3
        value = p.substitute_linear({i: i + 1 for i in range(NVARS)})
        assert isinstance(value, Polynomial)
        assert value == Polynomial.constant(6 + 4 * OMEGA)
        assert Polynomial.zero().substitute_linear({0: X1}) == Polynomial.zero()

    def test_substitute_linear_simple(self):
        p = X0**2
        q = p.substitute_linear({0: X1 + 1})
        assert q == X1**2 + 2 * X1 + 1

    def test_substitution_is_simultaneous(self):
        p = X0 * X1**2
        swapped = p.substitute_linear({0: X1, 1: X0})
        assert swapped == X1 * X0**2

    def test_substitute_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            X0.substitute_linear({0: X1**2})

    def test_substitute_scalar_value(self):
        p = X0 + X1
        assert p.substitute_linear({0: Polynomial.constant(OMEGA)}) == X1 + OMEGA

    def test_apply_permutation(self):
        # index_map sends variable i to variable index_map[i]
        p = X0 * X1**2
        image = p.apply_permutation((1, 2, 0, 3, 4, 5))
        assert image == X1 * X2**2

    def test_apply_permutation_validates_bijection(self):
        with pytest.raises(ValueError):
            X0.apply_permutation((0, 0, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            X0.apply_permutation((0, 1, 2))

    def test_action_respects_composition(self):
        p = X0**2 * X3 + OMEGA * X5
        first = (2, 0, 1, 3, 4, 5)
        second = (0, 1, 2, 5, 3, 4)
        composed = tuple(second[first[i]] for i in range(NVARS))
        assert p.apply_permutation(first).apply_permutation(second) == p.apply_permutation(composed)


class TestFamily:
    def test_family_member_structure(self):
        linear, quartic = quartic_family(6)
        assert linear == X0 + X1 + X2 + X3 + X4 + X5
        # t*sum(x_i^4) - (sum(x_i^2))^2 at t = 6: pure powers 5, cross terms -2.
        assert quartic.coefficient((4, 0, 0, 0, 0, 0)) == Eisenstein(5)
        assert quartic.coefficient((2, 2, 0, 0, 0, 0)) == Eisenstein(-2)
        assert quartic.coefficient((0, 0, 2, 0, 0, 2)) == Eisenstein(-2)
        assert quartic.is_homogeneous()
        assert quartic.degree() == 4
        assert len(quartic.terms) == 21

    def test_family_accepts_rational_parameter(self):
        _, quartic = quartic_family(Fraction(1, 2))
        assert quartic.coefficient((4, 0, 0, 0, 0, 0)) == Eisenstein(Fraction(-1, 2))

    def test_balanced_sign_point_vanishing(self):
        # (1, 1, 1, -1, -1, -1): power sums are 6 and 6, so the quartic
        # value is 6t - 36 and vanishes exactly at t = 6.
        point = [1, 1, 1, -1, -1, -1]
        for t in (5, 6, 7):
            _, quartic = quartic_family(t)
            value = quartic.evaluate(point)
            assert (value == Eisenstein(0)) == (t == 6)

    def test_cube_root_point_vanishing_for_all_t(self):
        point = [1, 1, OMEGA, OMEGA, OMEGA_SQUARED, OMEGA_SQUARED]
        for t in (0, 1, 6):
            linear, quartic = quartic_family(t)
            assert linear.evaluate(point) == Eisenstein(0)
            assert quartic.evaluate(point) == Eisenstein(0)


class TestFormatting:
    def test_term_layout(self):
        assert str(X0**2 - X1 * X2 + 3) == "x0^2 - x1*x2 + 3"
        assert str(Polynomial.zero()) == "0"
        assert str(-X0 - X5**2) == "-x0 - x5^2"

    def test_coefficient_layout(self):
        assert str((Fraction(1, 2) + OMEGA) * X3) == "(1/2 + w)*x3"
        assert format_polynomial(OMEGA * X1**2) == "w*x1^2"

    def test_conjugate_quadric_strings(self):
        q1, q2 = QUADRIC_PAIR
        assert str(q1) == "x0^2 + x0*x2 + w*x1^2 + w*x1*x3 + x2^2 + w*x3^2"
        assert (
            str(q2)
            == "x0^2 + x0*x2 + (-1 - w)*x1^2 + (-1 - w)*x1*x3 + x2^2 + (-1 - w)*x3^2"
        )


def _oracle_term_text(mono, coeff):
    """An independent term writer: the sign and the w-part are built from
    the re and om Fractions, not split off str(coeff)."""
    mtext = poly._monomial_text(mono)
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


def test_term_text_matches_the_fraction_oracle():
    rng = random.Random(20261019)
    for _ in range(5000):
        mono = tuple(rng.choice([0, 0, 1, 2]) for _ in range(NVARS))
        coeff = _random_scalar(rng)
        if not coeff:
            coeff = Eisenstein(rng.choice([1, -1]), rng.choice([0, 1, -1]))
        assert poly._term_text(mono, coeff) == _oracle_term_text(mono, coeff)


def _count_products(monkeypatch):
    """Count calls of the packed product loop from here on."""
    calls = []
    original = poly._product

    def counting(left, right):
        calls.append(1)
        return original(left, right)

    monkeypatch.setattr(poly, "_product", counting)
    return calls


class TestPowerProductCount:
    def test_power_makes_no_wasted_squaring(self, monkeypatch):
        p = X0 + 2 * X1 - OMEGA * X2
        expected = p * p * p * p * p * p * p * p
        calls = _count_products(monkeypatch)
        assert p**8 == expected
        assert len(calls) == 3

    @pytest.mark.parametrize("exponent,products", [(1, 0), (2, 1), (5, 3), (7, 4)])
    def test_square_and_multiply_counts(self, monkeypatch, exponent, products):
        p = X0 + X1
        expected = Polynomial.constant(1)
        for _ in range(exponent):
            expected = expected * p
        calls = _count_products(monkeypatch)
        assert p**exponent == expected
        assert len(calls) == products


def product_oracle(p, q):
    """p * q on tuple-keyed monomials: each operand as (monomial, a, b)
    int pairs over its common denominator, every monomial product a tuple
    sum, and each coefficient normalised by the public constructor."""

    def cleared(poly):
        den = lcm(*(c._den for c in poly.terms.values()))
        return den, [
            (m, c._a * (den // c._den), c._b * (den // c._den))
            for m, c in poly.terms.items()
        ]

    d1, left = cleared(p)
    d2, right = cleared(q)
    acc = {}
    for m1, a, b in left:
        for m2, c, d in right:
            mono = tuple(map(add, m1, m2))
            # (a + b*w)(c + d*w) = ac - bd + (ad + bc - bd)*w
            bd = b * d
            x = a * c - bd
            y = a * d + b * c - bd
            old = acc.get(mono)
            acc[mono] = (x, y) if old is None else (old[0] + x, old[1] + y)
    den = d1 * d2
    return Polynomial(
        {m: Eisenstein(Fraction(x, den), Fraction(y, den)) for m, (x, y) in acc.items()}
    )


def power_oracle(p, exponent):
    result = Polynomial.constant(1)
    for _ in range(exponent):
        result = product_oracle(result, p)
    return result


class TestPackedProducts:
    def test_products_and_powers_match_the_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        parts = st.integers(-9, 9)
        dens = st.integers(1, 6)
        coefficients = st.builds(
            lambda a, b, d, e: Eisenstein(Fraction(a, d), Fraction(b, e)),
            parts, parts, dens, dens,
        )
        monomials = st.tuples(*[st.integers(0, 9)] * NVARS)
        polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(
            Polynomial
        )

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
        @hypothesis.given(polynomials, polynomials, st.integers(0, 4))
        def check(p, q, k):
            assert p * q == product_oracle(p, q)
            assert p**k == power_oracle(p, k)

        check()

    def test_one_term_operands_match_the_oracle(self):
        # A one-term operand skips the packed product: its monomial shifts
        # the other's exponents and its coefficient scales them.
        rng = random.Random(14)
        for _ in range(40):
            p = _random_polynomial(rng, 6, 4)
            mono = tuple(rng.randint(0, 5) for _ in range(NVARS))
            coeff = _random_scalar(rng) or Eisenstein(Fraction(1, 3), 1)
            term = Polynomial({mono: coeff})
            for left, right in ((term, p), (p, term), (term, term)):
                assert left * right == product_oracle(left, right)
            for k in range(5):
                assert term**k == power_oracle(term, k)
        # (1 - w)^2 = -3w, so the power of ((1 - w)/3) must be reduced.
        third = Eisenstein(Fraction(1, 3), Fraction(-1, 3))
        term = Polynomial({(1, 0, 0, 0, 0, 2): third})
        assert term**2 == power_oracle(term, 2)
        assert term**2 == Polynomial({(2, 0, 0, 0, 0, 4): -OMEGA / 3})
        assert term * term == product_oracle(term, term)

    def test_zero_polynomial(self):
        zero = X1 - X1
        assert zero**2 == Polynomial.zero()
        assert zero**0 == Polynomial.constant(1)
        assert zero * (X0 + 1) == (X0 + 1) * zero == Polynomial.zero()

    def test_fields_widen_with_the_exponents(self):
        def power_of_x0(e):
            return Polynomial({(e, 0, 0, 0, 0, 0): 1})

        assert X0**5000 == power_of_x0(5000)
        assert X0**700 * X0**900 == power_of_x0(1600)
        p = X0**700 + OMEGA * X5**3 / 2
        assert p * (X0**900 - X5) == product_oracle(p, X0**900 - X5)
        assert (X5**255 + X4) ** 3 == power_oracle(X5**255 + X4, 3)
