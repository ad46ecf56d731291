"""Unit tests for sparse six-variable polynomials over the quadratic field."""

from fractions import Fraction

import pytest

from s6quartic import (
    OMEGA,
    QUADRIC_PAIR,
    Eisenstein,
    Polynomial,
    divide_exact,
    quartic_family,
)
from s6quartic.eisenstein import OMEGA_SQUARED, ONE
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


class TestSubstitution:
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


class TestExactDivision:
    def test_golden_product_and_quotients(self):
        q1, q2 = QUADRIC_PAIR
        product = q1 * q2
        assert product.terms == {
            m: Eisenstein(c) for m, c in GOLDEN_QUADRIC_PRODUCT.items()
        }
        assert divide_exact(product, q1) == q2
        assert divide_exact(product, q2) == q1

    def test_divide_exact_with_scalar_factor(self):
        f = X0 + OMEGA * X1
        g = X2**2 - X3
        assert divide_exact(3 * f * g, g) == 3 * f

    def test_non_exact_division_returns_none(self):
        assert divide_exact(X0**2 + X1, X0) is None
        assert divide_exact(X0 + 1, X1) is None

    def test_zero_numerator(self):
        assert divide_exact(Polynomial.zero(), X0) == Polynomial.zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(X0, Polynomial.zero())


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


def _count_products(monkeypatch, cls):
    """Count calls of cls.__mul__ and cls.__rmul__ from here on."""
    calls = []
    for name in ("__mul__", "__rmul__"):
        original = getattr(cls, name)

        def counting(self, other, original=original):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(cls, name, counting)
    return calls


class TestPowerProductCount:
    def test_power_makes_no_wasted_squaring(self, monkeypatch):
        p = X0 + 2 * X1 - OMEGA * X2
        expected = p * p * p * p * p * p * p * p
        calls = _count_products(monkeypatch, Polynomial)
        assert p**8 == expected
        assert len(calls) == 3

    @pytest.mark.parametrize("exponent,products", [(1, 0), (2, 1), (5, 3), (7, 4)])
    def test_square_and_multiply_counts(self, monkeypatch, exponent, products):
        p = X0 + X1
        expected = Polynomial.constant(1)
        for _ in range(exponent):
            expected = expected * p
        calls = _count_products(monkeypatch, Polynomial)
        assert p**exponent == expected
        assert len(calls) == products
