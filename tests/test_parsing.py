"""Unit tests for the expression grammar and its error reporting."""

from fractions import Fraction

import pytest

from s6quartic import (
    MAX_EXPONENT,
    OMEGA,
    OMEGA_SQUARED,
    ONE,
    Eisenstein,
    ParseError,
    Polynomial,
    X,
    format_polynomial,
    parse_field_element,
    parse_point_coordinates,
    parse_polynomial,
    parse_scalar_list,
)
from s6quartic.parsing import MAX_NESTING, MAX_TERMS

X0, X1, X2, X3, X4, X5 = X


class TestAtoms:
    def test_variables(self):
        assert parse_polynomial("x0") == X0
        assert parse_polynomial("x5") == X5

    def test_omega(self):
        assert parse_polynomial("w") == Polynomial.constant(OMEGA)
        assert parse_polynomial("w^2") == Polynomial.constant(OMEGA_SQUARED)
        assert parse_polynomial("w^3") == Polynomial.constant(1)

    def test_integers_and_rationals(self):
        assert parse_polynomial("42") == Polynomial.constant(42)
        assert parse_polynomial("2/3") == Polynomial.constant(Fraction(2, 3))


class TestExpressions:
    def test_precedence(self):
        assert parse_polynomial("x0 + 2*x1^3") == X0 + 2 * X1**3
        assert parse_polynomial("-x0^2") == -(X0**2)
        assert parse_polynomial("2^3") == Polynomial.constant(8)

    def test_parentheses(self):
        assert parse_polynomial("(x0+x1)^2") == (X0 + X1) ** 2
        assert parse_polynomial("2*(x0 - (x1 - x2))") == 2 * (X0 - X1 + X2)

    def test_unary_minus_stacks(self):
        assert parse_polynomial("--x0") == X0
        assert parse_polynomial("---x0") == -X0

    def test_whitespace_insensitive(self):
        assert parse_polynomial(" x0+x1 ") == parse_polynomial("x0 + x1")

    def test_division_by_constants(self):
        assert parse_polynomial("x0/2") == X0 / 2
        # 1/w = w^2
        assert parse_polynomial("x0/w") == OMEGA_SQUARED * X0

    def test_implicit_product_not_allowed(self):
        with pytest.raises(ParseError):
            parse_polynomial("2x0")


class TestErrors:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("x0 +", "unexpected token 'end' (at position 4)"),
            ("(x0", "expected ')', found 'end' (at position 3)"),
            ("x0 x1", "trailing input 'var' (at position 3)"),
            ("x6", "unknown variable 'x6' (at position 0)"),
            ("y0", "unknown name 'y0' (at position 0)"),
            ("1/0", "division by zero (at position 1)"),
            ("x0/x1", "division is only defined by constants (at position 2)"),
            ("", "unexpected token 'end' (at position 0)"),
            ("2.5", "unexpected character '.' (at position 1)"),
            ("x0^^2", "exponent must be an integer literal (at position 3)"),
        ],
    )
    def test_messages_carry_positions(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == message

    def test_exponent_cap(self):
        assert parse_polynomial(f"x0^{MAX_EXPONENT}").degree() == MAX_EXPONENT
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"x0^{MAX_EXPONENT + 1}")
        assert "exponent overflow" in str(info.value)

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)


class TestFieldElements:
    def test_constant_expressions(self):
        assert parse_field_element("3 - w") == Eisenstein(3, -1)
        assert parse_field_element("(1+w)^2") == OMEGA  # (1 + w)^2 = -w^2 = ... check below
        assert parse_field_element("-1/2") == Eisenstein(Fraction(-1, 2))

    def test_squared_unit_identity(self):
        # (1 + w)^2 = 1 + 2w + w^2 = 1 + 2w - 1 - w = w
        assert (ONE + OMEGA) ** 2 == OMEGA

    def test_non_constant_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_field_element("x0")
        assert str(info.value) == "expected a constant field element (at position 0)"


class TestLists:
    def test_point_coordinates(self):
        coords = parse_point_coordinates("[1, 1, w, w, w^2, w^2]")
        assert coords == (
            Eisenstein(1),
            Eisenstein(1),
            OMEGA,
            OMEGA,
            OMEGA_SQUARED,
            OMEGA_SQUARED,
        )

    def test_point_arity_error(self):
        with pytest.raises(ParseError) as info:
            parse_point_coordinates("[1, 2]")
        assert "exactly 6 coordinates, got 2" in str(info.value)

    def test_point_entries_must_be_constant(self):
        with pytest.raises(ParseError) as info:
            parse_point_coordinates("[1, w, x0, 0, 0, 0]")
        assert "list entries must be constants" in str(info.value)

    def test_scalar_list(self):
        assert parse_scalar_list("[1, -1, w]") == (
            Eisenstein(1),
            Eisenstein(-1),
            OMEGA,
        )
        assert parse_scalar_list("[ 0 ]") == (Eisenstein(0),)

    def test_empty_list_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_scalar_list("[]")
        assert "empty list" in str(info.value)

    def test_missing_brackets_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar_list("1, 2, 3")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "x0^2 + x0*x2 + w*x1^2 + w*x1*x3 + x2^2 + w*x3^2",
            "-x0 - x5^2",
            "(1/2 + w)*x3",
            "x0^2 - x1*x2 + 3",
            "0",
        ],
    )
    def test_format_then_parse_is_stable(self, text):
        p = parse_polynomial(text)
        assert parse_polynomial(format_polynomial(p)) == p
        assert format_polynomial(p) == text


class TestNesting:
    def test_nesting_up_to_the_limit_parses(self):
        text = "(" * MAX_NESTING + "x0 + w" + ")" * MAX_NESTING
        assert parse_polynomial(text) == X0 + OMEGA

    def test_nesting_past_the_limit_is_a_parse_error(self):
        text = "(" * (MAX_NESTING + 1) + "x0" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == (
            f"parentheses nested deeper than {MAX_NESTING} "
            f"(at position {MAX_NESTING})"
        )

    def test_sibling_groups_do_not_accumulate_depth(self):
        text = " + ".join(["(" * MAX_NESTING + "1" + ")" * MAX_NESTING] * 3)
        assert parse_polynomial(text) == Polynomial.constant(3)

    def test_deep_nesting_in_a_point_list(self):
        deep = "(" * 5000 + "1" + ")" * 5000
        with pytest.raises(ParseError):
            parse_point_coordinates(f"[{deep}, 0, 0, 0, 0, 0]")


class TestTermCap:
    SUM = "(x0 + x1 + x2 + x3 + x4 + x5 + w)"

    def test_power_within_the_cap_expands(self):
        # C(6 + 8, 6) = 3003 monomials of degree <= 8 in six variables.
        assert len(parse_polynomial(f"{self.SUM}^8").terms) == 3003

    @pytest.mark.parametrize("exponent", [11, 60, MAX_EXPONENT])
    def test_power_past_the_cap_is_refused(self, exponent):
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"{self.SUM}^{exponent}")
        assert str(info.value) == (
            f"expansion exceeds {MAX_TERMS} terms (at position 33)"
        )

    def test_product_past_the_cap_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"{self.SUM}^6 * {self.SUM}^5")
        assert "expansion exceeds" in str(info.value)

    def test_many_term_products_that_collapse_are_allowed(self):
        # 101 * 101 products of terms, but at most 201 monomials of degree
        # <= 200 in one variable.
        assert len(parse_polynomial("(x0 + 1)^100 * (x0 + 1)^100").terms) == 201

    def test_high_powers_of_monomials_are_allowed(self):
        assert parse_polynomial("(w*x0)^1000") == OMEGA * X0**1000


class TestAsciiTokens:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("x0²", "unexpected character '²' (at position 2)"),
            ("x٣", "unknown name 'x' (at position 0)"),
            ("１ + x0", "unexpected character '１' (at position 0)"),
            ("xé", "unknown name 'x' (at position 0)"),
        ],
    )
    def test_non_ascii_digits_and_letters_are_refused(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == message

    def test_unicode_whitespace_separates_tokens(self):
        assert parse_polynomial("x0\u00a0+\u2003x1") == X0 + X1

    def test_variable_indices(self):
        assert parse_polynomial("x0001") == X1
        long_name = "x" + "1" * 5000
        with pytest.raises(ParseError) as info:
            parse_polynomial(long_name)
        assert str(info.value) == f"unknown variable '{long_name}' (at position 0)"

    def test_over_long_literal_is_a_parse_error(self):
        digits = "7" * 5000
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"x0 + {digits}")
        assert str(info.value) == (
            "integer literal too long (5000 digits) (at position 5)"
        )

    def test_long_literal_within_the_limit_parses(self):
        digits = "3" * 4000
        assert parse_field_element(digits) == Eisenstein(int(digits))
