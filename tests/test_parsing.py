"""Unit tests for the expression grammar and its error reporting."""

import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from s6quartic import (
    OMEGA,
    Eisenstein,
    ParseError,
    Polynomial,
    parse_point_coordinates,
    parse_polynomial,
)
from s6quartic.eisenstein import OMEGA_SQUARED, ONE, ZERO
from s6quartic import poly
from s6quartic.poly import X, format_polynomial
from s6quartic.parsing import (
    MAX_CONSTANT_BITS,
    MAX_EXPANSION_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    _power_bits,
    parse_scalar_list,
)

X0, X1, X2, X3, X4, X5 = X
# The first 32 odd primes.
ODD_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
)


def parse_field_element(text):
    """The constant field element that text stands for.  The package parses
    constants only inside polynomials and lists; the other tests import this
    too."""
    p = parse_polynomial(text)
    if not p.is_constant():
        raise ParseError("expected a constant field element", 0)
    return p.constant_value()


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
            ("x0^500*x0^501", "degree exceeds 1000 (at position 6)"),
            ("(x0*x1)^501", "degree exceeds 1000 (at position 7)"),
        ],
    )
    def test_messages_carry_positions(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == message

    def test_exponent_cap(self):
        assert parse_polynomial(f"x0^{MAX_EXPONENT}").degree() == MAX_EXPONENT
        assert parse_polynomial("x0^500*x1^500").degree() == MAX_EXPONENT
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
        # The position is the entry's first token, not the comma after it.
        assert str(info.value) == "list entries must be constants (at position 7)"
        assert info.value.position == 7

    def test_scalar_list_entries_must_be_constant(self):
        for text, position in (("[1, 2*x1 + 3]", 4), ("[ (x0), 1]", 2)):
            with pytest.raises(ParseError) as info:
                parse_scalar_list(text)
            assert str(info.value) == (
                f"list entries must be constants (at position {position})"
            )

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

    def test_nesting_takes_no_python_recursion(self):
        # Thirty frames above the caller's are enough at any depth: open
        # parentheses are saved on a list, not on the Python stack.
        text = "(" * MAX_NESTING + "x0 + w" + ")" * MAX_NESTING
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            assert parse_polynomial(text) == X0 + OMEGA
            with pytest.raises(ParseError) as info:
                parse_polynomial(f"({text})")
        finally:
            sys.setrecursionlimit(limit)
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


class TestConstantBound:
    def test_stacked_constant_power_is_refused_at_its_caret(self):
        # Unbounded, this folds a 15.8-million-bit value.
        with pytest.raises(ParseError) as info:
            parse_polynomial("(1/3)^1000^1000^10")
        assert str(info.value) == (
            f"constant exceeds {MAX_CONSTANT_BITS} bits (at position 10)"
        )

    def test_bound_sits_between_neighbouring_exponents(self):
        # 2^1000 has 1001 bits: 65 * (1001 + 2) is within the bound and
        # 66 * (1001 + 2) is not.
        assert parse_field_element("2^1000^65") == Eisenstein(2) ** 65000
        with pytest.raises(ParseError) as info:
            parse_field_element("2^1000^66")
        assert str(info.value).endswith("(at position 6)")

    def test_small_bases_stack_freely(self):
        assert parse_field_element("w^1000^1000^1000") == OMEGA
        assert parse_field_element("(-1)^999^999") == Eisenstein(-1)

    @pytest.mark.parametrize(
        "text,position",
        [
            # Unbounded, the ten factors fold a 649,835-bit value.
            ("*".join(["3^1000^41"] * 10), 9),
            ("x0*" + "*".join(["3^1000^41"] * 10), 12),
            ("1/3^1000^41/3^1000^41", 11),
            ("x0/3^1000^41/3^1000^41", 12),
            ("3^1000^41*(3^1000^41*x0)", 9),
            ("(3^1000^41*x0)*(3^1000^41*x1)", 14),
            ("(x0 + x1)*3^1000^41*3^1000^41", 19),
            ("(x0 + 3^1000^41)*(x0 + 3^1000^41)", 16),
        ],
    )
    def test_product_past_the_bound_is_refused_at_its_operator(
        self, text, position
    ):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == (
            f"constant exceeds {MAX_CONSTANT_BITS} bits (at position {position})"
        )

    @pytest.mark.parametrize("prefix", ["", "x0*"])
    def test_product_bound_sits_between_neighbouring_factors(self, prefix):
        # 2^65535 has 65,536 bits, within the bound; 2^65536 has one more.
        within = parse_polynomial(prefix + "2^1000^65*2^535")
        power = Eisenstein(2) ** 65535
        assert within == parse_polynomial(prefix + "1") * power
        with pytest.raises(ParseError) as info:
            parse_polynomial(prefix + "2^1000^65*2^536")
        assert str(info.value).endswith(f"(at position {len(prefix) + 9})")

    @pytest.mark.parametrize(
        "text",
        [
            # Unbounded, the first builds 2,079,471-bit coefficients.
            "(x0+3^1000^41)^32",
            "(3^1000^41*x0)^32",
        ],
    )
    def test_polynomial_power_past_the_bound_is_refused_at_its_caret(
        self, text
    ):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == (
            f"constant exceeds {MAX_CONSTANT_BITS} bits (at position 14)"
        )

    def test_polynomial_power_bound_sits_between_neighbouring_exponents(self):
        # x0 + 2^1000 has 2 terms and a 1001-bit component: the bound is
        # n * (1001 + 2 + 1) + 1, 65,261 bits for n = 65 and 66,265 for 66.
        assert parse_polynomial("(x0+2^1000)^65") == (X0 + 2**1000) ** 65
        with pytest.raises(ParseError) as info:
            parse_polynomial("(x0+2^1000)^66")
        assert str(info.value).endswith("(at position 11)")
        # The first power of a base just within the bound still parses.
        value = Eisenstein(3) ** 41000
        assert parse_polynomial("(x0+3^1000^41)^1") == X0 + value
        with pytest.raises(ParseError):
            parse_polynomial("(x0+3^1000^41)^2")

    def test_polynomial_power_bound_is_an_upper_bound(self):
        rng = random.Random(8200)
        for _ in range(300):
            base = Polynomial.zero()
            for _ in range(rng.randint(1, 4)):
                bits = rng.randint(0, 40)
                coeff = Eisenstein(
                    rng.randint(-(2**bits), 2**bits),
                    rng.randint(-(2**bits), 2**bits),
                ) / rng.randint(1, 2 ** rng.randint(0, 12))
                base = base + coeff * X[rng.randrange(3)] ** rng.randint(0, 2)
            exponent = rng.randint(0, 7)
            widest = max(
                (
                    max(abs(a), abs(b), den).bit_length()
                    for a, b, den in (
                        c._parts() for c in (base**exponent).terms.values()
                    )
                ),
                default=0,
            )
            assert widest <= _power_bits(base, exponent)

    @pytest.mark.parametrize("prefix", ["", "x0+"])
    def test_sum_bound_sits_between_neighbouring_sums(self, prefix):
        # 2^65535 + 1 has 65,536 bits, within the bound; 2^65536 has one more.
        within = parse_polynomial(prefix + "2^1000^65*2^535+1")
        power = Eisenstein(2) ** 65535
        assert within == parse_polynomial(prefix + "1") + power
        for text in (
            "2^1000^65*2^535+2^1000^65*2^535",
            "2^1000^65*2^535-(-2^1000^65*2^535)",
        ):
            with pytest.raises(ParseError) as info:
                parse_polynomial(prefix + text)
            assert str(info.value) == (
                f"constant exceeds {MAX_CONSTANT_BITS} bits "
                f"(at position {len(prefix) + 15})"
            )

    def test_sum_of_fractions_past_the_bound_is_refused_at_its_operator(self):
        # Each term is the largest power of its prime within the bound;
        # adding them multiplies the denominators, and unbounded the 32
        # terms folded a 2-million-bit value in over a minute.
        text = "+".join(
            f"1/{p}^1000^{MAX_CONSTANT_BITS // ((p**1000).bit_length() + 2)}"
            for p in ODD_PRIMES
        )
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == (
            f"constant exceeds {MAX_CONSTANT_BITS} bits (at position 11)"
        )


class TestExpansionWork:
    BASE = "(x0+x1+2^1000^4)"
    WORK = f"expansion exceeds {MAX_EXPANSION_BITS} coefficient bits"

    def test_power_bound_sits_between_neighbouring_exponents(self):
        # A base of 3 terms and 4,001 bits: the 15th power has at most
        # C(2 + 15, 2) = 136 terms of 60,061 bits, 8,168,296 in all; the
        # 16th 153 terms of 64,065 bits, 9,801,945 in all.
        base = parse_polynomial(self.BASE)
        assert 136 * _power_bits(base, 15) <= MAX_EXPANSION_BITS
        assert 153 * _power_bits(base, 16) > MAX_EXPANSION_BITS
        assert parse_polynomial(f"{self.BASE}^15") == base**15
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"{self.BASE}^16")
        assert str(info.value) == f"{self.WORK} (at position 16)"

    def test_product_bound_counts_every_pair_of_terms(self):
        # S^2 * S multiplies 28 * 7 = 196 pairs of terms.  Their bits are
        # those of the operands added: 28,008 + 14,006 for 2^14000, 8,234,744
        # in all, and 28,608 + 14,306 for 2^14300, 8,411,144.  S^3 has at
        # most 84 terms of 42,016 or 42,916 bits, so it is expanded.
        within = "(x0+x1+x2+x3+x4+x5+2^1000^14)"
        past = "(x0+x1+x2+x3+x4+x5+2^1000^14*2^300)"
        cube = parse_polynomial(f"{within}^3")
        assert parse_polynomial(f"{within}^2*{within}") == cube
        assert len(parse_polynomial(f"{past}^3").terms) == 84
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"{past}^2*{past}")
        assert str(info.value) == f"{self.WORK} (at position 37)"

    def test_a_one_term_operand_is_not_an_expansion(self):
        # 131 terms of 7,811 bits times one term of 65,004 bits: counted as
        # an expansion, 9,538,765 bits, but it only scales the terms.
        wide = parse_polynomial("(x0/2^60+1)^130")
        assert parse_polynomial("(x0/2^60+1)^130*(2^1000^65*x1)") == (
            wide * (2**65000 * X1)
        )


def _sum_work(n):
    """The lines the package runs, and the coefficients it stores in new
    polynomials, while it parses a sum of n distinct monomials."""
    # Exponents of one bit length, so that every term costs the same.
    text = " + ".join(f"x{e % 6}^{e // 6 + 256}" for e in range(n))
    package = str(Path(poly.__file__).parent)
    lines = stored = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    raw = poly._raw

    def counted(terms):
        nonlocal stored
        stored += len(terms)
        return raw(terms)

    previous = sys.gettrace()
    poly._raw = counted
    sys.settrace(tracer)
    try:
        result = parse_polynomial(text)
    finally:
        sys.settrace(previous)
        poly._raw = raw
    assert len(result.terms) == n
    return lines, stored


class TestLongSums:
    def test_a_long_sum_takes_linear_work(self):
        # Counts, not times: a sum that re-read or copied every coefficient
        # so far at each '+' would grow sixteen-fold, not four-fold.
        for small, large in zip(_sum_work(300), _sum_work(1200)):
            assert large < 4.5 * small

    def test_a_sum_leaves_its_operands_unchanged(self):
        assert parse_polynomial("x0 + x1 - x0 + x2") == X1 + X2
        assert parse_polynomial("(x0 + x1) + x2 - (x0 + x1)^1") == X2
        assert X0 == Polynomial.variable(0) and X1 == Polynomial.variable(1)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    @pytest.mark.parametrize("wrap", ["{}", "({})", "-{}", "-(-{})"])
    def test_a_wide_literal_left_of_a_sum_is_refused_at_its_operator(self, wrap):
        # Only past Python's digit limit can a literal exceed the bound, and
        # no operator checks it before the sum that takes it.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            literal = wrap.format(1 << MAX_CONSTANT_BITS)
            for text in (literal + " + x0", literal + " - x1 + x0"):
                with pytest.raises(ParseError) as info:
                    parse_polynomial(text)
                assert str(info.value) == (
                    f"constant exceeds {MAX_CONSTANT_BITS} bits "
                    f"(at position {len(literal) + 1})"
                )
            # The bound applies to the sum, not to its operands.
            sign = -1 if wrap.count("-") % 2 else 1
            within = parse_polynomial(f"{literal} + (x0 - {sign})")
        finally:
            sys.set_int_max_str_digits(limit)
        top = Eisenstein(1 << MAX_CONSTANT_BITS)
        assert within == X0 + sign * (top - 1)


def _seeded_polynomial(rng):
    """One to five terms of degree at most 3, a variable among them."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = [0] * 6
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(6)] += 1
        terms[tuple(mono)] = Eisenstein(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-3, 3)
        )
    return Polynomial(terms) + X[rng.randrange(6)]


class TestTypedDispatch:
    def test_mixed_sums_and_products_match_the_polynomial_operators(self):
        """The parser's own sums and products of a field element and a
        polynomial, in either order, against Polynomial's operators: on
        seeded polynomials, the zero polynomial and a zero field element."""
        rng = random.Random(43)
        polynomials = [_seeded_polynomial(rng) for _ in range(60)] + [Polynomial()]
        for p in polynomials:
            # The zero polynomial's text "0" would parse to a field element.
            text = format_polynomial(p) if p else "x0 - x0"
            for c in (ZERO, OMEGA, Eisenstein(Fraction(-3, 2), 2)):
                expected = {
                    f"({c}) + ({text})": c + p,
                    f"({text}) + ({c})": p + c,
                    f"({c}) - ({text})": c - p,
                    f"({text}) - ({c})": p - c,
                    f"({text})*({c})": p * c,
                    f"({c})*({text})": c * p,
                }
                for source, value in expected.items():
                    result = parse_polynomial(source)
                    assert result.terms == value.terms, source
                    assert all(result.terms.values()), source


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


# -- a corpus of seeded strings, replayed against its stored outcomes --------

CORPUS = Path(__file__).resolve().parent / "reference" / "parse-corpus.txt"
CORPUS_PARSERS = {
    "polynomial": parse_polynomial,
    "point": parse_point_coordinates,
    "scalars": parse_scalar_list,
}
# Tokens of the grammar, near misses (x6, y, é, 00, x01) and stray symbols.
CORPUS_CONSTANTS = ("w", "17", "00", "2", "3")
CORPUS_ATOMS = ("x0", "x5", "x01") + CORPUS_CONSTANTS
CORPUS_NOISE = ("x6", "y", "é", "(", ")", "[", "]", ",", "+", "-", "*", "/", "^", " ")


def _corpus_expression(rng, depth, atoms=CORPUS_ATOMS):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(atoms)
    inner = _corpus_expression(rng, depth - 1, atoms)
    if roll < 0.45:
        return f"({inner})"
    if roll < 0.55:
        return rng.choice("+-") + inner
    if roll < 0.65:
        return inner + "^" + rng.choice(("0", "2", "3", "00"))
    op = rng.choice((" + ", "-", "*", "/"))
    return inner + op + _corpus_expression(rng, depth - 1, atoms)


def _corpus_text(rng, parser):
    """One input: a token soup, or grammar-built text, often with one token
    inserted or one character deleted; list inputs are mostly bracketed."""
    if rng.random() < 0.15:
        pool = CORPUS_ATOMS + CORPUS_NOISE
        return "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
    if parser == "polynomial":
        text = _corpus_expression(rng, rng.randint(0, 4))
    else:
        count = 6 if rng.random() < 0.6 else rng.randint(0, 8)
        # Mostly constants, so that most lists parse.
        atoms = CORPUS_ATOMS if rng.random() < 0.2 else CORPUS_CONSTANTS
        text = ", ".join(
            _corpus_expression(rng, rng.randint(0, 3), atoms)
            for _ in range(count)
        )
        if rng.random() < 0.85:
            text = f"[{text}]"
    roll = rng.random()
    if roll < 0.15:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(CORPUS_NOISE) + text[i:]
    elif roll < 0.25 and text:
        i = rng.randrange(len(text))
        text = text[:i] + text[i + 1:]
    return text


def corpus_inputs():
    """300 seeded inputs for each parser."""
    rng = random.Random(3300)
    return [
        (parser, _corpus_text(rng, parser))
        for parser in CORPUS_PARSERS
        for _ in range(300)
    ]


LITERAL_CORPUS = CORPUS.with_name("parse-literal-corpus.txt")
# Near misses of a parenthesised field-element literal, and literals in
# the contexts that apply to an atom.
LITERAL_NEAR_MISSES = (
    "( 1/2)", "(1 /2)", "(+1/2)", "(--3)", "(2 w)", "(1/0)", "(1/00)",
    "(1/2)^3", "-(1/2)", "x0/(7/8)", "(1/2 + w)*x1", "(0/5)", "(-0)",
    "(0*w)", "(1/2", "(1/2))", "(1/2 + )", "(w w)", "(2*w1)", "(1/2x0)",
    "(2*w*x0)", "(-w)^2", "x0^(2)", "x0 (1/2)", "(x0 (1/2)", "(1/2)(3)",
    "(1/2 +- w)", "(1/2 + -w)", "(- 1 / 2 - 3 / 4 * w)", "(1/2 - 0/3*w)",
)
LITERAL_DIGITS = (639, 640, 641, 5000)
# Inner spacing: none, ASCII, a no-break space and an em space.
LITERAL_SPACES = ("", "", " ", "  ", "\u00a0", "\u2003")


def _literal_ratio(rng, space):
    """An unsigned p or p/q, now and then with a zero or a leading zero."""
    p = rng.choice(("0", "1", "2", "7", "12", "05", str(rng.randint(0, 999))))
    if rng.random() < 0.5:
        return p
    q = rng.choice(("1", "2", "3", "9", "04", str(rng.randint(1, 99))))
    if rng.random() < 0.04:
        q = rng.choice(("0", "00"))
    return f"{p}{space}/{space}{q}"


def _literal_text(rng):
    """One literal shape, now and then with a stray sign or operator."""
    space = rng.choice(LITERAL_SPACES)
    sign = rng.choice(("", "", "", "-", "-", "+", "--", f"-{space}"))
    wpart = "w"
    if rng.random() < 0.6:
        wpart = f"{_literal_ratio(rng, space)}{space}*{space}w"
    shape = rng.randrange(3)
    if shape == 0:
        inner = sign + _literal_ratio(rng, space)
    elif shape == 1:
        inner = sign + wpart
    else:
        op = rng.choice(("+", "-", "+", "-", "+-", "*"))
        inner = f"{sign}{_literal_ratio(rng, space)}{space}{op}{space}{wpart}"
    return f"({inner})"


def _literal_context(rng, literal):
    """The literal alone or as an operand, a power base or a divisor."""
    context = rng.choice(
        ("{}", "{}", "{}^2", "-{}", "x0*{}", "x1/{}", "{}*x2 + 1", "({} - x3)^2")
    )
    return context.format(literal)


def literal_corpus_inputs():
    """The near misses, a literal innermost in 100 and 101 parentheses,
    digit runs about Python's lowest digit limit, and 300 seeded
    literal-shaped inputs for each parser, a fifth of them with one token
    inserted or one character deleted."""
    inputs = [("polynomial", text) for text in LITERAL_NEAR_MISSES]
    inputs += [
        ("point", f"[{text}, 0, 0, 0, 0, 0]") for text in LITERAL_NEAR_MISSES
    ]
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        nested = "(" * (depth - 1) + "(1/2 - 3*w)" + ")" * (depth - 1)
        inputs += [("polynomial", nested), ("scalars", f"[{nested}]")]
    for count in LITERAL_DIGITS:
        run = "7" * count
        for literal in (f"({run})", f"(-1/{run})", f"(1/2 + {run}*w)"):
            inputs += [("polynomial", literal), ("scalars", f"[1, {literal}]")]
    rng = random.Random(3900)
    for parser in CORPUS_PARSERS:
        for _ in range(300):
            if parser == "polynomial":
                text = _literal_context(rng, _literal_text(rng))
            else:
                count = 6 if rng.random() < 0.7 else rng.randint(1, 8)
                text = "[" + ", ".join(
                    _literal_text(rng) if rng.random() < 0.8 else "1"
                    for _ in range(count)
                ) + "]"
            roll = rng.random()
            if roll < 0.1:
                i = rng.randint(0, len(text))
                text = text[:i] + rng.choice(CORPUS_NOISE + ("w", "0")) + text[i:]
            elif roll < 0.2:
                i = rng.randrange(len(text))
                text = text[:i] + text[i + 1:]
            inputs.append((parser, text))
    return inputs


CORPORA = {CORPUS: corpus_inputs, LITERAL_CORPUS: literal_corpus_inputs}


def corpus_outcome(parser, text):
    """str of the parsed value (a list as [a, b, ...]), or the exception's
    class and text."""
    try:
        value = CORPUS_PARSERS[parser](text)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    if isinstance(value, tuple):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def test_corpus_outcomes_are_unchanged():
    for path, inputs in CORPORA.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [tuple(line.split("\t")[:2]) for line in lines] == inputs()
        for line in lines:
            parser, text, outcome = line.split("\t")
            assert corpus_outcome(parser, text) == outcome, (parser, text)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_parsing.py rewrites both corpora from
    # the package on the path.  Their outcomes are pinned: rewrite them only
    # for a change of outcome that is meant and recorded.
    for path, inputs in CORPORA.items():
        with path.open("w", encoding="utf-8") as out:
            for parser, text in inputs():
                out.write(f"{parser}\t{text}\t{corpus_outcome(parser, text)}\n")
