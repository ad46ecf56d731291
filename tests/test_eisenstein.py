"""Unit tests for the exact quadratic-field arithmetic layer."""

import random
from fractions import Fraction

import pytest

from s6quartic import OMEGA, Eisenstein
from s6quartic.eisenstein import OMEGA_SQUARED, ONE, ZERO


# The field norm and conjugation are test-side: no package code needs them.
# test_field_oracle and test_acceptance import them from here.


def norm(e):
    """N(a + b*w) = a^2 - a*b + b^2, multiplicative and 0 only at 0."""
    a, b, d = e._parts()
    return Fraction(a * a - a * b + b * b, d * d)


def conjugate(e):
    """The image under w -> w^2, the nontrivial field automorphism."""
    a, b, d = e._parts()
    return Eisenstein(Fraction(a - b, d), Fraction(-b, d))


class TestConstruction:
    def test_default_is_zero(self):
        assert Eisenstein() == ZERO
        assert not Eisenstein()

    def test_int_and_fraction_parts(self):
        e = Eisenstein(2, Fraction(-1, 3))
        assert e.re == Fraction(2)
        assert e.om == Fraction(-1, 3)

    def test_coerce_int(self):
        assert Eisenstein.coerce(7) == Eisenstein(7)

    def test_coerce_fraction(self):
        assert Eisenstein.coerce(Fraction(3, 4)) == Eisenstein(Fraction(3, 4))

    def test_coerce_identity(self):
        assert Eisenstein.coerce(OMEGA) is OMEGA

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            Eisenstein.coerce(1.5)

    def test_coerce_rejects_string(self):
        with pytest.raises(TypeError):
            Eisenstein.coerce("w")

    def test_float_part_rejected(self):
        with pytest.raises(TypeError):
            Eisenstein(0.5)


class TestArithmetic:
    def test_omega_squared_reduction(self):
        assert OMEGA * OMEGA == Eisenstein(-1, -1)
        assert OMEGA * OMEGA == OMEGA_SQUARED

    def test_omega_is_cube_root_of_unity(self):
        assert OMEGA**3 == ONE

    def test_cube_roots_sum_to_zero(self):
        assert ONE + OMEGA + OMEGA_SQUARED == ZERO

    def test_mixed_operations_with_int_and_fraction(self):
        assert OMEGA + 1 == Eisenstein(1, 1)
        assert 1 + OMEGA == Eisenstein(1, 1)
        assert OMEGA - Fraction(1, 2) == Eisenstein(Fraction(-1, 2), 1)
        assert Fraction(1, 2) - OMEGA == Eisenstein(Fraction(1, 2), -1)
        assert 2 * OMEGA == Eisenstein(0, 2)
        assert OMEGA * Fraction(1, 3) == Eisenstein(0, Fraction(1, 3))

    def test_negation(self):
        assert -Eisenstein(1, -2) == Eisenstein(-1, 2)

    def test_product_example(self):
        a = Eisenstein(1, 2)
        b = Eisenstein(3, -1)
        # (1 + 2w)(3 - w) = 3 - w + 6w - 2w^2 = 3 + 5w - 2(-1 - w) = 5 + 7w
        assert a * b == Eisenstein(5, 7)

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            OMEGA + 1.5
        with pytest.raises(TypeError):
            OMEGA * "x"

    def test_power_zero_and_negative(self):
        assert OMEGA**0 == ONE
        assert OMEGA**-1 == OMEGA_SQUARED
        assert Eisenstein(2) ** -2 == Eisenstein(Fraction(1, 4))


class TestFieldStructure:
    def test_norm_examples(self):
        # N(a + bw) = a^2 - ab + b^2
        assert norm(OMEGA) == Fraction(1)
        assert norm(Eisenstein(2, 1)) == Fraction(3)
        assert norm(Eisenstein(1, -1)) == Fraction(3)
        assert norm(ZERO) == Fraction(0)

    def test_conjugate(self):
        # conj(a + bw) = (a - b) - bw
        assert conjugate(OMEGA) == OMEGA_SQUARED
        assert conjugate(Eisenstein(2, 3)) == Eisenstein(-1, -3)
        assert conjugate(Eisenstein(5)) == Eisenstein(5)

    def test_norm_equals_self_times_conjugate(self):
        e = Eisenstein(Fraction(2, 3), Fraction(-5, 7))
        assert e * conjugate(e) == Eisenstein(norm(e))

    def test_inverse_roundtrip(self):
        e = Eisenstein(3, -2)
        assert e * e.inverse() == ONE
        assert e.inverse() == ONE / e

    def test_division(self):
        a = Eisenstein(1, 2)
        b = Eisenstein(3, -1)
        assert (a / b) * b == a
        assert a / 2 == Eisenstein(Fraction(1, 2), 1)
        assert 1 / OMEGA == OMEGA_SQUARED

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()


class TestComparisonAndHash:
    def test_equality_with_plain_numbers(self):
        assert Eisenstein(4) == 4
        assert Eisenstein(Fraction(1, 2)) == Fraction(1, 2)
        assert OMEGA != 1

    def test_equality_with_foreign_type(self):
        assert (OMEGA == "w") is False
        assert (OMEGA != "w") is True

    def test_hash_consistency(self):
        assert hash(Eisenstein(2)) == hash(Eisenstein(Fraction(2)))
        assert len({OMEGA, OMEGA * 1, OMEGA_SQUARED}) == 2

    def test_sort_key_orders_elements(self):
        values = [OMEGA, ZERO, ONE, -ONE, OMEGA_SQUARED]
        ordered = sorted(values, key=lambda e: e.sort_key())
        assert ordered.index(-ONE) < ordered.index(ZERO) < ordered.index(ONE)

    def test_sort_key_matches_the_fraction_pair_order(self):
        # Integral elements give an int pair and the others Fractions; the
        # mixed comparison must order them as (re, om) Fractions do.
        halves = [Fraction(k, 2) for k in range(-5, 6)]
        values = [Eisenstein(re, om) for re in halves for om in halves]
        values += [OMEGA, OMEGA_SQUARED, Eisenstein(0, Fraction(-1, 3))]
        random.Random(5).shuffle(values)
        assert sorted(values, key=Eisenstein.sort_key) == sorted(
            values, key=lambda e: (Fraction(e.re), Fraction(e.om))
        )


class TestFormatting:
    def test_rational_values(self):
        assert str(ZERO) == "0"
        assert str(Eisenstein(5)) == "5"
        assert str(Eisenstein(Fraction(-2, 3))) == "-2/3"

    def test_pure_omega_values(self):
        assert str(OMEGA) == "w"
        assert str(-OMEGA) == "-w"
        assert str(Eisenstein(0, Fraction(-2, 3))) == "-2/3*w"

    def test_mixed_values(self):
        assert str(Eisenstein(1, 1)) == "1 + w"
        assert str(Eisenstein(1, -1)) == "1 - w"
        assert str(OMEGA_SQUARED) == "-1 - w"
        assert str(Eisenstein(Fraction(1, 2), Fraction(3, 2))) == "1/2 + 3/2*w"

    def test_repr_is_constructor_like(self):
        assert "Eisenstein" in repr(OMEGA)


class TestPowerProductCount:
    def test_power_makes_no_wasted_squaring(self, monkeypatch):
        calls = []
        original = Eisenstein.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Eisenstein, "__mul__", counting)
        x = Eisenstein(Fraction(2, 3), -1)
        assert x**8 == Eisenstein(Fraction(119695, 6561), Fraction(46277, 2187))
        assert len(calls) == 3
        calls.clear()
        assert x**-8 * x**8 == ONE
        assert len(calls) == 7
