"""Unit tests for the exact quadratic-field arithmetic layer."""

from fractions import Fraction

import pytest

from s6quartic import OMEGA, OMEGA_SQUARED, ONE, ZERO, Eisenstein


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
        assert OMEGA.norm() == Fraction(1)
        assert Eisenstein(2, 1).norm() == Fraction(3)
        assert Eisenstein(1, -1).norm() == Fraction(3)
        assert ZERO.norm() == Fraction(0)

    def test_conjugate(self):
        # conj(a + bw) = (a - b) - bw
        assert OMEGA.conjugate() == OMEGA_SQUARED
        assert Eisenstein(2, 3).conjugate() == Eisenstein(-1, -3)
        assert Eisenstein(5).conjugate() == Eisenstein(5)

    def test_norm_equals_self_times_conjugate(self):
        e = Eisenstein(Fraction(2, 3), Fraction(-5, 7))
        assert e * e.conjugate() == Eisenstein(e.norm())

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

    def test_is_rational(self):
        assert Eisenstein(Fraction(5, 3)).is_rational()
        assert not OMEGA.is_rational()


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
