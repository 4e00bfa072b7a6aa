"""Exact Gaussian-rational arithmetic."""

from fractions import Fraction

import pytest

from mfatlas.scalar import Scalar, as_scalar, scalar_from_str, scalar_to_str


def test_field_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(2, 7))
    b = Scalar(Fraction(-5, 2), 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * Scalar(0) == Scalar(0)
    assert -(-a) == a


def test_i_squares_to_minus_one():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert i**4 == Scalar(1)
    assert (Scalar(2, 3) * Scalar(2, -3)) == Scalar(13)


def test_division_by_gaussian_scalar():
    z = Scalar(3, 4)
    assert z / z == Scalar(1)
    assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_pow_small_exponents():
    z = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert z**0 == Scalar(1)
    assert z**2 == Scalar(0, Fraction(1, 2))
    assert z**3 == z * z * z


def test_str_round_trip():
    cases = [
        Scalar(0),
        Scalar(Fraction(-7, 3)),
        Scalar(0, 1),
        Scalar(0, -1),
        Scalar(2, -3),
        Scalar(Fraction(1, 2), Fraction(-5, 4)),
    ]
    for z in cases:
        assert scalar_from_str(scalar_to_str(z)) == z


def test_parse_variants():
    assert scalar_from_str("3/2") == Scalar(Fraction(3, 2))
    assert scalar_from_str("2-3i") == Scalar(2, -3)
    assert scalar_from_str("2-3*i") == Scalar(2, -3)
    assert scalar_from_str("-i") == Scalar(0, -1)
    assert scalar_from_str(" 1/2 + 1/2*i ") == Scalar(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        scalar_from_str("")
    with pytest.raises(ValueError):
        scalar_from_str("2**i")


def test_as_scalar_coercions():
    assert as_scalar(5) == Scalar(5)
    assert as_scalar(Fraction(2, 9)) == Scalar(Fraction(2, 9))
    assert as_scalar("1+i") == Scalar(1, 1)
    assert as_scalar(Scalar(7)) == Scalar(7)
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_zero_short_circuits_are_exact_identities():
    """0*x, x*0, x+0, 0+x and x-0 skip the arithmetic; each must be the same
    value, with the same hash and text, as the component formulas give."""
    zeros = (Scalar(0), Scalar(Fraction(0), Fraction(0)), 0, Fraction(0))
    values = [
        Scalar(Fraction(1, 3), Fraction(-2, 7)),
        Scalar(0, 1),
        Scalar(Fraction(-5, 2)),
        Scalar(Fraction(9, 4), 3),
        Scalar(0),
    ]
    for x in values:
        product = Scalar(x.re * 0 - x.im * 0, x.re * 0 + x.im * 0)
        total = Scalar(x.re + 0, x.im + 0)
        difference = Scalar(x.re - 0, x.im - 0)
        for z in zeros:
            for got, want in (
                (z * x, product),
                (x * z, product),
                (x + z, total),
                (z + x, total),
                (x - z, difference),
                (z - x, Scalar(0 - x.re, 0 - x.im)),
            ):
                assert isinstance(got, Scalar)
                assert got == want
                assert hash(got) == hash(want)
                assert str(got) == str(want) and repr(got) == repr(want)


def test_constructor_keeps_fraction_parts_and_rejects_floats():
    f, g = Fraction(3, 7), Fraction(-2, 5)
    z = Scalar(f, g)
    assert z.re is f and z.im is g
    assert Scalar(2, -1).re == Fraction(2) and type(Scalar(2).im) is Fraction
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)
