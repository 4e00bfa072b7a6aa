"""Exact Gaussian-rational arithmetic."""

from collections import Counter
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from mfatlas.linalg import _dot
from mfatlas.scalar import Scalar, as_scalar, scalar_from_ints, scalar_from_str, scalar_to_str
from oracles import FractionPairScalar, dot_fraction_pairs, scalar_to_str_fractions


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
    """The text form, formatted from the ints, is the one the Fraction parts
    give, and parses back: on fixed cases and on 600 seeded draws with zero
    and negative parts and denominators 1 to 12."""
    cases = [
        Scalar(0),
        Scalar(Fraction(-7, 3)),
        Scalar(0, 1),
        Scalar(0, -1),
        Scalar(2, -3),
        Scalar(Fraction(1, 2), Fraction(-5, 4)),
    ]
    rng = Random(20261019)
    for _ in range(600):
        parts = [Fraction(rng.choice((0, rng.randint(-30, 30))), rng.randint(1, 12))
                 for _ in range(2)]
        cases.append(Scalar(*parts))
    for z in cases:
        assert scalar_to_str(z) == scalar_to_str_fractions(z)
        assert scalar_from_str(scalar_to_str(z)) == z
    kinds = Counter((z.x > 0) - (z.x < 0) + 3 * ((z.y > 0) - (z.y < 0)) for z in cases)
    assert len(kinds) == 9 and {z.d for z in cases} >= set(range(1, 13)), kinds


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
    assert z.re == f and z.im == g
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert Scalar(2, -1).re == Fraction(2) and type(Scalar(2).im) is Fraction
    # canonical form: equal values built from different Fractions have
    # identical fields (x, y, d), meaning (x + y*i)/d
    assert (z.x, z.y, z.d) == (15, -14, 35)
    for a, b in ((Scalar(Fraction(2, 4), Fraction(6, 4)), Scalar(Fraction(1, 2), Fraction(3, 2))),
                 (Scalar(Fraction(6, 3), 0), Scalar(2)),
                 (Scalar(Fraction(0, 5), Fraction(-4, 6)), Scalar(0, Fraction(-2, 3)))):
        assert (a.x, a.y, a.d) == (b.x, b.y, b.d)
    half = Scalar(Fraction(2, 4), Fraction(6, 4))
    assert (half.x, half.y, half.d) == (1, 3, 2)
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)


def _draw(rng: Random) -> tuple[int, Scalar, FractionPairScalar]:
    """A kind and one value of it, as a Scalar and as the oracle.  Kinds:
    0 zero, 1 integer, 2 pure imaginary, 3 real, 4 one shared denominator,
    5 separate denominators, 6 and 7 unreduced input (Fractions with a
    common factor, or raw ints (kx, ky, kd) given to scalar_from_ints)."""
    kind = rng.randrange(8)
    dens = (1, 2, 3, 4, 6, 9, 12)
    num = lambda: rng.randint(-12, 12)
    if kind == 0:
        re, im = Fraction(0), Fraction(0)
    elif kind == 1:
        re, im = Fraction(num()), Fraction(0)
    elif kind == 2:
        re, im = Fraction(0), Fraction(num(), rng.choice(dens))
    elif kind == 3:
        re, im = Fraction(num(), rng.choice(dens)), Fraction(0)
    elif kind == 4:
        d = rng.choice(dens)
        re, im = Fraction(num(), d), Fraction(num(), d)
    else:
        re, im = Fraction(num(), rng.choice(dens)), Fraction(num(), rng.choice(dens))
    oracle = FractionPairScalar(re, im)
    if kind == 6:
        k = rng.randint(2, 6)
        return kind, Scalar(Fraction(k * re.numerator, k * re.denominator),
                            Fraction(k * im.numerator, k * im.denominator)), oracle
    if kind == 7:
        d = re.denominator * im.denominator * rng.randint(1, 4)
        k = rng.randint(1, 5)
        return kind, scalar_from_ints(k * int(re * d), k * int(im * d), k * d), oracle
    return kind, Scalar(re, im), oracle


def _agrees(z: Scalar, o: FractionPairScalar) -> bool:
    """Same value, canonical fields, and the same parts, hash and text."""
    return (z.d > 0 and gcd(z.x, z.y, z.d) == 1
            and (z.re, z.im) == (o.re, o.im)
            and type(z.re) is Fraction and type(z.im) is Fraction
            and hash(z) == hash(o) and z.sort_key() == o.sort_key()
            and str(z) == str(o) and repr(z) == repr(o))


def test_matches_fraction_pair_oracle():
    """1200 seeded draws: every operation of Scalar gives what the pair-of-
    Fractions arithmetic gives, and _dot gives the term-by-term sum."""
    rng = Random(20260418)
    drawn = Counter()
    for _ in range(1200):
        (kind, a, oa), (_, b, ob) = _draw(rng), _draw(rng)
        drawn[kind] += 1
        drawn["equal denominators" if a.d == b.d else "unequal denominators"] += 1
        assert _agrees(a, oa) and _agrees(b, ob)
        assert _agrees(a + b, oa + ob)
        assert _agrees(a - b, oa - ob)
        assert _agrees(a * b, oa * ob)
        assert _agrees(-a, -oa)
        if ob.norm():
            assert _agrees(a / b, oa / ob)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        assert (a == b) == (oa == ob)
        assert (a == Scalar(oa.re, oa.im)) and (a == b) == ((a.x, a.y, a.d) == (b.x, b.y, b.d))
        for other in (oa.re, oa.im, oa.re.numerator, ob.re, 0, 1, Fraction(1, 2)):
            assert (a == other) == (oa == other), other
        n = rng.randint(0, 6)
        u = [_draw(rng)[1:] for _ in range(n)]
        v = [_draw(rng)[1:] for _ in range(n)]
        want = dot_fraction_pairs([o for _, o in u], [o for _, o in v])
        assert _agrees(_dot([z for z, _ in u], [z for z, _ in v]), want)
    assert len(drawn) == 10 and min(drawn.values()) >= 100, drawn
