"""Gaussian-rational scalars: exact numbers of the form re + im*i.

A Scalar stores three ints (x, y, d) and means (x + y*i)/d.  The form is
canonical: d > 0 and gcd(x, y, d) = 1, so equal values have equal fields and
equality is a field comparison.  Each + - * / is a few int products and at
most one math.gcd (none when the denominator is 1).  The parts re = x/d and
im = y/d are read as fractions.Fraction; the text form is formatted straight
from the ints.  The imaginary unit is needed because some of the fibre
witnesses we certify have entries in Q(i) but not in Q.

Most entries the package multiplies are exact zeros (elementary matrices,
Jordan-chain and canonical flag bases), so arithmetic on zero is free: a
product with a zero factor is the shared zero, and adding zero, or
subtracting it on the right, returns the other operand unchanged.  These are
exact identities, so every result is the same value it would be computed
the long way.

This module is the one coercion boundary of the package.  Text becomes a
Scalar through scalar_from_str, an int or Fraction through Scalar(...), and
an int or Fraction operand of + - * / through the operators below.  The
containers built on top (ExactMatrix, MPoly, GElement coordinates and the
unipoly tuples) hold Scalars and take them as given, without coercing or
re-checking: a non-Scalar entry fails at its first use.

Text form (used in every JSON report and accepted back by the parsers):
    "3", "-1/2", "i", "-i", "2/3*i", "1/2+3/4*i", "2-3*i"
A bare "i" suffix without "*" is also accepted on input.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

_new = object.__new__


class Scalar:
    """An element of Q(i), immutable; (x + y*i)/d in canonical form."""

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            x, y, d = re, im, 1
        else:
            if isinstance(re, float) or isinstance(im, float):
                raise TypeError("Scalar parts must be exact (int or Fraction), not float")
            re = re if type(re) is Fraction else Fraction(re)
            im = im if type(im) is Fraction else Fraction(im)
            # d = lcm of the two reduced denominators; then gcd(x, y, d) = 1
            dr, di = re.denominator, im.denominator
            d = dr if dr == di else dr // gcd(dr, di) * di
            x = re.numerator * (d // dr)
            y = im.numerator * (d // di)
        _set_x(self, x)
        _set_y(self, y)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        ox, oy, od = other.x, other.y, other.d
        if not (ox or oy):
            return self
        x, y, d = self.x, self.y, self.d
        if not (x or y):
            return other
        if d == od:
            return scalar_from_ints(x + ox, y + oy, d)
        return scalar_from_ints(x * od + ox * d, y * od + oy * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        ox, oy, od = other.x, other.y, other.d
        if not (ox or oy):
            return self
        x, y, d = self.x, self.y, self.d
        if d == od:
            return scalar_from_ints(x - ox, y - oy, d)
        return scalar_from_ints(x * od - ox * d, y * od - oy * d, d * od)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __neg__(self):
        return scalar_from_ints(-self.x, -self.y, self.d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        x, y = self.x, self.y
        ox, oy = other.x, other.y
        if not (x or y) or not (ox or oy):
            return _ZERO
        return scalar_from_ints(x * ox - y * oy, x * oy + y * ox, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        ox, oy, od = other.x, other.y, other.d
        n = ox * ox + oy * oy
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        # (x + y i)/d * od/(ox + oy i) = (x + y i)(ox - oy i) od / (d n)
        x, y = self.x, self.y
        return scalar_from_ints((x * ox + y * oy) * od, (y * ox - x * oy) * od, self.d * n)

    def __rtruediv__(self, other):
        return as_scalar(other).__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Scalar powers must be integers")
        if k < 0:
            return (_ONE / self) ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and ordering helpers ------------------------------------

    def is_zero(self) -> bool:
        return not (self.x or self.y)

    def __bool__(self):
        return bool(self.x or self.y)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, int):
            return self.y == 0 and self.d == 1 and self.x == other
        if isinstance(other, Fraction):
            return self.y == 0 and self.d == other.denominator and self.x == other.numerator
        return NotImplemented

    def __hash__(self):
        if self.y == 0:
            # hash(Fraction(x, 1)) == hash(x)
            return hash(self.x) if self.d == 1 else hash(Fraction(self.x, self.d))
        return hash((self.re, self.im))

    def sort_key(self):
        """Total order key: real part first, then imaginary part."""
        return (self.re, self.im)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)!r})"


# Scalar.__setattr__ refuses every write, so fields go through the slots.
_set_x = Scalar.x.__set__
_set_y = Scalar.y.__set__
_set_d = Scalar.d.__set__


def scalar_from_ints(x: int, y: int, d: int) -> Scalar:
    """(x + y*i)/d for ints with d > 0, reduced to canonical form."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x //= g
            y //= g
            d //= g
    s = _new(Scalar)
    _set_x(s, x)
    _set_y(s, y)
    _set_d(s, d)
    return s


_ZERO = Scalar(0)
_ONE = Scalar(1)


def as_scalar(v) -> Scalar:
    """Coerce int, Fraction, str or Scalar to Scalar."""
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(v)
    if isinstance(v, str):
        return scalar_from_str(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0; an integer prints bare."""
    if den != 1:
        g = gcd(num, den)
        if g != den:
            return f"{num // g}/{den // g}"
        return str(num // den)
    return str(num)


def scalar_to_str(s: Scalar) -> str:
    """Canonical text form; round-trips through scalar_from_str."""
    x, y, d = s.x, s.y, s.d
    if not y:
        return _ratio_str(x, d)
    im_abs = _ratio_str(abs(y), d) + "*i"
    if not x:
        return im_abs if y > 0 else "-" + im_abs
    sign = "+" if y > 0 else "-"
    return f"{_ratio_str(x, d)}{sign}{im_abs}"


_TERM_RE = _re.compile(r"[+-]?[^+-]+")
MAX_DIGITS = 100  # the most digits a numeral's numerator or denominator may have


def _bounded_fraction(numeral: str) -> Fraction:
    """Fraction(numeral), refusing a numerator or denominator of more than
    MAX_DIGITS digits; an exponent above MAX_DIGITS plus the mantissa's
    length is refused before its power is formed."""
    mantissa, _, exponent = numeral.upper().partition("E")
    exponent = exponent.replace("_", "")
    if not exponent.isdecimal() or (len(exponent) < 10
                                    and int(exponent) <= MAX_DIGITS + len(mantissa)):
        value = Fraction(numeral)
        if max(abs(value.numerator), value.denominator) < 10 ** MAX_DIGITS:
            return value
    raise ValueError(f"numeral {numeral!r} has more than {MAX_DIGITS} digits "
                     "in its numerator or denominator")


def scalar_from_str(text: str) -> Scalar:
    """Parse 'p/q', 'p/q+r/s*i', '2-3i', 'i', '-i' and friends; ValueError
    for anything else, a zero denominator, a non-string and too long a numeral
    (_bounded_fraction) included."""
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    terms = _TERM_RE.findall(s)
    if not terms or "".join(terms) != s:
        raise ValueError(f"malformed scalar string: {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    try:
        for term in terms:
            if term.endswith("i"):
                coef = term[:-1]
                if coef.endswith("*"):
                    coef = coef[:-1]
                if coef in ("", "+"):
                    im_part += 1
                elif coef == "-":
                    im_part -= 1
                else:
                    im_part += _bounded_fraction(coef)
            else:
                re_part += _bounded_fraction(term)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar string: {text!r}") from exc
    return Scalar(re_part, im_part)

