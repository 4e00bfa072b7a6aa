"""Gaussian-rational scalars: exact numbers of the form re + im*i.

Both parts are fractions.Fraction, so arithmetic is exact.  The imaginary
unit is needed because some of the fibre witnesses we certify have entries
in Q(i) but not in Q.

Most entries the package multiplies are exact zeros (elementary matrices,
Jordan-chain and canonical flag bases), so arithmetic on zero is free: a
product with a zero factor is the shared zero, and adding zero, or
subtracting it on the right, returns the other operand unchanged.  These are
exact identities, so every result is the same value it would be computed
the long way.

Text form (used in every JSON report and accepted back by the parsers):
    "3", "-1/2", "i", "-i", "2/3*i", "1/2+3/4*i", "2-3*i"
A bare "i" suffix without "*" is also accepted on input.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


class Scalar:
    """An element of Q(i), immutable by convention."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("Scalar parts must be exact (int or Fraction), not float")
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def i() -> "Scalar":
        return _I

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        if other.is_zero():
            return self
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = as_scalar(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and ordering helpers ------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        """Total order key: real part first, then imaginary part."""
        return (self.re, self.im)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)!r})"


_ZERO = Scalar(0)
_ONE = Scalar(1)
_I = Scalar(0, 1)


def as_scalar(v) -> Scalar:
    """Coerce int, Fraction, str or Scalar to Scalar."""
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(v)
    if isinstance(v, str):
        return scalar_from_str(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_to_str(s: Scalar) -> str:
    """Canonical text form; round-trips through scalar_from_str."""
    if s.im == 0:
        return _frac_str(s.re)
    im_abs = _frac_str(abs(s.im)) + "*i"
    if s.re == 0:
        return im_abs if s.im > 0 else "-" + im_abs
    sign = "+" if s.im > 0 else "-"
    return f"{_frac_str(s.re)}{sign}{im_abs}"


_TERM_RE = _re.compile(r"[+-]?[^+-]+")


def scalar_from_str(text: str) -> Scalar:
    """Parse 'p/q', 'p/q+r/s*i', '2-3i', 'i', '-i' and friends; ValueError
    for anything else, a zero denominator and a non-string included."""
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
                    im_part += Fraction(coef)
            else:
                re_part += Fraction(term)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar string: {text!r}") from exc
    return Scalar(re_part, im_part)


S0 = _ZERO
S1 = _ONE
SI = _I
