"""Univariate polynomial arithmetic over Q(i): what the eigenvalue root
search and the row reduction of the line certificate use.  Polynomials are literal coefficient
tuples, low degree first.  sympy's factorization over Q(i) is the oracle of
the root search."""

from fractions import Fraction
from random import Random

import pytest

from mfatlas.scalar import Scalar
from mfatlas.unipoly import (
    uni,
    uni_deg,
    uni_divmod,
    uni_echelon_pivots,
    uni_eval,
    uni_is_constant,
    uni_roots_gaussian,
)


def _s(*coeffs):
    """Low-first coefficients with each int made a Scalar."""
    return [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]


def test_normalization_drops_leading_zeros():
    assert uni(_s(1, 2, 0, 0)) == (Scalar(1), Scalar(2))
    assert uni(_s(0)) == ()
    assert uni(_s(0, 0)) == ()
    assert uni_deg(uni(_s(0, 0, 5))) == 2
    assert uni_is_constant(uni(_s(7, 0))) and uni_is_constant(())
    assert not uni_is_constant(uni(_s(0, 1)))


def test_ring_identities():
    p = uni(_s(1, 0, 1))           # 1 + t^2
    q = uni(_s(-2, 1))             # t - 2
    pq = uni(_s(-2, 1, -2, 1))     # (1 + t^2)(t - 2)
    assert uni_divmod(pq, q) == (p, ())
    assert uni_divmod(pq, p) == (q, ())


def test_divmod_with_remainder():
    p = uni(_s(1, 1, 1))   # 1 + t + t^2
    q = uni(_s(1, 1))      # 1 + t
    quot, rem = uni_divmod(p, q)
    assert quot == uni(_s(0, 1))
    assert rem == uni(_s(1))


def test_echelon_pivots_are_column_gcds():
    p = uni(_s(2, -3, 1))    # (t - 1)(t - 2)
    q = uni(_s(-3, 2, 1))    # (t - 1)(t + 3)
    one, t = uni(_s(1)), uni(_s(0, 1))
    # one column: the pivot is the gcd up to a unit
    (piv,) = uni_echelon_pivots([[p], [q]])
    assert uni_divmod(piv, uni(_s(-1, 1))) == (uni([piv[-1]]), ())
    (piv,) = uni_echelon_pivots([[p], [uni(_s(3, 1))]])
    assert uni_deg(piv) == 0
    # t and t + 1 have no common root: constant pivots, full rank everywhere
    pivots = uni_echelon_pivots([[t, one], [uni(_s(1, 1)), t], [(), q]])
    assert [uni_deg(v) for v in pivots] == [0, 0]
    # rows (1, t) and (t, t^2) are dependent: the second column has no pivot
    assert uni_echelon_pivots([[one, t], [t, uni(_s(0, 0, 1))]]) == [one, ()]
    # det [[t, 1], [0, t]] = t^2: rank drops at t = 0 only
    pivots = uni_echelon_pivots([[t, one], [(), t]])
    assert sorted(uni_deg(v) for v in pivots) == [1, 1]
    # the input is left as it was
    rows = [[t, one], [one, t]]
    uni_echelon_pivots(rows)
    assert rows == [[t, one], [one, t]]


def test_eval():
    p = uni(_s(5, -3, 0, 2))  # 5 - 3t + 2t^3
    assert uni_eval(p, Scalar(2)) == Scalar(15)
    assert uni_eval(p, Scalar(0, 1)) == Scalar(5, -5)
    assert uni_eval((), Scalar(3)) == Scalar(0)


def test_gaussian_roots():
    # (t - 2)(t - i)(t + i) = t^3 - 2t^2 + t - 2
    roots, rest = uni_roots_gaussian(uni(_s(-2, 1, -2, 1)))
    assert [(r.re, r.im, mult) for r, mult in roots] == [(0, -1, 1), (0, 1, 1), (2, 0, 1)]
    assert rest == 0
    # t (t - 1)^2 (t^2 - 2): roots 0 and 1 (twice), a rootless quadratic
    roots, rest = uni_roots_gaussian(uni(_s(0, -2, 4, -1, -2, 1)))
    assert [(r, mult) for r, mult in roots] == [(Scalar(0), 1), (Scalar(1), 2)]
    assert rest == 2


def test_gaussian_roots_pass_over_a_prime_where_roots_meet():
    # (t - 1)(t - 6): the roots meet modulo 5, so the search must pass over 5
    roots, rest = uni_roots_gaussian(uni(_s(6, -7, 1)))
    assert roots == [(Scalar(1), 1), (Scalar(6), 1)] and rest == 0


def _mul(p, q):
    out = [Scalar(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] = out[i + j] + c * d
    return out


def _draw(rng, height):
    """A Gaussian rational whose parts have numerators and denominators up
    to height; the imaginary part is zero half the time."""
    def part():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return Scalar(part(), part() if rng.random() < 0.5 else 0)


def _sympy_roots(p):
    """Roots in Q(i) with multiplicities, and the remaining degree, read off
    sympy's factorization over QQ_I."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    coeffs = [sympy.Rational(c.x, c.d) + sympy.I * sympy.Rational(c.y, c.d) for c in reversed(p)]
    roots, rest = [], 0
    for f, mult in sympy.Poly(coeffs, t, domain=sympy.QQ_I).factor_list()[1]:
        if f.degree() > 1:
            rest += f.degree() * mult
            continue
        a, b = f.all_coeffs()
        re, im = (-b / a).as_real_imag()
        roots.append((Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))), mult))
    return sorted(roots, key=lambda rc: rc[0].sort_key()), rest


def test_gaussian_roots_match_sympy():
    # seeded polynomials of degree 1-4: roots with parts of height up to
    # 10^30, repeated roots, Gaussian roots, quadratic factors that are
    # irreducible over Q(i) unless the oracle says otherwise
    rng = Random("unipoly-roots")
    seen = set()
    for _ in range(16):
        height = rng.choice((3, 1000, 10**12, 10**30))
        degree = rng.randint(1, 4)
        p = [_draw(rng, height) or Scalar(1)]
        while len(p) <= degree:
            if len(p) < degree and rng.random() < 0.3:
                big = max(height, 10)
                p = _mul(p, [Scalar(rng.randint(-big, big), rng.randint(-big, big)),
                             Scalar(rng.randint(-big, big)), Scalar(1)])
                continue
            root = _draw(rng, height)
            for _ in range(rng.randint(1, degree + 1 - len(p))):
                p = _mul(p, [-root, Scalar(1)])
        got = uni_roots_gaussian(uni(p))
        assert got == _sympy_roots(p), [str(c) for c in p]
        roots, rest = got
        seen.update(kind for kind, hit in (
            ("rest", rest), ("repeated", any(mult > 1 for _, mult in roots)),
            ("gaussian", any(r.y for r, _ in roots)), ("tall", height == 10**30)) if hit)
    assert seen == {"rest", "repeated", "gaussian", "tall"}
