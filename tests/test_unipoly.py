"""Univariate polynomial arithmetic over Q(i): what the eigenvalue root
search and the row reduction of the line certificate use.  Polynomials are literal coefficient
tuples, low degree first."""

from mfatlas.scalar import Scalar
from mfatlas.unipoly import (
    gaussian_divisors,
    gaussian_factors,
    uni,
    uni_deg,
    uni_divmod,
    uni_echelon_pivots,
    uni_eval,
    uni_is_constant,
    uni_roots_gaussian,
    uni_scale,
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
    assert uni_scale(p, Scalar(3)) == uni(_s(3, 0, 3))
    assert uni_scale(p, Scalar(0)) == ()


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


def _associates(z):
    return {z, (-z[0], -z[1]), (-z[1], z[0]), (z[1], -z[0])}


def _divides(d, z):
    nd = d[0] * d[0] + d[1] * d[1]
    re_num = z[0] * d[0] + z[1] * d[1]
    im_num = z[1] * d[0] - z[0] * d[1]
    return re_num % nd == 0 and im_num % nd == 0


def test_gaussian_divisors_one_per_associate_class():
    # 2^12 = (1 + i)^24: 25 divisor classes
    # 5 = (2 + i)(2 - i): 1, 2 + i, 2 - i, 5; 3 is inert: 1, 3
    # 12 + 5i = i (3 - 2i)^2: 1, 3 - 2i, 12 + 5i
    # -30i is (1 + i)^2 * 3 * (2 + i)(2 - i) up to a unit: 3 * 2 * 2 * 2 classes
    for z, count in (((2**12, 0), 25), ((5, 0), 4), ((3, 0), 2), ((12, 5), 3),
                     ((1, 0), 1), ((0, -30), 3 * 2 * 2 * 2)):
        divs = gaussian_divisors(gaussian_factors(z))
        assert len(divs) == count, z
        assert all(_divides(d, z) for d in divs), z
        classes = [frozenset(_associates(d)) for d in divs]
        assert len(set(classes)) == len(divs), z
    assert len(gaussian_divisors(gaussian_factors((2**64, 0)))) == 129


def test_gaussian_roots():
    # (t - 2)(t - i)(t + i) = t^3 - 2t^2 + t - 2
    roots, rest = uni_roots_gaussian(uni(_s(-2, 1, -2, 1)))
    assert [(r.re, r.im, mult) for r, mult in roots] == [(0, -1, 1), (0, 1, 1), (2, 0, 1)]
    assert rest == 0
    # t (t - 1)^2 (t^2 - 2): roots 0 and 1 (twice), a rootless quadratic
    roots, rest = uni_roots_gaussian(uni(_s(0, -2, 4, -1, -2, 1)))
    assert [(r, mult) for r, mult in roots] == [(Scalar(0), 1), (Scalar(1), 2)]
    assert rest == 2
