"""Univariate polynomial arithmetic over Q(i)."""

from mfatlas.scalar import Scalar
from mfatlas.unipoly import (
    uni,
    uni_compose_mod,
    uni_deg,
    uni_deriv,
    uni_divmod,
    uni_eval,
    uni_ext_gcd,
    uni_gcd,
    uni_is_zero,
    uni_monic,
    uni_mul,
    uni_roots_gaussian,
    uni_squarefree_part,
    uni_sub,
)


def test_normalization_drops_leading_zeros():
    assert uni([1, 2, 0, 0]) == (Scalar(1), Scalar(2))
    assert uni([0]) == ()
    assert uni_is_zero(uni([0, 0]))
    assert uni_deg(uni([0, 0, 5])) == 2


def test_ring_identities():
    p = uni([1, 0, 1])  # 1 + t^2
    q = uni([-2, 1])    # t - 2
    assert uni_sub(uni_mul(p, q), uni_mul(q, p)) == ()
    quot, rem = uni_divmod(uni_mul(p, q), q)
    assert quot == p and rem == ()


def test_divmod_with_remainder():
    p = uni([1, 1, 1])   # 1 + t + t^2
    q = uni([1, 1])      # 1 + t
    quot, rem = uni_divmod(p, q)
    assert quot == uni([0, 1])
    assert rem == uni([1])


def test_gcd_and_extended_gcd():
    p = uni_mul(uni([-1, 1]), uni([-2, 1]))  # (t-1)(t-2)
    q = uni_mul(uni([-1, 1]), uni([3, 1]))   # (t-1)(t+3)
    g = uni_gcd(p, q)
    assert uni_monic(g) == uni([-1, 1])
    g2, u, v = uni_ext_gcd(p, q)
    lhs = uni_sub(uni_mul(u, p), uni_sub((), uni_mul(v, q)))  # u p + v q
    assert uni_monic(lhs) == uni_monic(g2)


def test_derivative_and_eval():
    p = uni([5, -3, 0, 2])  # 5 - 3t + 2t^3
    assert uni_deriv(p) == uni([-3, 0, 6])
    assert uni_eval(p, Scalar(2)) == Scalar(15)
    assert uni_eval(p, Scalar(0, 1)) == Scalar(5, -5)


def test_squarefree_part():
    p = uni_mul(uni_mul(uni([-1, 1]), uni([-1, 1])), uni([2, 1]))  # (t-1)^2 (t+2)
    sf = uni_monic(uni_squarefree_part(p))
    assert sf == uni_monic(uni_mul(uni([-1, 1]), uni([2, 1])))


def test_compose_mod():
    m = uni([0, 0, 1])      # t^2
    p = uni([0, 1, 1])      # t + t^2
    q = uni([1, 1])         # 1 + t
    # p(q) = (1+t) + (1+t)^2 = 2 + 3t + t^2 ; mod t^2 -> 2 + 3t
    assert uni_compose_mod(p, q, m) == uni([2, 3])


def test_gaussian_roots():
    # (t - 2)(t - i)(t + i) = t^3 - 2t^2 + t - 2
    p = uni([-2, 1, -2, 1])
    roots, _ = uni_roots_gaussian(p)
    found = {(r.re, r.im) for r, mult in roots}
    assert found == {(2, 0), (0, 1), (0, -1)}
    assert all(mult == 1 for _, mult in roots)
