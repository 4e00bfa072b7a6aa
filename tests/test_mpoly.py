"""Multivariate polynomial arithmetic, substitution, and calculus."""

import random
from fractions import Fraction

import pytest

from mfatlas.mpoly import (
    MPoly,
    affine_chart,
    mpoly_det,
    mpoly_mat_mul,
    mpoly_mat_pair,
    mpoly_mat_trace,
    restrict_to_chart,
)
from mfatlas.scalar import Scalar

V = ("x", "y", "z")


def _x():
    return MPoly.var(V, "x")


def _y():
    return MPoly.var(V, "y")


def _z():
    return MPoly.var(V, "z")


def test_ring_axioms_on_samples():
    p = _x() * _y() + _z() * 2
    q = _x() - _y() * _y()
    r = MPoly.const(V, Scalar(Fraction(1, 3)))
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == MPoly.zero(V)
    assert (p * q) * r == p * (q * r)


def test_eval_and_subs_agree():
    p = _x() ** 2 * _y() - _z() ** 3 + MPoly.const(V, Scalar(4))
    point = {"x": Scalar(2), "y": Scalar(-1), "z": Scalar(1)}
    assert p.eval(point) == Scalar(-1)
    mapping = {
        "x": MPoly.const(V, Scalar(2)),
        "y": MPoly.const(V, Scalar(-1)),
        "z": MPoly.const(V, Scalar(1)),
    }
    q = p.subs(V, mapping)
    assert q.is_constant() and q.constant_term() == Scalar(-1)


def test_subs_composition():
    p = _x() * _x() + _y()
    mapping = {"x": _y() + _z(), "y": _z() * _z(), "z": _z()}
    q = p.subs(V, mapping)
    assert q == (_y() + _z()) * (_y() + _z()) + _z() * _z()


def test_diff_product_rule():
    p = _x() ** 2 * _y()
    q = _y() * _z() + _x()
    lhs = (p * q).diff("x")
    rhs = p.diff("x") * q + p * q.diff("x")
    assert lhs == rhs
    assert MPoly.const(V, Scalar(7)).diff("y").is_zero()


def test_homogeneous_degree():
    assert (_x() * _y() + _z() ** 2).homogeneous_degree() == 2
    assert (_x() + MPoly.const(V, Scalar(1))).homogeneous_degree() is None
    assert MPoly.zero(V).homogeneous_degree() is None


def test_project_and_collect():
    p = _x() * _y() * 0 + _x() ** 2  # y-free after normalization
    q = p.project(("x",))
    assert q.vars == ("x",)
    with pytest.raises(ValueError):
        (_x() * _y()).project(("x",))
    # collect keeps the variables, with the collected one at exponent zero
    r = _x() ** 2 * _y() + _x() * _z() + _y()
    assert r.collect("x") == {0: _y(), 1: _z(), 2: _y()}
    assert list(r.collect("x")) == [0, 1, 2]


def test_canonical_str_ordering():
    p = _y() + _x() ** 2 + MPoly.const(V, Scalar(Fraction(-1, 2)))
    assert str(p) == "x^2 + y - 1/2"
    assert str(MPoly.zero(V)) == "0"


def test_matrix_det_and_trace():
    a = [[_x(), _y()], [_z(), _x()]]
    assert mpoly_det(a) == _x() * _x() - _y() * _z()
    prod = mpoly_mat_mul(a, a)
    assert mpoly_mat_trace(prod) == (_x() * _x() + _y() * _z()) * 2
    # alternating: swapping two rows flips the sign
    b = [[_z(), _x()], [_x(), _y()]]
    assert mpoly_det([a[1], a[0]]) == MPoly.zero(V) - mpoly_det(a)
    assert mpoly_det(b) == _z() * _y() - _x() * _x()


def test_det_3x3_frozen():
    rows = [
        [_x(), _y(), _z()],
        [_y(), _z(), _x()],
        [_z(), _x(), _y()],
    ]
    det = mpoly_det(rows)
    x, y, z = _x(), _y(), _z()
    expect = x * z * y * 3 - (x * x * x + y * y * y + z * z * z)
    assert det == expect


def _well_formed(p):
    """The MPoly term invariant: nonzero Scalar values, keyed by tuples of
    len(vars) nonnegative ints."""
    return all(
        type(c) is Scalar and not c.is_zero()
        and type(e) is tuple and len(e) == len(p.vars)
        and all(type(k) is int and k >= 0 for k in e)
        for e, c in p.terms.items()
    )


def _small_poly(rng, vars_, terms):
    """A seeded polynomial with coefficients in -2..2 and degree at most 2 per
    variable, so sums and products of two of them often cancel."""
    out = MPoly.zero(vars_)
    for _ in range(terms):
        e = tuple(rng.randint(0, 2) for _ in vars_)
        out = out + MPoly(vars_, {e: Scalar(rng.choice((-2, -1, 1, 2)))})
    return out


@pytest.mark.parametrize("seed", range(6))
def test_results_keep_the_term_invariant(seed):
    rng = random.Random(f"mpoly-invariant:{seed}")
    p, q = _small_poly(rng, V, 5), _small_poly(rng, V, 5)
    results = [p + q, p - q, p - p, p + (-p), p * q, (p - q) * (p + q), p ** 3,
               p * 3, p * 0, p * Scalar(Fraction(-1, 2), 1), 2 * p, p - 1,
               p.diff("x"), (p * q).diff("z"),
               p.subs(V, {"x": q, "y": p - q, "z": MPoly.const(V, Scalar(-1))})]
    results += p.collect("y").values()
    results.append(p.subs(V, {"x": _x(), "y": _y(), "z": MPoly.zero(V)}).project(("x", "y")))
    m = [[_small_poly(rng, V, 2) for _ in range(3)] for _ in range(3)]
    results.append(mpoly_det(m))
    results.append(mpoly_mat_trace(mpoly_mat_mul(m, m)))
    m2 = [[_small_poly(rng, V, 2) for _ in range(3)] for _ in range(3)]
    pair = mpoly_mat_pair(m, m2)
    assert pair == mpoly_mat_trace(mpoly_mat_mul(m, m2))
    # tr([[p, q]] [[q], [-p]]) = pq - qp: every term cancels
    cancelled = mpoly_mat_pair([[p, q]], [[q], [-p]])
    assert cancelled == MPoly.zero(V)
    results += [pair, cancelled]
    # zeros in base and dirs; the last coordinate is zero throughout
    base = [Scalar(0), Scalar(1), Scalar(0)]
    dirs = [[Scalar(0), Scalar(2), Scalar(0)], [Scalar(1), Scalar(0), Scalar(0)]]
    chart = affine_chart(("s", "t"), base, dirs)
    assert chart[2] == MPoly.zero(("s", "t"))
    results += chart
    restricted = restrict_to_chart([p, q, p * q], ("s", "t"), base, dirs)
    assert restricted == [r.subs(("s", "t"), dict(zip(V, chart))) for r in (p, q, p * q)]
    results += restricted
    for r in results:
        assert _well_formed(r), r.terms


def _sparse_scalar(rng):
    """A Gaussian rational that is zero about half the time."""
    if rng.random() < 0.5:
        return Scalar(0)
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.choice((0, 0, 1, -2)))


@pytest.mark.parametrize("seed", range(6))
def test_affine_chart_matches_direct_evaluation(seed):
    rng = random.Random(f"affine-chart:{seed}")
    dim, k = rng.randint(1, 6), rng.randint(0, 4)
    tvars = tuple(f"t{m + 1}" for m in range(k))
    base = [_sparse_scalar(rng) for _ in range(dim)]
    dirs = [[_sparse_scalar(rng) for _ in range(dim)] for _ in range(k)]
    chart = affine_chart(tvars, base, dirs)
    assert len(chart) == dim and all(p.vars == tvars for p in chart)
    assert all(_well_formed(p) for p in chart)
    for _ in range(4):
        t = [_sparse_scalar(rng) for _ in range(k)]
        direct = list(base)
        for tk, d in zip(t, dirs):
            direct = [c + tk * x for c, x in zip(direct, d)]
        assert [p.eval(t) for p in chart] == direct
    # every chart coordinate is affine: constant term base, t_k-coefficient dirs[k]
    for idx, p in enumerate(chart):
        assert p.constant_term() == base[idx]
        for m, tv in enumerate(tvars):
            assert p.diff(tv) == MPoly.const(tvars, dirs[m][idx])


def test_affine_chart_needs_one_variable_per_direction():
    with pytest.raises(ValueError):
        affine_chart(("t1",), [Scalar(1)], [])
