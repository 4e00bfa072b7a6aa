"""Exact matrix algebra: rank, kernels, characteristic and minimal
polynomials."""

import random
from fractions import Fraction

import pytest

from mfatlas.linalg import (
    ExactMatrix,
    canonical_basis,
    char_poly,
    mat_inverse,
    mat_kernel,
    mat_rank,
    matrix_from_rows,
    rref,
    solve,
    span_contains,
    span_equal,
    span_le,
)
from mfatlas.scalar import Scalar
from oracles import min_poly, span_intersection


def _m(rows):
    return ExactMatrix([[Scalar(Fraction(v)) for v in row] for row in rows])


def test_rank_frozen():
    m = _m([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_rank(m) == 2
    m2 = _m([[2, 1], [7, 4]])
    assert mat_rank(m2) == 2


def test_rref_and_kernel():
    m = _m([[1, 2, 3], [2, 4, 6]])
    r, pivots = rref(m)
    assert pivots == (0,)
    assert r.entries[0] == (Scalar(1), Scalar(2), Scalar(3))
    ker = mat_kernel(m)
    assert len(ker) == 2
    for v in ker:
        img = m.apply(v)
        assert all(c == Scalar(0) for c in img)


def test_solve_unique_and_inconsistent():
    A = _m([[2, 1], [1, 1]])
    sol = solve(A, [Scalar(3), Scalar(2)])
    assert sol == (Scalar(1), Scalar(1))
    B = _m([[1, 1], [1, 1]])
    assert solve(B, [Scalar(0), Scalar(1)]) is None


def test_char_poly_and_min_poly():
    # diagonalizable with a repeated eigenvalue: min poly strictly divides
    m = _m([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    cp = char_poly(m)
    assert len(cp) == 4 and cp[-1] == Scalar(1)
    mp = min_poly(m)
    assert len(mp) == 3  # (t-2)(t-3)
    nil = _m([[0, 1], [0, 0]])
    assert char_poly(nil) == [Scalar(0), Scalar(0), Scalar(1)]
    assert min_poly(nil) == [Scalar(0), Scalar(0), Scalar(1)]


def test_char_poly_companion():
    # companion matrix of t^3 - 2t + 5
    m = _m([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m) == [Scalar(5), Scalar(-2), Scalar(0), Scalar(1)]


def test_span_operations():
    u = (Scalar(1), Scalar(0), Scalar(1))
    v = (Scalar(0), Scalar(1), Scalar(0))
    w = (Scalar(1), Scalar(1), Scalar(1))
    basis = canonical_basis([u, v, w])
    assert len(basis) == 2
    assert span_contains(basis, w)
    assert not span_contains(basis, (Scalar(1), Scalar(0), Scalar(0)))
    assert span_le([u], [u, v])
    assert not span_le([u, v], [u])
    assert span_equal([u, v], [w, v, u])
    inter = span_intersection([u, v], [w])
    assert len(inter) == 1 and span_contains([w], inter[0])


def test_matrix_helpers():
    d = ExactMatrix.diagonal([Scalar(1), Scalar(-1)])
    assert d.trace() == Scalar(0)
    assert d.matpow(3).entries == d.entries
    i2 = ExactMatrix.identity(2)
    assert (d * d).entries == i2.entries
    cols = ExactMatrix.from_columns([(Scalar(1), Scalar(0)), (Scalar(5), Scalar(1))])
    assert cols.col(1) == (Scalar(5), Scalar(1))
    assert cols.row(0) == (Scalar(1), Scalar(5))


def _all_scalars(vectors):
    return all(type(v) is Scalar for vec in vectors for v in vec)


@pytest.mark.parametrize("seed", range(4))
def test_results_hold_only_scalars(seed):
    """ExactMatrix does not coerce its entries, so every result the arithmetic
    builds must already be a Scalar."""
    rng = random.Random(f"linalg-scalars:{seed}")

    def draw(rows, cols):
        return ExactMatrix([[Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice((0, 0, 1)))
                             for _ in range(cols)] for _ in range(rows)])

    A, B = draw(3, 3), draw(3, 3)
    while mat_rank(A) < 3:
        A = draw(3, 3)
    S = draw(3, 2) * draw(2, 4)
    b = (Scalar(1), Scalar(0), Scalar(Fraction(-2, 3), 1))
    for M in (A * B, A + B, A - B, -A, A.scale(Scalar(0, 1)), rref(S)[0],
              mat_inverse(A), A.matpow(3)):
        assert _all_scalars(M.entries)
    kernel = mat_kernel(S)
    assert _all_scalars(kernel) and len(kernel) == 2
    assert _all_scalars([solve(A, b), A.apply(b), char_poly(A)])
    assert _all_scalars(canonical_basis(S.entries))


def test_trusted_constructor_matches_the_checked_one():
    """matrix_from_rows stores what ExactMatrix(...) would, and every matrix
    linalg builds itself holds tuple rows of its width."""
    rows = ((Scalar(1), Scalar(0, 1), Scalar(0)), (Scalar(Fraction(-2, 3)), Scalar(0), Scalar(5)))
    for r in (rows, rows[:1], ()):
        m = matrix_from_rows(r, len(r[0]) if r else 0)
        ref = ExactMatrix([list(row) for row in r])
        assert (m.entries, m.rows, m.cols) == (ref.entries, ref.rows, ref.cols)
        assert m == ref and hash(m) == hash(ref)
    rng = random.Random("linalg-trusted")

    def draw():
        return ExactMatrix([[Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(3)]
                            for _ in range(3)])

    A = draw()
    while mat_rank(A) < 3:
        A = draw()
    S = ExactMatrix([list(row) for row in rows])
    for M in (S * A, A * A, A + A, A - A, -S, S.scale(Scalar(1, 1)), rref(S)[0],
              mat_inverse(A), A.matpow(2), ExactMatrix.identity(2),
              ExactMatrix.diagonal(rows[1])):
        ref = ExactMatrix(M.entries)
        assert (M.entries, M.rows, M.cols) == (ref.entries, ref.rows, ref.cols)
        assert type(M.entries) is tuple and all(type(row) is tuple for row in M.entries)
