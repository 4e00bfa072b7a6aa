"""Independent oracle for exact elimination: sympy's Matrix.rref.

mfatlas has one elimination routine, linalg.rref, and reads rank, kernels,
solutions, inverses and span containment off it.  These tests check each of
them against sympy on seeded random Q(i) matrices.  sympy is a test-only
dependency; the tests are skipped where it is not installed.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from mfatlas.errors import PreconditionError
from mfatlas.linalg import (
    ExactMatrix,
    mat_inverse,
    mat_kernel,
    mat_rank,
    rref,
    solve,
    span_contains,
    span_le,
)
from mfatlas.scalar import Scalar

DRAWS = 4
# kind -> (rows, cols, inner rank of a product or None, Gaussian entries)
KINDS = {
    "square": (4, 4, None, False),
    "wide": (3, 5, None, False),
    "tall": (5, 3, None, False),
    "deficient": (5, 5, 2, False),
    "gaussian": (4, 4, None, True),
}


def _entry(rng: Random, gaussian: bool) -> Scalar:
    re = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    im = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) if gaussian else 0
    return Scalar(re, im)


def _random(rng: Random, rows: int, cols: int, gaussian: bool) -> ExactMatrix:
    return ExactMatrix([[_entry(rng, gaussian) for _ in range(cols)] for _ in range(rows)])


def _draws(kind: str):
    rows, cols, inner, gaussian = KINDS[kind]
    for k in range(DRAWS):
        rng = Random(f"{kind}:{k}")
        if inner is None:
            yield rng, _random(rng, rows, cols, gaussian)
        else:
            yield rng, _random(rng, rows, inner, gaussian) * _random(rng, inner, cols, gaussian)


def _to_sympy(m: ExactMatrix):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: _sym(m.entries[i][j]))


def _sym(a: Scalar):
    return sympy.Rational(a.re.numerator, a.re.denominator) + sympy.I * sympy.Rational(
        a.im.numerator, a.im.denominator
    )


def _from_sympy(x) -> Scalar:
    re, im = sympy.expand_complex(x).as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _entries_from_sympy(M) -> tuple:
    return tuple(tuple(_from_sympy(x) for x in row) for row in M.tolist())


@pytest.mark.parametrize("kind", KINDS)
def test_rref_and_rank_match_sympy(kind):
    for _, m in _draws(kind):
        R, pivots = rref(m)
        S, spivots = _to_sympy(m).rref()
        assert pivots == spivots
        assert R.entries == _entries_from_sympy(S)
        assert mat_rank(m) == len(spivots)


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_sympy_rank(kind):
    for _, m in _draws(kind):
        ker = mat_kernel(m)
        assert len(ker) == m.cols - _to_sympy(m).rank()
        for v in ker:
            assert not any(m.apply(v))


@pytest.mark.parametrize("kind", KINDS)
def test_solve_matches_sympy(kind):
    inconsistent = 0
    for rng, m in _draws(kind):
        x0 = [_entry(rng, True) for _ in range(m.cols)]
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None and m.apply(x) == b
        b = [_entry(rng, True) for _ in range(m.rows)]
        M = _to_sympy(m)
        expect_none = M.row_join(sympy.Matrix([_sym(v) for v in b])).rank() > M.rank()
        x = solve(m, b)
        if expect_none:
            inconsistent += 1
            assert x is None
        else:
            assert x is not None and m.apply(x) == tuple(b)
    if kind in ("tall", "deficient"):
        assert inconsistent > 0


@pytest.mark.parametrize("kind", ["square", "gaussian", "deficient"])
def test_inverse_matches_sympy(kind):
    for _, m in _draws(kind):
        M = _to_sympy(m)
        if M.rank() < m.rows:
            with pytest.raises(PreconditionError):
                mat_inverse(m)
            continue
        inv = mat_inverse(m)
        assert m * inv == ExactMatrix.identity(m.rows)
        assert inv.entries == _entries_from_sympy(M.inv())


@pytest.mark.parametrize("kind", KINDS)
def test_span_tests_match_sympy(kind):
    for rng, m in _draws(kind):
        A, B = m.entries[:2], m.entries[2:]
        SA, SB = _to_sympy(ExactMatrix(A)), _to_sympy(ExactMatrix(B))
        rb = SB.rank()
        assert span_le(A, B) == (SB.col_join(SA).rank() == rb)
        for v in A:
            assert span_contains(B, v) == (SB.col_join(_to_sympy(ExactMatrix([v]))).rank() == rb)
        c = [_entry(rng, True) for _ in B]
        combo = tuple(
            sum((ci * row[j] for ci, row in zip(c, B)), Scalar(0)) for j in range(m.cols)
        )
        assert span_contains(B, combo)
        assert span_le(B + (combo,), B)
