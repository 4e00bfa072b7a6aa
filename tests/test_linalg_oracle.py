"""Independent oracle for exact linear algebra: sympy.

mfatlas has one elimination routine, linalg.rref, and reads rank, kernels,
solutions, inverses and span containment off it; matrix products and
matrix-vector products go through one dot product that skips zero terms, and
rref leaves rows whose pivot is already 1 unscaled.  These tests check each
of them, the characteristic polynomial and the minimal-polynomial oracle of
oracles.py against sympy on seeded random Q(i) matrices: dense ones, and
sparse ones (mostly zeros, unit row vectors, inputs already in RREF) that
take the zero short-cuts.  sympy is a test-only dependency; the tests are
skipped where it is not installed.
"""

from fractions import Fraction
from functools import reduce
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from mfatlas.errors import PreconditionError
from mfatlas.linalg import (
    ExactMatrix,
    char_poly,
    mat_inverse,
    mat_kernel,
    mat_rank,
    rref,
    solve,
    span_contains,
    span_le,
)
from mfatlas.scalar import Scalar
from oracles import min_poly

DRAWS = 4


def _entry(rng: Random, gaussian: bool) -> Scalar:
    re = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    im = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) if gaussian else 0
    return Scalar(re, im)


def _random(rng: Random, rows: int, cols: int, gaussian: bool) -> ExactMatrix:
    return ExactMatrix([[_entry(rng, gaussian) for _ in range(cols)] for _ in range(rows)])


def _sparse(rng: Random, rows: int, cols: int) -> ExactMatrix:
    """At least 70% of the entries are zero."""
    cells = rows * cols
    entries = [[Scalar(0)] * cols for _ in range(rows)]
    for k in rng.sample(range(cells), cells * 3 // 10):
        entries[k // cols][k % cols] = _entry(rng, True)
    return ExactMatrix(entries)


def _unit_rows(rng: Random, rows: int, cols: int) -> ExactMatrix:
    """Every row a unit vector; repeated rows make some draws rank-deficient."""
    picks = [rng.randrange(cols) for _ in range(rows)]
    return ExactMatrix([[Scalar(1 if c == p else 0) for c in range(cols)] for p in picks])


def _in_rref(rng: Random, rows: int, cols: int, rank: int) -> ExactMatrix:
    """A matrix already in reduced row echelon form, built from its pivots."""
    pivots = sorted(rng.sample(range(cols), rank))
    entries = [[Scalar(0)] * cols for _ in range(rows)]
    for r, p in enumerate(pivots):
        entries[r][p] = Scalar(1)
        for c in range(p + 1, cols):
            if c not in pivots and rng.random() < 0.5:
                entries[r][c] = _entry(rng, True)
    return ExactMatrix(entries)


# kind -> seeded matrix builder
KINDS = {
    "square": lambda rng: _random(rng, 4, 4, False),
    "wide": lambda rng: _random(rng, 3, 5, False),
    "tall": lambda rng: _random(rng, 5, 3, False),
    "deficient": lambda rng: _random(rng, 5, 2, False) * _random(rng, 2, 5, False),
    "gaussian": lambda rng: _random(rng, 4, 4, True),
    "sparse": lambda rng: _sparse(rng, 6, 6),
    "unit-rows": lambda rng: _unit_rows(rng, 5, 4),
    "in-rref": lambda rng: _in_rref(rng, 4, 6, 3),
}
SQUARE_KINDS = ["square", "gaussian", "deficient", "sparse"]


def _draws(kind: str):
    for k in range(DRAWS):
        rng = Random(f"{kind}:{k}")
        yield rng, KINDS[kind](rng)


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
    if kind in ("tall", "deficient", "unit-rows", "in-rref"):
        assert inconsistent > 0


@pytest.mark.parametrize("kind", SQUARE_KINDS)
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


def test_sparse_kinds_are_what_they_claim():
    for kind in ("sparse", "unit-rows"):
        for _, m in _draws(kind):
            zeros = sum(a.is_zero() for row in m.entries for a in row)
            assert zeros >= 0.7 * m.rows * m.cols
    for _, m in _draws("in-rref"):
        assert _entries_from_sympy(_to_sympy(m).rref()[0]) == m.entries


@pytest.mark.parametrize("kind", KINDS)
def test_products_match_sympy(kind):
    for rng, m in _draws(kind):
        M = _to_sympy(m)
        for other in (_random(rng, m.cols, 3, True), _sparse(rng, m.cols, 4), _unit_rows(rng, m.cols, 2)):
            assert (m * other).entries == _entries_from_sympy(M * _to_sympy(other))
        v = [_entry(rng, True) if rng.random() < 0.4 else Scalar(0) for _ in range(m.cols)]
        expect = M * sympy.Matrix([_sym(x) for x in v])
        assert m.apply(v) == tuple(_from_sympy(x) for x in expect)


T = sympy.Symbol("t")


def _sympy_coeffs(p) -> list[Scalar]:
    """Coefficients of a sympy Poly in t, low degree first."""
    return [_from_sympy(c) for c in reversed(p.all_coeffs())]


def _sympy_min_poly(M):
    """det(tI - M) divided by the gcd of its (n-1)-minors: the last
    invariant factor of tI - M, which is the minimal polynomial."""
    C = T * sympy.eye(M.rows) - M
    chi = sympy.Poly(C.det(method="berkowitz"), T, domain="QQ_I")
    minors = [sympy.Poly(x, T, domain="QQ_I") for x in C.adjugate(method="berkowitz") if x != 0]
    q, r = sympy.div(chi, reduce(sympy.gcd, minors))
    assert r.is_zero
    return q.monic()


def _structured(n: int) -> list[ExactMatrix]:
    """Derogatory and nilpotent matrices, where the minimal polynomial is a
    proper divisor of the characteristic one."""
    J = [[Scalar(1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    D = [[Scalar((i % 2) + 1 if i == j else 0) for j in range(n)] for i in range(n)]
    J2 = [[Scalar(1 if (i, j) == (0, 1) else 0) for j in range(n)] for i in range(n)]
    return [ExactMatrix(J), ExactMatrix(D), ExactMatrix(J2), ExactMatrix.zeros(n, n)]


@pytest.mark.parametrize("kind", SQUARE_KINDS + ["structured"])
def test_char_poly_and_min_poly_match_sympy(kind):
    mats = _structured(4) if kind == "structured" else [m for _, m in _draws(kind)]
    for m in mats:
        M = _to_sympy(m)
        assert char_poly(m) == _sympy_coeffs(M.charpoly(T))
        assert min_poly(m) == _sympy_coeffs(_sympy_min_poly(M))
