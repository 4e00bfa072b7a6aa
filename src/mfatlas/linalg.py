"""Exact linear algebra over Q(i).

Matrices are immutable tuples of tuples of Scalar.  The constructor and the
functions below take Scalar entries as given and do not coerce them (the
constructor only checks that the rows have one width), so every matrix,
vector and basis they return holds Scalars only.  A matrix this module
builds itself (a product, sum, difference, scaling or RREF) has tuple rows
of known width, so the trusted matrix_from_rows stores them unchecked.
Every elimination goes through one Gauss-Jordan routine, rref: rank,
kernels, solving, inverses, canonical subspace bases and span containment
are all read off its output.  Its independent oracle is a sympy cross-check
in the tests, so the package needs no second elimination code.

The matrices met here are mostly zeros, and both kernels make zeros free:
_dot, which every matrix product and matrix-vector product goes through,
skips each term with a zero factor, and rref leaves a row unscaled when its
pivot is already 1, so re-reducing a canonical basis costs only zero tests.
_dot reads the integer fields (x + y*i)/d of each Scalar: it adds the
products in ints over one running denominator and reduces once per entry.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import PreconditionError
from .scalar import Scalar, scalar_from_ints

Vector = tuple[Scalar, ...]


class ExactMatrix:
    """Immutable dense matrix with Scalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal((Scalar(1),) * n)

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        zero = Scalar(0)
        return ExactMatrix([[zero] * c for _ in range(r)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*cols)))

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "ExactMatrix":
        zero = Scalar(0)
        n = len(values)
        return matrix_from_rows(tuple(
            tuple([values[i] if i == j else zero for j in range(n)]) for i in range(n)
        ), n)

    # -- basic ops -----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_check(other)
        return matrix_from_rows(tuple(
            tuple([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)
        ), self.cols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_check(other)
        return matrix_from_rows(tuple(
            tuple([a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)
        ), self.cols)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(Scalar(-1))

    def scale(self, c: Scalar) -> "ExactMatrix":
        return matrix_from_rows(tuple(tuple([c * a for a in row]) for row in self.entries),
                                self.cols)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.entries))
        return matrix_from_rows(tuple(
            tuple([_dot(row, col) for col in cols]) for row in self.entries
        ), other.cols)

    def matpow(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("matpow needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        t = Scalar(0)
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(row, v) for row in self.entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(a) for a in row) + "]" for row in self.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def _shape_check(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


# ExactMatrix.__setattr__ refuses every write, so fields go through the slots.
_set_rows = ExactMatrix.rows.__set__
_set_cols = ExactMatrix.cols.__set__
_set_entries = ExactMatrix.entries.__set__


def matrix_from_rows(rows: tuple[Vector, ...], cols: int) -> ExactMatrix:
    """The matrix with these rows, stored as given: rows must be a tuple of
    Scalar tuples, each of length cols."""
    m = object.__new__(ExactMatrix)
    _set_rows(m, len(rows))
    _set_cols(m, cols)
    _set_entries(m, rows)
    return m


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """sum u_k v_k, added in ints over one running denominator (the lcm of
    the products' denominators) and reduced once at the end."""
    x = y = 0
    d = 1
    for a, b in zip(u, v):
        ax, ay = a.x, a.y
        if not (ax or ay):
            continue
        bx, by = b.x, b.y
        if not (bx or by):
            continue
        px = ax * bx - ay * by
        py = ax * by + ay * bx
        pd = a.d * b.d
        if pd != d:
            g = gcd(d, pd)
            k = d // g
            px *= k
            py *= k
            k = pd // g
            x *= k
            y *= k
            d *= k
        x += px
        y += py
    return scalar_from_ints(x, y, d)


# -- elimination ---------------------------------------------------------------


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(row) for row in m.entries]
    rows, cols = len(a), (len(a[0]) if a else 0)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not a[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        if a[r][c] != 1:
            inv = Scalar(1) / a[r][c]
            a[r] = [inv * v for v in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix_from_rows(tuple(map(tuple, a)), cols), tuple(pivots)


def mat_rank(m: ExactMatrix) -> int:
    """Rank: the number of pivots of the RREF."""
    return len(rref(m)[1])


def mat_inverse(m: ExactMatrix) -> ExactMatrix:
    """Inverse of a square matrix, read off the RREF of [m | I]."""
    if m.rows != m.cols:
        raise ValueError("mat_inverse needs a square matrix")
    n = m.rows
    one, zero = Scalar(1), Scalar(0)
    aug = ExactMatrix(
        [list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(m.entries)]
    )
    R, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise PreconditionError("singular change of basis")
    return matrix_from_rows(tuple(row[n:] for row in R.entries), n)


def mat_kernel(m: ExactMatrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    R, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Scalar(0)] * m.cols
        v[fc] = Scalar(1)
        for r_idx, pc in enumerate(pivots):
            v[pc] = -R.entries[r_idx][fc]
        basis.append(tuple(v))
    return basis


def solve(A: ExactMatrix, b: Sequence[Scalar]) -> Vector | None:
    """One solution of A x = b, or None if inconsistent."""
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    aug = ExactMatrix(
        [list(A.entries[i]) + [b[i]] for i in range(A.rows)]
    )
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [Scalar(0)] * A.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = R.entries[r_idx][A.cols]
    return tuple(x)


def char_poly(m: ExactMatrix) -> list[Scalar]:
    """Coefficients [c_0, ..., c_n] of det(tI - m), low degree first,
    via the Faddeev-LeVerrier recurrence."""
    if m.rows != m.cols:
        raise ValueError("char_poly needs a square matrix")
    n = m.rows
    coeffs = [Scalar(0)] * (n + 1)
    coeffs[n] = Scalar(1)
    M = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        AM = m * M
        c = -(AM.trace() / Scalar(k))
        coeffs[n - k] = c
        M = AM + ExactMatrix.identity(n).scale(c)
    return coeffs


# -- canonical subspaces -------------------------------------------------------


def canonical_basis(vectors: Iterable[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Canonical (RREF, zero rows dropped) basis of the span of the input
    vectors.  Equal spans give identical outputs, so this doubles as a key."""
    vecs = [v for v in vectors if any(v)]
    if not vecs:
        return ()
    R, pivots = rref(ExactMatrix(vecs))
    return tuple(R.entries[i] for i in range(len(pivots)))


def span_contains(basis: Sequence[Sequence], v: Sequence) -> bool:
    """Is v in the span of the given vectors?"""
    return span_le([v], basis)


def span_le(A: Sequence[Sequence], B: Sequence[Sequence]) -> bool:
    """Is span(A) contained in span(B)?  Each vector of A is reduced against
    the canonical basis of B; it lies in span(B) iff nothing is left."""
    a = [v for v in A if any(v)]
    if not a:
        return True
    basis = canonical_basis(B)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    for v in a:
        if basis and len(v) != len(basis[0]):
            raise ValueError("vector length mismatch")
        for row, p in zip(basis, pivots):
            c = v[p]
            if c:
                v = tuple(x - c * y for x, y in zip(v, row))
        if any(v):
            return False
    return True


def span_equal(A: Sequence[Sequence], B: Sequence[Sequence]) -> bool:
    return canonical_basis(A) == canonical_basis(B)

