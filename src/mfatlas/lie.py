"""The Lie algebra sl_n over Q(i) and its element-level operations.

Coordinates on sl_n are fixed once and for all: the off-diagonal matrix
entries x_ij in row-major order (skipping the diagonal), followed by the
Cartan coordinates h_1, ..., h_{n-1}, where h_k is the coefficient of
diag(0, ..., 1, -1, ..., 0) with the 1 in slot k.  Equivalently, h_k equals
the partial sum of the first k diagonal entries of the matrix.  Every
polynomial in the package is written in these variables, in this order.

The invariant form used everywhere is the trace form <x, y> = tr(xy); it is
proportional to the Killing form (factor 2n), its oracle in tests/oracles.py.

Four maps of LieAlgebraA are the only definition of the chart and its
trace-form dual.  Each takes rows of entries from any ring (Scalar or MPoly),
and that ring's zero where it builds a matrix: chart (rows -> coordinates),
chart_inverse (coordinates -> the trace-free matrix), trace_dual (any C ->
the coordinates of the form y -> tr(C y)) and trace_dual_inverse (a form ->
the trace-free G with tr(G y) equal to it).

Regularity costs n - 2 products of n x n matrices and one rank of an
n x n^2 matrix: x in sl_n is regular iff it is nonderogatory (Kostant 1963),
i.e. iff I, x, ..., x^{n-1} are linearly independent.  The textbook test,
dim ker ad_x = n - 1 on the (n^2 - 1) x (n^2 - 1) matrix ad_x, is its
oracle in tests/oracles.py.

The Jordan data of a regular element (eigenvalues, chains, semisimple part)
is not computed here: flags.eigen_chains owns it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import AlgebraMismatchError, PreconditionError, UnsupportedElementError
from .linalg import ExactMatrix, canonical_basis, mat_kernel, mat_rank
from .scalar import Scalar, scalar_from_str


class LieAlgebraA:
    """sl_n with the fixed coordinate chart described in the module docstring."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.rank = n - 1
        self.dim = n * n - 1
        # b = (dim + rank) / 2 = number of shifted generators
        self.b = (self.dim + self.rank) // 2
        off = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        self.offdiag_positions: tuple[tuple[int, int], ...] = tuple(off)
        names = [f"x{i + 1}{j + 1}" for (i, j) in off]
        names += [f"h{k + 1}" for k in range(n - 1)]
        self.coord_names: tuple[str, ...] = tuple(names)

    # -- the chart ----------------------------------------------------------------

    def chart(self, rows) -> tuple:
        """Coordinates of the matrix with these rows: its off-diagonal entries,
        then the partial sums of its diagonal (the last entry is never read)."""
        coords = [rows[i][j] for i, j in self.offdiag_positions]
        coords += itertools.accumulate([rows[k][k] for k in range(self.n - 1)])
        return tuple(coords)

    def chart_inverse(self, coords: Sequence, zero) -> list[list]:
        """Rows of the trace-free matrix with these coordinates."""
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        n = self.n
        rows = [[zero] * n for _ in range(n)]
        for (i, j), v in zip(self.offdiag_positions, coords):
            rows[i][j] = v
        h = [zero, *coords[len(self.offdiag_positions):], zero]
        for k in range(n):
            rows[k][k] = h[k + 1] - h[k]
        return rows

    def trace_dual(self, C) -> tuple:
        """Coordinates of the linear form y -> tr(C y) on sl_n, for C any n x n
        rows: C[j][i] at x_ij and C[k][k] - C[k+1][k+1] at h_k."""
        return tuple([C[j][i] for i, j in self.offdiag_positions]
                     + [C[k][k] - C[k + 1][k + 1] for k in range(self.n - 1)])

    def trace_dual_inverse(self, form: Sequence, zero) -> list[list]:
        """Rows of the unique trace-free G with tr(G y) = form . coords(y):
        G[j][i] is the x_ij entry, and the diagonal t solves t_k - t_(k+1) =
        g_k (the h_k entry) with sum t_k = 0, so t_1 = (1/n) sum_j (n - j) g_j."""
        n = self.n
        G = [[zero] * n for _ in range(n)]
        for (i, j), v in zip(self.offdiag_positions, form):
            G[j][i] = v
        gs = form[len(self.offdiag_positions):]
        t = zero
        for j in range(1, n):
            t = t + gs[j - 1] * Scalar(n - j)
        t = t * Scalar(Fraction(1, n))
        G[0][0] = t
        for k in range(1, n):
            t = t - gs[k - 1]
            G[k][k] = t
        return G

    def coords_of_matrix(self, m: ExactMatrix) -> tuple[Scalar, ...]:
        return self.chart(m.entries)

    def matrix_of_coords(self, coords: Sequence[Scalar]) -> ExactMatrix:
        return ExactMatrix(self.chart_inverse(coords, Scalar(0)))

    def element(self, entries) -> "GElement":
        m = entries if isinstance(entries, ExactMatrix) else ExactMatrix(entries)
        if m.rows != self.n or m.cols != self.n:
            raise PreconditionError(f"expected a {self.n}x{self.n} matrix")
        if not m.trace().is_zero():
            raise PreconditionError("matrix is not trace-free")
        return GElement(self, m)

    def element_from_coords(self, coords: Sequence) -> "GElement":
        return GElement(self, self.matrix_of_coords(coords))

    def zero(self) -> "GElement":
        return GElement(self, ExactMatrix.zeros(self.n, self.n))

    def basis(self) -> list["GElement"]:
        """Coordinate basis: E_ij for the off-diagonal chart, then the
        Cartan elements H_k = diag(..., 1, -1, ...)."""
        out = []
        for idx in range(self.dim):
            coords = [Scalar(0)] * self.dim
            coords[idx] = Scalar(1)
            out.append(self.element_from_coords(coords))
        return out

    def __repr__(self):
        return f"sl({self.n})"

    def __eq__(self, other):
        return isinstance(other, LieAlgebraA) and other.n == self.n

    def __hash__(self):
        return hash(("sl", self.n))


_CACHE: dict[int, LieAlgebraA] = {}


def sl(n: int) -> LieAlgebraA:
    if n not in _CACHE:
        _CACHE[n] = LieAlgebraA(n)
    return _CACHE[n]


class GElement:
    """A trace-free n x n matrix tied to its algebra."""

    __slots__ = ("algebra", "matrix", "_coords")

    def __init__(self, algebra: LieAlgebraA, matrix: ExactMatrix):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("GElement is immutable")

    @property
    def coords(self) -> tuple[Scalar, ...]:
        """The chart coordinates, computed on the first read and kept."""
        try:
            return self._coords
        except AttributeError:
            object.__setattr__(self, "_coords", self.algebra.coords_of_matrix(self.matrix))
            return self._coords

    def __add__(self, other: "GElement") -> "GElement":
        _same(self, other)
        return GElement(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "GElement") -> "GElement":
        _same(self, other)
        return GElement(self.algebra, self.matrix - other.matrix)

    def __neg__(self) -> "GElement":
        return GElement(self.algebra, -self.matrix)

    def scale(self, c: Scalar) -> "GElement":
        return GElement(self.algebra, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_nilpotent(self) -> bool:
        return self.matrix.matpow(self.algebra.n).is_zero()

    def is_diagonal(self) -> bool:
        m = self.matrix
        return all(
            m.entries[i][j].is_zero()
            for i in range(m.rows)
            for j in range(m.cols)
            if i != j
        )

    def __eq__(self, other):
        if not isinstance(other, GElement):
            return NotImplemented
        return self.algebra == other.algebra and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.algebra.n, self.matrix))

    def __str__(self):
        return str(self.matrix)

    def __repr__(self):
        flat = "; ".join(
            ", ".join(str(v) for v in row) for row in self.matrix.entries
        )
        return f"GElement[{flat}]"

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.algebra.n,
            "entries": [
                [str(v) for v in row] for row in self.matrix.entries
            ],
        }

    @staticmethod
    def from_json_dict(data) -> "GElement":
        """The element to_json_dict writes: any other JSON shape, a bool or a
        float n included, is a PreconditionError that names the shape."""
        n, entries = (data.get("n"), data.get("entries")) if isinstance(data, dict) else (None, None)
        if (type(n) is not int or not isinstance(entries, list) or len(entries) != n
                or any(not isinstance(r, list) or len(r) != n for r in entries)):
            raise PreconditionError('malformed element JSON: expected an object '
                                    '{"n": <integer>, "entries": <n rows of n number strings>}')
        mat = ExactMatrix([[scalar_from_str(v) for v in row] for row in entries])
        return sl(n).element(mat)


def _same(x: GElement, y: GElement):
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("elements live in different algebras")


# -- structure operations ----------------------------------------------------------


def bracket(x: GElement, y: GElement) -> GElement:
    _same(x, y)
    return GElement(x.algebra, x.matrix * y.matrix - y.matrix * x.matrix)


def ad_matrix(x: GElement) -> ExactMatrix:
    """Matrix of ad_x = [x, -] in the coordinate basis."""
    L = x.algebra
    cols = []
    for e in L.basis():
        cols.append(bracket(x, e).coords)
    return ExactMatrix.from_columns(cols)


def centralizer(x: GElement) -> list[GElement]:
    """Canonical basis of g_x = ker ad_x."""
    L = x.algebra
    ker = mat_kernel(ad_matrix(x))
    return [L.element_from_coords(v) for v in canonical_basis(ker)]


def is_regular(x: GElement) -> bool:
    """x is regular iff I, x, ..., x^{n-1} are linearly independent: the
    rank of the n x n^2 matrix of their flattened entries is n."""
    n = x.algebra.n
    powers = [ExactMatrix.identity(n), x.matrix]
    for _ in range(n - 2):
        powers.append(powers[-1] * x.matrix)
    return mat_rank(ExactMatrix([[v for row in p.entries for v in row] for p in powers])) == n


# -- shift representatives ------------------------------------------------------------


def semisimple_rep(L: LieAlgebraA, params: list[Scalar]) -> GElement:
    """The diagonal representative s: n - 1 entries (the last one is then
    minus their sum) or n entries summing to 0; by default diag(1, -1) on
    sl_2 and diag(1, ..., n - 1, -sum) otherwise."""
    n = L.n
    if not params:
        if n == 2:
            params = [Scalar(1)]
        else:
            params = [Scalar(k) for k in range(1, n)]
    if len(params) == n - 1:
        params = params + [-sum(params, Scalar(0))]
    if len(params) != n:
        raise PreconditionError(
            f"element s on sl_{n} takes {n - 1} or {n} parameters, got {len(params)}"
        )
    if sum(params, Scalar(0)) != Scalar(0):
        raise PreconditionError("diagonal parameters must sum to zero")
    return L.element(ExactMatrix.diagonal(params))


def nilpotent_rep(L: LieAlgebraA) -> GElement:
    """The regular nilpotent representative n = e_12 + e_23 + ... + e_(n-1)n."""
    n = L.n
    m = [[Scalar(1) if j == i + 1 else Scalar(0) for j in range(n)] for i in range(n)]
    return L.element(ExactMatrix(m))


def mixed_rep(L: LieAlgebraA, params: list[Scalar]) -> GElement:
    """The mixed representative r on sl_3: a Jordan block of eigenvalue rho
    (default 1, nonzero) and the eigenvalue -2 rho."""
    if L.n != 3:
        raise UnsupportedElementError("element r (mixed representative) is defined on sl_3")
    if len(params) > 1:
        raise PreconditionError(f"element r takes at most 1 parameter, got {len(params)}")
    rho = params[0] if params else Scalar(1)
    if rho == Scalar(0):
        raise PreconditionError("parameter rho must be nonzero")
    z = Scalar(0)
    m = [[rho, Scalar(1), z], [z, rho, z], [z, z, Scalar(-2) * rho]]
    return L.element(ExactMatrix(m))


# -- Weyl group ---------------------------------------------------------------------


def permute_diagonal(perm: tuple[int, ...], values: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Permute diagonal values by a Weyl element: slot perm[i] receives
    value i."""
    out = list(values)
    for i, p in enumerate(perm):
        out[p] = values[i]
    return tuple(out)


def weyl_group(n: int) -> list[tuple[int, ...]]:
    """All n! diagonal-slot permutations, in lexicographic order; a Weyl
    element is its permutation tuple, perm[i] = image of slot i."""
    return list(itertools.permutations(range(n)))


def weyl_stabilizer(x: GElement) -> list[tuple[int, ...]]:
    """Permutations fixing the diagonal of x (x must be diagonal)."""
    if not x.is_diagonal():
        raise PreconditionError("weyl_stabilizer needs a diagonal element")
    diag = tuple(x.matrix.entries[i][i] for i in range(x.algebra.n))
    return [w for w in weyl_group(x.algebra.n) if permute_diagonal(w, diag) == diag]
