"""Construction and evaluation of shifted invariant systems on sl_n.

For a regular shift element a, each invariant generator f_i (the trace power
of degree d_i = i + 1) expands along the line x + lambda a as

    f_i(x + lambda a) = sum_{j < d_i} f_ij(x) lambda^j + f_i(a) lambda^{d_i},

and the system F_a collects the f_i together with all proper coefficients
f_ij (j >= 1): rank + sum_{d=2..n} (d - 1) = b = (dim + rank) / 2 polynomials,
by arithmetic, so the count is not checked.  The component order everywhere
is component_labels: f_1, ..., f_r, then f_ij for i ascending and
j = 1..d_i - 1.

The assembled system is certified of full rank b at a witness point (so in
particular the generators f_i are functionally independent).  This module is
what mf build runs: construction, values, the Jacobian and the trace-form
gradients.  The fibre machinery built on them (Poisson brackets, fibre
membership, the line certificate, strong regularity, tangent spaces and the
section chart) lives in components.

The lambda-expansion is written once, over rows of entries from one ring and
that ring's dot product (linalg._dot for Scalar, mpoly.mpoly_dot for MPoly).
power_chain holds the coefficient rows C_0, ..., C_k of (X + lambda A)^k,
each power built from the last, and trace_coefficients pairs two half
powers, <P, Q> = tr(P Q): tr(M^d) = <M^{floor(d/2)}, M^{ceil(d/2)}>, so the
power M^d itself is never formed and on n <= 4 only M^2 is.  build_system
runs it on the generic matrix X and the constants of a, so the components
are its coefficients; components.levi_system runs it on each Levi block;
mf_values runs it on the entries of x and a.  Substituting x + lambda a into
tr(X^d) is its oracle, in tests/oracles.py.

At a point, the Jacobian, the line certificate and tangent route (3) share
one chain up to the power n - 1.  Since the gradient of tr(M^d) is d M^{d-1}
up to a scalar matrix, the Jacobian row of f_ij is the trace-form dual
(LieAlgebraA.trace_dual) of d C_j of M^{d-1}; symbolically, the trace-form
gradient of a component is the inverse dual of its partial derivatives.
The symbolic routes (substituting x into the components, and differentiating
them) are the oracles for values and Jacobian, in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

from .errors import (
    AlgebraMismatchError,
    CertificationError,
    PreconditionError,
    RegularityError,
)
from .lie import GElement, LieAlgebraA, is_regular
from .linalg import ExactMatrix, _dot, mat_rank
from .mpoly import MPoly, generic_matrix, mpoly_dot
from .sampling import random_element, rng_for
from .scalar import Scalar

FibreValue = tuple[Scalar, ...]


# -- the lambda-expansion, over either ring ------------------------------------------


def power_chain(X: Sequence[Sequence], A: Sequence[Sequence], top: int,
                dot: Callable) -> list[list[tuple]]:
    """Entry k - 1 holds the lambda-coefficients [C_0, ..., C_k] of
    (X + lambda A)^k, for k = 1..top, each as a tuple of rows; each power is
    the last one times X + lambda A.  Each entry of C_j X + C_(j-1) A is one
    dot: row p of C_j laid end to end with row p of C_(j-1), against column
    q of X laid end to end with column q of A."""
    def times(rows, cols):
        return tuple(tuple([dot(row, col) for col in cols]) for row in rows)

    X, A = tuple(map(tuple, X)), tuple(map(tuple, A))
    xcols, acols = list(zip(*X)), list(zip(*A))
    cols = [cx + ca for cx, ca in zip(xcols, acols)]
    powers = [[X, A]]
    while len(powers) < top:
        C = powers[-1]
        powers.append([times(C[0], xcols)]
                      + [times([p + q for p, q in zip(P, Q)], cols) for P, Q in zip(C[1:], C)]
                      + [times(C[-1], acols)])
    return powers


def trace_coefficients(X: Sequence[Sequence], A: Sequence[Sequence], top: int,
                       dot: Callable) -> list[list]:
    """For d = 2..top, the lambda-coefficients [c_0, ..., c_{d-1}] of
    tr((X + lambda A)^d); the dropped lambda^d coefficient is tr(A^d).  With
    P and Q the chain's coefficients of the half powers (X + lambda A)^floor(d/2)
    and (X + lambda A)^ceil(d/2), c_k = sum_{s + t = k} tr(P_s Q_t), taken as
    one dot: the rows of every P_s laid end to end, against the columns of
    the matching Q_t laid end to end.  So the chain stops at the power
    ceil(top/2)."""
    powers = power_chain(X, A, (top + 1) // 2, dot)
    out = []
    for d in range(2, top + 1):
        rows = [list(chain.from_iterable(P)) for P in powers[d // 2 - 1]]
        cols = [list(chain.from_iterable(zip(*Q))) for Q in powers[(d + 1) // 2 - 1]]
        left, right = [[] for _ in range(d)], [[] for _ in range(d)]
        for s, u in enumerate(rows):
            for t, v in enumerate(cols):
                if s + t < d:
                    left[s + t] += u
                    right[s + t] += v
        out.append([dot(u, v) for u, v in zip(left, right)])
    return out


def component_labels(n: int) -> list[tuple[int, int]]:
    """The label (i, j) of each component of F_a on sl_n, in order: the
    invariants f_i = (i, 0), then f_ij for i ascending and j = 1..i.  The
    component (i, j) is the lambda^j coefficient of tr((x + lambda a)^(i+1))."""
    return ([(i, 0) for i in range(1, n)]
            + [(i, j) for i in range(1, n) for j in range(1, i + 1)])


# Diagonal factors aligning raw expansion coefficients with the conventional
# printed normalization for n = 2, 3; every other n prints them as they are.
DISPLAY_SCALES = {
    2: (Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))),
    3: (Scalar(1), Scalar(1), Scalar(1), Scalar(1), Scalar(2)),
}


class ShiftSystem:
    """The system F_a = (f_1, ..., f_r, f_ij) for a regular shift element."""

    def __init__(self, a: GElement, components: list[MPoly], labels: list[tuple[int, int]],
                 certificate_point: GElement):
        self.algebra = a.algebra
        self.a = a
        self.components = components
        self.labels = labels
        self.degrees = [i + 1 for i in range(1, self.algebra.n)]
        self.b = self.algebra.b
        self.certificate_point = certificate_point
        self.display_scale = DISPLAY_SCALES.get(self.algebra.n, (Scalar(1),) * self.b)
        self._gradients: list[list[list[MPoly]]] | None = None

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, x: GElement) -> FibreValue:
        """Value vector of all components at x, via the lambda-power chain
        (no symbolic substitution)."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("point from a different algebra")
        return mf_values(self.a, x)

    def evaluate_scaled(self, x: GElement) -> FibreValue:
        return tuple(s * v for s, v in zip(self.display_scale, self.evaluate(x)))

    def scaled_components(self) -> list[MPoly]:
        """The components at their display scale; one at scale 1 is returned
        as it is."""
        return [c if s == 1 else c * s for s, c in zip(self.display_scale, self.components)]

    # -- derivatives -------------------------------------------------------------------

    def jacobian_at(self, x: GElement) -> ExactMatrix:
        """dF_a(x) in the coordinate chart."""
        return self.jacobian_from_chain(
            power_chain(x.matrix.entries, self.a.matrix.entries, self.algebra.n - 1, _dot))

    def jacobian_from_chain(self, chain: list[list[tuple]]) -> ExactMatrix:
        """dF_a(x) read off the lambda-power chain of x + lambda a, up to the
        power n - 1.  Row (i, j) is d times the trace-form dual of C_j, with
        d = i + 1 and C_j the lambda^j coefficient of (x + lambda a)^{d-1}."""
        rows = []
        for i, j in self.labels:
            d = Scalar(i + 1)
            rows.append([d * v for v in self.algebra.trace_dual(chain[i - 1][j])])
        return ExactMatrix(rows)

    def component_gradients(self) -> list[list[list[MPoly]]]:
        """Trace-form gradient matrices of every component."""
        if self._gradients is None:
            self._gradients = [gradient_matrix(self.algebra, c) for c in self.components]
        return self._gradients

    def __repr__(self):
        return f"ShiftSystem(sl({self.algebra.n}), b={self.b})"


def build_system(a: GElement) -> ShiftSystem:
    """Assemble F_a for a regular shift element, with a full-rank certificate
    (which also certifies the generators f_i functionally independent)."""
    L = a.algebra
    if not is_regular(a):
        raise RegularityError("shift element must be regular")
    vt = L.coord_names
    A = [[MPoly.const(vt, c) for c in row] for row in a.matrix.entries]
    coeffs = trace_coefficients(generic_matrix(L), A, L.n, mpoly_dot)
    labels = component_labels(L.n)
    sys_ = ShiftSystem(a, [coeffs[i - 1][j] for i, j in labels], labels, a)
    rng = rng_for(f"build-cert:{L.n}:" + ",".join(str(c) for c in a.coords), 0)
    for _ in range(40):
        x = random_element(L, rng)
        if mat_rank(sys_.jacobian_at(x)) == L.b:
            sys_.certificate_point = x
            return sys_
    raise CertificationError("no full-rank witness point found")


# -- values -------------------------------------------------------------------------------


def mf_values(a: GElement, x: GElement) -> FibreValue:
    """All component values of F_a at x, the trace coefficients of
    x + lambda a in component order.  Works for any a (regularity not needed
    to evaluate)."""
    if a.algebra != x.algebra:
        raise AlgebraMismatchError("mixed algebras")
    n = a.algebra.n
    coeffs = trace_coefficients(x.matrix.entries, a.matrix.entries, n, _dot)
    return tuple(coeffs[i - 1][j] for i, j in component_labels(n))


def invariant_values_along(a: GElement, x: GElement, lam: Scalar) -> tuple[Scalar, ...]:
    """(f_1, ..., f_r) evaluated at x + lam a."""
    shifted = x + a.scale(lam)
    vals = []
    P = shifted.matrix
    for d in range(2, a.algebra.n + 1):
        P = P * shifted.matrix
        vals.append(P.trace())
    return tuple(vals)


# -- trace-form gradients ----------------------------------------------------------------


def gradient_matrix(L: LieAlgebraA, f: MPoly) -> list[list[MPoly]]:
    """Trace-form gradient of f as an n x n polynomial matrix: the unique
    trace-free G(x) with df_x(y) = tr(G(x) y), the inverse trace-form dual of
    the partial derivatives."""
    if f.vars != L.coord_names:
        raise PreconditionError("polynomial is not over the algebra coordinates")
    return L.trace_dual_inverse([f.diff(v) for v in L.coord_names], MPoly.zero(L.coord_names))
