"""Construction and evaluation of shifted invariant systems on sl_n.

For a regular shift element a, each invariant generator f_i (the trace power
of degree d_i = i + 1) expands along the line x + lambda a as

    f_i(x + lambda a) = sum_{j < d_i} f_ij(x) lambda^j + f_i(a) lambda^{d_i},

and the system F_a collects the f_i together with all proper coefficients
f_ij (j >= 1): rank + sum_{d=2..n} (d - 1) = b = (dim + rank) / 2 polynomials,
by arithmetic, so the count is not checked.  The component order everywhere
is f_1, ..., f_r, then f_ij for i ascending and j = 1..d_i - 1.

The assembled system is certified of full rank b at a witness point (so in
particular the generators f_i are functionally independent).  This module is
what mf build runs: construction, values, the Jacobian and the trace-form
gradients.  The fibre machinery built on them (Poisson brackets, fibre
membership, the line certificate, strong regularity, tangent spaces and the
section chart) lives in components.

Every lambda-expansion of trace powers uses the same pairing of two half
powers, <P, Q> = tr(P Q): tr(M^d) = <M^{floor(d/2)}, M^{ceil(d/2)}>, so the
power M^d itself is never formed and on n <= 4 only M^2 is.

Symbolically, trace_power_coefficients is the one builder of the
coefficients: build_system calls it on the generic matrix X + lambda a, and
components.levi_system on each Levi block.  Substituting x + lambda a into
tr(X^d) is its oracle, in tests/oracles.py.

Numerically, values, the Jacobian, the line certificate and tangent route
(3) at a point share one lambda-power chain (power_chain): the coefficient
matrices C_0, ..., C_k of M^k, M = x + lambda a, each power built from the
last by n x n products.  Since the gradient of tr(M^d) is d M^{d-1} up to a
scalar matrix, the Jacobian row of f_ij is the trace-form dual
(LieAlgebraA.trace_dual) of d C_j of M^{d-1}; symbolically, the trace-form
gradient of a component is the inverse dual of its partial derivatives.
The values stop the chain at M^{ceil(n/2)}; for d <= 3 they read
<C_j, x> + <C_{j-1}, a> off M^{d-1}.  The symbolic routes (substituting x
into the components, and differentiating them) are the oracles for values
and Jacobian, in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import (
    AlgebraMismatchError,
    CertificationError,
    PreconditionError,
    RegularityError,
)
from .lie import GElement, LieAlgebraA, is_regular
from .linalg import ExactMatrix, _dot, mat_rank, matrix_from_rows
from .mpoly import MPoly, generic_matrix, mpoly_mat_mul, mpoly_mat_pair
from .sampling import random_element, rng_for
from .scalar import Scalar

FibreValue = tuple[Scalar, ...]


# -- the symbolic builder ---------------------------------------------------------


def trace_power_coefficients(M: list[list[MPoly]], top: int) -> list[list[MPoly]]:
    """For d = 2..top, the lambda-coefficients [c_0, ..., c_{d-1}] of
    tr(M^d), for a polynomial matrix M over vars + ("lam",); the c_j are
    returned over vars.  As in mf_values, tr(M^d) pairs two half powers,
    sum_ij (M^floor(d/2))_ij (M^ceil(d/2))_ji, so the highest power formed is
    M^ceil(top/2).  The dropped lambda^d coefficient is a constant."""
    vars_ = M[0][0].vars
    zero = MPoly.zero(vars_)
    powers = [M]
    while len(powers) < (top + 1) // 2:
        powers.append(mpoly_mat_mul(powers[-1], M))
    out = []
    for d in range(2, top + 1):
        trace = mpoly_mat_pair(powers[d // 2 - 1], powers[(d + 1) // 2 - 1])
        buckets = trace.collect("lam")
        out.append([buckets.get(j, zero).project(vars_[:-1]) for j in range(d)])
    return out


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
        return self.jacobian_from_chain(power_chain(self.a, x, self.algebra.n - 1))

    def jacobian_from_chain(self, chain: list[list[ExactMatrix]]) -> ExactMatrix:
        """dF_a(x) read off the lambda-power chain of x + lambda a, up to the
        power n - 1.  Row (i, j) is d times the trace-form dual of C_j, with
        d = i + 1 and C_j the lambda^j coefficient of (x + lambda a)^{d-1}."""
        rows = []
        for i, j in self.labels:
            d = Scalar(i + 1)
            rows.append([d * v for v in self.algebra.trace_dual(chain[i - 1][j].entries)])
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
    ext = L.coord_names + ("lam",)
    lam = MPoly.var(ext, "lam")
    X = generic_matrix(L, ext)
    M = [[e + lam * c for e, c in zip(xrow, arow)] for xrow, arow in zip(X, a.matrix.entries)]
    per_gen = trace_power_coefficients(M, L.n)
    rank = len(per_gen)
    components: list[MPoly] = [per_gen[i][0] for i in range(rank)]
    labels: list[tuple[int, int]] = [(i + 1, 0) for i in range(rank)]
    for i in range(rank):
        for j in range(1, i + 2):
            components.append(per_gen[i][j])
            labels.append((i + 1, j))
    sys_ = ShiftSystem(a, components, labels, a)
    rng = rng_for(f"build-cert:{L.n}:" + ",".join(str(c) for c in a.coords), 0)
    for _ in range(40):
        x = random_element(L, rng)
        if mat_rank(sys_.jacobian_at(x)) == L.b:
            sys_.certificate_point = x
            return sys_
    raise CertificationError("no full-rank witness point found")


# -- the lambda-power chain: values and Jacobian ----------------------------------------


def power_chain(a: GElement, x: GElement, top: int) -> list[list[ExactMatrix]]:
    """Entry k - 1 holds the lambda-coefficients [C_0, ..., C_k] of
    (x + lambda a)^k, for k = 1..top; each power is the last one times
    x + lambda a.  As in _pair, each entry of C_j X + C_(j-1) A is one dot:
    row p of C_j laid end to end with row p of C_(j-1), against column q of
    X laid end to end with column q of A."""
    X, A = x.matrix, a.matrix
    cols = [cx + ca for cx, ca in zip(zip(*X.entries), zip(*A.entries))]
    chain = [[X, A]]
    while len(chain) < top:
        C = chain[-1]
        nxt = [C[0] * X]
        for P, Q in zip(C[1:], C):
            nxt.append(matrix_from_rows(tuple(tuple([_dot(p + q, col) for col in cols])
                                              for p, q in zip(P.entries, Q.entries)), X.cols))
        nxt.append(C[-1] * A)
        chain.append(nxt)
    return chain


def _pair(P: ExactMatrix, Q: ExactMatrix) -> Scalar:
    """tr(P Q), without forming P Q: one dot of P's rows laid end to end with
    Q's columns laid end to end, so one denominator and one reduction."""
    return _dot(chain.from_iterable(P.entries), chain.from_iterable(zip(*Q.entries)))


def mf_values(a: GElement, x: GElement) -> FibreValue:
    """All component values of F_a at x.  With P and Q the power chain's
    coefficients of (x + lambda a)^{floor(d/2)} and (x + lambda a)^{ceil(d/2)},
    the lambda^j coefficient of tr((x + lambda a)^d) is sum_s <P_s, Q_{j-s}>,
    so the chain stops at the power ceil(n/2).  Works for any a (regularity
    not needed to evaluate); order matches ShiftSystem.components."""
    if a.algebra != x.algebra:
        raise AlgebraMismatchError("mixed algebras")
    n = a.algebra.n
    chain = power_chain(a, x, (n + 1) // 2)
    heads: list[Scalar] = []
    tails: list[Scalar] = []
    for d in range(2, n + 1):
        P, Q = chain[d // 2 - 1], chain[(d + 1) // 2 - 1]
        coeffs = [Scalar(0)] * d
        for s, left in enumerate(P):
            for t, right in enumerate(Q):
                if s + t < d:
                    coeffs[s + t] = coeffs[s + t] + _pair(left, right)
        heads.append(coeffs[0])
        tails.extend(coeffs[1:])
    return tuple(heads + tails)


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
