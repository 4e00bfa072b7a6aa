"""Construction and analysis of shifted invariant systems on sl_n.

For a regular shift element a, each invariant generator f_i (the trace power
of degree d_i = i + 1) expands along the line x + lambda a as

    f_i(x + lambda a) = sum_{j < d_i} f_ij(x) lambda^j + f_i(a) lambda^{d_i},

and the system F_a collects the f_i together with all proper coefficients
f_ij (j >= 1), giving b = (dim + rank) / 2 polynomials.  The component order
everywhere is f_1, ..., f_r, then f_ij for i ascending and j = 1..d_i - 1.

All constructions come with exact certificates: the assembled system is
certified of full rank b at a witness point (so in particular the generators
f_i are functionally independent), and strong regularity of a point is
certified both by the Jacobian rank criterion and by a Krylov determinant
certificate for regularity of the whole line x + C a.

Every lambda-expansion of trace powers uses the same pairing of two half
powers, <P, Q> = tr(P Q): tr(M^d) = <M^{floor(d/2)}, M^{ceil(d/2)}>, so the
power M^d itself is never formed and on n <= 4 only M^2 is.

Symbolically, trace_power_coefficients is the one builder of the
coefficients: build_system calls it on the generic matrix X + lambda a, and
components.levi_system on each Levi block.  Substituting x + lambda a into
tr(X^d) is its oracle, in tests/oracles.py.

Numerically, values, the Jacobian and tangent route (3) at a point share one
lambda-power chain: the coefficient matrices C_0, ..., C_k of M^k,
M = x + lambda a, each power built from the last by n x n products.  Since
the gradient of tr(M^d) is d M^{d-1} up to a scalar matrix, the Jacobian row
of f_ij is d C_j of M^{d-1} paired with the coordinate basis, and route (3)
spans the [a, C_j].  The values stop the chain at M^{ceil(n/2)}; for d <= 3
they read <C_j, x> + <C_{j-1}, a> off M^{d-1}.  The symbolic routes
(substituting x into the components, and differentiating them) are the
oracles for values and Jacobian, in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import (
    AlgebraMismatchError,
    CertificationError,
    PreconditionError,
    RegularityError,
)
from .lie import GElement, LieAlgebraA, bracket, is_regular
from .linalg import ExactMatrix, Vector, _dot, canonical_basis, mat_rank
from .mpoly import MPoly, mpoly_det, mpoly_mat_mul, mpoly_mat_trace
from .sampling import random_element, rng_for
from .scalar import Scalar
from . import unipoly as up

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
        P, Q = powers[d // 2 - 1], powers[(d + 1) // 2 - 1]
        trace = zero
        for i, row in enumerate(P):
            for j, p in enumerate(row):
                if p and Q[j][i]:
                    trace = trace + p * Q[j][i]
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
        return [c * s for s, c in zip(self.display_scale, self.components)]

    # -- derivatives -------------------------------------------------------------------

    def jacobian_at(self, x: GElement) -> ExactMatrix:
        """dF_a(x) in the coordinate chart."""
        return self._jacobian_from_chain(_power_chain(self.a, x, self.algebra.n - 1))

    def _jacobian_from_chain(self, chain: list[list[ExactMatrix]]) -> ExactMatrix:
        """dF_a(x) read off the lambda-power chain of x + lambda a, up to the
        power n - 1.  Row (i, j) is d C_j, with d = i + 1 and C_j the lambda^j
        coefficient of (x + lambda a)^{d-1}, read at x_pq as C_j[q][p] and at
        h_k as C_j[k][k] - C_j[k+1][k+1]."""
        L = self.algebra
        rows = []
        for i, j in self.labels:
            C = chain[i - 1][j].entries
            d = Scalar(i + 1)
            row = [C[q][p] for (p, q) in L.offdiag_positions]
            row += [C[k][k] - C[k + 1][k + 1] for k in range(L.n - 1)]
            rows.append([d * v for v in row])
        return ExactMatrix(rows)

    def component_gradients(self) -> list[list[list[MPoly]]]:
        """Trace-form gradient matrices of every component."""
        if self._gradients is None:
            self._gradients = [gradient_matrix(self.algebra, c) for c in self.components]
        return self._gradients

    def __repr__(self):
        return f"ShiftSystem(sl({self.algebra.n}), b={self.b})"


def build_system(a: GElement, certify: bool = True) -> ShiftSystem:
    """Assemble F_a for a regular shift element, with a full-rank certificate
    (which also certifies the generators f_i functionally independent)."""
    L = a.algebra
    if not is_regular(a):
        raise RegularityError("shift element must be regular")
    ext = L.coord_names + ("lam",)
    lam = MPoly.var(ext, "lam")
    X = L.generic_matrix(ext)
    M = [[e + lam * c for e, c in zip(xrow, arow)] for xrow, arow in zip(X, a.matrix.entries)]
    per_gen = trace_power_coefficients(M, L.n)
    rank = len(per_gen)
    components: list[MPoly] = [per_gen[i][0] for i in range(rank)]
    labels: list[tuple[int, int]] = [(i + 1, 0) for i in range(rank)]
    for i in range(rank):
        for j in range(1, i + 2):
            components.append(per_gen[i][j])
            labels.append((i + 1, j))
    if len(components) != L.b:
        raise CertificationError("component count is not b")
    sys_ = ShiftSystem(a, components, labels, a)
    if certify:
        rng = rng_for(f"build-cert:{L.n}:" + ",".join(str(c) for c in a.coords), 0)
        point = None
        for _ in range(40):
            x = random_element(L, rng)
            if mat_rank(sys_.jacobian_at(x)) == L.b:
                point = x
                break
        if point is None:
            raise CertificationError("no full-rank witness point found")
        sys_.certificate_point = point
    return sys_


# -- the lambda-power chain: values and Jacobian ----------------------------------------


def _power_chain(a: GElement, x: GElement, top: int) -> list[list[ExactMatrix]]:
    """Entry k - 1 holds the lambda-coefficients [C_0, ..., C_k] of
    (x + lambda a)^k, for k = 1..top; each power is the last one times
    x + lambda a."""
    X, A = x.matrix, a.matrix
    chain = [[X, A]]
    while len(chain) < top:
        C = chain[-1]
        nxt = [C[0] * X]
        nxt.extend(C[j] * X + C[j - 1] * A for j in range(1, len(C)))
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
    chain = _power_chain(a, x, (n + 1) // 2)
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


# -- Poisson structure ------------------------------------------------------------------


def gradient_matrix(L: LieAlgebraA, f: MPoly) -> list[list[MPoly]]:
    """Trace-form gradient of f as an n x n polynomial matrix: the unique
    trace-free G(x) with df_x(y) = tr(G(x) y).

    Off-diagonal: G[j][i] = df/dx_ij.  Diagonal: solved from the Cartan
    directional derivatives g_k = df/dh_k via t_k - t_{k+1} = g_k and
    sum t_k = 0.
    """
    if f.vars != L.coord_names:
        raise PreconditionError("polynomial is not over the algebra coordinates")
    n = L.n
    zero = MPoly.zero(L.coord_names)
    G = [[zero for _ in range(n)] for _ in range(n)]
    for idx, (i, j) in enumerate(L.offdiag_positions):
        G[j][i] = f.diff(L.coord_names[idx])
    gs = [f.diff(f"h{k + 1}") for k in range(n - 1)]
    # t_1 = (1/n) sum (n - j) g_j, then t_{k+1} = t_k - g_k
    t = MPoly.zero(L.coord_names)
    for j in range(1, n):
        t = t + gs[j - 1] * Scalar(n - j)
    from fractions import Fraction

    t = t * Scalar(Fraction(1, n))
    G[0][0] = t
    for k in range(1, n):
        t = t - gs[k - 1]
        G[k][k] = t
    return G


def gradient_at(L: LieAlgebraA, grad: list[list[MPoly]], x: GElement) -> GElement:
    point = dict(zip(L.coord_names, x.coords))
    return L.element(
        ExactMatrix([[e.eval(point) for e in row] for row in grad])
    )


def poisson_bracket_grads(L: LieAlgebraA, Gf, Gg) -> MPoly:
    """{f, g}(x) = <x, [Gf(x), Gg(x)]> as a polynomial, from the gradient
    matrices of f and g."""
    C = _mat_sub(mpoly_mat_mul(Gf, Gg), mpoly_mat_mul(Gg, Gf))
    X = L.generic_matrix()
    return mpoly_mat_trace(mpoly_mat_mul(X, C))


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# -- alternative generators ----------------------------------------------------------------


def alt_generators(sys_: ShiftSystem, lambda_table: Sequence[Sequence[Scalar]] | None = None) -> list[list[MPoly]]:
    """g_ij(x) = f_i(x + lambda_j a) - f_i(lambda_j a) for a table of
    pairwise-distinct lambdas per row; row i spans the same space as
    (f_i, f_i1, ..., f_i,d-1) by Vandermonde inversion."""
    L = sys_.algebra
    if lambda_table is None:
        lambda_table = [[Scalar(j) for j in range(i + 2)] for i in range(L.n - 1)]
    if len(lambda_table) != L.n - 1:
        raise PreconditionError("need one lambda row per generator")
    out: list[list[MPoly]] = []
    acoords = sys_.a.coords
    for i, f in enumerate(sys_.components[:L.rank]):
        d = i + 2
        lams = lambda_table[i]
        if len(lams) != d:
            raise PreconditionError(f"row {i + 1} must have {d} lambdas")
        if len(set(lams)) != d:
            raise PreconditionError(f"row {i + 1} lambdas are not pairwise distinct")
        fa = f.eval(acoords)
        row = []
        for lam in lams:
            mapping = {
                name: MPoly.var(L.coord_names, name)
                + MPoly.const(L.coord_names, lam * acoords[k])
                for k, name in enumerate(L.coord_names)
            }
            g = f.subs(L.coord_names, mapping) - MPoly.const(L.coord_names, fa * lam**d)
            row.append(g)
        out.append(row)
    return out


# -- fibres and strong regularity ---------------------------------------------------------------


def fibre_membership(sys_: ShiftSystem, x: GElement, y: GElement) -> bool:
    """Do x and y take the same value under every component of F_a?"""
    return sys_.evaluate(x) == sys_.evaluate(y)


def fibre_membership_finite_lambda(sys_: ShiftSystem, x: GElement, y: GElement) -> bool:
    """Membership via invariant values at finitely many shifts: per
    generator f_i, compare f_i(x + lambda a) and f_i(y + lambda a) at
    lambda = 0 and the first d_i - 1 of the rationals 1, 2, ... at which
    x + lambda a is regular.  Each shift is searched for and evaluated once,
    for all the generators compared there."""
    L = sys_.algebra
    a = sys_.a
    for k, lam in zip(range(L.n), _regular_shifts(x, a)):
        vx = invariant_values_along(a, x, lam)
        vy = invariant_values_along(a, y, lam)
        # f_i, of degree i + 2, is compared at the first i + 2 shifts
        low = max(k - 1, 0)
        if vx[low:] != vy[low:]:
            return False
    return True


def _regular_shifts(x: GElement, a: GElement):
    """lambda = 0, then the rationals 1, 2, ... at which x + lambda a is
    regular."""
    yield Scalar(0)
    for cand in range(1, 201):
        lam = Scalar(cand)
        if is_regular(x + a.scale(lam)):
            yield lam
    raise RuntimeError("could not find regular shift values")


def krylov_line_regular(x: GElement, a: GElement) -> bool:
    """Exact certificate that the whole line x + C a lies in the regular
    locus.

    K_v(lambda) = det[v | Mv | ... | M^{n-1}v] with M = x + lambda a and v a
    symbolic vector; x + lambda0 a is regular iff K_v(lambda0) is nonzero
    for some v.  Hence the line is regular everywhere iff the gcd of the
    v-monomial coefficient polynomials c_mu(lambda) is a nonzero constant.
    """
    if x.algebra != a.algebra:
        raise AlgebraMismatchError("mixed algebras")
    n = x.algebra.n
    vars_ = ("lam",) + tuple(f"v{k + 1}" for k in range(n))
    lam = MPoly.var(vars_, "lam")
    M = [
        [
            MPoly.const(vars_, x.matrix.entries[i][j])
            + lam * MPoly.const(vars_, a.matrix.entries[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    v = [[MPoly.var(vars_, f"v{k + 1}")] for k in range(n)]
    cols = [v]
    for _ in range(n - 1):
        cols.append(mpoly_mat_mul(M, cols[-1]))
    K = mpoly_det([[cols[c][r][0] for c in range(n)] for r in range(n)])
    groups: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for e, cval in K.terms.items():
        lam_exp = e[0]
        v_exp = e[1:]
        groups.setdefault(v_exp, {})[lam_exp] = cval
    if not groups:
        return False
    g: up.Poly = ()
    for coeffs in groups.values():
        top = max(coeffs)
        poly = up.uni([coeffs.get(k, Scalar(0)) for k in range(top + 1)])
        g = up.uni_gcd(g, poly)
        if up.uni_deg(g) == 0:
            return True
    return (not up.uni_is_zero(g)) and up.uni_deg(g) == 0


def is_strongly_regular(sys_: ShiftSystem, x: GElement, certify: bool = False) -> bool:
    """Strong regularity of x for F_a: the b differentials are independent
    at x, tested as rank dF_a(x) = b.

    With certify=True the Krylov line certificate is computed as well and
    must agree (the two criteria are equivalent for regular a), and
    regularity of x + lambda a is spot-checked at 2b + 1 rational lambdas.
    """
    if x.algebra != sys_.algebra:
        raise AlgebraMismatchError("point from a different algebra")
    primary = mat_rank(sys_.jacobian_at(x)) == sys_.b
    if certify:
        cert = krylov_line_regular(x, sys_.a)
        if cert != primary:
            raise CertificationError(
                "Jacobian rank and Krylov line certificate disagree"
            )
        if primary:
            for k in range(2 * sys_.b + 1):
                if not is_regular(x + sys_.a.scale(Scalar(k))):
                    raise CertificationError(
                        "sampled point on a certified-regular line is singular"
                    )
    return primary


def tangent_space(sys_: ShiftSystem, x: GElement) -> list[GElement]:
    """Canonical basis of the tangent space at a strongly regular point,
    computed three equivalent ways and cross-checked exactly:

      (1) span [x, grad f_ij(x)] over the shifted components (j >= 1),
      (2) the same span including the invariants (their gradients
          centralize x, contributing nothing),
      (3) span of the lambda-coefficients of [a, grad f_i(x + lambda a)].
          The gradient of tr(y^d) is d y^{d-1} up to a scalar matrix, which
          [a, .] kills, so these are [a, C] over the coefficients C of the
          lambda-power chain of (x + lambda a)^k, k < n.
    """
    L = sys_.algebra
    if x.algebra != L:
        raise AlgebraMismatchError("point from a different algebra")
    # one power chain serves the strong-regularity test and route (3)
    chain = _power_chain(sys_.a, x, L.n - 1)
    if mat_rank(sys_._jacobian_from_chain(chain)) != sys_.b:
        raise RegularityError("tangent_space needs a strongly regular point")
    grads = sys_.component_gradients()
    vec_shift: list[Vector] = []
    vec_all: list[Vector] = []
    for grad, (i, j) in zip(grads, sys_.labels):
        gval = gradient_at(L, grad, x)
        br = bracket(x, gval)
        if j == 0:
            if not br.is_zero():
                raise CertificationError("invariant gradient fails to centralize")
        else:
            vec_shift.append(br.coords)
        vec_all.append(br.coords)
    T1 = canonical_basis(vec_shift)
    T2 = canonical_basis(vec_all)
    if T1 != T2:
        raise CertificationError("tangent space routes (1) and (2) disagree")
    A = sys_.a.matrix
    T3 = canonical_basis([
        L.coords_of_matrix(A * C - C * A)
        for coeffs in chain
        for C in coeffs
    ])
    if T3 != T1:
        raise CertificationError("tangent space route (3) disagrees")
    return [L.element_from_coords(v) for v in T1]


# -- the Tarasov section -----------------------------------------------------------------------


def section_chart(L: LieAlgebraA) -> tuple[Vector, list[Vector]]:
    """The Tarasov section xi + b in coordinates: xi has ones exactly on the
    subdiagonal, and the directions are the unit vectors of the upper and
    Cartan coordinates, in chart order."""
    xi = [Scalar(0)] * L.dim
    slots: list[int] = []
    for idx, (i, j) in enumerate(L.offdiag_positions):
        if i == j + 1:
            xi[idx] = Scalar(1)
        elif i < j:
            slots.append(idx)
    slots.extend(range(len(L.offdiag_positions), L.dim))
    dirs = [tuple(Scalar(int(c == k)) for c in range(L.dim)) for k in slots]
    return tuple(xi), dirs
