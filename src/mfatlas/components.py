"""The fibres of F_a: Poisson structure, membership, strong regularity,
tangent spaces, and certified affine components.

The fibre machinery reads the system that mfsystem builds:

  - poisson_brackets and alt_generators, the symbolic checks on F_a,
  - fibre_membership (all component values) and its finite-lambda route,
  - is_strongly_regular, which reads both the Jacobian rank and a
    certificate that the whole line x + C a is regular off one lambda-power
    chain of mfsystem.power_chain, and requires them to agree; the line
    certificate row-reduces I, M, ..., M^{n-1} over Q(i)[lambda] with
    unipoly, and its oracles, in tests/oracles.py, are the symbolic-vector
    Krylov determinant (in sympy) and regularity spot checks along the line,
  - tangent_space, which decides strong regularity the same way off the
    same chain and then computes the tangent space two ways and cross-checks
    them, with the invariant gradients tested to centralize the point, and
    section_chart, the Tarasov section in coordinates,
  - levi_system, the shifted system of each Levi factor: the same
    lambda-expansion as F_a (mfsystem.trace_coefficients) on each block.

An AffineComponent is an affine subspace base + span(dirs) on which every
component of F_a is certified constant by exact substitution (the
parametrized restriction must be free of the direction variables).  The
constructors below produce the families the structure theorems describe:

  - borel_component: x + u for x in a Borel containing a (with a base span,
    certified for every x of that span at once),
  - weyl_components: w.x_h + u over the Weyl orbit, for nilpotent a,
  - parabolic_lift: Y + u_p for a certified Levi-fibre family Y.

The checks that certify results on the fibres (the singular family x + u^a,
the image of b^a, critical values, exotic witnesses) live in verify and
build these components where they need them.  The recursive component count
of the zero fibre, which needs only the atlas, lives in count.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import (
    AlgebraMismatchError,
    CertificationError,
    MembershipError,
    NotNilpotentError,
    PreconditionError,
    RegularityError,
)
from .flags import (
    BorelAtlas,
    FlagParabolic,
    elements_span,
    enumerate_atlas,
    member_label,
)
from .lie import GElement, LieAlgebraA, bracket, is_regular, permute_diagonal, weyl_group
from .linalg import ExactMatrix, Vector, _dot, canonical_basis, mat_rank, matrix_from_rows, solve
from .mfsystem import (
    FibreValue,
    ShiftSystem,
    invariant_values_along,
    power_chain,
    trace_coefficients,
)
from .mpoly import MPoly, generic_matrix, mpoly_dot, mpoly_mat_mul, mpoly_mat_pair, restrict_to_chart
from .scalar import Scalar
from . import unipoly as up


# -- Poisson structure ------------------------------------------------------------------


def gradient_at(L: LieAlgebraA, grad: list[list[MPoly]], x: GElement) -> GElement:
    point = dict(zip(L.coord_names, x.coords))
    return L.element(
        ExactMatrix([[e.eval(point) for e in row] for row in grad])
    )


def poisson_brackets(L: LieAlgebraA, grads: Sequence[list[list[MPoly]]]) -> Iterator[MPoly]:
    """{f, g} for every pair f before g of the gradient matrices, in
    itertools.combinations order.  {f, g}(x) = <x, [Gf, Gg]> = tr([X, Gf] Gg)
    for the generic matrix X, so each f forms one commutator [X, Gf] and each
    pair is one trace pairing."""
    X = generic_matrix(L)
    for k, Gf in enumerate(grads[:-1]):
        C = [[p - q for p, q in zip(rp, rq)]
             for rp, rq in zip(mpoly_mat_mul(X, Gf), mpoly_mat_mul(Gf, X))]
        for Gg in grads[k + 1:]:
            yield mpoly_mat_pair(C, Gg)


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


def _line_regular(chain: list[list[tuple]]) -> bool:
    """M = x + lambda a is regular at lambda_0 iff I, M, ..., M^{n-1} are
    independent there (the test lie.is_regular makes).  The n^2 x n matrix
    of their entries, over Q(i)[lambda], has full rank at every lambda_0 in C
    iff the gcd of its maximal minors is a nonzero constant, that is iff its
    Euclidean row reduction leaves only nonzero constant pivots (a
    nonconstant pivot has a root in C)."""
    n = len(chain[0][0])
    rows = [
        [up.uni([Scalar(int(p == q))])]
        + [up.uni([C[p][q] for C in coeffs]) for coeffs in chain]
        for p in range(n)
        for q in range(n)
    ]
    return all(up.uni_deg(piv) == 0 for piv in up.uni_echelon_pivots(rows))


def _strong_regularity(sys_: ShiftSystem, x: GElement) -> tuple[bool, list[list[tuple]]]:
    """Whether rank dF_a(x) = b, with the lambda-power chain of x + lambda a
    (up to the power n - 1) it was read off.  The line certificate is read
    off the same chain and must agree with the rank; a disagreement raises
    CertificationError."""
    if x.algebra != sys_.algebra:
        raise AlgebraMismatchError("point from a different algebra")
    chain = power_chain(x.matrix.entries, sys_.a.matrix.entries, sys_.algebra.n - 1, _dot)
    full_rank = mat_rank(sys_.jacobian_from_chain(chain)) == sys_.b
    if full_rank != _line_regular(chain):
        raise CertificationError("Jacobian rank and Krylov line certificate disagree")
    return full_rank, chain


def is_strongly_regular(sys_: ShiftSystem, x: GElement) -> bool:
    """Strong regularity of x for F_a: the b differentials are independent
    at x, tested as rank dF_a(x) = b.

    For regular a this holds exactly when the whole line x + C a is regular
    (Bolsinov's criterion), so the line certificate is read off the same
    lambda-power chain as the Jacobian and must agree with its rank; a
    disagreement raises CertificationError.  The symbolic-vector Krylov
    determinant and regularity spot checks along the line are its oracles,
    in tests/oracles.py.
    """
    return _strong_regularity(sys_, x)[0]


def tangent_space(sys_: ShiftSystem, x: GElement) -> list[GElement]:
    """Canonical basis of the tangent space at a strongly regular point,
    computed two equivalent ways and cross-checked exactly:

      (1) span [x, grad f_ij(x)] over the shifted components (j >= 1),
      (3) span of the lambda-coefficients of [a, grad f_i(x + lambda a)].
          The gradient of tr(y^d) is d y^{d-1} up to a scalar matrix, which
          [a, .] kills, so these are [a, C] over the coefficients C of the
          lambda-power chain of (x + lambda a)^k, k < n.

    Strong regularity is decided as is_strongly_regular decides it, off the
    chain route (3) reads: a point that is not strongly regular raises
    RegularityError, and a line certificate that disagrees with the Jacobian
    rank raises CertificationError.  The invariants' gradients are tested
    to centralize x ([x, grad f_i0(x)] = 0), so the span over every
    component, invariants included, is route (1) itself and is not taken
    again.
    """
    L = sys_.algebra
    strongly_regular, chain = _strong_regularity(sys_, x)
    if not strongly_regular:
        raise RegularityError("tangent_space needs a strongly regular point")
    brackets = [(j, bracket(x, gradient_at(L, grad, x)))
                for grad, (_, j) in zip(sys_.component_gradients(), sys_.labels)]
    if any(not br.is_zero() for j, br in brackets if j == 0):
        raise CertificationError("invariant gradient fails to centralize")
    T1 = canonical_basis([br.coords for j, br in brackets if j])
    A = sys_.a.matrix
    T3 = canonical_basis([
        L.coords_of_matrix(A * C - C * A)
        for coeffs in chain
        for C in (matrix_from_rows(rows, L.n) for rows in coeffs)
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


# -- affine families -------------------------------------------------------------


class AffineComponent(NamedTuple):
    """Affine family base + span(dirs) with a certified constant value."""

    base: GElement
    dirs: list[GElement]
    value: FibreValue
    label: str = ""

    @property
    def dim(self) -> int:
        return len(elements_span(self.dirs))


def certify_affine_constant(sys_: ShiftSystem, base: GElement, dirs: list[GElement],
                            over: list[GElement] = ()) -> FibreValue:
    """Substitute base + sum s_k over_k + sum t_k dirs_k into every component;
    all direction variables t must cancel exactly, for every s, so the family
    y + span(dirs) lies in one fibre for each y in base + span(over).
    Returns the certified value vector at base."""
    svars = tuple(f"s{k + 1}" for k in range(len(over)))
    tvars = tuple(f"t{k + 1}" for k in range(len(dirs)))
    values = []
    for restricted in restrict_to_chart(sys_.components, svars + tvars, base.coords,
                                        [e.coords for e in (*over, *dirs)]):
        if any(any(e[len(svars):]) for e in restricted.terms):
            raise CertificationError(
                "family is not contained in a single fibre: "
                f"residual polynomial {restricted}"
            )
        values.append(restricted.constant_term())
    value = tuple(values)
    if value != sys_.evaluate(base):
        raise CertificationError("certified value disagrees with base evaluation")
    return value


def borel_component(sys_: ShiftSystem, x: GElement, borel: FlagParabolic,
                    over: list[GElement] = ()) -> AffineComponent:
    """The component x + u of the fibre through x inside a Borel containing
    both a and x; with over, certified at once for every base point of
    x + span(over), which must lie in the Borel too."""
    if not borel.is_borel():
        raise PreconditionError("member is not a Borel")
    if not borel.contains(sys_.a):
        raise MembershipError("shift element is not in the Borel")
    if not borel.contains(x):
        raise MembershipError("point is not in the Borel")
    if not all(borel.contains(e) for e in over):
        raise MembershipError("base span is not in the Borel")
    value = certify_affine_constant(sys_, x, borel.u_basis, over)
    comp = AffineComponent(base=x, dirs=list(borel.u_basis), value=value,
                           label=f"{member_label(borel)}+u")
    if comp.dim != sys_.b - sys_.algebra.rank:
        raise CertificationError("Borel component has wrong dimension")
    return comp


def weyl_components(sys_: ShiftSystem, x: GElement, atlas: BorelAtlas | None = None) -> list[AffineComponent]:
    """For nilpotent a: the components {w.x_h + u} of the fibre through x
    in the unique Borel containing a, certified to share the value F_a(x)."""
    a = sys_.a
    if not a.is_nilpotent():
        raise NotNilpotentError("weyl_components needs a nilpotent shift element")
    if atlas is None:
        atlas = enumerate_atlas(a)
    if len(atlas.borels) != 1:
        raise CertificationError("nilpotent regular element with several Borels")
    B = atlas.borels[0]
    if not B.contains(x):
        raise MembershipError("point is not in the Borel containing a")
    L = sys_.algebra
    Xp = B.U_inv * x.matrix * B.U
    diag = [Xp.entries[i][i] for i in range(L.n)]
    target = sys_.evaluate(x)
    out: list[AffineComponent] = []
    seen = set()
    for w in weyl_group(L.n):
        perm_diag = permute_diagonal(w, diag)
        if perm_diag in seen:
            continue
        seen.add(perm_diag)
        base = L.element(B.U * ExactMatrix.diagonal(perm_diag) * B.U_inv)
        value = certify_affine_constant(sys_, base, B.u_basis)
        if value != target:
            raise CertificationError("Weyl translate left the fibre")
        out.append(
            AffineComponent(base=base, dirs=list(B.u_basis), value=value,
                            label=f"weyl:{w}")
        )
    return out


# -- Levi systems and parabolic lifts ------------------------------------------------


def levi_system(p: FlagParabolic, a: GElement) -> tuple[tuple[str, ...], list[MPoly]]:
    """The fibre-defining polynomials of the shifted system of the Levi of p,
    in coordinates s_1..s_dim(l) on the Levi.

    Centre coordinates (block traces) pin the central part; each simple
    factor sl_k contributes the lambda-expansion coefficients of its trace
    powers shifted by the corresponding block of a.  Two Levi points are in
    the same fibre of the Levi system iff all these polynomials agree.
    """
    L = p.algebra
    if not p.contains(a):
        raise MembershipError("shift element is not in the parabolic")
    pattern = p.block_pattern(upper=False, include_diag_blocks=True)
    svars = tuple(f"s{k + 1}" for k in range(len(pattern)))
    n = L.n
    zero = MPoly.zero(svars)
    # the generic Levi element sum_m s_m l_m written in the adapted basis,
    # where U^-1 l_m U is E_ij, or H_i = E_ii - E_(i+1)(i+1) when i == j
    E = [[zero] * n for _ in range(n)]
    for s, (i, j) in zip(svars, pattern):
        E[i][j] = E[i][j] + MPoly.var(svars, s)
        if i == j:
            E[i + 1][i + 1] = E[i + 1][i + 1] - MPoly.var(svars, s)
    Ap = p.U_inv * a.matrix * p.U
    offsets = [sum(p.blocks[:b]) for b in range(len(p.blocks))]
    # centre coordinates: block traces (last one is determined, kept anyway)
    polys = [sum((E[t][t] for t in range(o, o + k)), zero) for o, k in zip(offsets, p.blocks)]
    # per-factor shifted trace powers
    for o, k in zip(offsets, p.blocks):
        block = slice(o, o + k)
        A = [[MPoly.const(svars, c) for c in row[block]] for row in Ap.entries[block]]
        for coeffs in trace_coefficients([row[block] for row in E[block]], A, k, mpoly_dot):
            polys.extend(coeffs)
    return svars, polys


def _coords_in_basis(basis: list[GElement], x: GElement) -> Vector:
    A = ExactMatrix.from_columns([e.coords for e in basis])
    sol = solve(A, x.coords)
    if sol is None:
        raise MembershipError("element is not in the span of the basis")
    return sol


def parabolic_lift(sys_: ShiftSystem, p: FlagParabolic, y_component: AffineComponent) -> AffineComponent:
    """Lift a certified Levi-fibre family Y to the family Y + u_p, certified
    to lie in one fibre of F_a.

    Y must live in the Levi of p (base and directions in span(l)); it is
    first certified against the Levi system, then lifted by adding the
    nilradical directions.
    """
    a = sys_.a
    _, lpolys = levi_system(p, a)
    base_s = _coords_in_basis(p.l_basis, y_component.base)
    dir_s = [_coords_in_basis(p.l_basis, d) for d in y_component.dirs]
    tvars = tuple(f"t{k + 1}" for k in range(len(dir_s)))
    for q in restrict_to_chart(lpolys, tvars, base_s, dir_s):
        if any(any(e) for e in q.terms):
            raise CertificationError("family is not inside a single Levi fibre")
    dirs = list(y_component.dirs) + list(p.u_basis)
    value = certify_affine_constant(sys_, y_component.base, dirs)
    return AffineComponent(
        base=y_component.base,
        dirs=dirs,
        value=value,
        label=f"lift:{member_label(p)}",
    )
