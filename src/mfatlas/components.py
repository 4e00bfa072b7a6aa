"""Irreducible components of fibres: certified affine families and counts.

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

from typing import NamedTuple

from .errors import (
    CertificationError,
    MembershipError,
    NotNilpotentError,
    PreconditionError,
)
from .flags import (
    BorelAtlas,
    FlagParabolic,
    elements_span,
    enumerate_atlas,
    member_label,
)
from .lie import GElement, permute_diagonal, weyl_group
from .linalg import ExactMatrix, Vector, solve, span_contains
from .mfsystem import FibreValue, ShiftSystem, trace_power_coefficients
from .mpoly import MPoly, affine_chart


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

    def contains(self, x: GElement) -> bool:
        return span_contains([d.coords for d in self.dirs], (x - self.base).coords)


def certify_affine_constant(sys_: ShiftSystem, base: GElement, dirs: list[GElement],
                            over: list[GElement] = ()) -> FibreValue:
    """Substitute base + sum s_k over_k + sum t_k dirs_k into every component;
    all direction variables t must cancel exactly, for every s, so the family
    y + span(dirs) lies in one fibre for each y in base + span(over).
    Returns the certified value vector at base."""
    L = sys_.algebra
    svars = tuple(f"s{k + 1}" for k in range(len(over)))
    tvars = tuple(f"t{k + 1}" for k in range(len(dirs)))
    chart = affine_chart(svars + tvars, base.coords, [e.coords for e in (*over, *dirs)])
    mapping = dict(zip(L.coord_names, chart))
    values = []
    for comp in sys_.components:
        restricted = comp.subs(svars + tvars, mapping)
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
    ext = svars + ("lam",)
    # the generic Levi element sum_m s_m l_m written in the adapted basis,
    # where U^-1 l_m U is E_ij, or H_i = E_ii - E_(i+1)(i+1) when i == j
    E = [[MPoly.zero(ext)] * n for _ in range(n)]
    for s, (i, j) in zip(svars, pattern):
        E[i][j] = E[i][j] + MPoly.var(ext, s)
        if i == j:
            E[i + 1][i + 1] = E[i + 1][i + 1] - MPoly.var(ext, s)
    Ap = p.U_inv * a.matrix * p.U
    lam = MPoly.var(ext, "lam")
    offsets = [sum(p.blocks[:b]) for b in range(len(p.blocks))]
    # centre coordinates: block traces (last one is determined, kept anyway)
    polys = [sum((E[t][t] for t in range(o, o + k)), MPoly.zero(ext)).project(svars)
             for o, k in zip(offsets, p.blocks)]
    # per-factor shifted trace powers
    for o, k in zip(offsets, p.blocks):
        M = [
            [E[o + i][o + j] + lam * Ap.entries[o + i][o + j] for j in range(k)]
            for i in range(k)
        ]
        for coeffs in trace_power_coefficients(M, k):
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
    svars, lpolys = levi_system(p, a)
    base_s = _coords_in_basis(p.l_basis, y_component.base)
    dir_s = [_coords_in_basis(p.l_basis, d) for d in y_component.dirs]
    tvars = tuple(f"t{k + 1}" for k in range(len(dir_s)))
    mapping = dict(zip(svars, affine_chart(tvars, base_s, dir_s)))
    for q in lpolys:
        if not q.subs(tvars, mapping).is_constant():
            raise CertificationError("family is not inside a single Levi fibre")
    dirs = list(y_component.dirs) + list(p.u_basis)
    value = certify_affine_constant(sys_, y_component.base, dirs)
    return AffineComponent(
        base=y_component.base,
        dirs=dirs,
        value=value,
        label=f"lift:{member_label(p)}",
    )
