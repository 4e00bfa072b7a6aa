"""Irreducible components of fibres: certified affine families and counts.

An AffineComponent is an affine subspace base + span(dirs) on which every
component of F_a is certified constant by exact substitution (the
parametrized restriction must be free of the direction variables).  The
constructors below produce the families the structure theorems describe:

  - borel_component: x + u for x in a Borel containing a,
  - weyl_components: w.x_h + u over the Weyl orbit, for nilpotent a,
  - parabolic_lift: Y + u_p for a certified Levi-fibre family Y.

The checks that certify results on the fibres (the singular family x + u^a,
the image of b^a, critical values, exotic witnesses) live in verify and
build these components where they need them.

count_zero_fibre assembles the recursive component count
|I_a| = |I'_a| + sum over parabolics of products of Levi |I'| + |B_a|,
keeping unknown top terms symbolic (with proven lower bounds) instead of
inventing numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    CertificationError,
    MembershipError,
    NotNilpotentError,
    PreconditionError,
)
from .flags import (
    BorelAtlas,
    EigenChain,
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


@dataclass
class AffineComponent:
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


def certify_affine_constant(sys_: ShiftSystem, base: GElement, dirs: list[GElement]) -> FibreValue:
    """Substitute base + sum t_k dirs_k into every component; all direction
    variables must cancel exactly.  Returns the certified value vector."""
    L = sys_.algebra
    tvars = tuple(f"t{k + 1}" for k in range(len(dirs)))
    chart = affine_chart(tvars, base.coords, [d.coords for d in dirs])
    mapping = dict(zip(L.coord_names, chart))
    values = []
    for comp in sys_.components:
        restricted = comp.subs(tvars, mapping)
        if not restricted.is_constant():
            raise CertificationError(
                "family is not contained in a single fibre: "
                f"residual polynomial {restricted}"
            )
        values.append(restricted.constant_term())
    value = tuple(values)
    if value != sys_.evaluate(base):
        raise CertificationError("certified value disagrees with base evaluation")
    return value


def borel_component(sys_: ShiftSystem, x: GElement, borel: FlagParabolic) -> AffineComponent:
    """The component x + u of the fibre through x inside a Borel containing
    both a and x."""
    if not borel.is_borel():
        raise PreconditionError("member is not a Borel")
    if not borel.contains(sys_.a):
        raise MembershipError("shift element is not in the Borel")
    if not borel.contains(x):
        raise MembershipError("point is not in the Borel")
    value = certify_affine_constant(sys_, x, borel.u_basis)
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


# -- component counts -----------------------------------------------------------------


def eigen_partition(chains: list[EigenChain]) -> tuple[int, ...]:
    """Multiplicities of the eigenvalues, sorted descending: the Jordan type
    of a regular element with these Jordan chains."""
    return tuple(sorted((ch.mult for ch in chains), reverse=True))


@dataclass(frozen=True)
class IPrimeEntry:
    value: int | None
    lower: int


class IPrimeTable:
    """Counts |I'| of exotic components of zero fibres, keyed by
    (n, eigenvalue-multiplicity partition).  Unknown entries carry proven
    lower bounds and keep totals symbolic."""

    def __init__(self, entries: dict[tuple[int, tuple[int, ...]], IPrimeEntry] | None = None):
        self.entries = dict(entries or {})

    @staticmethod
    def default() -> "IPrimeTable":
        e: dict[tuple[int, tuple[int, ...]], IPrimeEntry] = {
            (2, (1, 1)): IPrimeEntry(0, 0),
            (2, (2,)): IPrimeEntry(0, 0),
            # every regular shift on sl_3 admits an exotic component, but the
            # exact count is open: value None, lower bound 1
            (3, (1, 1, 1)): IPrimeEntry(None, 1),
            (3, (2, 1)): IPrimeEntry(None, 1),
            (3, (3,)): IPrimeEntry(None, 1),
        }
        return IPrimeTable(e)

    def get(self, n: int, partition: tuple[int, ...]) -> IPrimeEntry:
        key = (n, tuple(partition))
        if key not in self.entries:
            return IPrimeEntry(None, 0)
        return self.entries[key]

    @staticmethod
    def symbol(n: int, partition: tuple[int, ...]) -> str:
        return f"I'({n},[{','.join(str(k) for k in partition)}])"

    @staticmethod
    def from_json_dict(data: dict) -> "IPrimeTable":
        try:
            entries = {}
            for row in data["entries"]:
                key = (int(row["n"]), tuple(int(k) for k in row["partition"]))
                val = row.get("value")
                ent = IPrimeEntry(None if val is None else int(val), int(row.get("lower", 0)))
                if ent.lower < 0 or (ent.value is not None and ent.value < ent.lower):
                    raise ValueError(f"entry {row} needs 0 <= lower <= value")
                entries[key] = ent
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed I' table: {exc}") from exc
        return IPrimeTable(entries)

    @staticmethod
    def load(path: str) -> "IPrimeTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise PreconditionError(f"cannot read I' table: {exc}") from exc
        return IPrimeTable.from_json_dict(data)


@dataclass
class ParabolicTerm:
    label: str
    composition: tuple[int, ...]
    factor_keys: list[tuple[int, tuple[int, ...]]]
    factor_values: list[int | None]
    factor_lowers: list[int]

    @property
    def product(self) -> int | None:
        prod = 1
        for v in self.factor_values:
            if v is None:
                return None
            prod *= v
        return prod

    @property
    def product_lower(self) -> int:
        prod = 1
        for v, lo in zip(self.factor_values, self.factor_lowers):
            prod *= lo if v is None else v
        return prod


@dataclass
class CountReport:
    n: int
    partition: tuple[int, ...]
    borel_count: int
    parabolic_terms: list[ParabolicTerm]
    self_key: tuple[int, tuple[int, ...]]
    self_value: int | None
    self_lower: int
    formula: str
    total: int | None
    total_lower: int


def count_zero_fibre(a: GElement, table: IPrimeTable | None = None,
                     atlas: BorelAtlas | None = None) -> CountReport:
    """Assemble the recursive component count of F_a^{-1}(0):
    |I_a| = |I'_a| + sum over atlas parabolics of the product of factor
    |I'| values + number of atlas Borels."""
    if table is None:
        table = IPrimeTable.default()
    if atlas is None:
        atlas = enumerate_atlas(a)
    L = a.algebra
    part = eigen_partition(atlas.chains)
    terms: list[ParabolicTerm] = []
    for p in atlas.parabolics:
        # block t of U^-1 a U is one Jordan block per chain, of the chain's
        # level increment, with distinct chain values
        keys: list[tuple[int, tuple[int, ...]]] = []
        values: list[int | None] = []
        lowers: list[int] = []
        prev = (0,) * len(atlas.chains)
        for k, level in zip(p.blocks, p.flag.levels):
            if k >= 2:
                bpart = tuple(sorted((l - q for l, q in zip(level, prev) if l > q), reverse=True))
                ent = table.get(k, bpart)
                keys.append((k, bpart))
                values.append(ent.value)
                lowers.append(ent.lower)
            prev = level
        terms.append(
            ParabolicTerm(
                label=member_label(p),
                composition=p.blocks,
                factor_keys=keys,
                factor_values=values,
                factor_lowers=lowers,
            )
        )
    self_ent = table.get(L.n, part)
    self_key = (L.n, part)
    para_total: int | None = 0
    para_lower = 0
    for t in terms:
        prod = t.product
        para_lower += t.product_lower
        if para_total is not None:
            para_total = None if prod is None else para_total + prod
    borels = len(atlas.borels)
    total = None
    if self_ent.value is not None and para_total is not None:
        total = self_ent.value + para_total + borels
    total_lower = self_ent.lower + para_lower + borels
    sym = IPrimeTable.symbol(L.n, part)
    para_str = (
        str(para_total)
        if para_total is not None
        else "+".join(
            "*".join(IPrimeTable.symbol(nk, pk) for nk, pk in t.factor_keys) or "1"
            for t in terms
        )
    )
    formula = f"{sym if self_ent.value is None else self_ent.value} + {para_str or 0} + {borels}"
    return CountReport(
        n=L.n,
        partition=part,
        borel_count=borels,
        parabolic_terms=terms,
        self_key=self_key,
        self_value=self_ent.value,
        self_lower=self_ent.lower,
        formula=formula,
        total=total,
        total_lower=total_lower,
    )
