"""Irreducible components of fibres: certified affine families and counts.

An AffineComponent is an affine subspace base + span(dirs) on which every
component of F_a is certified constant by exact substitution (the
parametrized restriction must be free of the direction variables).  The
constructors below produce the families the structure theorems describe:

  - borel_component: x + u for x in a Borel containing a,
  - weyl_components: w.x_h + u over the Weyl orbit, for nilpotent a,
  - parabolic_lift: Y + u_p for a certified Levi-fibre family Y,
  - singular_family_check: x + u^a inside two distinct Borel components.

count_zero_fibre assembles the recursive component count
|I_a| = |I'_a| + sum over parabolics of products of Levi |I'| + |B_a|,
keeping unknown top terms symbolic (with proven lower bounds) instead of
inventing numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    chain_diagonal,
    chain_frame,
    elements_span,
    enumerate_atlas,
    frame_unit,
    member_label,
)
from .lie import (
    GElement,
    is_regular,
    permute_diagonal,
    weyl_group,
    weyl_stabilizer,
)
from .linalg import (
    ExactMatrix,
    Vector,
    mat_inverse,
    mat_rank,
    solve,
    span_contains,
    span_equal,
    span_le,
)
from .mfsystem import FibreValue, ShiftSystem, section_chart, trace_power_coefficients
from .mpoly import MPoly, affine_chart
from .sampling import (
    random_distinct_rationals,
    random_rational,
    random_unimodular,
    rng_for,
)
from .scalar import Scalar


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


# -- exotic components ---------------------------------------------------------------


@dataclass
class ExoticReport:
    passed: bool
    value_matches: bool
    memberships: list[tuple[str, bool]]
    detail: str = ""


def exotic_witness_check(sys_: ShiftSystem, x: GElement, target: FibreValue | None = None,
                          atlas: BorelAtlas | None = None) -> ExoticReport:
    """Certify that x has the target value (default: the zero vector) and
    lies outside every Borel and parabolic of the atlas."""
    if atlas is None:
        atlas = enumerate_atlas(sys_.a)
    if target is None:
        target = tuple(Scalar(0) for _ in range(sys_.b))
    value = sys_.evaluate(x)
    value_ok = value == tuple(target)
    memberships = [(member_label(m), m.contains(x)) for m in atlas.members]
    outside = all(not inside for _, inside in memberships)
    detail = "" if value_ok else f"value {tuple(str(v) for v in value)}"
    return ExoticReport(
        passed=value_ok and outside,
        value_matches=value_ok,
        memberships=memberships,
        detail=detail,
    )


@dataclass
class TarasovExoticReport:
    passed: bool
    samples_outside: int
    per_member_witnessed: dict[str, bool]
    zero_highest_root_pattern: dict[str, int]
    failures: list[str] = field(default_factory=list)


def tarasov_exotic_probe(sys_: ShiftSystem, atlas: BorelAtlas | None = None,
                         samples: int = 20, seed: int = 0) -> TarasovExoticReport:
    """Sample section points xi + b with nonzero highest-root coordinate and
    certify they avoid every atlas member; points with vanishing
    highest-root coordinate are reported observationally."""
    L = sys_.algebra
    a = sys_.a
    if not a.is_diagonal():
        raise PreconditionError("the section probe needs a diagonal shift element")
    if atlas is None:
        atlas = enumerate_atlas(a)
    rng = rng_for(f"tarasov-exotic:{L.n}", seed)
    xi, dirs = section_chart(L)
    chart = affine_chart(tuple(f"t{k + 1}" for k in range(len(dirs))), xi, dirs)
    top = L.coord_names.index(f"x1{L.n}")

    def section_point(top_vanishes: bool) -> GElement:
        """A seeded point of xi + b, its chart coordinates drawn in order; the
        highest-root coordinate is then set to 0, or moved from 0 to 1 otherwise."""
        t = [Scalar(random_rational(rng)) for _ in dirs]
        coords = [p.eval(t) for p in chart]
        if top_vanishes:
            coords[top] = Scalar(0)
        elif coords[top].is_zero():
            coords[top] = Scalar(1)
        return L.element_from_coords(coords)

    labels = [member_label(m) for m in atlas.members]
    witnessed = {lab: False for lab in labels}
    zero_pattern = {lab: 0 for lab in labels}
    failures: list[str] = []
    outside_count = 0
    for _ in range(samples):
        x = section_point(top_vanishes=False)
        all_out = True
        for m, lab in zip(atlas.members, labels):
            if m.contains(x):
                all_out = False
                failures.append(f"highest-root-nonzero point inside {lab}")
            else:
                witnessed[lab] = True
        if all_out:
            outside_count += 1
    # observational: what happens when the highest-root coordinate vanishes
    for _ in range(samples):
        x = section_point(top_vanishes=True)
        for m, lab in zip(atlas.members, labels):
            if m.contains(x):
                zero_pattern[lab] += 1
    passed = not failures and all(witnessed.values())
    return TarasovExoticReport(
        passed=passed,
        samples_outside=outside_count,
        per_member_witnessed=witnessed,
        zero_highest_root_pattern=zero_pattern,
        failures=failures,
    )


# -- singular families -----------------------------------------------------------------


@dataclass
class SingularFamilyReport:
    passed: bool
    expected_failure: bool
    detail: str
    component_labels: list[str] = field(default_factory=list)


def singular_family_check(sys_: ShiftSystem, x: GElement,
                          atlas: BorelAtlas | None = None) -> SingularFamilyReport:
    """For non-nilpotent a and x in b^a: exhibit two distinct Borels whose
    components through x both contain x + u^a.  For nilpotent a this is
    impossible (the Borel is unique); that case reports an expected failure."""
    a = sys_.a
    if atlas is None:
        atlas = enumerate_atlas(a)
    if a.is_nilpotent():
        ok = len(atlas.borels) == 1
        return SingularFamilyReport(
            passed=ok,
            expected_failure=True,
            detail="nilpotent shift element: unique Borel, no second component exists",
        )
    if not span_contains([e.coords for e in atlas.b_a], x.coords):
        raise MembershipError("point is not in b^a")
    if len(atlas.borels) < 2:
        raise CertificationError("non-nilpotent regular element with fewer than 2 Borels")
    b1, b2 = atlas.borels[0], atlas.borels[1]
    u_a = [e.coords for e in atlas.u_a]
    for b in (b1, b2):
        if not all(b.contains(e) for e in atlas.b_a):
            raise CertificationError("b^a is not inside an atlas Borel")
        if not span_le(u_a, b.u_span):
            raise CertificationError("u^a is not inside a Borel nilradical")
    if span_equal(b1.u_span, b2.u_span):
        raise CertificationError("the two Borels share a nilradical")
    c1 = borel_component(sys_, x, b1)
    c2 = borel_component(sys_, x, b2)
    if c1.value != c2.value:
        raise CertificationError("components through the same point disagree in value")
    for e in atlas.u_a:
        if not c1.contains(x + e) or not c2.contains(x + e):
            raise CertificationError("x + u^a escapes a component")
    return SingularFamilyReport(
        passed=True,
        expected_failure=False,
        detail="x + u^a lies in two distinct Borel components",
        component_labels=[c1.label, c2.label],
    )


# -- image of b^a ------------------------------------------------------------------------


@dataclass
class ImageBbaReport:
    passed: bool
    t_free: bool
    nilpotent_form: bool | None
    invariance_ok: bool
    degree_counts: list[int]
    expected_degree: int
    failures: list[str] = field(default_factory=list)


def image_bba_check(sys_: ShiftSystem, atlas: BorelAtlas | None = None,
                    samples: int = 25, seed: int = 0) -> ImageBbaReport:
    """Three exact checks on F_a restricted to b^a = h_U + u^a:

      (1) the restriction is free of the u^a directions (so the image equals
          the image of the adapted Cartan h_U),
      (2) for nilpotent a the restriction is (f_1|_h, ..., f_r|_h, 0, ..., 0),
      (3) restricted polynomials are invariant under the stabilizer W_s, and
          on sampled regular diagonal points the number of distinct values on
          the Weyl orbit is exactly |W| / |W_s|.
    """
    L = sys_.algebra
    a = sys_.a
    if atlas is None:
        atlas = enumerate_atlas(a)
    failures: list[str] = []
    U, U_inv = chain_frame(atlas.chains)
    n = L.n
    # adapted Cartan basis: U (E_kk - E_nn) U^-1
    hcs = [
        L.coords_of_matrix(frame_unit(U, U_inv, k, k) - frame_unit(U, U_inv, n - 1, n - 1))
        for k in range(n - 1)
    ]
    ucs = [e.coords for e in atlas.u_a]
    # certification: b^a = h_U  (+) u^a
    if not span_equal(hcs + ucs, [e.coords for e in atlas.b_a]):
        raise CertificationError("b^a does not split as adapted Cartan plus u^a")
    svars = tuple(f"s{k + 1}" for k in range(n - 1))
    tvars = tuple(f"t{k + 1}" for k in range(len(atlas.u_a)))
    allvars = svars + tvars
    origin = L.zero().coords
    mapping = dict(zip(L.coord_names, affine_chart(allvars, origin, hcs + ucs)))
    restricted_full = [c.subs(allvars, mapping) for c in sys_.components]
    t_free = True
    for rp in restricted_full:
        if any(any(e[len(svars):]) for e in rp.terms):
            t_free = False
            failures.append("restriction to b^a depends on a u^a direction")
            break
    restricted = [rp.project(svars) if t_free else rp for rp in restricted_full]
    # (2) nilpotent: (f_1|_h, ..., f_r|_h, 0, ..., 0)
    nilpotent_form: bool | None = None
    if a.is_nilpotent() and t_free:
        nilpotent_form = True
        r = L.rank
        h_mapping = dict(zip(L.coord_names, affine_chart(svars, origin, hcs)))
        for idx, comp in enumerate(restricted):
            if idx < r:
                gen_restr = sys_.components[idx].subs(svars, h_mapping)
                if comp != gen_restr:
                    nilpotent_form = False
                    failures.append("invariant part of nilpotent restriction mismatch")
            else:
                if not comp.is_zero():
                    nilpotent_form = False
                    failures.append("shifted component does not vanish on b^a")
    # (3) W_s-invariance of the restriction, symbolically
    s_diag = L.element(ExactMatrix.diagonal(chain_diagonal(atlas.chains)))
    stab = weyl_stabilizer(s_diag)
    invariance_ok = True
    for w in stab:
        wmap = _weyl_on_svars(svars, w)
        for rp in restricted:
            if rp.subs(svars, wmap) != rp:
                invariance_ok = False
                failures.append("restriction not invariant under the stabilizer")
                break
        if not invariance_ok:
            break
    # degree probe
    W = weyl_group(n)
    expected = len(W) // len(stab)
    rng = rng_for(f"image-bba:{n}", seed)
    counts: list[int] = []
    for _ in range(samples):
        vals = random_distinct_rationals(rng, n - 1)
        last = -sum(vals)
        if last in vals:
            continue
        vals.append(last)
        seen_vals = set()
        for w in W:
            D = ExactMatrix.diagonal(permute_diagonal(w, [Scalar(v) for v in vals]))
            xw = L.element(U * D * U_inv)
            seen_vals.add(sys_.evaluate(xw))
        counts.append(len(seen_vals))
        if len(seen_vals) != expected:
            failures.append(
                f"degree probe: {len(seen_vals)} distinct values, expected {expected}"
            )
    return ImageBbaReport(
        passed=not failures,
        t_free=t_free,
        nilpotent_form=nilpotent_form,
        invariance_ok=invariance_ok,
        degree_counts=counts,
        expected_degree=expected,
        failures=failures,
    )


def _weyl_on_svars(svars: tuple[str, ...], w: tuple[int, ...]) -> dict[str, MPoly]:
    """Action of a diagonal-slot permutation on the Cartan chart
    sigma_k = s_k (k < n), sigma_n = -sum s_k."""
    sigma = [MPoly.var(svars, s) for s in svars]
    sigma.append(-sum(sigma, MPoly.zero(svars)))
    inv = [0] * len(w)
    for i, p in enumerate(w):
        inv[p] = i
    return {s: sigma[inv[k]] for k, s in enumerate(svars)}


# -- critical values ------------------------------------------------------------------------


@dataclass
class CriticalValueReport:
    passed: bool
    max_rank: int
    samples: int
    closed_form_ok: bool | None
    failures: list[str] = field(default_factory=list)


def critical_value_probe(sys_: ShiftSystem, samples: int = 30, seed: int = 0) -> CriticalValueReport:
    """Sample the singular family g_sing + C a and certify every sample is a
    critical point of F_a (Jacobian rank < b), with max sampled rank in
    [b - 2, b - 1].  For n = 2 the image points are checked against the
    closed forms (a parabola for semisimple a, the origin for nilpotent a)."""
    L = sys_.algebra
    a = sys_.a
    n = L.n
    rng = rng_for(f"critical:{n}", seed)
    max_rank = -1
    failures: list[str] = []
    closed_ok: bool | None = None
    if n == 2:
        closed_ok = True
    count = 0
    for _ in range(samples):
        if n == 2:
            y = L.zero()
        else:
            if rng.random() < 0.5:
                # semisimple with a repeated eigenvalue, traceless
                vals = random_distinct_rationals(rng, n - 2)
                d = [vals[0], vals[0]] + vals[1:]
                d.append(-sum(d))
                base = ExactMatrix.diagonal([Scalar(v) for v in d])
            else:
                # nilpotent of minimal nonzero rank
                m = [[Scalar(0)] * n for _ in range(n)]
                m[0][n - 1] = Scalar(1)
                base = ExactMatrix(m)
            g = random_unimodular(L, rng)
            y = L.element(g * base * mat_inverse(g))
            if is_regular(y):
                failures.append("sampler produced a regular element")
                continue
        lam = Scalar(random_rational(rng))
        z = y + a.scale(lam)
        rank = mat_rank(sys_.jacobian_at(z))
        count += 1
        if rank >= sys_.b:
            failures.append("singular sample is not a critical point")
        max_rank = max(max_rank, rank)
        if n == 2:
            v = sys_.evaluate_scaled(z)
            if a.is_nilpotent():
                if any(not s.is_zero() for s in v):
                    closed_ok = False
                    failures.append("nilpotent singular image is not the origin")
            else:
                a1 = a.matrix.entries[0][0]
                lhs = v[0] * (Scalar(4) * a1 * a1)
                if lhs != v[1] * v[1]:
                    closed_ok = False
                    failures.append("semisimple singular image leaves the parabola")
    if not (sys_.b - 2 <= max_rank <= sys_.b - 1):
        failures.append(f"max sampled rank {max_rank} outside [b-2, b-1]")
    return CriticalValueReport(
        passed=not failures,
        max_rank=max_rank,
        samples=count,
        closed_form_ok=closed_ok,
        failures=failures,
    )


# -- near-section probe (nilpotent shift) ---------------------------------------------------


@dataclass
class NearSectionReport:
    translates: int
    all_values_equal: bool
    in_opposite_borel: bool
    note: str


def near_section_probe(sys_: ShiftSystem, atlas: BorelAtlas | None = None,
                       samples: int = 10, seed: int = 0) -> NearSectionReport:
    """For nilpotent a: the W-translates a + w.x_h all share one value vector
    (provable), so fibres meet a + b^a_- in at least |W| points; the exact
    |W|-to-one degree statement is observational and only reported."""
    L = sys_.algebra
    a = sys_.a
    if not a.is_nilpotent():
        raise NotNilpotentError("near-section probe needs a nilpotent shift element")
    if atlas is None:
        atlas = enumerate_atlas(a)
    B = atlas.borels[0]
    n = L.n
    # opposite Borel: lower triangular in the adapted basis
    lower = [
        L.element(frame_unit(B.U, B.U_inv, i, j)) for i in range(n) for j in range(i)
    ]
    for k in range(n - 1):
        H = frame_unit(B.U, B.U_inv, k, k) - frame_unit(B.U, B.U_inv, k + 1, k + 1)
        lower.append(L.element(H))
    lower_span = elements_span(lower)
    rng = rng_for(f"near-section:{n}", seed)
    W = weyl_group(n)
    ok_equal = True
    ok_membership = True
    translates = 0
    for _ in range(samples):
        vals = random_distinct_rationals(rng, n - 1)
        last = -sum(vals)
        if last in vals:
            continue
        vals.append(last)
        values = set()
        for w in W:
            D = ExactMatrix.diagonal(permute_diagonal(w, [Scalar(v) for v in vals]))
            xw = L.element(B.U * D * B.U_inv)
            point = a + xw
            if not span_contains(lower_span, (point - a).coords):
                ok_membership = False
            values.add(sys_.evaluate(point))
        translates = len(W)
        if len(values) != 1:
            ok_equal = False
    return NearSectionReport(
        translates=translates,
        all_values_equal=ok_equal,
        in_opposite_borel=ok_membership,
        note="translate count is a lower bound for the fibre degree; exactness not asserted",
    )
