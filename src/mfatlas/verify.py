"""Named verification checks over a single shift system.

Every check is a check_* function that builds its CheckResult where it
decides the verdict; run_verify_suite drives them in a fixed order.  The
structural checks come first, then the checks of the paper's results on the
fibres: the image of b^a, critical values on the singular family, the family
x + [b^a, b^a] inside two Borel components (at one value, both read off
earlier tests), the Tarasov section and the near-section translates.  The
singular family is based at the shift itself, a point of b^a, so that row
draws nothing.  check_exotic_witness and check_tarasov_exotic are run by the
corpus and the tests only.

A sampled structural check takes the random generator it draws from and a
sample count, so mf verify (one seeded generator per check) and the test
property suites (one generator per instance) run the same code; a sampled
fibre check (critical values, the Tarasov section and its exotic probe)
takes a seed for its own tagged generator; symbolic checks (among them the
image of b^a, the singular family and the near-section translates) are exact
and take neither.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .components import (
    alt_generators,
    borel_component,
    fibre_membership,
    fibre_membership_finite_lambda,
    is_strongly_regular,
    poisson_brackets,
    section_chart,
    tangent_space,
)
from .errors import CertificationError, MembershipError, MFError, PreconditionError
from .flags import (
    BorelAtlas,
    FlagParabolic,
    chain_diagonal,
    enumerate_atlas,
    member_label,
)
from .lie import (
    GElement,
    centralizer,
    is_regular,
    weyl_group,
    weyl_stabilizer,
)
from .linalg import (
    ExactMatrix,
    Vector,
    mat_inverse,
    mat_rank,
    span_contains,
    span_equal,
    span_le,
)
from .mfsystem import FibreValue, ShiftSystem, invariant_values_along, mf_values
from .mpoly import MPoly, affine_chart, mpoly_det, permute_cartan_chart, restrict_to_chart
from .sampling import (
    conjugate,
    random_borel_group_element,
    random_combination,
    random_distinct_rationals,
    random_element,
    random_rational_scalar,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from .scalar import Scalar


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_poisson_commutativity(sys_: ShiftSystem) -> CheckResult:
    grads = sys_.component_gradients()
    for bracket_fg in poisson_brackets(sys_.algebra, grads):
        if not bracket_fg.is_zero():
            return _result("poisson-commutativity", False, "nonzero bracket")
    k = len(grads)
    return _result("poisson-commutativity", True, f"{k * (k - 1) // 2} pairs identically 0")


def check_jacobian_certificate(sys_: ShiftSystem) -> CheckResult:
    rank = mat_rank(sys_.jacobian_at(sys_.certificate_point))
    return _result(
        "jacobian-rank-certificate", rank == sys_.b, f"rank {rank} of {sys_.b}"
    )


def check_shift_reconstruction(sys_: ShiftSystem, rng: Random, samples: int) -> CheckResult:
    """f_i(x + lam a) equals the lambda-expansion through the system
    components plus f_i(a) lam^{d_i}, on random points and lambdas."""
    L = sys_.algebra
    a = sys_.a
    fa = invariant_values_along(a, L.zero(), Scalar(1))
    r = L.rank
    for _ in range(samples):
        x = random_element(L, rng)
        lam = random_rational_scalar(rng)
        lhs = invariant_values_along(a, x, lam)
        vals = sys_.evaluate(x)
        for i in range(r):
            d = sys_.degrees[i]
            idx = r + sum(sys_.degrees[k] - 1 for k in range(i))
            acc = vals[i]
            pw = Scalar(1)
            for j in range(1, d):
                pw = pw * lam
                acc = acc + vals[idx + j - 1] * pw
            acc = acc + fa[i] * pw * lam
            if acc != lhs[i]:
                return _result("shift-reconstruction", False, f"generator {i + 1}")
    return _result("shift-reconstruction", True, f"{samples} points")


def check_homogeneity(sys_: ShiftSystem) -> CheckResult:
    for (i, j), comp in zip(sys_.labels, sys_.components):
        want = sys_.degrees[i - 1] - j
        if comp.homogeneous_degree() != want:
            return _result("homogeneity", False, f"component {(i, j)}")
    return _result("homogeneity", True, "all components")


def check_equivariance(sys_: ShiftSystem, rng: Random, samples: int) -> CheckResult:
    """F_a(g x g^-1) = F_{g^-1 a g}(x) for unimodular rational g."""
    L = sys_.algebra
    for _ in range(min(samples, 6)):
        g = random_unimodular(L, rng)
        a2 = conjugate(mat_inverse(g), sys_.a)
        for _ in range(3):
            x = random_element(L, rng)
            if sys_.evaluate(conjugate(g, x)) != mf_values(a2, x):
                return _result("equivariance", False, "value mismatch")
    return _result("equivariance", True)


def check_borel_invariance(sys_: ShiftSystem, B: FlagParabolic,
                           rng: Random, samples: int) -> CheckResult:
    """F_a restricted to a Borel B containing a is invariant under conjugation
    by the Borel subgroup, realized by upper-triangular rational matrices in
    the adapted basis."""
    L = sys_.algebra
    for _ in range(samples):
        x = random_combination(L, B.p_basis, rng)
        g = B.U * random_borel_group_element(L, rng) * B.U_inv
        y = conjugate(g, x)
        if not B.contains(y):
            return _result("borel-invariance", False, "conjugate left the Borel")
        if sys_.evaluate(y) != sys_.evaluate(x):
            return _result("borel-invariance", False, "value changed under the Borel group")
    return _result("borel-invariance", True, f"{samples} conjugations")


def check_vandermonde_generators(sys_: ShiftSystem, rng: Random, samples: int) -> CheckResult:
    """g_ij = sum_k lambda_j^k f_ik as exact polynomial identities, for the
    default lambda table and random admissible tables."""
    L = sys_.algebra
    by_label = dict(zip(sys_.labels, sys_.components))
    tables = [None]
    for _ in range(min(samples, 3)):
        tables.append([random_distinct_rationals(rng, i + 2) for i in range(L.n - 1)])
    for table in tables:
        try:
            rows = alt_generators(sys_, table)
        except MFError as exc:
            return _result("vandermonde-generators", False, str(exc))
        use = table if table is not None else [
            [Scalar(j) for j in range(i + 2)] for i in range(L.n - 1)
        ]
        for i, row in enumerate(rows):
            for lam, g in zip(use[i], row):
                want = MPoly.zero(L.coord_names)
                pw = Scalar(1)
                for k in range(i + 2):
                    want = want + by_label[(i + 1, k)] * pw
                    pw = pw * lam
                if g != want:
                    return _result("vandermonde-generators", False, f"row {i + 1}")
    return _result("vandermonde-generators", True, f"{len(tables)} lambda tables")


def check_finite_lambda_membership(sys_: ShiftSystem, B: FlagParabolic, rng: Random,
                                   samples: int, fibre_pairs: int) -> CheckResult:
    """Fibre membership via component values agrees with the finite-lambda
    characteristic-value criterion, on `samples` random pairs and on
    `fibre_pairs` engineered same-fibre pairs (regular semisimple x in the
    Borel B, y in x + [b, b])."""
    L = sys_.algebra
    for _ in range(samples):
        x = random_element(L, rng)
        y = random_element(L, rng)
        if fibre_membership(sys_, x, y) != fibre_membership_finite_lambda(sys_, x, y):
            return _result("finite-lambda-membership", False, "criteria disagree")
    for _ in range(fibre_pairs):
        x = conjugate(B.U, random_traceless_distinct_diag(L, rng))
        y = x + random_combination(L, B.u_basis, rng)
        if not fibre_membership(sys_, x, y):
            return _result("finite-lambda-membership", False, "nilradical translate left the fibre")
        if not fibre_membership_finite_lambda(sys_, x, y):
            return _result("finite-lambda-membership", False, "criteria disagree on a fibre pair")
    return _result("finite-lambda-membership", True)


def check_tangent_triple(sys_: ShiftSystem, rng: Random, samples: int) -> CheckResult:
    """Three tangent-space routes agree at strongly regular points and give
    dimension b - r."""
    L = sys_.algebra
    done = 0
    attempts = 0
    while done < min(samples, 6) and attempts < 60:
        attempts += 1
        x = random_element(L, rng)
        try:
            if not is_strongly_regular(sys_, x):
                continue
            span = tangent_space(sys_, x)
        except CertificationError as exc:
            return _result("tangent-triple", False, str(exc))
        if len(span) != sys_.b - L.rank:
            return _result("tangent-triple", False, f"dimension {len(span)}")
        done += 1
    if done == 0:
        return _result("tangent-triple", False, "no strongly regular samples found")
    return _result("tangent-triple", True, f"{done} points, dimension {sys_.b - L.rank}")


def check_strong_regularity(sys_: ShiftSystem, rng: Random, samples: int) -> CheckResult:
    """Jacobian-rank and Krylov line certificates agree on random points;
    the origin is never strongly regular."""
    L = sys_.algebra
    hits = 0
    try:
        for _ in range(samples):
            if is_strongly_regular(sys_, random_element(L, rng)):
                hits += 1
        if is_strongly_regular(sys_, L.zero()):
            return _result("strong-regularity", False, "origin certified strongly regular")
    except CertificationError as exc:
        return _result("strong-regularity", False, str(exc))
    if hits == 0:
        return _result("strong-regularity", False, "no strongly regular samples")
    return _result("strong-regularity", True, f"{hits}/{samples} strongly regular")


def check_centralizer_containment(a: GElement, atlas: BorelAtlas) -> CheckResult:
    """The centralizer of a lies in b^a and in every member of the atlas."""
    cent = centralizer(a)
    if not span_le([e.coords for e in cent], [e.coords for e in atlas.b_a]):
        return _result("centralizer-containment", False, "not inside b^a")
    for m in atlas.members:
        if not all(m.contains(e) for e in cent):
            return _result("centralizer-containment", False, "not inside a member")
    return _result("centralizer-containment", True, f"{len(atlas.members)} members")


def _verdict(name: str, failures: list[str], detail: str) -> CheckResult:
    """Passed with `detail` when nothing failed, else failed with the
    failures joined."""
    return _result(name, not failures, "; ".join(failures) if failures else detail)


def _cartan_chart(atlas: BorelAtlas) -> list[Vector]:
    """The adapted Cartan basis U0 (E_kk - E_nn) U0^-1, k < n, of the atlas
    frame: the chart x(s) = U0 diag(s_1, ..., s_{n-1}, -sum s_k) U0^-1 on
    which mpoly.permute_cartan_chart acts as the Weyl group."""
    n = atlas.a.algebra.n
    return [atlas.frame.element(k, n - 1, cartan=True).coords for k in range(n - 1)]


def _weyl_translates(restricted: list[MPoly], svars: tuple[str, ...]) -> dict[tuple, tuple[MPoly, ...]]:
    """restricted composed with each Weyl element, keyed by the element."""
    n = len(svars) + 1
    out = {}
    for w in weyl_group(n):
        wmap = permute_cartan_chart(w, svars)
        out[w] = tuple(rp.subs(svars, wmap) for rp in restricted)
    return out


def check_image_bba(sys_: ShiftSystem, atlas: BorelAtlas) -> CheckResult:
    """Three exact checks on F_a restricted to b^a = h_U + u^a:

      (1) the restriction is free of the u^a directions (so the image equals
          the image of the adapted Cartan h_U); when it is not, the row
          fails here.  Its first rank(g) components then have Jacobian rank
          rank(g) at s = (1, ..., n - 1), a point with distinct eigenvalues,
          so F_a(b^a), at most (n - 1)-dimensional as the image of h_U, has
          dimension rank(g): the fibres through b^a form a rank(g)-dimensional
          family,
      (2) for nilpotent a the restriction is (f_1|_h, ..., f_r|_h, 0, ..., 0),
      (3) composing the restriction with every Weyl element w (acting on the
          Cartan chart), the compositions by the stabilizer W_s equal the
          restriction, and there are exactly |W| / |W_s| distinct ones: the
          degree of F_a(b^a), since two distinct polynomial tuples differ at
          a generic point.
    """
    L = sys_.algebra
    a = sys_.a
    nilpotent = a.is_nilpotent()
    failures: list[str] = []
    n = L.n
    hcs = _cartan_chart(atlas)
    ucs = [e.coords for e in atlas.u_a]
    # certification: b^a = h_U  (+) u^a
    if not span_equal(hcs + ucs, [e.coords for e in atlas.b_a]):
        raise CertificationError("b^a does not split as adapted Cartan plus u^a")
    svars = tuple(f"s{k + 1}" for k in range(n - 1))
    tvars = tuple(f"t{k + 1}" for k in range(len(atlas.u_a)))
    origin = L.zero().coords
    restricted = restrict_to_chart(sys_.components, svars + tvars, origin, hcs + ucs)
    if any(any(e[len(svars):]) for rp in restricted for e in rp.terms):
        return _result("image-bba", False, "restriction to b^a depends on a u^a direction")
    restricted = [rp.project(svars) for rp in restricted]
    point = [Scalar(k + 1) for k in range(n - 1)]
    jacobian = [[p.diff(v).eval(point) for v in svars] for p in restricted[:L.rank]]
    rank = mat_rank(ExactMatrix(jacobian))
    if rank != L.rank:
        failures.append(f"image dimension: Jacobian rank {rank} of the first {L.rank} components")
    if nilpotent:
        # (2) nilpotent: (f_1|_h, ..., f_r|_h, 0, ..., 0)
        invariants = restrict_to_chart(sys_.components[:L.rank], svars, origin, hcs)
        failures += ["invariant part of nilpotent restriction mismatch"
                     for comp, inv in zip(restricted, invariants) if comp != inv]
        failures += ["shifted component does not vanish on b^a"
                     for comp in restricted[L.rank:] if comp]
    # (3) W_s-invariance and the degree, from the Weyl compositions
    translates = _weyl_translates(restricted, svars)
    stab = weyl_stabilizer(L.element(ExactMatrix.diagonal(chain_diagonal(atlas.chains))))
    if any(translates[w] != tuple(restricted) for w in stab):
        failures.append("restriction not invariant under the stabilizer")
    expected = len(translates) // len(stab)
    distinct = len(set(translates.values()))
    if distinct != expected:
        failures.append(f"degree: {distinct} distinct Weyl translates, expected {expected}")
    detail = f"degree {expected}" + (", nilpotent form" if nilpotent else "")
    return _verdict("image-bba", failures, detail)


def check_critical_values(sys_: ShiftSystem, samples: int, seed: int) -> CheckResult:
    """Sample the singular family g_sing + C a and certify every sample is a
    critical point of F_a (Jacobian rank < b), with max sampled rank in
    [b - 2, b - 1].  For n = 2 the family is C a, and the image of lam a is
    (lam^2 v_0, lam v_1) for (v_0, v_1) the image of a, so the one point a
    stands for every lam != 0: its rank must be exactly b - 1 and its image
    satisfy the closed form (the parabola v_1^2 = 2 tr(a^2) v_0 for semisimple
    a, the origin for nilpotent a)."""
    L = sys_.algebra
    a = sys_.a
    n = L.n
    failures: list[str] = []
    if n == 2:
        rank = mat_rank(sys_.jacobian_at(a))
        if rank != sys_.b - 1:
            failures.append(f"rank {rank} at a, expected b-1")
        v = sys_.evaluate_scaled(a)
        if a.is_nilpotent():
            if any(not s.is_zero() for s in v):
                failures.append("nilpotent singular image is not the origin")
        elif v[0] * Scalar(2) * (a.matrix * a.matrix).trace() != v[1] * v[1]:
            failures.append("semisimple singular image leaves the parabola")
        return _verdict("critical-values", failures, f"max rank {rank} of {sys_.b}, closed form")
    rng = rng_for(f"critical:{n}", seed)
    max_rank = -1
    regular = not_critical = 0
    for _ in range(samples):
        if rng.random() < 0.5:
            # semisimple with a repeated eigenvalue, traceless
            vals = random_distinct_rationals(rng, n - 2)
            d = [vals[0], vals[0]] + vals[1:]
            d.append(-sum(d))
            base = ExactMatrix.diagonal(d)
        else:
            # nilpotent of minimal nonzero rank
            m = [[Scalar(0)] * n for _ in range(n)]
            m[0][n - 1] = Scalar(1)
            base = ExactMatrix(m)
        g = random_unimodular(L, rng)
        y = conjugate(g, L.element(base))
        if is_regular(y):
            regular += 1
            continue
        z = y + a.scale(random_rational_scalar(rng))
        rank = mat_rank(sys_.jacobian_at(z))
        not_critical += rank >= sys_.b
        max_rank = max(max_rank, rank)
    if regular:
        failures.append(f"sampler produced a regular element ({regular} samples)")
    if not_critical:
        failures.append(f"singular sample is not a critical point ({not_critical} samples)")
    if not (sys_.b - 2 <= max_rank <= sys_.b - 1):
        failures.append(f"max sampled rank {max_rank} outside [b-2, b-1]")
    return _verdict("critical-values", failures, f"max rank {max_rank} of {sys_.b}")


def check_singular_family(sys_: ShiftSystem, x: GElement, atlas: BorelAtlas) -> CheckResult:
    """For non-nilpotent a and x in b^a: exhibit two distinct Borels whose
    components through x both contain x + u^a, certified at once for every
    point of b^a (the components' base ranges over b^a).  For nilpotent a
    this is impossible (the Borel is unique); that case is the expected
    failure and passes when the Borel is indeed unique.  A failed
    certificate fails the row; x outside b^a raises MembershipError.  x + u^a
    lies in both components because u^a lies in both nilradicals (span_le),
    and their values agree because each certificate equals F_a(x)."""
    name = "singular-family"
    if sys_.a.is_nilpotent():
        return _result(name, len(atlas.borels) == 1,
                       "nilpotent shift element: unique Borel, no second component exists")
    if not span_contains([e.coords for e in atlas.b_a], x.coords):
        raise MembershipError("point is not in b^a")
    if len(atlas.borels) < 2:
        return _result(name, False, "non-nilpotent regular element with fewer than 2 Borels")
    b1, b2 = atlas.borels[0], atlas.borels[1]
    u_a = [e.coords for e in atlas.u_a]
    for b in (b1, b2):
        if not all(b.contains(e) for e in atlas.b_a):
            return _result(name, False, "b^a is not inside an atlas Borel")
        if not span_le(u_a, [e.coords for e in b.u_basis]):
            return _result(name, False, "u^a is not inside a Borel nilradical")
    if span_equal(*([e.coords for e in b.u_basis] for b in (b1, b2))):
        return _result(name, False, "the two Borels share a nilradical")
    try:
        borel_component(sys_, x, b1, atlas.b_a)
        borel_component(sys_, x, b2, atlas.b_a)
    except CertificationError as exc:
        return _result(name, False, str(exc))
    return _result(name, True, "x + u^a lies in two distinct Borel components")


def check_exotic_witness(sys_: ShiftSystem, x: GElement, atlas: BorelAtlas,
                         target: FibreValue | None = None) -> CheckResult:
    """x has the target value (default: the zero vector) and lies outside
    every Borel and parabolic of the atlas."""
    if target is None:
        target = tuple(Scalar(0) for _ in range(sys_.b))
    value = sys_.evaluate(x)
    failures = [] if value == tuple(target) else [f"value {tuple(str(v) for v in value)}"]
    failures += [f"inside {member_label(m)}" for m in atlas.members if m.contains(x)]
    return _verdict("exotic-witness", failures, f"outside all {len(atlas.members)} members")


def check_tarasov_section(sys_: ShiftSystem, samples: int, seed: int) -> CheckResult:
    """Certify that xi + b is a section of F_a for diagonal regular a:
    the restricted Jacobian determinant is a nonzero constant, sampled
    section points are strongly regular, and sampled distinct pairs take
    distinct values.  Any other shift is skipped."""
    L = sys_.algebra
    if not sys_.a.is_diagonal():
        return _result("tarasov-section", True,
                       "skipped: the section check needs a diagonal shift element")
    tvars = tuple(f"t{k + 1}" for k in range(L.b))
    xi, dirs = section_chart(L)
    chart = affine_chart(tvars, xi, dirs)
    restricted = restrict_to_chart(sys_.components, tvars, xi, dirs)
    det = mpoly_det([[rc.diff(tv) for tv in tvars] for rc in restricted])
    failures: list[str] = []
    if not det.is_constant() or det.is_zero():
        failures.append("restricted Jacobian determinant is not a nonzero constant")
    jc = str(det.constant_term()) if det.is_constant() else str(det)
    rng = rng_for(f"tarasov:{L.n}", seed)
    checked = 0
    points: list[GElement] = []
    for _ in range(samples):
        tvals = [random_rational_scalar(rng) for _ in tvars]
        x = L.element_from_coords([p.eval(tvals) for p in chart])
        points.append(x)
        try:
            if not is_strongly_regular(sys_, x):
                failures.append("section point not strongly regular")
                break
        except CertificationError as exc:
            failures.append(str(exc))
            break
        checked += 1
    values = [sys_.evaluate(x) for x in points]
    shared = sum(points[idx] != points[jdx] and values[idx] == values[jdx]
                 for idx in range(len(points))
                 for jdx in range(idx + 1, min(idx + 4, len(points))))
    if shared:
        failures.append(f"distinct section points share a value vector ({shared} pairs)")
    return _verdict("tarasov-section", failures, f"jacobian constant {jc}, {checked} points")


def check_tarasov_exotic(sys_: ShiftSystem, atlas: BorelAtlas, samples: int, seed: int) -> CheckResult:
    """Sample section points xi + b with nonzero highest-root coordinate and
    certify they avoid every atlas member."""
    L = sys_.algebra
    if not sys_.a.is_diagonal():
        raise PreconditionError("the section probe needs a diagonal shift element")
    rng = rng_for(f"tarasov-exotic:{L.n}", seed)
    xi, dirs = section_chart(L)
    chart = affine_chart(tuple(f"t{k + 1}" for k in range(len(dirs))), xi, dirs)
    top = L.coord_names.index(f"x1{L.n}")
    failures = [] if samples > 0 else ["no section points sampled"]
    for _ in range(samples):
        # a seeded point of xi + b, its chart coordinates drawn in order; a
        # vanishing highest-root coordinate is moved from 0 to 1
        t = [random_rational_scalar(rng) for _ in dirs]
        coords = [p.eval(t) for p in chart]
        if coords[top].is_zero():
            coords[top] = Scalar(1)
        x = L.element_from_coords(coords)
        failures += [f"highest-root-nonzero point inside {member_label(m)}"
                     for m in atlas.members if m.contains(x)]
    return _verdict("tarasov-exotic", failures,
                    f"{samples} points outside all {len(atlas.members)} members")


def check_near_section(sys_: ShiftSystem, atlas: BorelAtlas) -> CheckResult:
    """For nilpotent a: the W-translates a + w.x_h all share one value vector
    (provable), so fibres meet a + b^a_- in at least |W| points (each w.x_h is
    diagonal in the Borel's frame, so inside b^a_- by construction); the exact
    |W|-to-one degree statement is observational and only reported.  Checked
    as exact identities: F_a on a + h_U, composed with each Weyl element on the
    Cartan chart (the Borel's: a nilpotent a has one Jordan chain), equals
    F_a on a + h_U."""
    a = sys_.a
    if not a.is_nilpotent():
        return _result("near-section", True, "skipped: needs a nilpotent shift")
    L = sys_.algebra
    svars = tuple(f"s{k + 1}" for k in range(L.n - 1))
    restricted = restrict_to_chart(sys_.components, svars, a.coords, _cartan_chart(atlas))
    translates = _weyl_translates(restricted, svars)
    ok = all(t == tuple(restricted) for t in translates.values())
    return _result(
        "near-section", ok,
        f"{len(translates)} equal-value translates (translate count is a lower bound "
        "for the fibre degree; exactness not asserted)",
    )


def run_verify_suite(sys_: ShiftSystem, samples: int = 25, seed: int = 0) -> list[CheckResult]:
    atlas = enumerate_atlas(sys_.a)
    B = atlas.borels[0]

    def rng(tag: str) -> Random:
        return rng_for(f"verify-{tag}:{sys_.algebra.n}", seed)

    return [
        check_poisson_commutativity(sys_),
        check_jacobian_certificate(sys_),
        check_shift_reconstruction(sys_, rng("reconstruction"), samples),
        check_homogeneity(sys_),
        check_equivariance(sys_, rng("equivariance"), samples),
        check_borel_invariance(sys_, B, rng("borel-invariance"), samples),
        check_vandermonde_generators(sys_, rng("vandermonde"), samples),
        check_finite_lambda_membership(sys_, B, rng("membership"), samples, min(samples, 10)),
        check_tangent_triple(sys_, rng("tangent"), samples),
        check_strong_regularity(sys_, rng("sreg"), min(samples, 12)),
        check_centralizer_containment(sys_.a, atlas),
        check_image_bba(sys_, atlas),
        check_critical_values(sys_, min(samples, 20), seed),
        check_singular_family(sys_, sys_.a, atlas),
        check_tarasov_section(sys_, min(samples, 15), seed),
        check_near_section(sys_, atlas),
    ]
