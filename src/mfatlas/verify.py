"""Named verification suites over a single shift system.

Every check returns a CheckResult; run_verify_suite drives them in a fixed
order.  A sampled check takes the random generator it draws from and a
sample count, so mf verify (one seeded generator per check) and the test
property suites (one generator per instance) run the same code; symbolic
checks are exact and take neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from random import Random

from .components import (
    critical_value_probe,
    image_bba_check,
    near_section_probe,
    singular_family_check,
)
from .errors import CertificationError, MFError, PreconditionError
from .flags import BorelAtlas, FlagParabolic, enumerate_atlas
from .lie import GElement, centralizer
from .linalg import mat_inverse, mat_rank, span_le
from .mfsystem import (
    ShiftSystem,
    alt_generators,
    build_system,
    fibre_membership,
    fibre_membership_finite_lambda,
    invariant_values_along,
    is_strongly_regular,
    poisson_bracket_grads,
    section_chart,
    tangent_space,
)
from .mpoly import MPoly, affine_chart, mpoly_det
from .sampling import (
    conjugate,
    random_borel_group_element,
    random_combination,
    random_distinct_rationals,
    random_element,
    random_rational,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from .scalar import Scalar


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_poisson_commutativity(sys_: ShiftSystem) -> CheckResult:
    L = sys_.algebra
    grads = sys_.component_gradients()
    for Gf, Gg in combinations(grads, 2):
        if not poisson_bracket_grads(L, Gf, Gg).is_zero():
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
        lam = Scalar(random_rational(rng))
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
        sys2 = build_system(conjugate(mat_inverse(g), sys_.a), certify=False)
        for _ in range(3):
            x = random_element(L, rng)
            if sys_.evaluate(conjugate(g, x)) != sys2.evaluate(x):
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
        tables.append(
            [[Scalar(v) for v in random_distinct_rationals(rng, i + 2)]
             for i in range(L.n - 1)]
        )
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
        if not is_strongly_regular(sys_, x):
            continue
        try:
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
            if is_strongly_regular(sys_, random_element(L, rng), certify=True):
                hits += 1
        if is_strongly_regular(sys_, L.zero(), certify=True):
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


def check_image_bba(sys_: ShiftSystem, atlas: BorelAtlas, samples: int, seed: int) -> CheckResult:
    rep = image_bba_check(sys_, atlas, samples=samples, seed=seed)
    detail = f"degree {rep.expected_degree}"
    if rep.nilpotent_form is not None:
        detail += ", nilpotent form" if rep.nilpotent_form else ", bad nilpotent form"
    return _result("image-bba", rep.passed, detail if rep.passed else "; ".join(rep.failures))


def check_critical_values(sys_: ShiftSystem, samples: int, seed: int) -> CheckResult:
    rep = critical_value_probe(sys_, samples=samples, seed=seed)
    detail = f"max rank {rep.max_rank} of {sys_.b}"
    if rep.closed_form_ok is not None:
        detail += ", closed form" if rep.closed_form_ok else ", bad closed form"
    return _result("critical-values", rep.passed, detail if rep.passed else "; ".join(rep.failures))


def check_singular_family(sys_: ShiftSystem, atlas: BorelAtlas, rng: Random) -> CheckResult:
    x = random_combination(sys_.algebra, atlas.b_a, rng)
    rep = singular_family_check(sys_, x, atlas)
    return _result("singular-family", rep.passed, rep.detail)


@dataclass
class TarasovReport:
    passed: bool
    jacobian_constant: str
    section_dim: int
    strong_regular_checked: int
    injectivity_pairs: int
    failures: list[str] = field(default_factory=list)


def tarasov_check(sys_: ShiftSystem, sample_count: int = 50, seed: int = 0) -> TarasovReport:
    """Certify that xi + b is a section of F_a for diagonal regular a:
    the restricted Jacobian determinant is a nonzero constant, sampled
    section points are strongly regular, and sampled distinct pairs take
    distinct values."""
    L = sys_.algebra
    a = sys_.a
    if not a.is_diagonal():
        raise PreconditionError("the section check needs a diagonal shift element")
    diag = [a.matrix.entries[i][i] for i in range(L.n)]
    if len(set(diag)) != L.n:
        raise PreconditionError("diagonal entries must be pairwise distinct")
    tvars = tuple(f"t{k + 1}" for k in range(L.b))
    chart = affine_chart(tvars, *section_chart(L))
    mapping = dict(zip(L.coord_names, chart))
    restricted = [c.subs(tvars, mapping) for c in sys_.components]
    jac = [[rc.diff(tv) for tv in tvars] for rc in restricted]
    det = mpoly_det(jac)
    failures: list[str] = []
    const_ok = det.is_constant() and not det.is_zero()
    if not const_ok:
        failures.append("restricted Jacobian determinant is not a nonzero constant")
    jc = str(det.constant_term()) if det.is_constant() else str(det)
    rng = rng_for(f"tarasov:{L.n}", seed)
    checked = 0
    points: list[GElement] = []
    for _ in range(sample_count):
        tvals = [Scalar(random_rational(rng)) for _ in tvars]
        x = L.element_from_coords([p.eval(tvals) for p in chart])
        points.append(x)
        if not is_strongly_regular(sys_, x, certify=True):
            failures.append("section point not strongly regular")
            break
        checked += 1
    pairs = 0
    values = [sys_.evaluate(x) for x in points]
    for idx in range(len(points)):
        for jdx in range(idx + 1, min(idx + 4, len(points))):
            if points[idx] == points[jdx]:
                continue
            pairs += 1
            if values[idx] == values[jdx]:
                failures.append("distinct section points share a value vector")
    return TarasovReport(
        passed=not failures,
        jacobian_constant=jc,
        section_dim=L.b,
        strong_regular_checked=checked,
        injectivity_pairs=pairs,
        failures=failures,
    )


def check_tarasov_section(sys_: ShiftSystem, samples: int, seed: int) -> CheckResult:
    try:
        rep = tarasov_check(sys_, sample_count=samples, seed=seed)
    except PreconditionError as exc:
        return _result("tarasov-section", True, f"skipped: {exc}")
    if not rep.passed:
        return _result("tarasov-section", False, "; ".join(rep.failures))
    return _result(
        "tarasov-section",
        True,
        f"jacobian constant {rep.jacobian_constant}, {rep.strong_regular_checked} points",
    )


def check_near_section(sys_: ShiftSystem, atlas: BorelAtlas, samples: int, seed: int) -> CheckResult:
    if not sys_.a.is_nilpotent():
        return _result("near-section", True, "skipped: needs a nilpotent shift")
    rep = near_section_probe(sys_, atlas, samples=min(samples, 6), seed=seed)
    ok = rep.all_values_equal and rep.in_opposite_borel
    return _result("near-section", ok, f"{rep.translates} equal-value translates ({rep.note})")


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
        check_image_bba(sys_, atlas, min(samples, 12), seed),
        check_critical_values(sys_, min(samples, 20), seed),
        check_singular_family(sys_, atlas, rng("singular-family")),
        check_tarasov_section(sys_, min(samples, 15), seed),
        check_near_section(sys_, atlas, samples, seed),
    ]
