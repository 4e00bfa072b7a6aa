"""Frozen regression corpus: every concrete desk computation for sl_2 and sl_3.

Each check re-derives a published-style closed form inside the library and
compares bit-exactly against the frozen expectation recorded here: printed
system components, fibre parametrization identities, atlas shape tables,
restrictions to b^a, exotic zero-fibre witnesses, degree counts, and the
component-count formula instantiations.  run_corpus returns one CheckResult
per named check; self_test mode deliberately tampers with a frozen constant
and verifies the harness notices.
"""

from __future__ import annotations

from fractions import Fraction

from .components import certify_affine_constant, count_zero_fibre
from .errors import CertificationError, PreconditionError
from .flags import (
    BorelAtlas,
    enumerate_atlas,
    mask_strings,
    semisimple_part,
    support_mask,
)
from .lie import (
    GElement,
    ad_matrix,
    mixed_rep,
    nilpotent_rep,
    permute_diagonal,
    semisimple_rep,
    sl,
    weyl_group,
    weyl_stabilizer,
)
from .linalg import ExactMatrix, span_equal
from .mfsystem import ShiftSystem, build_system, is_strongly_regular, krylov_line_regular
from .mpoly import MPoly, mpoly_mat_mul, mpoly_mat_trace
from .sampling import (
    conjugate,
    random_combination,
    random_nonzero_rational,
    random_rational,
    random_traceless_distinct_diag,
    rng_for,
)
from .scalar import Scalar
from .verify import (
    CheckResult,
    _result,
    check_critical_values,
    check_exotic_witness,
    check_image_bba,
    check_singular_family,
)


# -- frozen shape tables (matrix support patterns, rows joined by "|") ---------------

BOREL_MASKS_SL3_S = frozenset(
    [
        "***|0**|00*",
        "*00|**0|***",
        "**0|0*0|***",
        "*0*|***|00*",
        "*00|***|*0*",
        "***|0*0|0**",
    ]
)
PARABOLIC_MASKS_SL3_S = frozenset(
    [
        "***|***|00*",
        "**0|**0|***",
        "***|0**|0**",
        "*00|***|***",
        "***|0*0|***",
        "*0*|***|*0*",
    ]
)
BOREL_MASKS_SL3_R = frozenset(["***|0**|00*", "**0|0*0|***", "***|0*0|0**"])
PARABOLIC_MASKS_SL3_R = frozenset(
    ["***|***|00*", "**0|**0|***", "***|0**|0**", "***|0*0|***"]
)
BOREL_MASKS_SL3_N = frozenset(["***|0**|00*"])
PARABOLIC_MASKS_SL3_N = frozenset(["***|***|00*", "***|0**|0**"])

BBA_MASK = {"s": "*00|0*0|00*", "r": "**0|0*0|00*", "n": "***|0**|00*"}
UA_MASK = {"s": "000|000|000", "r": "0*0|000|000", "n": "0**|00*|000"}


# -- element builders ------------------------------------------------------------------


def sl2_semisimple(a1) -> GElement:
    return semisimple_rep(sl(2), [Scalar(Fraction(a1))])


def sl2_nilpotent() -> GElement:
    return nilpotent_rep(sl(2))


def sl3_semisimple(s1, s2) -> GElement:
    return semisimple_rep(sl(3), [Scalar(Fraction(s1)), Scalar(Fraction(s2))])


def sl3_mixed(rho) -> GElement:
    return mixed_rep(sl(3), [Scalar(Fraction(rho))])


def sl3_nilpotent() -> GElement:
    return nilpotent_rep(sl(3))


def semisimple_zero_fibre_witness(s_alpha, s_beta, root) -> tuple[GElement, GElement]:
    """The zero-fibre element with full off-diagonal support attached to
    s = diag(s_a, s_b - s_a, -s_b): entries solve
    x_a x_{-a} = alpha(s), x_b x_{-b} = beta(s), x_c x_{-c} = -gamma(s)
    with (x_a x_b x_{-c})^2 = alpha(s) beta(s) gamma(s).  root must be a
    square root of that product in the base field."""
    sa, sb = Scalar(Fraction(s_alpha)), Scalar(Fraction(s_beta))
    alpha = Scalar(2) * sa - sb
    beta = Scalar(2) * sb - sa
    gamma = sa + sb
    rt = root if isinstance(root, Scalar) else Scalar(Fraction(root))
    if rt * rt != alpha * beta * gamma:
        raise PreconditionError("root is not a square root of alpha*beta*gamma")
    if rt.is_zero() or alpha.is_zero() or beta.is_zero() or gamma.is_zero():
        raise PreconditionError("shift element must be regular with a nonzero product")
    L = sl(3)
    x_a = Scalar(1)
    x_b = Scalar(1)
    x_mc = rt
    x_ma = alpha / x_a
    x_mb = beta / x_b
    x_c = -gamma / x_mc
    z = Scalar(0)
    x = L.element(
        ExactMatrix([[z, x_a, x_c], [x_ma, z, x_b], [x_mc, x_mb, z]])
    )
    s = L.element(ExactMatrix.diagonal([sa, sb - sa, -sb]))
    return s, x


def mixed_zero_fibre_witness(rho) -> GElement:
    """The Gaussian zero-fibre element attached to the mixed representative
    with parameter rho: entries (-3 rho, 1, 3 rho i / 0, 3 rho, 9 rho^2 i /
    3 rho i, 0, 0)."""
    L = sl(3)
    p = Scalar(Fraction(rho))
    i = Scalar(0, 1)
    z = Scalar(0)
    return L.element(
        ExactMatrix(
            [
                [Scalar(-3) * p, Scalar(1), Scalar(3) * p * i],
                [z, Scalar(3) * p, Scalar(9) * p * p * i],
                [Scalar(3) * p * i, z, z],
            ]
        )
    )


def lowering_zero_fibre_witness() -> GElement:
    """The classical zero-fibre element below the diagonal: e_21 - e_32."""
    L = sl(3)
    z = Scalar(0)
    return L.element(
        ExactMatrix([[z, z, z], [Scalar(1), z, z], [z, Scalar(-1), z]])
    )


# -- shared builds -----------------------------------------------------------------------

# A system or atlas depends on its shift alone, and the checks share a fixed
# set of shifts, so each is built once per process and the memos stay small.
_SYSTEMS: dict[GElement, ShiftSystem] = {}
_ATLASES: dict[GElement, BorelAtlas] = {}


def _system(a: GElement) -> ShiftSystem:
    if a not in _SYSTEMS:
        _SYSTEMS[a] = build_system(a)
    return _SYSTEMS[a]


def _atlas(a: GElement) -> BorelAtlas:
    if a not in _ATLASES:
        _ATLASES[a] = enumerate_atlas(a)
    return _ATLASES[a]


# -- small helpers ---------------------------------------------------------------------


def _subs_components(sys_: ShiftSystem, vars_: tuple[str, ...], mapping: dict[str, MPoly]) -> list[MPoly]:
    return [c.subs(vars_, mapping) for c in sys_.scaled_components()]


def _diag_mapping_sl3(vars_: tuple[str, ...], extra: dict[str, MPoly] | None = None) -> dict[str, MPoly]:
    """Coordinate mapping realizing x11, x22 diagonal variables (and any
    named off-diagonal variables) inside sl_3: h1 = x11, h2 = x11 + x22."""
    L = sl(3)
    x11 = MPoly.var(vars_, "x11")
    x22 = MPoly.var(vars_, "x22")
    mapping = {name: MPoly.zero(vars_) for name in L.coord_names}
    mapping["h1"] = x11
    mapping["h2"] = x11 + x22
    for name in L.coord_names:
        if name.startswith("x") and name in vars_:
            mapping[name] = MPoly.var(vars_, name)
    if extra:
        mapping.update(extra)
    return mapping


def _masks(members) -> frozenset[str]:
    return frozenset("|".join(mask_strings(m.mask())) for m in members)



# -- sl_2 checks ------------------------------------------------------------------------


def check_sl2_printed_system() -> CheckResult:
    """The two displayed closed forms: (x1^2 + x2 x3, 2 a1 x1) for the
    semisimple representative and (x1^2 + x2 x3, x3) for the nilpotent one."""
    L = sl(2)
    vars_ = L.coord_names  # ("x12", "x21", "h1")
    x1 = MPoly.var(vars_, "h1")
    x2 = MPoly.var(vars_, "x12")
    x3 = MPoly.var(vars_, "x21")
    for a1 in (1, Fraction(3, 2), -2):
        sys_ = _system(sl2_semisimple(a1))
        expected = [x1 * x1 + x2 * x3, x1 * (Scalar(2) * Scalar(Fraction(a1)))]
        if sys_.scaled_components() != expected:
            return _result("sl2-printed-system", False, f"semisimple a1={a1}")
    sys_n = _system(sl2_nilpotent())
    if sys_n.scaled_components() != [x1 * x1 + x2 * x3, x3]:
        return _result("sl2-printed-system", False, "nilpotent")
    return _result("sl2-printed-system", True)


def check_sl2_zero_fibre() -> CheckResult:
    """Zero fibres: two lines (strict upper plus strict lower) for the
    semisimple representative, one line for the nilpotent one; component
    counts 2 and 1."""
    L = sl(2)
    e12 = L.element(ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]))
    e21 = L.element(ExactMatrix([[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]]))
    zero = L.zero()
    s = sl2_semisimple(1)
    sys_s = _system(s)
    try:
        v_up = certify_affine_constant(sys_s, zero, [e12])
        v_dn = certify_affine_constant(sys_s, zero, [e21])
    except CertificationError as exc:
        return _result("sl2-zero-fibre", False, str(exc))
    if any(not c.is_zero() for c in v_up + v_dn):
        return _result("sl2-zero-fibre", False, "line is not in the zero fibre")
    at_s = _atlas(s)
    rep_s = count_zero_fibre(s, atlas=at_s)
    n2 = sl2_nilpotent()
    sys_n = _system(n2)
    try:
        v_n = certify_affine_constant(sys_n, zero, [e12])
    except CertificationError as exc:
        return _result("sl2-zero-fibre", False, str(exc))
    rep_n = count_zero_fibre(n2, atlas=_atlas(n2))
    ok = (
        rep_s["total"] == 2
        and rep_n["total"] == 1
        and rep_s["self_term"]["value"] == 0
        and rep_n["self_term"]["value"] == 0
        and len(at_s.borels) == 2
        and not at_s.parabolics
        and all(c.is_zero() for c in v_n)
    )
    return _result("sl2-zero-fibre", ok, f"totals {rep_s['total']}, {rep_n['total']}")


def check_sl2_semisimple_fibre_split(samples: int, seed: int) -> CheckResult:
    """Fibre case split over z = (z1, z2), semisimple shift with parameter a1:

      off the parabola (z1 - z2^2/(4 a1^2) != 0): the fibre is the single
      torus orbit of ((z2/2a1, 1), (z1 - z2^2/4a1^2, -z2/2a1)); verified by
      the symbolic identity F1 - z1 = (t w - 1)(z1 - z2^2/4a1^2) on the chart
      x2 = t, x3 = (z1 - z2^2/4a1^2) w, plus exact sampled points and torus
      conjugations;

      on the parabola: the two components x + u_+ and x + u_- through
      x = (z2/2a1^2) s, certified constant.
    """
    L = sl(2)
    rng = rng_for("corpus-sl2-split", seed)
    for a1 in (1, Fraction(3, 2)):
        a1s = Scalar(Fraction(a1))
        s = sl2_semisimple(a1)
        sys_ = _system(s)
        zvars = ("z1", "z2", "t", "w")
        z1 = MPoly.var(zvars, "z1")
        z2 = MPoly.var(zvars, "z2")
        t = MPoly.var(zvars, "t")
        w = MPoly.var(zvars, "w")
        half = Scalar(1) / (Scalar(2) * a1s)
        d = z1 - z2 * z2 * (half * half)
        mapping = {"h1": z2 * half, "x12": t, "x21": d * w}
        F1, F2 = _subs_components(sys_, zvars, mapping)
        if F1 - z1 != (t * w - Scalar(1)) * d:
            return _result("sl2-semisimple-fibre-split", False, "chart identity (first)")
        if F2 - z2 != MPoly.zero(zvars):
            return _result("sl2-semisimple-fibre-split", False, "chart identity (second)")
        for _ in range(samples):
            z1v = Scalar(random_rational(rng))
            z2v = Scalar(random_rational(rng))
            c = z2v * half
            dv = z1v - c * c
            if dv.is_zero():
                z1v = z1v + Scalar(1)
                dv = z1v - c * c
            tv = Scalar(random_nonzero_rational(rng))
            x = L.element(ExactMatrix([[c, tv], [dv / tv, -c]]))
            if sys_.evaluate_scaled(x) != (z1v, z2v):
                return _result("sl2-semisimple-fibre-split", False, "sampled chart point")
            # the base point of the printed torus orbit, conjugated
            x0 = L.element(ExactMatrix([[c, Scalar(1)], [dv, -c]]))
            u = Scalar(random_nonzero_rational(rng))
            g = ExactMatrix.diagonal([u, Scalar(1) / u])
            moved = conjugate(g, x0)
            expected = L.element(
                ExactMatrix([[c, u * u], [dv / (u * u), -c]])
            )
            if moved.matrix.entries != expected.matrix.entries:
                return _result("sl2-semisimple-fibre-split", False, "torus orbit")
            # off the parabola the fibre misses the diagonal: its unique
            # diagonal candidate has first value c^2 != z1
            if c * c == z1v:
                return _result("sl2-semisimple-fibre-split", False, "parabola escape")
            # on the parabola: two certified line components through (z2/2a1^2) s
            base = s.scale(z2v * half / a1s)
            e12 = L.element(ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]))
            e21 = L.element(ExactMatrix([[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]]))
            try:
                v_up = certify_affine_constant(sys_, base, [e12])
                v_dn = certify_affine_constant(sys_, base, [e21])
            except CertificationError as exc:
                return _result("sl2-semisimple-fibre-split", False, str(exc))
            if v_up != v_dn or sys_.evaluate_scaled(base) != (c * c, z2v):
                return _result("sl2-semisimple-fibre-split", False, "parabola components")
    return _result("sl2-semisimple-fibre-split", True)


def check_sl2_singular_images(samples: int, seed: int) -> CheckResult:
    """Images of the singular family: the parabola z1 = z2^2/(4 a1^2) for the
    semisimple representative (symbolically and on sampled multiples of a),
    and the origin for the nilpotent one."""
    rng = rng_for("corpus-sl2-singular", seed)
    for a1 in (1, Fraction(-5, 3)):
        a1s = Scalar(Fraction(a1))
        s = sl2_semisimple(a1)
        sys_ = _system(s)
        tvar = ("t",)
        tpol = MPoly.var(tvar, "t")
        mapping = {"h1": tpol, "x12": MPoly.zero(tvar), "x21": MPoly.zero(tvar)}
        Z1, Z2 = _subs_components(sys_, tvar, mapping)
        quarter = (Scalar(1) / (Scalar(4) * a1s * a1s))
        if Z1 - Z2 * Z2 * quarter != MPoly.zero(tvar):
            return _result("sl2-singular-images", False, "parabola identity")
        for _ in range(samples):
            lam = Scalar(random_rational(rng))
            z1v, z2v = sys_.evaluate_scaled(s.scale(lam))
            if z1v != z2v * z2v * quarter:
                return _result("sl2-singular-images", False, "sampled parabola point")
            # surjectivity onto the parabola: z2 arbitrary is achieved at
            # the diagonal point with entry z2/(2 a1)
            z2w = Scalar(random_rational(rng))
            xw = s.scale(z2w / (Scalar(2) * a1s * a1s))
            if sys_.evaluate_scaled(xw) != (z2w * z2w * quarter, z2w):
                return _result("sl2-singular-images", False, "parabola surjectivity")
        n2 = sl2_nilpotent()
        sys_n = _system(n2)
        for _ in range(samples):
            lam = Scalar(random_rational(rng))
            if any(not v.is_zero() for v in sys_n.evaluate_scaled(n2.scale(lam))):
                return _result("sl2-singular-images", False, "nilpotent image not origin")
    probes = [check_critical_values(_system(a), 20, seed)
              for a in (sl2_semisimple(1), sl2_nilpotent())]
    ok = all(r.passed and r.detail.endswith(", closed form") for r in probes)
    return _result("sl2-singular-images", ok, "" if ok else "; ".join(r.detail for r in probes))


def check_sl2_nilpotent_fibres(samples: int, seed: int) -> CheckResult:
    """Nilpotent fibre description {x1^2 + x2 z2 = z1, x3 = z2} (chart
    identity F1 - z1 = (z2 w - 1)(z1 - t^2) on x2 = (z1 - t^2) w), one
    component when z2 != 0, and the two parallel components
    diag(+-c, -+c) + u_+ over z = (c^2, 0)."""
    L = sl(2)
    rng = rng_for("corpus-sl2-nilfibre", seed)
    n2 = sl2_nilpotent()
    sys_ = _system(n2)
    zvars = ("z1", "z2", "t", "w")
    z1 = MPoly.var(zvars, "z1")
    z2 = MPoly.var(zvars, "z2")
    t = MPoly.var(zvars, "t")
    w = MPoly.var(zvars, "w")
    mapping = {"h1": t, "x12": (z1 - t * t) * w, "x21": z2}
    F1, F2 = _subs_components(sys_, zvars, mapping)
    if F1 - z1 != (z2 * w - Scalar(1)) * (z1 - t * t):
        return _result("sl2-nilpotent-fibres", False, "chart identity (first)")
    if F2 - z2 != MPoly.zero(zvars):
        return _result("sl2-nilpotent-fibres", False, "chart identity (second)")
    e12 = L.element(ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]))
    for _ in range(samples):
        z1v = Scalar(random_rational(rng))
        z2v = Scalar(random_nonzero_rational(rng))
        tv = Scalar(random_rational(rng))
        x = L.element(ExactMatrix([[tv, (z1v - tv * tv) / z2v], [z2v, -tv]]))
        if sys_.evaluate_scaled(x) != (z1v, z2v):
            return _result("sl2-nilpotent-fibres", False, "sampled chart point")
        cv = Scalar(random_nonzero_rational(rng))
        base_p = L.element(ExactMatrix.diagonal([cv, -cv]))
        base_m = L.element(ExactMatrix.diagonal([-cv, cv]))
        try:
            vp = certify_affine_constant(sys_, base_p, [e12])
            vm = certify_affine_constant(sys_, base_m, [e12])
        except CertificationError as exc:
            return _result("sl2-nilpotent-fibres", False, str(exc))
        if vm != vp or sys_.evaluate_scaled(base_p) != (cv * cv, Scalar(0)):
            return _result("sl2-nilpotent-fibres", False, "parallel components")
    # restriction to the Borel: (x1^2, 0)
    bvars = ("x1", "x2")
    x1 = MPoly.var(bvars, "x1")
    mapping_b = {"h1": x1, "x12": MPoly.var(bvars, "x2"), "x21": MPoly.zero(bvars)}
    R1, R2 = _subs_components(sys_, bvars, mapping_b)
    ok = R1 == x1 * x1 and R2 == MPoly.zero(bvars)
    return _result("sl2-nilpotent-fibres", ok, "" if ok else "Borel restriction")


# -- sl_3 checks ------------------------------------------------------------------------


def _trace_power_targets(a: GElement) -> list[MPoly]:
    """The displayed five-component form
    (tr x^2, tr x^3, 2 tr(a x), 3 tr(a x^2), 6 tr(a^2 x)), computed
    independently from the generic matrix."""
    L = a.algebra
    X = L.generic_matrix()
    vars_ = L.coord_names
    A = [[MPoly.const(vars_, a.matrix.entries[i][j]) for j in range(3)] for i in range(3)]
    X2 = mpoly_mat_mul(X, X)
    X3 = mpoly_mat_mul(X2, X)
    A2 = mpoly_mat_mul(A, A)
    return [
        mpoly_mat_trace(X2),
        mpoly_mat_trace(X3),
        mpoly_mat_trace(mpoly_mat_mul(A, X)) * Scalar(2),
        mpoly_mat_trace(mpoly_mat_mul(A, X2)) * Scalar(3),
        mpoly_mat_trace(mpoly_mat_mul(A2, X)) * Scalar(6),
    ]


def check_sl3_printed_system() -> CheckResult:
    """All five representatives produce exactly the displayed component
    vector after the recorded rescaling."""
    shifts = [
        sl3_semisimple(1, 2),
        sl3_semisimple(2, 0),
        sl3_mixed(1),
        sl3_mixed(2),
        sl3_nilpotent(),
    ]
    for a in shifts:
        sys_ = _system(a)
        if sys_.scaled_components() != _trace_power_targets(a):
            return _result("sl3-printed-system", False, str(a.matrix.entries))
        if sys_.labels != [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]:
            return _result("sl3-printed-system", False, "component order")
    return _result("sl3-printed-system", True)


def check_sl3_atlas_tables() -> CheckResult:
    """Borel/parabolic counts and support masks for the three conjugacy
    representatives, plus the shapes of b^a and u^a."""
    cases = [
        ("s", sl3_semisimple(1, 2), BOREL_MASKS_SL3_S, PARABOLIC_MASKS_SL3_S, 2, 0),
        ("r", sl3_mixed(1), BOREL_MASKS_SL3_R, PARABOLIC_MASKS_SL3_R, 3, 1),
        ("n", sl3_nilpotent(), BOREL_MASKS_SL3_N, PARABOLIC_MASKS_SL3_N, 5, 3),
    ]
    for label, a, bmask, pmask, dim_ba, dim_ua in cases:
        at = _atlas(a)
        if _masks(at.borels) != bmask:
            return _result("sl3-atlas-tables", False, f"{label}: Borel masks")
        if _masks(at.parabolics) != pmask:
            return _result("sl3-atlas-tables", False, f"{label}: parabolic masks")
        if len(at.b_a) != dim_ba or len(at.u_a) != dim_ua:
            return _result("sl3-atlas-tables", False, f"{label}: b^a/u^a dimension")
        ba_mask = "|".join(mask_strings(support_mask(a.algebra, at.b_a)))
        if ba_mask != BBA_MASK[label]:
            return _result("sl3-atlas-tables", False, f"{label}: b^a mask {ba_mask}")
        ua_mask = "|".join(mask_strings(support_mask(a.algebra, at.u_a)))
        if ua_mask != UA_MASK[label]:
            return _result("sl3-atlas-tables", False, f"{label}: u^a mask {ua_mask}")
    # a second semisimple parameter choice gives the same tables
    at2 = _atlas(sl3_semisimple(2, 0))
    if _masks(at2.borels) != BOREL_MASKS_SL3_S or _masks(at2.parabolics) != PARABOLIC_MASKS_SL3_S:
        return _result("sl3-atlas-tables", False, "parameter independence")
    return _result("sl3-atlas-tables", True)


def _restriction_targets_s(vars_: tuple[str, ...], s1, s2) -> list[MPoly]:
    x11 = MPoly.var(vars_, "x11")
    x22 = MPoly.var(vars_, "x22")
    s1s, s2s = Scalar(Fraction(s1)), Scalar(Fraction(s2))
    two = Scalar(2)
    three = Scalar(3)
    six = Scalar(6)
    return [
        (x11 * x11 + x22 * x22 + x11 * x22) * two,
        (x11 * x11 * x22 + x11 * x22 * x22) * (-three),
        x11 * (two * (two * s1s + s2s)) + x22 * (two * (s1s + two * s2s)),
        (x11 * x11 * s2s + x11 * x22 * (two * (s1s + s2s)) + x22 * x22 * s1s) * (-three),
        x11 * (-six * (two * s1s * s2s + s2s * s2s))
        + x22 * (-six * (s1s * s1s + two * s1s * s2s)),
    ]


def _restriction_targets_r(vars_: tuple[str, ...], rho) -> list[MPoly]:
    x11 = MPoly.var(vars_, "x11")
    x22 = MPoly.var(vars_, "x22")
    p = Scalar(Fraction(rho))
    two = Scalar(2)
    three = Scalar(3)
    return [
        (x11 * x11 + x22 * x22 + x11 * x22) * two,
        (x11 * x11 * x22 + x11 * x22 * x22) * (-three),
        (x11 + x22) * (Scalar(6) * p),
        (x11 * x11 + x11 * x22 * Scalar(4) + x22 * x22) * (-three * p),
        (x11 + x22) * (Scalar(-18) * p * p),
    ]


def check_sl3_bba_restrictions() -> CheckResult:
    """The displayed restrictions of the five-component map to b^a for the
    three representatives, bit-exact: fully diagonal for the semisimple case,
    free of x12 for the mixed case, and (f_1|_h, f_2|_h, 0, 0, 0) for the
    nilpotent case."""
    for s1, s2 in ((1, 2), (2, 0)):
        sys_ = _system(sl3_semisimple(s1, s2))
        vars_ = ("x11", "x22")
        mapping = _diag_mapping_sl3(vars_)
        got = _subs_components(sys_, vars_, mapping)
        if got != _restriction_targets_s(vars_, s1, s2):
            return _result("sl3-bba-restrictions", False, f"semisimple ({s1},{s2})")
    for rho in (1, 2):
        sys_ = _system(sl3_mixed(rho))
        vars_ = ("x11", "x22", "x12")
        mapping = _diag_mapping_sl3(vars_)
        got = _subs_components(sys_, vars_, mapping)
        if got != _restriction_targets_r(vars_, rho):
            return _result("sl3-bba-restrictions", False, f"mixed rho={rho}")
    sys_n = _system(sl3_nilpotent())
    vars_ = ("x11", "x22", "x12", "x13", "x23")
    mapping = _diag_mapping_sl3(vars_)
    got = _subs_components(sys_n, vars_, mapping)
    f1 = _restriction_targets_s(vars_, 0, 0)[0]
    f2 = _restriction_targets_s(vars_, 0, 0)[1]
    zero = MPoly.zero(vars_)
    ok = got == [f1, f2, zero, zero, zero]
    return _result("sl3-bba-restrictions", ok, "" if ok else "nilpotent")


def check_sl3_weyl_degree(samples: int, seed: int) -> CheckResult:
    """Degree of the projection of F_a(b^a) onto the invariant coordinates:
    the stabilizer of diag(rho, rho, -2 rho) is {id, swap(1,2)}, the diagonal
    restriction is invariant exactly under that stabilizer, and Weyl orbits
    of regular diagonal points take |W / W_s| = 3 distinct values (6 for the
    semisimple representative, 1 for the nilpotent one)."""
    L = sl(3)
    r = sl3_mixed(1)
    atlas_r = _atlas(r)
    stab = weyl_stabilizer(L.element(semisimple_part(atlas_r.chains, atlas_r.frame)))
    perms = sorted(stab)
    if perms != [(0, 1, 2), (1, 0, 2)]:
        return _result("sl3-weyl-degree", False, f"stabilizer {perms}")
    sys_r = _system(r)
    vars_ = ("x11", "x22")
    mapping = _diag_mapping_sl3(vars_)
    restricted = _subs_components(sys_r, vars_, mapping)
    swap = {"x11": MPoly.var(vars_, "x22"), "x22": MPoly.var(vars_, "x11")}
    if [p.subs(vars_, swap) for p in restricted] != restricted:
        return _result("sl3-weyl-degree", False, "stabilizer invariance")
    rng = rng_for("corpus-weyl-degree", seed)
    W = weyl_group(3)
    for _ in range(samples):
        x = random_traceless_distinct_diag(L, rng)
        d = [x.matrix.entries[i][i] for i in range(3)]
        base_val = sys_r.evaluate(x)
        distinct = set()
        for sigma in W:
            xs = L.element(ExactMatrix.diagonal(permute_diagonal(sigma, d)))
            v = sys_r.evaluate(xs)
            distinct.add(v)
            in_stab = sigma in stab
            if in_stab != (v == base_val):
                return _result("sl3-weyl-degree", False, f"translate {sigma}")
        if len(distinct) != 3:
            return _result("sl3-weyl-degree", False, f"{len(distinct)} orbit values")
    probe_samples = max(6, samples // 3)
    probes = [check_image_bba(sys_r, atlas_r, probe_samples, seed)]
    for a in (sl3_semisimple(1, 2), sl3_nilpotent()):
        probes.append(check_image_bba(_system(a), _atlas(a), probe_samples, seed))
    ok = [(r.passed, r.detail) for r in probes] == [
        (True, "degree 3"), (True, "degree 6"), (True, "degree 1, nilpotent form")]
    return _result("sl3-weyl-degree", ok, "" if ok else "image probes")


def check_sl3_exotic_semisimple() -> CheckResult:
    """The constructed zero-fibre witness for s = diag(2, 0, -2): entry
    conditions, the reduced three-equation system on the zero-diagonal
    subspace (as exact polynomial identities), the multiply-through identity
    that solves the cubic equation, value zero, exclusion from every atlas
    member, and x^2 != 0 = x^3 with strong regularity."""
    s, x = semisimple_zero_fibre_witness(2, 2, 4)
    expected = [
        [Scalar(0), Scalar(1), Scalar(-1)],
        [Scalar(2), Scalar(0), Scalar(1)],
        [Scalar(4), Scalar(2), Scalar(0)],
    ]
    if [list(row) for row in x.matrix.entries] != expected:
        return _result("sl3-exotic-semisimple", False, "witness entries")
    sys_ = _system(s)
    rep = check_exotic_witness(sys_, x, _atlas(s))
    if not rep.passed:
        return _result("sl3-exotic-semisimple", False, f"witness check {rep.detail}")
    if x.matrix.matpow(2).is_zero() or not x.matrix.matpow(3).is_zero():
        return _result("sl3-exotic-semisimple", False, "not regular nilpotent")
    if not is_strongly_regular(sys_, x, certify=True):
        return _result("sl3-exotic-semisimple", False, "not strongly regular")
    # reduced system on the zero-diagonal subspace, for generic s-parameters:
    # use two distinct numeric (s_a, s_b) pairs
    for sa_v, sb_v in ((2, 2), (1, 3)):
        sa, sb = Scalar(sa_v), Scalar(sb_v)
        sgen = sl(3).element(ExactMatrix.diagonal([sa, sb - sa, -sb]))
        sys_g = _system(sgen)
        vars_ = ("xa", "xb", "xc", "xma", "xmb", "xmc")
        xa, xb, xc, xma, xmb, xmc = (MPoly.var(vars_, v) for v in vars_)
        mapping = {
            "h1": MPoly.zero(vars_),
            "h2": MPoly.zero(vars_),
            "x12": xa, "x23": xb, "x13": xc,
            "x21": xma, "x32": xmb, "x31": xmc,
        }
        comps = _subs_components(sys_g, vars_, mapping)
        pair_a, pair_b, pair_c = xa * xma, xb * xmb, xc * xmc
        eq1 = pair_a + pair_b + pair_c
        eq2 = pair_a * sb - pair_b * sa - pair_c * (sb - sa)
        eq3 = xa * xb * xmc + xc * xmb * xma
        if comps[0] != eq1 * Scalar(2):
            return _result("sl3-exotic-semisimple", False, "quadratic reduction")
        if comps[1] != eq3 * Scalar(3):
            return _result("sl3-exotic-semisimple", False, "cubic reduction")
        if comps[3] != eq2 * Scalar(3):
            return _result("sl3-exotic-semisimple", False, "shifted quadratic reduction")
        if comps[2] != MPoly.zero(vars_) or comps[4] != MPoly.zero(vars_):
            return _result("sl3-exotic-semisimple", False, "linear components nonzero")
        # the multiply-through identity behind the cubic equation
        lhs = (xa * xb * xmc) * eq3
        rhs = (xa * xb * xmc) * (xa * xb * xmc) + pair_a * pair_b * pair_c
        if lhs != rhs:
            return _result("sl3-exotic-semisimple", False, "product identity")
    return _result("sl3-exotic-semisimple", True)


def check_sl3_exotic_mixed() -> CheckResult:
    """The Gaussian zero-fibre witness for the mixed representative: the
    image-of-ad characterization, the reduced system (exact identities in
    the six free entries), the witness solving it symbolically in rho,
    value zero with atlas exclusion at rho = 1, regular nilpotency, and
    line regularity."""
    L = sl(3)
    r = sl3_mixed(1)
    # image(ad_r) = {x11 + x22 = 0 = x33 = x21}
    ad = ad_matrix(r)
    image = [ad.col(j) for j in range(len(ad.entries[0]))]
    target = []
    for name in L.coord_names:
        if name in ("x21", "h2"):
            continue
        idx = L.coord_names.index(name)
        v = [Scalar(0)] * len(L.coord_names)
        v[idx] = Scalar(1)
        target.append(tuple(v))
    if not span_equal(image, target):
        return _result("sl3-exotic-mixed", False, "image of ad")
    for rho in (1, Fraction(1, 2)):
        sys_ = _system(sl3_mixed(rho))
        p = Scalar(Fraction(rho))
        vars_ = ("x11", "x12", "x13", "x23", "x31", "x32")
        x11, x12, x13, x23, x31, x32 = (MPoly.var(vars_, v) for v in vars_)
        mapping = {
            "h1": x11, "h2": MPoly.zero(vars_),
            "x12": x12, "x13": x13, "x23": x23,
            "x21": MPoly.zero(vars_), "x31": x31, "x32": x32,
        }
        comps = _subs_components(sys_, vars_, mapping)
        eq1 = x11 * x11 + x13 * x31 + x23 * x32
        eq2 = x11 * (x13 * x31 - x23 * x32) + x12 * x23 * x31
        eq3 = (x11 * x11 * Scalar(2) - x13 * x31 - x23 * x32) * p + x23 * x31
        if comps[0] != eq1 * Scalar(2):
            return _result("sl3-exotic-mixed", False, f"quadratic reduction rho={rho}")
        if comps[1] != eq2 * Scalar(3):
            return _result("sl3-exotic-mixed", False, f"cubic reduction rho={rho}")
        if comps[3] != eq3 * Scalar(3):
            return _result("sl3-exotic-mixed", False, f"shifted reduction rho={rho}")
        if comps[2] != MPoly.zero(vars_) or comps[4] != MPoly.zero(vars_):
            return _result("sl3-exotic-mixed", False, f"linear components rho={rho}")
    # witness solves the reduced system symbolically in rho
    rv = ("rho",)
    rpol = MPoly.var(rv, "rho")
    i = Scalar(0, 1)
    w11 = rpol * Scalar(-3)
    w12 = MPoly.const(rv, 1)
    w13 = rpol * (Scalar(3) * i)
    w23 = rpol * rpol * (Scalar(9) * i)
    w31 = rpol * (Scalar(3) * i)
    w32 = MPoly.zero(rv)
    weq1 = w11 * w11 + w13 * w31 + w23 * w32
    weq2 = w11 * (w13 * w31 - w23 * w32) + w12 * w23 * w31
    weq3 = (w11 * w11 * Scalar(2) - w13 * w31 - w23 * w32) * rpol + w23 * w31
    if weq1 != MPoly.zero(rv) or weq2 != MPoly.zero(rv) or weq3 != MPoly.zero(rv):
        return _result("sl3-exotic-mixed", False, "witness does not solve the system")
    x = mixed_zero_fibre_witness(1)
    sys_1 = _system(r)
    rep = check_exotic_witness(sys_1, x, _atlas(r))
    if not rep.passed:
        return _result("sl3-exotic-mixed", False, "witness check")
    if x.matrix.matpow(2).is_zero() or not x.matrix.matpow(3).is_zero():
        return _result("sl3-exotic-mixed", False, "not regular nilpotent")
    if not krylov_line_regular(x, r):
        return _result("sl3-exotic-mixed", False, "line not regular")
    if not is_strongly_regular(sys_1, x, certify=True):
        return _result("sl3-exotic-mixed", False, "not strongly regular")
    return _result("sl3-exotic-mixed", True)


def check_sl3_exotic_nilpotent() -> CheckResult:
    """The classical witness e_21 - e_32 lies in the nilpotent zero fibre,
    outside the unique Borel and both parabolics."""
    n = sl3_nilpotent()
    x = lowering_zero_fibre_witness()
    sys_ = _system(n)
    rep = check_exotic_witness(sys_, x, _atlas(n))
    if not rep.passed:
        return _result("sl3-exotic-nilpotent", False, "witness check")
    if x.matrix.matpow(2).is_zero() or not x.matrix.matpow(3).is_zero():
        return _result("sl3-exotic-nilpotent", False, "not regular nilpotent")
    return _result("sl3-exotic-nilpotent", True)


def check_sl3_orbit_invariance(samples: int, seed: int) -> CheckResult:
    """The zero fibre is stable under dilations and under conjugation by the
    centralizer of a; sampled orbit points of each witness stay in the zero
    fibre and outside every atlas member."""
    rng = rng_for("corpus-orbit", seed)
    L = sl(3)
    zero5 = tuple(Scalar(0) for _ in range(5))
    cases = []
    s, xs = semisimple_zero_fibre_witness(2, 2, 4)
    cases.append((s, xs, "torus"))
    cases.append((sl3_mixed(1), mixed_zero_fibre_witness(1), "unipotent"))
    cases.append((sl3_nilpotent(), lowering_zero_fibre_witness(), "unipotent"))
    for a, x, kind in cases:
        sys_ = _system(a)
        at = _atlas(a)
        # N = a - s, the nilpotent part of a
        nil = a.matrix - semisimple_part(at.chains, at.frame)
        for _ in range(samples):
            c = Scalar(random_nonzero_rational(rng))
            if sys_.evaluate(x.scale(c)) != zero5:
                return _result("sl3-orbit-invariance", False, "dilation")
            if kind == "torus":
                t1 = Scalar(random_nonzero_rational(rng))
                t2 = Scalar(random_nonzero_rational(rng))
                g = ExactMatrix.diagonal([t1, t2, Scalar(1) / (t1 * t2)])
            else:
                # unipotent elements of the centralizer: 1 + c N + d N^2
                d = Scalar(random_rational(rng))
                g = ExactMatrix.identity(3) + nil.scale(c) + (nil * nil).scale(d)
            y = conjugate(g, x)
            if sys_.evaluate(y) != zero5:
                return _result("sl3-orbit-invariance", False, "centralizer conjugation")
            if any(m.contains(y) for m in at.members):
                return _result("sl3-orbit-invariance", False, "orbit met a member")
    return _result("sl3-orbit-invariance", True)


def check_sl3_count_formulas() -> CheckResult:
    """Formula instantiations: semisimple |I'| + 0 + 6 with lower bound 7,
    mixed |I'| + 0 + 3 with lower bound 4, nilpotent |I'| + 0 + 1 with lower
    bound 2; all Levi factors are rank-one with vanishing exotic counts."""
    cases = [
        (sl3_semisimple(1, 2), "I'(3,[1,1,1]) + 0 + 6", 7, 6),
        (sl3_mixed(1), "I'(3,[2,1]) + 0 + 3", 4, 3),
        (sl3_nilpotent(), "I'(3,[3]) + 0 + 1", 2, 1),
    ]
    for a, formula, lower, borels in cases:
        rep = count_zero_fibre(a, atlas=_atlas(a))
        if (rep["formula"], rep["total_lower"], rep["borel_count"]) != (formula, lower, borels):
            return _result(
                "sl3-count-formulas", False,
                f"{rep['formula']} lower {rep['total_lower']}",
            )
        if rep["total"] is not None:
            return _result("sl3-count-formulas", False, "total should stay symbolic")
        for term in rep["parabolic_terms"]:
            if term["product"] != 0:
                return _result("sl3-count-formulas", False, "Levi term nonzero")
    return _result("sl3-count-formulas", True)


def check_singular_families(samples: int, seed: int) -> CheckResult:
    """Two-Borel containment certificates for sampled points of b^a in the
    non-nilpotent cases, and the expected-failure path for nilpotent a."""
    rng = rng_for("corpus-singular-family", seed)
    cases = [sl2_semisimple(1), sl3_semisimple(1, 2), sl3_mixed(1)]
    for a in cases:
        sys_ = _system(a)
        at = _atlas(a)
        for _ in range(samples):
            rep = check_singular_family(sys_, random_combination(a.algebra, at.b_a, rng), at)
            if (rep.passed, rep.detail) != (True, "x + u^a lies in two distinct Borel components"):
                return _result("singular-families", False, str(a.matrix.entries))
    for a in (sl2_nilpotent(), sl3_nilpotent()):
        rep = check_singular_family(_system(a), a, _atlas(a))
        if (rep.passed, rep.detail) != (
                True, "nilpotent shift element: unique Borel, no second component exists"):
            return _result("singular-families", False, "nilpotent expected failure")
    return _result("singular-families", True)


def run_corpus(samples: int = 100, seed: int = 0, self_test: bool = False) -> list[CheckResult]:
    """Run every frozen check.  samples scales the sampled (non-symbolic)
    portions; symbolic identities always run.  self_test appends a harness
    check that tampers with a frozen constant and must detect the change."""
    small = max(10, samples // 5)
    results = [
        check_sl2_printed_system(),
        check_sl2_zero_fibre(),
        check_sl2_semisimple_fibre_split(samples, seed),
        check_sl2_singular_images(samples, seed),
        check_sl2_nilpotent_fibres(samples, seed),
        check_sl3_printed_system(),
        check_sl3_atlas_tables(),
        check_sl3_bba_restrictions(),
        check_sl3_weyl_degree(small, seed),
        check_sl3_exotic_semisimple(),
        check_sl3_exotic_mixed(),
        check_sl3_exotic_nilpotent(),
        check_sl3_orbit_invariance(max(5, small // 2), seed),
        check_sl3_count_formulas(),
        check_singular_families(max(5, small // 2), seed),
    ]
    if self_test:
        results.append(run_tamper_self_test())
    return results


def run_tamper_self_test() -> CheckResult:
    """Perturb one frozen coefficient and confirm the comparison fails:
    guards against a harness that accepts everything."""
    sys_ = _system(sl2_semisimple(1))
    L = sl(2)
    vars_ = L.coord_names
    x1 = MPoly.var(vars_, "h1")
    x2 = MPoly.var(vars_, "x12")
    x3 = MPoly.var(vars_, "x21")
    tampered = [x1 * x1 + x2 * x3, x1 * Scalar(3)]  # true coefficient is 2 a1 = 2
    if sys_.scaled_components() == tampered:
        return _result("tamper-self-test", False, "tampered form was accepted")
    good = [x1 * x1 + x2 * x3, x1 * Scalar(2)]
    if sys_.scaled_components() != good:
        return _result("tamper-self-test", False, "reference form rejected")
    return _result("tamper-self-test", True)
