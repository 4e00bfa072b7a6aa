"""Frozen regression corpus: every concrete desk computation for sl_2 and sl_3.

Each check re-derives a published-style closed form inside the library and
compares bit-exactly against the frozen expectation recorded here: printed
system components, fibre parametrization identities, atlas shape tables,
restrictions to b^a, exotic zero-fibre witnesses and their orbit invariance,
degree counts, and the component-count formula instantiations.  What is
frozen for each named sl_3 shift (s, r, n) is one row of _sl3_shifts, which
the generic sl_3 checks and the one exotic-witness routine loop over.  Every
statement about a family of points is certified as a polynomial identity or
at a fixed point, so the corpus draws nothing: each singular family is based
at its shift, and its certificate covers all of b^a.  run_corpus returns one
CheckResult per named check; self_test mode deliberately tampers with a
frozen constant and verifies the harness notices.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from .components import certify_affine_constant, is_strongly_regular
from .count import count_zero_fibre
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
    LieAlgebraA,
    ad_matrix,
    centralizer,
    mixed_rep,
    nilpotent_rep,
    semisimple_rep,
    sl,
    weyl_stabilizer,
)
from .linalg import ExactMatrix, span_equal
from .mfsystem import ShiftSystem, build_system
from .mpoly import (
    MPoly,
    generic_matrix,
    mpoly_mat_mul,
    mpoly_mat_pair,
    mpoly_mat_trace,
)
from .scalar import Scalar
from .verify import (
    CheckResult,
    _result,
    check_centralizer_containment,
    check_critical_values,
    check_exotic_witness,
    check_image_bba,
    check_singular_family,
)


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


def _mixed_witness_entries(rho) -> list[list]:
    """The entries (-3 rho, 1, 3 rho i / 0, 3 rho, 9 rho^2 i / 3 rho i, 0, 0)
    of the Gaussian zero-fibre witness, in the ring of rho (Scalar or MPoly)."""
    i = Scalar(0, 1)
    zero = rho * 0
    return [[rho * -3, zero + 1, rho * 3 * i],
            [zero, rho * 3, rho * rho * 9 * i],
            [rho * 3 * i, zero, zero]]


def _mixed_reduced(x11, x12, x13, x23, x31, x32, rho) -> tuple:
    """The quadric q, cubic c and shifted quadric s of the mixed
    representative with parameter rho on x21 = 0 = x33, x22 = -x11, in the
    ring of the entries and rho."""
    pairs = x13 * x31 + x23 * x32
    return (x11 * x11 + pairs,
            x11 * (x13 * x31 - x23 * x32) + x12 * x23 * x31,
            (x11 * x11 * 2 - pairs) * rho + x23 * x31)


def mixed_zero_fibre_witness(rho) -> GElement:
    """The Gaussian zero-fibre element attached to the mixed representative
    with parameter rho (_mixed_witness_entries)."""
    return sl(3).element(ExactMatrix(_mixed_witness_entries(Scalar(Fraction(rho)))))


def lowering_zero_fibre_witness() -> GElement:
    """The classical zero-fibre element below the diagonal: e_21 - e_32."""
    L = sl(3)
    z = Scalar(0)
    return L.element(
        ExactMatrix([[z, z, z], [Scalar(1), z, z], [z, Scalar(-1), z]])
    )


# -- the named sl_3 shifts ---------------------------------------------------------------


class NamedShift(NamedTuple):
    """One named sl_3 shift and the values the corpus freezes for it; a mask
    is a matrix support pattern, rows joined by "|"."""

    rep: GElement  # the representative
    second: GElement | None  # a second parameter choice
    borel_masks: frozenset[str]
    parabolic_masks: frozenset[str]  # the proper parabolics
    ba_mask: str
    ua_mask: str
    dims: tuple[int, int]  # dim b^a, dim u^a
    image_bba: str  # the check_image_bba pass detail
    bba_targets: Callable[[GElement], tuple[str, list[MPoly]]]  # detail, restriction to b^a
    formula: str  # the count formula, with its lower bound
    lower: int
    witness: tuple[GElement, GElement]  # a shift and an exotic element of its zero fibre
    # the witness's chart and the (q, c, s) with F_a = (2q, 3c, 0, 3s, 0) there, or None
    reduced: Callable[[GElement], tuple[dict[str, MPoly], MPoly, MPoly, MPoly]] | None


def _sl3_shifts() -> dict[str, NamedShift]:
    """The table the generic sl_3 checks loop over, keyed by the names
    mf --element gives the shifts.  It is built when a check runs, so a check
    sees the builders as they are then."""
    return {
        "s": NamedShift(
            sl3_semisimple(1, 2), sl3_semisimple(2, 0),
            frozenset(["***|0**|00*", "*00|**0|***", "**0|0*0|***",
                       "*0*|***|00*", "*00|***|*0*", "***|0*0|0**"]),
            frozenset(["***|***|00*", "**0|**0|***", "***|0**|0**",
                       "*00|***|***", "***|0*0|***", "*0*|***|*0*"]),
            "*00|0*0|00*", "000|000|000", (2, 0),
            "degree 6", _bba_targets_s, "I'(3,[1,1,1]) + 0 + 6", 7,
            semisimple_zero_fibre_witness(2, 2, 4),  # its shift is diag(2, 0, -2)
            _reduced_s,
        ),
        "r": NamedShift(
            sl3_mixed(1), sl3_mixed(2),
            frozenset(["***|0**|00*", "**0|0*0|***", "***|0*0|0**"]),
            frozenset(["***|***|00*", "**0|**0|***", "***|0**|0**", "***|0*0|***"]),
            "**0|0*0|00*", "0*0|000|000", (3, 1),
            "degree 3", _bba_targets_r, "I'(3,[2,1]) + 0 + 3", 4,
            (sl3_mixed(1), mixed_zero_fibre_witness(1)), _reduced_r,
        ),
        "n": NamedShift(
            sl3_nilpotent(), None,
            frozenset(["***|0**|00*"]),
            frozenset(["***|***|00*", "***|0**|0**"]),
            "***|0**|00*", "0**|00*|000", (5, 3),
            "degree 1, nilpotent form", _bba_targets_n, "I'(3,[3]) + 0 + 1", 2,
            (sl3_nilpotent(), lowering_zero_fibre_witness()), None,
        ),
    }


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


def _chart_mapping(L: LieAlgebraA, vars_: tuple[str, ...]) -> dict[str, MPoly]:
    """The coordinates of L on the matrix whose entry (i, j) is the variable
    x_ij of vars_, or zero where vars_ names none: each named off-diagonal
    coordinate is its variable, h_k is the sum of the named x_11, ..., x_kk,
    and every other coordinate is zero."""
    zero = MPoly.zero(vars_)
    names = [[f"x{i + 1}{j + 1}" for j in range(L.n)] for i in range(L.n)]
    rows = [[MPoly.var(vars_, v) if v in vars_ else zero for v in row] for row in names]
    return dict(zip(L.coord_names, L.chart(rows)))


def _masks(members) -> frozenset[str]:
    return frozenset("|".join(mask_strings(m.mask())) for m in members)



# -- sl_2 checks ------------------------------------------------------------------------


def _sl2_printed_form(a1) -> list[MPoly]:
    """The displayed closed form (x1^2 + x2 x3, 2 a1 x1) of sl2_semisimple(a1),
    with x1, x2, x3 = h1, x12, x21; a1 = None gives (x1^2 + x2 x3, x3), that
    of sl2_nilpotent()."""
    vars_ = sl(2).coord_names  # ("x12", "x21", "h1")
    x2, x3, x1 = (MPoly.var(vars_, v) for v in vars_)
    return [x1 * x1 + x2 * x3, x3 if a1 is None else x1 * (Scalar(2) * Scalar(Fraction(a1)))]


def check_sl2_printed_system() -> CheckResult:
    """The two displayed closed forms (_sl2_printed_form), of the semisimple
    representative at three parameters and of the nilpotent one."""
    for a1 in (1, Fraction(3, 2), -2):
        if _system(sl2_semisimple(a1)).scaled_components() != _sl2_printed_form(a1):
            return _result("sl2-printed-system", False, f"semisimple a1={a1}")
    if _system(sl2_nilpotent()).scaled_components() != _sl2_printed_form(None):
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


def _sl2_diagonal_line(sys_: ShiftSystem) -> list[MPoly]:
    """The scaled components on the diagonal line h1 = t, over ("t",)."""
    tvar = ("t",)
    zero = MPoly.zero(tvar)
    return _subs_components(sys_, tvar, {"h1": MPoly.var(tvar, "t"), "x12": zero, "x21": zero})


def check_sl2_semisimple_fibre_split() -> CheckResult:
    """Fibre case split over z = (z1, z2), semisimple shift with parameter a1,
    each statement one identity per shift:

      the diagonal line maps into the parabola z1 = z2^2/(4 a1^2), so off the
      parabola (d = z1 - z2^2/(4 a1^2) != 0) the fibre misses the diagonal;

      on the parabola: the two components x + u_+ and x + u_- through
      x = (z2/2a1^2) s, certified once for the whole parabola by the
      identities F(x + t e_12) = F(x + t e_21) = (z2^2/4a1^2, z2) in (z2, t);

      off the parabola the fibre is the single torus orbit of
      ((z2/2a1, 1), (d, -z2/2a1)): F1 - z1 = (u^2 v^2 - 1) d, F2 = z2 on
      x12 = u^2, x21 = d v^2 puts Ad(diag(u, v)) of that point in the fibre
      for every uv = 1.  Under the injective substitution t = u^2, w = v^2
      it is the chart identity F1 - z1 = (t w - 1) d, F2 = z2 on x12 = t,
      x21 = d w, so the fibre meets that chart in tw = 1 alone.
    """
    for a1 in (1, Fraction(3, 2)):
        a1s = Scalar(Fraction(a1))
        sys_ = _system(sl2_semisimple(a1))
        half = Scalar(1) / (Scalar(2) * a1s)
        quarter = half * half
        Z1, Z2 = _sl2_diagonal_line(sys_)
        if Z1 != Z2 * Z2 * quarter:
            return _result("sl2-semisimple-fibre-split", False, "parabola escape")
        lvars = ("z2", "t")
        lz2 = MPoly.var(lvars, "z2")
        lt = MPoly.var(lvars, "t")
        lzero = MPoly.zero(lvars)
        on_parabola = [lz2 * lz2 * quarter, lz2]
        for up, down in ((lt, lzero), (lzero, lt)):
            mapping = {"h1": lz2 * half, "x12": up, "x21": down}
            if _subs_components(sys_, lvars, mapping) != on_parabola:
                return _result("sl2-semisimple-fibre-split", False, "parabola components")
        ovars = ("z1", "z2", "u", "v")
        z1, z2, u, v = (MPoly.var(ovars, name) for name in ovars)
        d = z1 - z2 * z2 * quarter
        mapping = {"h1": z2 * half, "x12": u * u, "x21": d * v * v}
        F1, F2 = _subs_components(sys_, ovars, mapping)
        if F1 - z1 != (u * u * v * v - Scalar(1)) * d or F2 != z2:
            return _result("sl2-semisimple-fibre-split", False, "torus orbit")
    return _result("sl2-semisimple-fibre-split", True)


def check_sl2_singular_images() -> CheckResult:
    """Images of the singular family C a, by identities on lines: for the
    semisimple representative the diagonal line h1 = t maps onto the parabola
    z1 = z2^2/(4 a1^2) (Z2 is linear and nonzero in t, so every z2 is
    reached), and for the nilpotent one the line x12 = t maps to the origin."""
    for a1 in (1, Fraction(-5, 3)):
        a1s = Scalar(Fraction(a1))
        Z1, Z2 = _sl2_diagonal_line(_system(sl2_semisimple(a1)))
        if Z1 != Z2 * Z2 * (Scalar(1) / (Scalar(4) * a1s * a1s)):
            return _result("sl2-singular-images", False, "parabola identity")
        if Z2.homogeneous_degree() != 1:
            return _result("sl2-singular-images", False, "parabola surjectivity")
    tvar = ("t",)
    zero = MPoly.zero(tvar)
    mapping = {"h1": zero, "x12": MPoly.var(tvar, "t"), "x21": zero}
    if any(_subs_components(_system(sl2_nilpotent()), tvar, mapping)):
        return _result("sl2-singular-images", False, "nilpotent image not origin")
    # on sl_2 the critical-values closed form draws nothing from its generator
    probes = [check_critical_values(_system(a), Random(0), 1)
              for a in (sl2_semisimple(1), sl2_nilpotent())]
    ok = all(r.passed and r.detail.endswith(", closed form") for r in probes)
    return _result("sl2-singular-images", ok, "" if ok else "; ".join(r.detail for r in probes))


def check_sl2_nilpotent_fibres() -> CheckResult:
    """Nilpotent fibre description {x1^2 + x2 z2 = z1, x3 = z2}: the chart
    identity F1 - z1 = (z2 w - 1)(z1 - t^2) on x2 = (z1 - t^2) w puts every
    point with w = 1/z2 in the fibre, one component when z2 != 0, and the two
    parallel components diag(+-c, -+c) + u_+ over z = (c^2, 0), certified
    once for every c by the identities F(diag(+-c, -+c) + t e_12) = (c^2, 0)
    in (c, t)."""
    sys_ = _system(sl2_nilpotent())
    lvars = ("c", "t")
    lc = MPoly.var(lvars, "c")
    lt = MPoly.var(lvars, "t")
    lzero = MPoly.zero(lvars)
    for h1 in (lc, -lc):
        mapping = {"h1": h1, "x12": lt, "x21": lzero}
        if _subs_components(sys_, lvars, mapping) != [lc * lc, lzero]:
            return _result("sl2-nilpotent-fibres", False, "parallel components")
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
    X = generic_matrix(L)
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
    """Both parameter choices of each named shift produce exactly the
    displayed component vector after the recorded rescaling."""
    shifts = [a for row in _sl3_shifts().values() for a in (row.rep, row.second) if a is not None]
    for a in shifts:
        sys_ = _system(a)
        if sys_.scaled_components() != _trace_power_targets(a):
            return _result("sl3-printed-system", False, str(a.matrix.entries))
        if sys_.labels != [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]:
            return _result("sl3-printed-system", False, "component order")
    return _result("sl3-printed-system", True)


def check_sl3_atlas_tables() -> CheckResult:
    """Borel/parabolic masks and the masks and dimensions of b^a and u^a for
    each named shift, and the same Borel/parabolic masks at the second
    parameter choice of the semisimple shift."""
    shifts = _sl3_shifts()
    for name, row in shifts.items():
        at = _atlas(row.rep)
        if _masks(at.borels) != row.borel_masks:
            return _result("sl3-atlas-tables", False, f"{name}: Borel masks")
        if _masks(at.parabolics) != row.parabolic_masks:
            return _result("sl3-atlas-tables", False, f"{name}: parabolic masks")
        if (len(at.b_a), len(at.u_a)) != row.dims:
            return _result("sl3-atlas-tables", False, f"{name}: b^a/u^a dimension")
        for space, basis, frozen in (("b^a", at.b_a, row.ba_mask), ("u^a", at.u_a, row.ua_mask)):
            mask = "|".join(mask_strings(support_mask(row.rep.algebra, basis)))
            if mask != frozen:
                return _result("sl3-atlas-tables", False, f"{name}: {space} mask {mask}")
    s = shifts["s"]
    at2 = _atlas(s.second)
    if (_masks(at2.borels), _masks(at2.parabolics)) != (s.borel_masks, s.parabolic_masks):
        return _result("sl3-atlas-tables", False, "parameter independence")
    return _result("sl3-atlas-tables", True)


def _restriction_targets(vars_: tuple[str, ...], a: GElement) -> list[MPoly]:
    """The five components of an upper-triangular a on the upper-triangular
    chart vars_ (x33 = -x11 - x22): there tr((x + lambda a)^k) is the sum of
    (x_ii + lambda a_ii)^k, so only the diagonals s1 = a_11, s2 = a_22 enter."""
    x11 = MPoly.var(vars_, "x11")
    x22 = MPoly.var(vars_, "x22")
    s1s, s2s = a.matrix.entries[0][0], a.matrix.entries[1][1]
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


def _bba_targets_s(a: GElement) -> tuple[str, list[MPoly]]:
    """a = diag(s1, s2, -s1 - s2): the restriction to b^a is fully diagonal."""
    s1, s2 = a.matrix.entries[0][0], a.matrix.entries[1][1]
    return f"semisimple ({s1},{s2})", _restriction_targets(("x11", "x22"), a)


def _bba_targets_r(a: GElement) -> tuple[str, list[MPoly]]:
    """sl3_mixed(rho), of diagonal (rho, rho, -2 rho): free of x12."""
    return f"mixed rho={a.matrix.entries[0][0]}", _restriction_targets(("x11", "x22", "x12"), a)


def _bba_targets_n(a: GElement) -> tuple[str, list[MPoly]]:
    """The nilpotent shift, of zero diagonal: (f_1|_h, f_2|_h, 0, 0, 0)."""
    return "nilpotent", _restriction_targets(("x11", "x22", "x12", "x13", "x23"), a)


def _reduced_s(a: GElement) -> tuple[dict[str, MPoly], MPoly, MPoly, MPoly]:
    """a = diag(s_a, s_b - s_a, -s_b) on the zero-diagonal chart, with
    x_a, x_b, x_c = x12, x23, x13 and x_{-a}, x_{-b}, x_{-c} their transposes:
    q = x_a x_{-a} + x_b x_{-b} + x_c x_{-c}, c = x_a x_b x_{-c} + x_c x_{-b} x_{-a}
    and s = s_b x_a x_{-a} - s_a x_b x_{-b} - (s_b - s_a) x_c x_{-c}."""
    vars_ = ("x12", "x23", "x13", "x21", "x32", "x31")
    xa, xb, xc, xma, xmb, xmc = (MPoly.var(vars_, v) for v in vars_)
    sa, sb = a.matrix.entries[0][0], -a.matrix.entries[2][2]
    pair_a, pair_b, pair_c = xa * xma, xb * xmb, xc * xmc
    return (_chart_mapping(a.algebra, vars_), pair_a + pair_b + pair_c,
            xa * xb * xmc + xc * xmb * xma, pair_a * sb - pair_b * sa - pair_c * (sb - sa))


def _reduced_r(a: GElement) -> tuple[dict[str, MPoly], MPoly, MPoly, MPoly]:
    """sl3_mixed(rho) on x21 = 0 = x33, x22 = -x11 (_mixed_reduced)."""
    vars_ = ("x11", "x12", "x13", "x23", "x31", "x32")
    mapping = {**_chart_mapping(a.algebra, vars_), "h2": MPoly.zero(vars_)}
    return (mapping, *_mixed_reduced(*(MPoly.var(vars_, v) for v in vars_), a.matrix.entries[0][0]))


def check_sl3_bba_restrictions() -> CheckResult:
    """The displayed restrictions of the five-component map to b^a for each
    parameter choice of each named shift, bit-exact, on the chart of b^a
    whose variables the row's targets name."""
    for row in _sl3_shifts().values():
        for a in (row.rep, row.second):
            if a is None:
                continue
            detail, targets = row.bba_targets(a)
            vars_ = targets[0].vars
            if _subs_components(_system(a), vars_, _chart_mapping(a.algebra, vars_)) != targets:
                return _result("sl3-bba-restrictions", False, detail)
    return _result("sl3-bba-restrictions", True, "")


def check_sl3_weyl_degree() -> CheckResult:
    """Degree of the projection of F_a(b^a) onto the invariant coordinates:
    the stabilizer W_s of diag(rho, rho, -2 rho) is {id, swap(1,2)}, and the
    image-bba probe of each named shift shows that W_s fixes the restriction
    to the Cartan chart and that the Weyl translates take exactly |W|/|W_s|
    distinct values, so a translate equals the restriction exactly when sigma
    is in W_s; the degrees are 6, 3 and 1 (the last in the nilpotent form)."""
    shifts = _sl3_shifts()
    at = _atlas(shifts["r"].rep)
    perms = sorted(weyl_stabilizer(sl(3).element(semisimple_part(at.chains, at.frame))))
    if perms != [(0, 1, 2), (1, 0, 2)]:
        return _result("sl3-weyl-degree", False, f"stabilizer {perms}")
    probes = [check_image_bba(_system(row.rep), _atlas(row.rep)) for row in shifts.values()]
    ok = [(r.passed, r.detail) for r in probes] == [(True, s.image_bba) for s in shifts.values()]
    return _result("sl3-weyl-degree", ok, "" if ok else "image probes")


def _exotic_result(name: str, row: NamedShift) -> CheckResult:
    """The witness steps of every exotic row, on the row's witness x at its
    shift a in sl_n: value zero outside every atlas member, x^(n-1) != 0 =
    x^n (x is regular nilpotent), and x strongly regular (a is regular, so
    this also reads the certificate that the line x + C a is regular, and a
    disagreement fails the row); where the row has a reduced system,
    F = (2q, 3c, 0, 3s, 0) on its chart, as exact identities, at both
    parameter choices of the row."""
    a, x = row.witness
    sys_ = _system(a)
    rep = check_exotic_witness(sys_, x, _atlas(a))
    if not rep.passed:
        return _result(name, False, f"witness check {rep.detail}")
    n = x.algebra.n
    if x.matrix.matpow(n - 1).is_zero() or not x.matrix.matpow(n).is_zero():
        return _result(name, False, "not regular nilpotent")
    try:
        if not is_strongly_regular(sys_, x):
            return _result(name, False, "not strongly regular")
    except CertificationError as exc:
        return _result(name, False, str(exc))
    for b in (row.rep, row.second) if row.reduced else ():
        mapping, q, c, s = row.reduced(b)
        zero = MPoly.zero(q.vars)
        if _subs_components(_system(b), q.vars, mapping) != [q * 2, c * 3, zero, s * 3, zero]:
            return _result(name, False, f"reduced system, {row.bba_targets(b)[0]}")
    return _result(name, True)


def check_sl3_exotic_semisimple() -> CheckResult:
    """The constructed zero-fibre witness for s = diag(2, 0, -2): its frozen
    entries, then the exotic-witness steps (_exotic_result) with the reduced
    system on the zero-diagonal subspace."""
    row = _sl3_shifts()["s"]
    expected = [
        [Scalar(0), Scalar(1), Scalar(-1)],
        [Scalar(2), Scalar(0), Scalar(1)],
        [Scalar(4), Scalar(2), Scalar(0)],
    ]
    if [list(r) for r in row.witness[1].matrix.entries] != expected:
        return _result("sl3-exotic-semisimple", False, "witness entries")
    return _exotic_result("sl3-exotic-semisimple", row)


def check_sl3_exotic_mixed() -> CheckResult:
    """The Gaussian zero-fibre witness for the mixed representative: the
    image-of-ad characterization, the witness solving the reduced system
    symbolically in rho, then the exotic-witness steps (_exotic_result) with
    the reduced system in the six free entries."""
    row = _sl3_shifts()["r"]
    L = row.rep.algebra
    # image(ad_r) = {x11 + x22 = 0 = x33 = x21}
    ad = ad_matrix(row.rep)
    image = [ad.col(j) for j in range(len(ad.entries[0]))]
    target = [tuple(Scalar(int(k == idx)) for k in range(L.dim))
              for idx, name in enumerate(L.coord_names) if name not in ("x21", "h2")]
    if not span_equal(image, target):
        return _result("sl3-exotic-mixed", False, "image of ad")
    rho = MPoly.var(("rho",), "rho")
    w = _mixed_witness_entries(rho)
    if any(_mixed_reduced(w[0][0], w[0][1], w[0][2], w[1][2], w[2][0], w[2][1], rho)):
        return _result("sl3-exotic-mixed", False, "witness does not solve the system")
    return _exotic_result("sl3-exotic-mixed", row)


def check_sl3_exotic_nilpotent() -> CheckResult:
    """The classical witness e_21 - e_32 in the nilpotent zero fibre, outside
    the unique Borel and both parabolics: the exotic-witness steps
    (_exotic_result)."""
    return _exotic_result("sl3-exotic-nilpotent", _sl3_shifts()["n"])


def check_sl3_orbit_invariance() -> CheckResult:
    """The zero fibre is stable under dilations and under conjugation by the
    centralizer group of a, and each witness orbit stays outside every atlas
    member, by identities: F(x) = 0 with every component homogeneous of
    positive degree gives F(c x) = 0; tr(G_f [e, X]) = 0 for every gradient
    G_f and every e in g^a makes F invariant under the group exp(g^a)
    generates (it holds the torus of a semisimple a and every 1 + cN + dN^2
    for the nilpotent part N); and g^a inside every member makes that group
    fix each member, so the orbit meets a member exactly when x does."""
    L = sl(3)
    X = generic_matrix(L)
    for a, x in (row.witness for row in _sl3_shifts().values()):
        sys_ = _system(a)
        at = _atlas(a)
        if any(not v.is_zero() for v in sys_.evaluate(x)) or any(
                c.homogeneous_degree() in (None, 0) for c in sys_.components):
            return _result("sl3-orbit-invariance", False, "dilation")
        for e in centralizer(a):
            E = [[MPoly.const(L.coord_names, c) for c in row] for row in e.matrix.entries]
            ad_e = [[p - q for p, q in zip(rp, rq)]
                    for rp, rq in zip(mpoly_mat_mul(E, X), mpoly_mat_mul(X, E))]
            if any(mpoly_mat_pair(G, ad_e) for G in sys_.component_gradients()):
                return _result("sl3-orbit-invariance", False, "centralizer conjugation")
        if not check_centralizer_containment(a, at).passed or any(m.contains(x) for m in at.members):
            return _result("sl3-orbit-invariance", False, "orbit met a member")
    return _result("sl3-orbit-invariance", True)


def check_sl3_count_formulas() -> CheckResult:
    """Formula instantiations |I'| + 0 + (Borel count) of each named shift,
    with its lower bound and as many Borels as it has frozen Borel masks; all
    Levi factors are rank-one with vanishing exotic counts."""
    for row in _sl3_shifts().values():
        rep = count_zero_fibre(row.rep, atlas=_atlas(row.rep))
        frozen = (row.formula, row.lower, len(row.borel_masks))
        if (rep["formula"], rep["total_lower"], rep["borel_count"]) != frozen:
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


def check_singular_families() -> CheckResult:
    """Two-Borel containment certificates over all of b^a in the
    non-nilpotent cases (one certificate per Borel, based at the shift, which
    lies in b^a), and the expected-failure path for nilpotent a."""
    for a in [sl2_semisimple(1), sl2_nilpotent()] + [row.rep for row in _sl3_shifts().values()]:
        if a.is_nilpotent():
            failure = "nilpotent expected failure"
            expected = "nilpotent shift element: unique Borel, no second component exists"
        else:
            failure, expected = str(a.matrix.entries), "x + u^a lies in two distinct Borel components"
        rep = check_singular_family(_system(a), a, _atlas(a))
        if (rep.passed, rep.detail) != (True, expected):
            return _result("singular-families", False, failure)
    return _result("singular-families", True)


def run_corpus(self_test: bool = False) -> list[CheckResult]:
    """Run every frozen check.  Every check is exact and decides on identities
    or on fixed points: the sl_2 fibre split, singular images and nilpotent
    fibres are polynomial identities in the fibre value and the line or chart
    parameters, the sl_3 orbit invariance is the infinitesimal invariance of
    F_a under the centralizer of a, the Weyl degrees are read from the
    image-bba probes, and the singular families are certified over all of b^a
    with one certificate per Borel, based at the shift.  self_test appends a harness check that tampers
    with a frozen constant and must detect the change."""
    results = [
        check_sl2_printed_system(),
        check_sl2_zero_fibre(),
        check_sl2_semisimple_fibre_split(),
        check_sl2_singular_images(),
        check_sl2_nilpotent_fibres(),
        check_sl3_printed_system(),
        check_sl3_atlas_tables(),
        check_sl3_bba_restrictions(),
        check_sl3_weyl_degree(),
        check_sl3_exotic_semisimple(),
        check_sl3_exotic_mixed(),
        check_sl3_exotic_nilpotent(),
        check_sl3_orbit_invariance(),
        check_sl3_count_formulas(),
        check_singular_families(),
    ]
    if self_test:
        results.append(run_tamper_self_test())
    return results


def run_tamper_self_test() -> CheckResult:
    """Perturb one frozen coefficient and confirm the comparison fails:
    guards against a harness that accepts everything."""
    sys_ = _system(sl2_semisimple(1))
    # the printed form at a1 = 3/2 has coefficient 3 where a1 = 1 has 2
    if sys_.scaled_components() == _sl2_printed_form(Fraction(3, 2)):
        return _result("tamper-self-test", False, "tampered form was accepted")
    if sys_.scaled_components() != _sl2_printed_form(1):
        return _result("tamper-self-test", False, "reference form rejected")
    return _result("tamper-self-test", True)
