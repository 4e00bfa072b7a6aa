"""Affine fibre components: Borel components, Weyl translates, parabolic
lifts, zero-fibre counting; and the verify checks built on them (exotic
witnesses, image and singular probes), by their exact (passed, detail)."""

from fractions import Fraction

import pytest

from mfatlas.components import (
    AffineComponent,
    borel_component,
    certify_affine_constant,
    levi_system,
    parabolic_lift,
    weyl_components,
)
from mfatlas.corpus import (
    lowering_zero_fibre_witness,
    mixed_zero_fibre_witness,
    sl2_nilpotent,
    sl2_semisimple,
    sl3_mixed,
    sl3_nilpotent,
    sl3_semisimple,
    semisimple_zero_fibre_witness,
)
from mfatlas.count import (
    IPRIME_DEFAULTS,
    count_zero_fibre,
    eigen_partition,
    iprime_symbol,
    load_iprime,
)
from mfatlas.errors import CertificationError, MembershipError, NotNilpotentError
from mfatlas.flags import eigen_chains, enumerate_atlas, levi_projection, member_label
from mfatlas.lie import sl
from mfatlas.linalg import ExactMatrix, char_poly
from mfatlas.mfsystem import build_system
from mfatlas.sampling import conjugate
from mfatlas.scalar import Scalar
from mfatlas.unipoly import uni, uni_roots_gaussian
from mfatlas.verify import (
    check_critical_values,
    check_exotic_witness,
    check_image_bba,
    check_near_section,
    check_singular_family,
    check_tarasov_exotic,
)

A_N3 = sl3_nilpotent()
SYS_N3 = build_system(A_N3)
ATLAS_N3 = enumerate_atlas(A_N3)
A_S3 = sl3_semisimple(1, 2)
SYS_S3 = build_system(A_S3)
ATLAS_S3 = enumerate_atlas(A_S3)


def _el(L, rows):
    return L.element(ExactMatrix([[Scalar(Fraction(v)) for v in row] for row in rows]))


def test_certify_affine_constant_accepts_true_family():
    B = ATLAS_N3.borels[0]
    x = A_N3
    comp_val = certify_affine_constant(SYS_N3, x, B.u_basis)
    assert comp_val == SYS_N3.evaluate(x)


def test_certify_affine_constant_rejects_false_family():
    with pytest.raises(CertificationError):
        certify_affine_constant(SYS_S3, A_S3, [A_S3])


def test_borel_component_dimension_and_membership():
    L = sl(3)
    B = ATLAS_S3.borels[0]
    x = _el(L, [[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    if not B.contains(x):
        x = A_S3
    comp = borel_component(SYS_S3, x, B)
    assert comp.dim == SYS_S3.b - L.rank == 3
    assert comp.contains(comp.base)
    y = comp.base
    for d in comp.dirs:
        y = y + d.scale(Scalar(2))
    assert comp.contains(y)
    assert SYS_S3.evaluate(y) == comp.value


def test_borel_component_requires_membership():
    L = sl(3)
    outside = _el(L, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(MembershipError):
        borel_component(SYS_N3, outside, ATLAS_N3.borels[0])


def test_weyl_components_counts():
    L = sl(3)
    x = _el(L, [[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    comps = weyl_components(SYS_N3, x, ATLAS_N3)
    assert len(comps) == 6
    vals = {tuple(c.value) for c in comps}
    assert len(vals) == 1
    # nilpotent x has vanishing diagonal part: single component
    comps0 = weyl_components(SYS_N3, A_N3, ATLAS_N3)
    assert len(comps0) == 1
    with pytest.raises(NotNilpotentError):
        weyl_components(SYS_S3, x, ATLAS_S3)


def test_weyl_components_all_contained_in_unique_borel():
    L = sl(3)
    x = _el(L, [[2, 0, 0], [0, -1, 0], [0, 0, -1]])
    B = ATLAS_N3.borels[0]
    for comp in weyl_components(SYS_N3, x, ATLAS_N3):
        assert B.contains(comp.base)


def test_levi_system_and_parabolic_lift():
    p = next(m for m in ATLAS_N3.parabolics if m.blocks == (2, 1))
    svars, polys = levi_system(p, A_N3)
    assert len(svars) == p.dim_p - p.dim_u
    al = levi_projection(p, A_N3)
    y = AffineComponent(
        base=al,
        dirs=[],
        value=(),
        label="levi-point",
    )
    # lift a genuine Levi component: base point al, directions inside the
    # sl_2 factor nilradical
    lifted = parabolic_lift(SYS_N3, p, _levi_u_component(p, al))
    assert lifted.dim == SYS_N3.b - 2
    assert lifted.contains(al)


def _levi_u_component(p, al):
    """Component of the Levi zero fibre used by the lift test: al + the
    sl_2-factor raising direction (adapted basis)."""
    L = p.algebra
    raise_dir = L.element(p.U * ExactMatrix(
        [[Scalar(0), Scalar(1), Scalar(0)],
         [Scalar(0), Scalar(0), Scalar(0)],
         [Scalar(0), Scalar(0), Scalar(0)]]
    ) * p.U_inv)
    return AffineComponent(base=al, dirs=[raise_dir], value=(), label="levi")


def test_jordan_chains_computed_once_per_atlas(monkeypatch):
    import mfatlas.flags

    calls = []
    real = mfatlas.flags.eigen_chains

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(mfatlas.flags, "eigen_chains", counting)
    L = sl(4)
    shift = [[Scalar(1 if j == i + 1 else 0) for j in range(4)] for i in range(4)]
    for a in (L.element(ExactMatrix.diagonal([Scalar(v) for v in (1, 2, 3, -6)])),
              L.element(ExactMatrix(shift))):
        calls.clear()
        atlas = enumerate_atlas(a)
        assert len(calls) == 1
        sys_ = build_system(a)
        calls.clear()
        count_zero_fibre(a, atlas=atlas)
        assert check_image_bba(sys_, atlas).passed
        assert calls == []


def test_chain_frame_inverted_once_per_atlas(monkeypatch):
    """enumerate_atlas inverts one matrix, the chain frame's U0; no
    stabilizer_equations call takes a kernel; the count and the image-of-b^a
    check read the atlas's frame and invert nothing in flags."""
    import mfatlas.flags

    inverses, kernels, inside = [], [], [False]
    real_inverse = mfatlas.flags.mat_inverse
    real_kernel = mfatlas.flags.mat_kernel
    real_equations = mfatlas.flags.stabilizer_equations

    def equations(frame, flag):
        inside[0] = True
        try:
            return real_equations(frame, flag)
        finally:
            inside[0] = False

    monkeypatch.setattr(mfatlas.flags, "mat_inverse", lambda m: inverses.append(m) or real_inverse(m))
    monkeypatch.setattr(mfatlas.flags, "mat_kernel", lambda m: kernels.append(inside[0]) or real_kernel(m))
    monkeypatch.setattr(mfatlas.flags, "stabilizer_equations", equations)
    L = sl(4)
    shift = [[Scalar(1 if j == i + 1 else 0) for j in range(4)] for i in range(4)]
    for a in (L.element(ExactMatrix.diagonal([Scalar(v) for v in (1, 2, 3, -6)])),
              L.element(ExactMatrix(shift))):
        inverses.clear()
        kernels.clear()
        atlas = enumerate_atlas(a)
        assert len(inverses) == 1
        # the wrapper saw the kernels flags does take (Jordan chains, b^a)
        assert kernels and not any(kernels)
        sys_ = build_system(a)
        inverses.clear()
        count_zero_fibre(a, atlas=atlas)
        assert check_image_bba(sys_, atlas).passed
        assert inverses == []


def _block_partition_by_roots(p, a):
    """The eigenvalue-multiplicity partition of each Levi block of size >= 2
    of U^-1 a U, from the roots of its characteristic polynomial."""
    Ap = p.U_inv * a.matrix * p.U
    out = []
    off = 0
    for k in p.blocks:
        if k >= 2:
            block = ExactMatrix([[Ap.entries[off + i][off + j] for j in range(k)]
                                 for i in range(k)])
            roots, rem = uni_roots_gaussian(uni(char_poly(block)))
            assert rem == 0
            out.append((k, tuple(sorted((m for _, m in roots), reverse=True))))
        off += k
    return out


def test_count_factor_keys_match_levi_block_roots():
    """The factor keys read off the flag levels equal the partitions from
    the characteristic polynomial of each Levi block of U^-1 a U."""
    L4 = sl(4)
    U0 = ExactMatrix([[Scalar(min(i, j) + 1) for j in range(4)] for i in range(4)])
    # a dense --matrix shift: U0 J U0^-1 with J of Jordan type (2, 1, 1)
    J = _el(L4, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -2]])
    shifts = [
        A_S3, sl3_mixed(1), A_N3,
        _el(L4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, -6]]),
        _el(L4, [[int(j == i + 1) for j in range(4)] for i in range(4)]),
        conjugate(U0, J),
    ]
    checked = 0
    for a in shifts:
        atlas = enumerate_atlas(a)
        rep = count_zero_fibre(a, atlas=atlas)
        assert len(rep["parabolic_terms"]) == len(atlas.parabolics)
        for p, term in zip(atlas.parabolics, rep["parabolic_terms"]):
            assert [f["symbol"] for f in term["factors"]] == [
                iprime_symbol(*key) for key in _block_partition_by_roots(p, a)], term["label"]
            checked += 1
    assert checked == 6 + 4 + 2 + 50 + 6 + 31


def test_eigen_partition():
    assert eigen_partition(ATLAS_S3.chains) == (1, 1, 1)
    assert eigen_partition(eigen_chains(sl3_mixed(1))) == (2, 1)
    assert eigen_partition(ATLAS_N3.chains) == (3,)
    assert eigen_partition(eigen_chains(sl2_semisimple(1))) == (1, 1)
    assert eigen_partition(eigen_chains(sl2_nilpotent())) == (2,)


def test_iprime_table_defaults_and_io(tmp_path):
    assert IPRIME_DEFAULTS[(2, (1, 1))] == (0, 0)
    assert IPRIME_DEFAULTS[(3, (1, 1, 1))] == (None, 1)
    # the user table printed in the README
    d = {"schema": "mf-iprime/1",
         "entries": [{"n": 3, "partition": [1, 1, 1], "value": 9, "lower": 9}]}
    path = tmp_path / "table.json"
    import json

    path.write_text(json.dumps(d))
    assert load_iprime(str(path)) == {(3, (1, 1, 1)): (9, 9)}
    assert iprime_symbol(3, (2, 1)) == "I'(3,[2,1])"


def test_count_zero_fibre_sl2_exact():
    rep_s = count_zero_fibre(sl2_semisimple(1))
    assert rep_s["total"] == 2 and rep_s["total_lower"] == 2
    assert rep_s["borel_count"] == 2 and rep_s["self_term"]["value"] == 0
    rep_n = count_zero_fibre(sl2_nilpotent())
    assert rep_n["total"] == 1 and rep_n["total_lower"] == 1


def test_count_zero_fibre_sl3_structural():
    rep = count_zero_fibre(A_S3)
    assert rep["total"] is None
    assert rep["total_lower"] == 7
    assert rep["borel_count"] == 6
    assert rep["formula"] == "I'(3,[1,1,1]) + 0 + 6"
    rep_r = count_zero_fibre(sl3_mixed(1))
    assert rep_r["formula"] == "I'(3,[2,1]) + 0 + 3" and rep_r["total_lower"] == 4
    rep_n = count_zero_fibre(A_N3)
    assert rep_n["formula"] == "I'(3,[3]) + 0 + 1" and rep_n["total_lower"] == 2


def test_count_with_resolved_table():
    rep = count_zero_fibre(A_S3, {(3, (1, 1, 1)): (9, 9)})
    assert rep["total"] == 15 and rep["total_lower"] == 15


def _pair(result):
    return result.passed, result.detail


def test_exotic_witnesses_verified():
    s, xs = semisimple_zero_fibre_witness(2, 2, 4)
    assert _pair(check_exotic_witness(build_system(s), xs, enumerate_atlas(s))) == (
        True, "outside all 12 members")
    r = sl3_mixed(1)
    xr = mixed_zero_fibre_witness(1)
    assert _pair(check_exotic_witness(build_system(r), xr, enumerate_atlas(r))) == (
        True, "outside all 7 members")
    xn = lowering_zero_fibre_witness()
    assert _pair(check_exotic_witness(SYS_N3, xn, ATLAS_N3)) == (True, "outside all 3 members")


def test_exotic_witness_rejects_atlas_members():
    # a point inside a Borel is not an exotic witness
    rep = check_exotic_witness(SYS_N3, A_N3, ATLAS_N3, target=SYS_N3.evaluate(A_N3))
    assert _pair(rep) == (False, "; ".join(
        f"inside {member_label(m)}" for m in ATLAS_N3.members))


def test_tarasov_exotic_probe():
    assert _pair(check_tarasov_exotic(SYS_S3, ATLAS_S3, 15, 0)) == (
        True, "15 points outside all 12 members")


def test_singular_family_two_borels():
    x = sl(3).zero()
    for e in ATLAS_S3.b_a:
        x = x + e.scale(Scalar(3))
    assert _pair(check_singular_family(SYS_S3, x, ATLAS_S3)) == (
        True, "x + u^a lies in two distinct Borel components")
    assert _pair(check_singular_family(SYS_N3, A_N3, ATLAS_N3)) == (
        True, "nilpotent shift element: unique Borel, no second component exists")
    with pytest.raises(MembershipError):
        check_singular_family(SYS_S3, A_N3, ATLAS_S3)


def test_image_bba_reports():
    assert _pair(check_image_bba(SYS_S3, ATLAS_S3)) == (True, "degree 6")
    assert _pair(check_image_bba(SYS_N3, ATLAS_N3)) == (True, "degree 1, nilpotent form")


def test_critical_value_probe():
    assert _pair(check_critical_values(SYS_S3, 10, 0)) == (True, "max rank 4 of 5")
    sys2 = build_system(sl2_semisimple(1))
    assert _pair(check_critical_values(sys2, 10, 0)) == (True, "max rank 1 of 2, closed form")


def test_near_section_probe():
    assert _pair(check_near_section(SYS_N3, ATLAS_N3)) == (
        True, "6 equal-value translates (translate count is a lower bound for the "
        "fibre degree; exactness not asserted)")


def test_member_label_format():
    lbl = member_label(ATLAS_N3.borels[0])
    assert lbl.startswith("borel:1-1-1:")
    p = ATLAS_N3.parabolics[0]
    assert member_label(p).startswith("parabolic:")
