"""Invariant flags, parabolic stabilizers, atlas enumeration, b^a."""

from collections import Counter
from fractions import Fraction

import pytest
from property_suites import representative

from mfatlas.components import levi_system
from mfatlas.corpus import (
    sl2_semisimple,
    sl3_mixed,
    sl3_nilpotent,
    sl3_semisimple,
)
from mfatlas.errors import PreconditionError, UnsupportedElementError
from mfatlas.flags import (
    ChainFrame,
    FlagParabolic,
    compositions,
    compute_b_a_structural,
    derived_span,
    eigen_chains,
    elements_span,
    enumerate_atlas,
    invariant_flags,
    levi_projection,
    mask_strings,
    semisimple_part,
    span_to_elements,
    support_mask,
)
from mfatlas.lie import GElement, bracket, nilpotent_rep, semisimple_rep, sl
from mfatlas.linalg import ExactMatrix, span_equal
from mfatlas.sampling import conjugate, random_unimodular, rng_for
from mfatlas.scalar import Scalar


def _el(L, rows):
    return L.element(ExactMatrix([[Scalar(Fraction(v)) for v in row] for row in rows]))


def test_compositions_count():
    assert len(compositions(3)) == 4
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    assert len(compositions(4)) == 8


def test_atlas_counts_all_representatives():
    expect = {
        "sl2-s": (2, 0),
        "sl2-n": (1, 0),
        "sl3-s": (6, 6),
        "sl3-r": (3, 4),
        "sl3-n": (1, 2),
    }
    for key, (nb, np_) in expect.items():
        atlas = enumerate_atlas(representative(key))
        assert (len(atlas.borels), len(atlas.parabolics)) == (nb, np_), key
        for m in atlas.members:
            assert m.contains(representative(key))
            m.verify()


def test_atlas_counts_are_parameter_independent():
    a1 = enumerate_atlas(sl3_semisimple(2, -5))
    assert (len(a1.borels), len(a1.parabolics)) == (6, 6)
    a2 = enumerate_atlas(sl3_mixed(Fraction(1, 2)))
    assert (len(a2.borels), len(a2.parabolics)) == (3, 4)


def test_eigen_chains_nilpotent_and_semisimple():
    chains_n = eigen_chains(sl3_nilpotent())
    assert len(chains_n) == 1 and len(chains_n[0].vectors) == 3
    chains_s = eigen_chains(sl3_semisimple(1, 2))
    assert len(chains_s) == 3
    assert all(len(c.vectors) == 1 for c in chains_s)


def _jordan(L, blocks):
    """The Jordan matrix with one block of each (value, size)."""
    n = L.n
    rows = [[0] * n for _ in range(n)]
    off = 0
    for value, size in blocks:
        for k in range(size):
            rows[off + k][off + k] = value
            if k + 1 < size:
                rows[off + k][off + k + 1] = 1
        off += size
    return _el(L, rows)


def _decomposition_cases():
    """sl2-sl4 s/r/n, the mixed sl4 Jordan types (2,1,1), (2,2) and (3,1), a
    Gaussian shift and an upper-triangular sl3 element, each also conjugated
    to a dense matrix.  The sl3 r and n rows are written out as matrices."""
    L2, L3, L4 = sl(2), sl(3), sl(4)
    bases = [
        _jordan(L2, [(1, 1), (-1, 1)]),
        _jordan(L2, [(0, 2)]),
        sl3_semisimple(1, 2),
        _el(L3, [[1, 1, 0], [0, 1, 0], [0, 0, -2]]),
        _el(L3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        _el(L3, [[2, 7, -1], [0, 2, 3], [0, 0, -4]]),
        _jordan(L4, [(1, 1), (2, 1), (3, 1), (-6, 1)]),
        _jordan(L4, [(0, 4)]),
        _jordan(L4, [(1, 2), (2, 1), (-4, 1)]),
        _jordan(L4, [(1, 2), (-1, 2)]),
        _jordan(L4, [(1, 3), (-3, 1)]),
        L3.element(ExactMatrix.diagonal([Scalar(0, 1), Scalar(1), Scalar(-1, -1)])),
    ]
    rng = rng_for("flags-semisimple-part", 0)
    return bases + [conjugate(random_unimodular(x.algebra, rng), x) for x in bases]


def test_semisimple_part_by_defining_properties():
    """s = semisimple_part(eigen_chains(a)) is the semisimple part of a by the
    defining properties alone: [s, a] = 0, (a - s)^n = 0, and s is killed by
    the product of (s - c) over the distinct chain values c."""
    for a in _decomposition_cases():
        L = a.algebra
        chains = eigen_chains(a)
        s = L.element(semisimple_part(chains, ChainFrame(L, chains)))
        assert bracket(s, a).is_zero()
        assert (a - s).is_nilpotent()
        ident = ExactMatrix.identity(L.n)
        prod = ident
        for c in {ch.value for ch in chains}:
            prod = prod * (s.matrix - ident.scale(c))
        assert prod.is_zero()
        assert (s == a) == all(ch.mult == 1 for ch in chains)


def test_irrational_spectrum_rejected():
    L = sl(2)
    # eigenvalues +-sqrt(2): char poly t^2 - 2 has no Gaussian-rational roots
    x = _el(L, [[0, 2], [1, 0]])
    with pytest.raises(UnsupportedElementError):
        eigen_chains(x)


def test_non_regular_flags_rejected():
    L = sl(3)
    with pytest.raises(PreconditionError):
        invariant_flags(eigen_chains(_el(L, [[1, 0, 0], [0, 1, 0], [0, 0, -2]])), (1, 1, 1))
    # the chains fix n = 3, so (1, 1) is not a composition of it
    with pytest.raises(PreconditionError):
        invariant_flags(eigen_chains(sl3_semisimple(1, 2)), (1, 1))


def test_b_a_routes_agree():
    for a in (sl2_semisimple(1), sl3_semisimple(1, 2), sl3_mixed(1), sl3_nilpotent()):
        atlas = enumerate_atlas(a)
        b1, u1 = atlas.b_a, atlas.u_a
        b2 = compute_b_a_structural(atlas.chains, atlas.frame)
        assert span_equal([e.coords for e in b1], [e.coords for e in b2])
        assert span_equal([e.coords for e in u1], [e.coords for e in derived_span(b2)])
        # u^a = [b^a, b^a] is contained in b^a and bracket-generated
        span_b = elements_span(b1)
        for x in b1:
            for y in b1:
                z = bracket(x, y)
                assert span_equal(
                    elements_span(u1 + [z]), elements_span(u1)
                ) or z.is_zero()
        assert len(span_b) >= len(elements_span(u1))


def test_b_a_masks():
    masks = {
        "s": ("*00", "0*0", "00*"),
        "r": ("**0", "0*0", "00*"),
        "n": ("***", "0**", "00*"),
    }
    for key in masks:
        a = representative(f"sl3-{key}")
        atlas = enumerate_atlas(a)
        got = tuple(mask_strings(support_mask(a.algebra, atlas.b_a)))
        assert got == masks[key], key


def test_levi_projection_and_factors():
    a = sl3_mixed(1)
    atlas = enumerate_atlas(a)
    for p in atlas.parabolics:
        al = levi_projection(p, a)
        assert p.contains(al)
        # one centre coordinate per block, and d coefficients of tr(M^d),
        # d = 2..k, per simple factor sl_k
        _, polys = levi_system(p, a)
        assert len(polys) == len(p.blocks) + sum(
            d for k in p.blocks for d in range(2, k + 1))
        if p.blocks in ((2, 1), (1, 2)):
            assert len(polys) == 4
    p0 = atlas.parabolics[0]
    lower = [[Scalar(0)] * 3 for _ in range(3)]
    lower[1][0] = lower[2][0] = lower[2][1] = Scalar(1)
    outside = a.algebra.element(p0.U * ExactMatrix(lower) * p0.U_inv)
    assert not p0.contains(outside)
    with pytest.raises(PreconditionError):
        levi_projection(p0, outside)


def test_atlas_equivariance_under_conjugation():
    rng = rng_for("flags-conj", 0)
    a = sl3_semisimple(1, 2)
    g = random_unimodular(a.algebra, rng)
    atlas = enumerate_atlas(conjugate(g, a))
    assert (len(atlas.borels), len(atlas.parabolics)) == (6, 6)


def test_span_to_elements_round_trip():
    a = sl3_nilpotent()
    atlas = enumerate_atlas(a)
    span = elements_span(atlas.b_a)
    back = span_to_elements(a.algebra, span)
    assert span_equal(elements_span(back), span)


# the sl_4 Jordan types (2,1,1), (2,2) and (3,1), as mf --matrix reads them
JORDAN_SL4_FILES = [
    {"n": 4, "entries": [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "2", "0"],
                         ["0", "0", "0", "-4"]]},
    {"n": 4, "entries": [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "1"],
                         ["0", "0", "0", "-1"]]},
    {"n": 4, "entries": [["1", "1", "0", "0"], ["0", "1", "1", "0"], ["0", "0", "1", "0"],
                         ["0", "0", "0", "-3"]]},
]


def _partition_violations(a):
    """Members of the atlas of a breaking a premise that FlagParabolic.verify
    relies on: p_basis is l_basis and u_basis together, with no frame element
    in both; dim_u is len(u_basis); and l_basis is independent."""
    bad = []
    for m in enumerate_atlas(a).members:
        p, l, u = ([e.coords for e in basis] for basis in (m.p_basis, m.l_basis, m.u_basis))
        if Counter(p) != Counter(l + u) or set(l) & set(u):
            bad.append((m.blocks, "p is not l and u"))
        if m.dim_u != len(m.u_basis):
            bad.append((m.blocks, "dim_u"))
        if len(elements_span(m.l_basis)) != len(m.l_basis):
            bad.append((m.blocks, "l dependent"))
    return bad


def _partition_shifts():
    return [representative(key) for key in ("sl2-s", "sl2-n", "sl3-s", "sl3-r", "sl3-n")] + [
        semisimple_rep(sl(4), []), nilpotent_rep(sl(4)),
        *(GElement.from_json_dict(data) for data in JORDAN_SL4_FILES)]


def test_p_basis_is_l_basis_and_u_basis(monkeypatch):
    """The premise that lets the atlas skip an l + u dimension check, on the
    sl2-sl4 representatives and the mixed sl_4 Jordan types; a block pattern
    that drops one position of u breaks it."""
    for a in _partition_shifts():
        assert _partition_violations(a) == [], a
    pattern = FlagParabolic.block_pattern

    def drop_one_u_position(self, upper, include_diag_blocks):
        out = pattern(self, upper, include_diag_blocks)
        return out if include_diag_blocks else out[1:]

    monkeypatch.setattr(FlagParabolic, "block_pattern", drop_one_u_position)
    assert _partition_violations(sl3_semisimple(1, 2))
