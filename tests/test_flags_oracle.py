"""Independent oracle for the parabolic construction in flags.

FlagParabolic reads its U^-1 off the atlas's chain frame (rows of U0^-1),
builds each conjugated basis element U E U^-1 as the outer product of a
column of U0 and a row of U0^-1, writes the stabilizer equations with the
rows of U0^-1 as annihilators, and reads support masks off the elements as
given.  These tests recompute each from its definition: mat_inverse(U), two
full matrix products per basis element, the equations from the kernel of
V^T at each flag step (oracles.stabilizer_equations_by_kernel), the
dimension of the stabilizer of a flag of composition k (sum over i <= j of
k_i k_j, less 1 for the trace), and the support read off the canonical
basis of the span.
components.levi_system writes its Levi chart from the same block pattern;
its polynomials are rebuilt here from the products U^-1 l U.
"""

import itertools
from functools import lru_cache, reduce

import pytest

from mfatlas.components import levi_system
from mfatlas.corpus import sl2_nilpotent, sl2_semisimple, sl3_mixed, sl3_nilpotent, sl3_semisimple
from mfatlas.errors import CertificationError
from mfatlas.flags import (
    ChainFrame,
    FlagParabolic,
    compositions,
    eigen_chains,
    elements_span,
    enumerate_atlas,
    frame_unit,
    invariant_flags,
    stabilizer_equations,
    support_mask,
)
from mfatlas.lie import sl
from mfatlas.linalg import ExactMatrix, mat_inverse, mat_rank, span_contains, span_equal
from mfatlas.mpoly import MPoly, mpoly_mat_mul, mpoly_mat_trace
from mfatlas.sampling import random_combination, random_element, rng_for
from mfatlas.scalar import Scalar
from oracles import span_intersection, stabilizer_equations_by_kernel


def _shift(n):
    return [[Scalar(1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]


def _dense_sl3():
    """U0 diag(1, 2, -3) U0^-1 with the dense unimodular U0[i][j] = min(i, j) + 1."""
    U0 = ExactMatrix([[Scalar(min(i, j) + 1) for j in range(3)] for i in range(3)])
    return sl(3).element(U0 * ExactMatrix.diagonal([Scalar(1), Scalar(2), Scalar(-3)]) * mat_inverse(U0))


SHIFTS = {
    "sl2-s": lambda: sl2_semisimple(1),
    "sl2-n": sl2_nilpotent,
    "sl3-s": lambda: sl3_semisimple(1, 2),
    "sl3-r": lambda: sl3_mixed(1),
    "sl3-n": sl3_nilpotent,
    "sl4-s": lambda: sl(4).element(ExactMatrix.diagonal([Scalar(v) for v in (1, 2, 3, -6)])),
    "sl4-n": lambda: sl(4).element(ExactMatrix(_shift(4))),
    "sl3-dense": _dense_sl3,
}


@lru_cache(maxsize=None)
def _atlas(key):
    return enumerate_atlas(SHIFTS[key]())


def _unit(n, i, j):
    return ExactMatrix([[Scalar(1 if (r, c) == (i, j) else 0) for c in range(n)] for r in range(n)])


def _expected_bases(p):
    """Block-upper E_ij and H_k (parabolic), block-diagonal E_ij and H_k
    (Levi), strictly block-upper E_ij (nilradical), in the adapted basis."""
    n = p.algebra.n
    blk = [b for b, k in enumerate(p.blocks) for _ in range(k)]
    off = [(i, j) for i, j in itertools.product(range(n), repeat=2) if i != j]
    cartan = [_unit(n, k, k) - _unit(n, k + 1, k + 1) for k in range(n - 1)]
    return {
        "p": [_unit(n, i, j) for i, j in off if blk[i] <= blk[j]] + cartan,
        "l": [_unit(n, i, j) for i, j in off if blk[i] == blk[j]] + cartan,
        "u": [_unit(n, i, j) for i, j in off if blk[i] < blk[j]],
    }


def _echelon_mask(L, elems):
    """The support pattern read off the canonical basis of the span."""
    mask = [[0] * L.n for _ in range(L.n)]
    for v in elements_span(elems):
        m = L.matrix_of_coords(v)
        for i in range(L.n):
            for j in range(L.n):
                if not m.entries[i][j].is_zero():
                    mask[i][j] = 1
    return mask


@pytest.mark.parametrize("key", SHIFTS)
def test_conjugated_bases_match_full_products(key):
    for p in _atlas(key).members:
        expected = _expected_bases(p)
        got = {"p": p.p_basis, "l": p.l_basis, "u": p.u_basis}
        for name, mats in expected.items():
            assert [e.matrix for e in got[name]] == [p.U * E * p.U_inv for E in mats], (p, name)


@pytest.mark.parametrize("key", SHIFTS)
def test_stabilizer_dimension_matches_composition(key):
    a = SHIFTS[key]()
    L = a.algebra
    chains = eigen_chains(a)
    frame = ChainFrame(L, chains)
    for comp in compositions(L.n):
        expect = sum(comp[i] * comp[j] for i in range(len(comp)) for j in range(i, len(comp))) - 1
        for flag in invariant_flags(chains, comp):
            assert L.dim - mat_rank(stabilizer_equations(frame, flag)) == expect, (key, comp)


@pytest.mark.parametrize("key", SHIFTS)
def test_members_read_the_frame_like_the_kernel_route(key):
    """Each member's U^-1 (rows of the frame's U0^-1) is mat_inverse(U), and
    its equations (annihilators read off U0^-1) have the row space of the
    equations built from the kernel of V^T at each flag step."""
    for p in _atlas(key).members:
        assert p.U_inv == mat_inverse(p.U), (key, p)
        oracle = stabilizer_equations_by_kernel(p.algebra, p.U, p.blocks)
        assert span_equal(p.equations.entries, oracle.entries), (key, p)


@pytest.mark.parametrize("key", SHIFTS)
def test_b_a_is_the_intersection_of_the_borel_spans(key):
    atlas = _atlas(key)
    spans = [elements_span(b.p_basis) for b in atlas.borels]
    assert tuple(e.coords for e in atlas.b_a) == reduce(span_intersection, spans), key


@pytest.mark.parametrize("key", SHIFTS)
def test_contains_agrees_with_span_membership(key):
    """contains (a zero test of the stabilizer equations) against membership
    in the span of p_basis, on points in, on and off each member."""
    atlas = _atlas(key)
    L = atlas.a.algebra
    rng = rng_for(f"flags-contains:{key}", 0)
    members = atlas.members
    for k, m in enumerate(members):
        span = elements_span(m.p_basis)
        points = [random_combination(L, m.p_basis, rng) for _ in range(3)]
        points += [random_element(L, rng) for _ in range(3)]
        points += [random_combination(L, members[k - 1].p_basis, rng)]
        points += [atlas.a, *m.l_basis, *m.u_basis]
        for x in points:
            assert m.contains(x) == span_contains(span, x.coords), (key, m)


@pytest.mark.parametrize("key", ["sl2-s", "sl3-s", "sl3-n", "sl3-dense", "sl4-s"])
def test_verify_rejects_a_tampered_basis(key):
    a = SHIFTS[key]()
    n = a.algebra.n
    chains = eigen_chains(a)
    flag = invariant_flags(chains, (1,) * n)[0]
    p = FlagParabolic(a, flag, ChainFrame(a.algebra, chains))
    p.verify()
    # U E_n1 U^-1 maps the first flag line out of every proper step
    p.p_basis.append(a.algebra.element(frame_unit(p.U, p.U_inv, n - 1, 0)))
    with pytest.raises(CertificationError, match="fails to stabilize"):
        p.verify()
    p.p_basis[-2:] = []
    with pytest.raises(CertificationError, match="dimension mismatch"):
        p.verify()


@pytest.mark.parametrize("key", SHIFTS)
def test_support_mask_matches_echelon_definition(key):
    atlas = _atlas(key)
    L = atlas.a.algebra
    for elems in (atlas.b_a, atlas.u_a):
        assert support_mask(L, elems) == _echelon_mask(L, elems)
    for p in atlas.members:
        for elems in (p.p_basis, p.l_basis, p.u_basis):
            assert support_mask(L, elems) == _echelon_mask(L, elems)


@pytest.mark.parametrize("key", ["sl3-s", "sl3-r", "sl3-n", "sl4-s"])
def test_levi_system_matches_conjugation_products(key):
    a = SHIFTS[key]()
    n = a.algebra.n
    for p in _atlas(key).parabolics:
        svars, polys = levi_system(p, a)
        ext, zero = svars + ("lam",), MPoly.zero(svars + ("lam",))
        conj = [p.U_inv * e.matrix * p.U for e in p.l_basis]
        shift = p.U_inv * a.matrix * p.U
        X = [[sum((MPoly.var(ext, s) * c.entries[i][j] for s, c in zip(svars, conj)), zero)
              + MPoly.var(ext, "lam") * shift.entries[i][j] for j in range(n)] for i in range(n)]
        offsets = [sum(p.blocks[:b]) for b in range(len(p.blocks))]
        blocks = [[row[o:o + k] for row in X[o:o + k]] for o, k in zip(offsets, p.blocks)]
        want = [mpoly_mat_trace(M).collect("lam")[0].project(svars) for M in blocks]
        for M in blocks:
            P = M
            for d in range(2, len(M) + 1):
                P = mpoly_mat_mul(P, M)
                tr = mpoly_mat_trace(P).collect("lam")
                want += [tr.get(j, zero).project(svars) for j in range(d)]
        assert polys == want, (key, p)
