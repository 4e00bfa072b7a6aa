"""Invariant flags, their stabilizer parabolics, and the intersection algebra b^a.

For a regular element a, each generalized eigenspace of a is a single Jordan
block, so the a-invariant subspaces of C^n are exactly the direct sums of
chain subspaces ker((a - c)^j), one per eigenvalue c.  Invariant partial
flags of a given composition are therefore lattice paths in the product of
chains, a finite set; for non-regular a the invariant subspaces form
infinite families and enumeration is refused.

The Jordan chains of a are its only Jordan decomposition, and they fix one
frame per atlas: ChainFrame holds U0 (the chain vectors as columns,
eigenvalues ordered by (real, imaginary)) and U0^-1, the one inverse an atlas
computes; enumerate_atlas keeps both (BorelAtlas.chains, BorelAtlas.frame)
and every flag, b^a, the component layer and the verify checks read them
there.  In U0, a is a direct sum of single Jordan blocks, so its semisimple
part is semisimple_part(chains, frame) = U0 diag(chain values) U0^-1, and the
Levi block of a flag step is one Jordan block per chain, of size the chain's
level increment.

Members read U^-1 and their units from the frame.  A flag records order, the
frame columns in flag-step order, so a member's adapted basis U is U0 with
its columns permuted and U^-1 is the rows U0^-1[order].  Its p, l and u
bases are block patterns conjugated by U; each U E_ij U^-1 is the frame unit
U0 E_(order i)(order j) U0^-1 (frame_unit, an outer product), built once per
atlas by ChainFrame.element and shared by the members, as are the Cartan
differences.

A parabolic enters the atlas as the stabilizer of an invariant flag, cut out
of sl_n by the linear equations w (Y v) = 0 for v in V_t and w annihilating
V_t.  The annihilators are rows of U0^-1 (those past the step), so each row
is read off the chart, w E_ij v = w_i v_j and w_k v_k - w_(k+1) v_(k+1) on
the Cartan part, with no kernel taken (ChainFrame.equation_row, once per
atlas).  Every membership decision reads the equations: FlagParabolic.contains
is a zero test of equations . x, and the certificate (FlagParabolic.verify,
run on every member) checks that a and every basis element satisfy them,
that the basis is independent of size dim - rank(equations), and the l + u
split.

b^a, the intersection of all Borels containing a, is the canonical basis of
the kernel of all Borels' equations stacked.  Its structural route, the
centre of the centralizer of the semisimple part plus the unique Borel of
the centralizer containing the nilpotent part, is the cross-check: the two
must agree exactly.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CertificationError,
    InfiniteFamilyError,
    MembershipError,
    PreconditionError,
    UnsupportedElementError,
)
from .lie import GElement, LieAlgebraA, bracket, is_regular
from .linalg import (
    ExactMatrix,
    Vector,
    canonical_basis,
    char_poly,
    mat_inverse,
    mat_kernel,
    mat_rank,
    span_equal,
)
from .scalar import Scalar
from . import unipoly as up


# -- spans of elements ---------------------------------------------------------


def elements_span(elems: Sequence[GElement]) -> tuple[Vector, ...]:
    """Canonical basis (coordinate vectors) of the span of the elements."""
    return canonical_basis([e.coords for e in elems])


def span_to_elements(L: LieAlgebraA, vectors: Sequence[Vector]) -> list[GElement]:
    return [L.element_from_coords(v) for v in vectors]


def support_mask(L: LieAlgebraA, elems: Sequence[GElement]) -> list[list[int]]:
    """Entry-support pattern of a span: mask[i][j] = 1 if some element of the
    span has a nonzero (i, j) entry.  A span's support is the union of the
    supports of any spanning set, so the elements are read as given."""
    n = L.n
    mask = [[0] * n for _ in range(n)]
    for e in elems:
        for i, row in enumerate(e.matrix.entries):
            for j, x in enumerate(row):
                if not x.is_zero():
                    mask[i][j] = 1
    return mask


def mask_strings(mask: list[list[int]]) -> list[str]:
    return ["".join("*" if v else "0" for v in row) for row in mask]


def member_label(m: FlagParabolic, mask: list[str] | None = None) -> str:
    """kind:composition:mask; mask, when given, is mask_strings(m.mask())."""
    mask = mask_strings(m.mask()) if mask is None else mask
    kind = "borel" if m.is_borel() else "parabolic"
    return f"{kind}:{'-'.join(str(k) for k in m.blocks)}:{'|'.join(mask)}"


# -- eigen chains ----------------------------------------------------------------


@dataclass(frozen=True)
class EigenChain:
    """One generalized eigenspace of a regular element: a single Jordan
    chain w_1, ..., w_m with (a - c) w_j = w_{j-1} and w_0 = 0."""

    value: Scalar
    mult: int
    vectors: tuple[Vector, ...]


def eigen_chains(a: GElement) -> list[EigenChain]:
    """Jordan chains of a regular element, eigenvalues sorted by (re, im).

    Raises UnsupportedElementError if some eigenvalue lies outside Q(i) and
    InfiniteFamilyError if a is not regular.
    """
    if not is_regular(a):
        raise InfiniteFamilyError(
            "element is not regular; invariant subspaces form infinite families"
        )
    n = a.algebra.n
    p = up.uni(char_poly(a.matrix))
    roots, rem_deg = up.uni_roots_gaussian(p)
    if rem_deg or sum(m for _, m in roots) != n:
        raise UnsupportedElementError(
            "an eigenvalue lies outside Q(i); refusing to extend the base field"
        )
    chains = []
    ident = ExactMatrix.identity(n)
    for c, m in roots:
        N = a.matrix - ident.scale(c)
        Nm = N.matpow(m)
        Nm1 = N.matpow(m - 1)
        top = None
        for v in mat_kernel(Nm):
            if any(not t.is_zero() for t in Nm1.apply(v)):
                top = v
                break
        if top is None:
            raise CertificationError("no Jordan chain generator found")
        vecs = []
        cur = tuple(top)
        stack = [cur]
        for _ in range(m - 1):
            cur = N.apply(cur)
            stack.append(cur)
        vecs = list(reversed(stack))  # w_1 (eigenvector) first
        if any(not t.is_zero() for t in N.apply(vecs[0])):
            raise CertificationError("chain head is not an eigenvector")
        chains.append(EigenChain(value=c, mult=m, vectors=tuple(vecs)))
    chains.sort(key=lambda ch: ch.value.sort_key())
    return chains


def chain_diagonal(chains: Sequence[EigenChain]) -> list[Scalar]:
    """The diagonal of U^-1 s U: each chain value repeated mult times."""
    return [ch.value for ch in chains for _ in range(ch.mult)]


def frame_unit(U: ExactMatrix, U_inv: ExactMatrix, i: int, j: int) -> ExactMatrix:
    """U E_ij U^-1, the outer product of column i of U and row j of U^-1."""
    return ExactMatrix([[x * y for y in U_inv.row(j)] for x in U.col(i)])


class ChainFrame:
    """U0 (the chain vectors as columns, in chain order) and U0^-1, with the
    frame elements and stabilizer-equation rows the members read, each built
    once."""

    def __init__(self, L: LieAlgebraA, chains: Sequence[EigenChain]):
        self.algebra = L
        self.U = ExactMatrix.from_columns([v for ch in chains for v in ch.vectors])
        self.U_inv = mat_inverse(self.U)
        self._elements: dict[tuple[int, int, bool], GElement] = {}
        self._rows: dict[tuple[int, int], Vector] = {}

    def element(self, i: int, j: int, cartan: bool = False) -> GElement:
        """U0 E_ij U0^-1, or U0 (E_ii - E_jj) U0^-1 with cartan."""
        key = (i, j, cartan)
        if key not in self._elements:
            m = frame_unit(self.U, self.U_inv, i, i if cartan else j)
            if cartan:
                m = m - frame_unit(self.U, self.U_inv, j, j)
            self._elements[key] = self.algebra.element(m)
        return self._elements[key]

    def equation_row(self, r: int, c: int) -> Vector:
        """w (B v) over the coordinate basis B, for w row r of U0^-1 and v
        column c of U0: w_i v_j for E_ij, w_k v_k - w_(k+1) v_(k+1) for H_k."""
        if (r, c) not in self._rows:
            w, v = self.U_inv.row(r), self.U.col(c)
            L = self.algebra
            self._rows[r, c] = tuple([w[i] * v[j] for i, j in L.offdiag_positions] + [
                w[k] * v[k] - w[k + 1] * v[k + 1] for k in range(L.n - 1)])
        return self._rows[r, c]


def semisimple_part(chains: Sequence[EigenChain], frame: ChainFrame) -> ExactMatrix:
    """The semisimple part s of the element with these chains:
    U0 diag(c_1, ..., c_1, c_2, ...) U0^-1."""
    return frame.U * ExactMatrix.diagonal(chain_diagonal(chains)) * frame.U_inv


# -- flags --------------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """An a-invariant partial flag, recorded as cumulative chain levels."""

    composition: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]  # after each step, per chain
    order: tuple[int, ...]  # the frame columns, in flag-step order


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, deterministic order."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for k in range(1, rest + 1):
            rec(rest - k, acc + (k,))

    rec(n, ())
    return out


def invariant_flags(chains: Sequence[EigenChain], composition: Sequence[int]) -> list[Flag]:
    """All invariant flags of the given composition (lattice paths in the
    product of the Jordan chains)."""
    mults = [ch.mult for ch in chains]
    offsets = list(itertools.accumulate(mults, initial=0))
    n = offsets[-1]
    comp = tuple(int(k) for k in composition)
    if any(k <= 0 for k in comp) or sum(comp) != n:
        raise PreconditionError(f"not a composition of {n}: {comp}")
    flags: list[Flag] = []

    def rec(step: int, level: tuple[int, ...], levels_acc, order):
        if step == len(comp):
            flags.append(Flag(composition=comp, levels=tuple(levels_acc), order=tuple(order)))
            return
        need = comp[step]
        ranges = [range(0, min(need, mults[c] - level[c]) + 1) for c in range(len(chains))]
        for inc in itertools.product(*ranges):
            if sum(inc) != need:
                continue
            new_level = tuple(l + i for l, i in zip(level, inc))
            added = [offsets[c] + j for c in range(len(chains))
                     for j in range(level[c], new_level[c])]
            rec(step + 1, new_level, levels_acc + [new_level], order + added)

    rec(0, (0,) * len(chains), [], [])
    return flags


# -- parabolic stabilizers -------------------------------------------------------------


class FlagParabolic:
    """Stabilizer of an invariant flag, with adapted basis and Levi data: U is
    the frame's U0 with its columns in flag-step order, and U^-1 the rows
    U0^-1[order] (the inverse is unique, so no inverse is computed)."""

    def __init__(self, a: GElement, flag: Flag, frame: ChainFrame):
        L = a.algebra
        self.algebra = L
        self.a = a
        self.flag = flag
        self.blocks = flag.composition
        self.U = ExactMatrix.from_columns([frame.U.col(c) for c in flag.order])
        self.U_inv = ExactMatrix([frame.U_inv.row(c) for c in flag.order])
        self.p_basis = self._conjugated_basis(frame, upper=True, include_diag_blocks=True)
        self.l_basis = self._conjugated_basis(frame, upper=False, include_diag_blocks=True)
        self.u_basis = self._conjugated_basis(frame, upper=True, include_diag_blocks=False)
        self.u_span = elements_span(self.u_basis)
        self.equations = stabilizer_equations(frame, flag)

    # block index of a row/column position in the adapted ordering
    def _block_of(self) -> list[int]:
        return [bi for bi, k in enumerate(self.blocks) for _ in range(k)]

    def block_pattern(self, upper: bool, include_diag_blocks: bool) -> list[tuple[int, int]]:
        """The basis of a block pattern in the adapted basis, in basis order:
        the kept off-diagonal positions (i, j), each standing for E_ij, then,
        with the diagonal blocks, (k, k) standing for H_k = E_kk - E_(k+1)(k+1).
        p_basis, l_basis and u_basis are these patterns conjugated by U."""
        blk = self._block_of()
        n = len(blk)
        keep = (operator.le if upper else operator.eq) if include_diag_blocks else operator.lt
        out = [(i, j) for i in range(n) for j in range(n) if i != j and keep(blk[i], blk[j])]
        if include_diag_blocks:
            out += [(k, k) for k in range(n - 1)]
        return out

    def _conjugated_basis(self, frame: ChainFrame, upper: bool,
                          include_diag_blocks: bool) -> list[GElement]:
        """U E U^-1 for each element E of the block pattern, read from the
        frame: E_ij is U0 E_(order i)(order j) U0^-1, H_k a Cartan difference."""
        order = self.flag.order
        return [frame.element(order[i], order[i + 1], cartan=True) if i == j
                else frame.element(order[i], order[j])
                for i, j in self.block_pattern(upper, include_diag_blocks)]

    # -- membership and structure -------------------------------------------------

    def contains(self, x: GElement) -> bool:
        return not any(self.equations.apply(x.coords))

    def is_borel(self) -> bool:
        return all(k == 1 for k in self.blocks)

    @property
    def dim_p(self) -> int:
        return len(self.p_basis)

    @property
    def dim_u(self) -> int:
        return len(self.u_span)

    def mask(self) -> list[list[int]]:
        return support_mask(self.algebra, self.p_basis)

    def verify(self) -> None:
        """Certify the construction against the stabilizer equations: p_basis
        is an independent set of dim - rank(equations) solutions, so it spans
        the stabilizer, and a is in it."""
        if not self.contains(self.a):
            raise CertificationError("shift element not in its flag stabilizer")
        if not all(self.contains(y) for y in self.p_basis):
            raise CertificationError("basis element fails to stabilize flag")
        if not (len(elements_span(self.p_basis)) == self.dim_p
                == self.algebra.dim - mat_rank(self.equations)):
            raise CertificationError("stabilizer dimension mismatch")
        if len(elements_span(self.l_basis)) + self.dim_u != self.dim_p:
            raise CertificationError("p != l + u dimension split")

    def __repr__(self):
        return f"FlagParabolic(blocks={self.blocks})"


def stabilizer_equations(frame: ChainFrame, flag: Flag) -> ExactMatrix:
    """The linear equations of {Y in sl_n : Y V_t <= V_t for all t} in the
    coordinates, one row w (B v) over the coordinate basis B per frame column
    v added at step t and annihilator w of V_t; the annihilators of V_t are
    the rows of U0^-1 at the frame columns not yet added.  A vector of
    V_(t-1) needs no row at step t, since the earlier rows already put Y v in
    V_(t-1); so there are as many rows as the codimension of the stabilizer.
    The trivial flag gets one zero row (its stabilizer is sl_n)."""
    order = flag.order
    rows: list[Vector] = []
    done = 0
    for k in flag.composition:
        added, done = order[done:done + k], done + k
        rows += [frame.equation_row(r, c) for c in added for r in order[done:]]
    return ExactMatrix(rows or [(Scalar(0),) * frame.algebra.dim])


# -- atlas ---------------------------------------------------------------------------


@dataclass
class BorelAtlas:
    """All Borels and proper non-Borel parabolics containing a regular
    element, plus the intersection algebra b^a and its nilradical u^a."""

    a: GElement
    chains: list[EigenChain]
    frame: ChainFrame
    borels: list[FlagParabolic]
    parabolics: list[FlagParabolic]
    b_a: list[GElement]
    u_a: list[GElement]

    @property
    def members(self) -> list[FlagParabolic]:
        return list(self.borels) + list(self.parabolics)


def enumerate_atlas(a: GElement) -> BorelAtlas:
    L = a.algebra
    n = L.n
    chains = eigen_chains(a)
    frame = ChainFrame(L, chains)
    borels = [FlagParabolic(a, fl, frame) for fl in invariant_flags(chains, (1,) * n)]
    parabolics: list[FlagParabolic] = []
    for comp in compositions(n):
        if len(comp) == n or len(comp) == 1:
            continue
        for fl in invariant_flags(chains, comp):
            parabolics.append(FlagParabolic(a, fl, frame))
    for m in borels + parabolics:
        m.verify()
    # route 1: the solutions of every Borel's stabilizer equations
    stacked = ExactMatrix([row for bp in borels for row in bp.equations.entries])
    b_a = span_to_elements(L, canonical_basis(mat_kernel(stacked)))
    u_a = derived_span(b_a)
    # route 2: structural, must agree exactly
    b2, u2 = compute_b_a_structural(chains, frame)
    if not span_equal([e.coords for e in b_a], [e.coords for e in b2]):
        raise CertificationError("b^a routes disagree")
    if not span_equal([e.coords for e in u_a], [e.coords for e in u2]):
        raise CertificationError("u^a routes disagree")
    return BorelAtlas(a=a, chains=chains, frame=frame, borels=borels,
                      parabolics=parabolics, b_a=b_a, u_a=u_a)


def derived_span(elems: list[GElement]) -> list[GElement]:
    """Canonical basis of span{[x, y] : x, y in span(elems)}."""
    if not elems:
        return []
    L = elems[0].algebra
    vecs = []
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            vecs.append(bracket(elems[i], elems[j]).coords)
    return span_to_elements(L, canonical_basis(vecs))


def compute_b_a_structural(chains: Sequence[EigenChain], frame: ChainFrame
                           ) -> tuple[list[GElement], list[GElement]]:
    """b^a = z(g_s) + (unique Borel of [g_s, g_s] containing the nilpotent
    part), built on the chain frame; u^a is its derived algebra."""
    L = frame.algebra
    n = L.n
    sizes = [ch.mult for ch in chains]
    offsets = [sum(sizes[:bi]) for bi in range(len(sizes))]
    elems: list[GElement] = []
    # centre of the centralizer of the semisimple part: one scalar per block,
    # trace-free
    k = len(sizes)
    for bi in range(k - 1):
        diag = [Scalar(0)] * n
        for t in range(offsets[bi], offsets[bi] + sizes[bi]):
            diag[t] = Scalar(sizes[k - 1])
        for t in range(offsets[k - 1], offsets[k - 1] + sizes[k - 1]):
            diag[t] = Scalar(-sizes[bi])
        elems.append(L.element(frame.U * ExactMatrix.diagonal(diag) * frame.U_inv))
    # upper-triangular part of each block (the unique Borel of the factor
    # sl_{m} containing the single Jordan block nilpotent)
    for o, m in zip(offsets, sizes):
        for p in range(m):
            for q in range(p + 1, m):
                elems.append(frame.element(o + p, o + q))
        for p in range(o, o + m - 1):
            elems.append(frame.element(p, p + 1, cartan=True))
    b_basis = span_to_elements(L, elements_span(elems))
    u_basis = derived_span(b_basis)
    return b_basis, u_basis


def levi_projection(p: FlagParabolic, x: GElement) -> GElement:
    """Block-diagonal part of x in the adapted basis; requires x in p."""
    if x.algebra != p.algebra:
        raise PreconditionError("element from a different algebra")
    if not p.contains(x):
        raise MembershipError("element is not in the parabolic")
    Xp = p.U_inv * x.matrix * p.U
    blk = p._block_of()
    n = p.algebra.n
    rows = [
        [
            Xp.entries[i][j] if blk[i] == blk[j] else Scalar(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return p.algebra.element(p.U * ExactMatrix(rows) * p.U_inv)

