"""Invariant flags, their stabilizer parabolics, and the intersection algebra b^a.

For a regular element a, each generalized eigenspace of a is a single Jordan
block, so the a-invariant subspaces of C^n are exactly the direct sums of
chain subspaces ker((a - c)^j), one per eigenvalue c.  Invariant partial
flags of a given composition are therefore lattice paths in the product of
chains, a finite set; for non-regular a the invariant subspaces form
infinite families and enumeration is refused.

The Jordan chains of a are its only Jordan decomposition.  They are
computed once per atlas (enumerate_atlas stores them as BorelAtlas.chains);
every flag, b^a and the component layer read them from there.
chain_frame(chains) is the adapted basis U (chain vectors as columns,
eigenvalues ordered by (real, imaginary)) with its inverse; in it a is a
direct sum of single Jordan blocks, so the semisimple part is
semisimple_part(chains) = U diag(chain values) U^-1, and the Levi block of a
flag step is one Jordan block per chain, of size the chain's level increment.

A parabolic enters the atlas as the stabilizer of an invariant flag, and is
cut out of sl_n by one set of linear equations: w (Y v) = 0 for v in V_t and
w annihilating V_t.  stabilizer_equations builds them once per member, read
off the few nonzero entries of each coordinate basis matrix, and every
membership decision reads them: FlagParabolic.contains is a zero test of
equations . x, and the certificate (FlagParabolic.verify, run on every
member) checks that a and every basis element satisfy them, that the basis
is independent of size dim - rank(equations), and the l + u split.  The
basis itself is the block pattern conjugated by the flag's own adapted basis
U (the chain vectors in flag-step order); each U E_ij U^-1 is
frame_unit(U, U^-1, i, j), the outer product of column i of U and row j of
U^-1, never two dense matrix products.

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


def member_label(m: FlagParabolic) -> str:
    kind = "borel" if m.is_borel() else "parabolic"
    return f"{kind}:{'-'.join(str(k) for k in m.blocks)}:{'|'.join(mask_strings(m.mask()))}"


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


def chain_frame(chains: Sequence[EigenChain]) -> tuple[ExactMatrix, ExactMatrix]:
    """The adapted basis U (chain vectors as columns, in chain order) and U^-1."""
    U = ExactMatrix.from_columns([v for ch in chains for v in ch.vectors])
    return U, mat_inverse(U)


def chain_diagonal(chains: Sequence[EigenChain]) -> list[Scalar]:
    """The diagonal of U^-1 s U: each chain value repeated mult times."""
    return [ch.value for ch in chains for _ in range(ch.mult)]


def semisimple_part(chains: Sequence[EigenChain]) -> ExactMatrix:
    """The semisimple part s of the element with these chains:
    U diag(c_1, ..., c_1, c_2, ...) U^-1."""
    U, U_inv = chain_frame(chains)
    return U * ExactMatrix.diagonal(chain_diagonal(chains)) * U_inv


def frame_unit(U: ExactMatrix, U_inv: ExactMatrix, i: int, j: int) -> ExactMatrix:
    """U E_ij U^-1, the outer product of column i of U and row j of U^-1."""
    return ExactMatrix([[x * y for y in U_inv.row(j)] for x in U.col(i)])


# -- flags --------------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """An a-invariant partial flag, recorded as cumulative chain levels."""

    composition: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]  # after each step, per chain
    step_vectors: tuple[tuple[Vector, ...], ...]  # vectors added per step
    subspaces: tuple[tuple[Vector, ...], ...]  # canonical cumulative bases


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
    n = sum(mults)
    comp = tuple(int(k) for k in composition)
    if any(k <= 0 for k in comp) or sum(comp) != n:
        raise PreconditionError(f"not a composition of {n}: {comp}")
    flags: list[Flag] = []

    def rec(step: int, level: tuple[int, ...], levels_acc, steps_acc):
        if step == len(comp):
            cumulative = []
            acc_vecs: list[Vector] = []
            for sv in steps_acc:
                acc_vecs.extend(sv)
                cumulative.append(canonical_basis(acc_vecs))
            flags.append(
                Flag(
                    composition=comp,
                    levels=tuple(levels_acc),
                    step_vectors=tuple(steps_acc),
                    subspaces=tuple(cumulative),
                )
            )
            return
        need = comp[step]
        ranges = [range(0, min(need, mults[c] - level[c]) + 1) for c in range(len(chains))]
        for inc in itertools.product(*ranges):
            if sum(inc) != need:
                continue
            new_level = tuple(l + i for l, i in zip(level, inc))
            added: list[Vector] = []
            for c, ch in enumerate(chains):
                for j in range(level[c], new_level[c]):
                    added.append(ch.vectors[j])
            rec(
                step + 1,
                new_level,
                levels_acc + [new_level],
                steps_acc + [tuple(added)],
            )

    rec(0, (0,) * len(chains), [], [])
    return flags


# -- parabolic stabilizers -------------------------------------------------------------


class FlagParabolic:
    """Stabilizer of an invariant flag, with adapted basis and Levi data."""

    def __init__(self, a: GElement, flag: Flag):
        L = a.algebra
        self.algebra = L
        self.a = a
        self.flag = flag
        self.blocks = flag.composition
        cols: list[Vector] = []
        for sv in flag.step_vectors:
            cols.extend(sv)
        if len(cols) != L.n:
            raise PreconditionError("flag does not exhaust the space")
        U = ExactMatrix.from_columns(cols)
        self.U = U
        self.U_inv = mat_inverse(U)
        self.p_basis = self._conjugated_basis(upper=True, include_diag_blocks=True)
        self.l_basis = self._conjugated_basis(upper=False, include_diag_blocks=True)
        self.u_basis = self._conjugated_basis(upper=True, include_diag_blocks=False)
        self.u_span = elements_span(self.u_basis)
        self.equations = stabilizer_equations(L, flag)

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

    def _conjugated_basis(self, upper: bool, include_diag_blocks: bool) -> list[GElement]:
        """U E U^-1 for each element E of the block pattern: one frame unit for
        E_ij, a difference of two for H_k."""
        U, U_inv = self.U, self.U_inv
        out: list[GElement] = []
        for i, j in self.block_pattern(upper, include_diag_blocks):
            m = frame_unit(U, U_inv, i, j)
            if i == j:
                m = m - frame_unit(U, U_inv, i + 1, i + 1)
            out.append(self.algebra.element(m))
        return out

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


def stabilizer_equations(L: LieAlgebraA, flag: Flag) -> ExactMatrix:
    """The linear equations of {Y in sl_n : Y V_t <= V_t for all t} in the
    coordinates, one row per vector v added at step t and annihilator w of
    V_t: w (B v) = sum of w_r B_rc v_c over the nonzero entries B_rc of each
    basis matrix B.  A vector of V_(t-1) needs no row at step t, since the
    earlier rows already put Y v in V_(t-1); so there are as many rows as
    the codimension of the stabilizer.  The trivial flag gets one zero row
    (its stabilizer is sl_n)."""
    rows: list[list[Scalar]] = []
    basis_entries = [
        [
            (r, c, x)
            for r, row in enumerate(e.matrix.entries)
            for c, x in enumerate(row)
            if not x.is_zero()
        ]
        for e in L.basis()
    ]
    for sub, added in zip(flag.subspaces, flag.step_vectors):
        # left annihilator rows w with w . V = 0
        V = ExactMatrix.from_columns(list(sub))
        ann = mat_kernel(V.transpose())
        for v in added:
            for w in ann:
                rows.append(
                    [sum((w[r] * x * v[c] for r, c, x in nz), Scalar(0)) for nz in basis_entries]
                )
    return ExactMatrix(rows or [[Scalar(0)] * L.dim])


# -- atlas ---------------------------------------------------------------------------


@dataclass
class BorelAtlas:
    """All Borels and proper non-Borel parabolics containing a regular
    element, plus the intersection algebra b^a and its nilradical u^a."""

    a: GElement
    chains: list[EigenChain]
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
    borels = [FlagParabolic(a, fl) for fl in invariant_flags(chains, (1,) * n)]
    parabolics: list[FlagParabolic] = []
    for comp in compositions(n):
        if len(comp) == n or len(comp) == 1:
            continue
        for fl in invariant_flags(chains, comp):
            parabolics.append(FlagParabolic(a, fl))
    for m in borels + parabolics:
        m.verify()
    # route 1: the solutions of every Borel's stabilizer equations
    stacked = ExactMatrix([row for bp in borels for row in bp.equations.entries])
    b_a = span_to_elements(L, canonical_basis(mat_kernel(stacked)))
    u_a = derived_span(b_a)
    # route 2: structural, must agree exactly
    b2, u2 = compute_b_a_structural(L, chains)
    if not span_equal([e.coords for e in b_a], [e.coords for e in b2]):
        raise CertificationError("b^a routes disagree")
    if not span_equal([e.coords for e in u_a], [e.coords for e in u2]):
        raise CertificationError("u^a routes disagree")
    return BorelAtlas(a=a, chains=chains, borels=borels, parabolics=parabolics,
                      b_a=b_a, u_a=u_a)


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


def compute_b_a_structural(L: LieAlgebraA, chains: Sequence[EigenChain]
                           ) -> tuple[list[GElement], list[GElement]]:
    """b^a = z(g_s) + (unique Borel of [g_s, g_s] containing the nilpotent
    part), built on the adapted chain basis; u^a is its derived algebra."""
    U, U_inv = chain_frame(chains)
    n = L.n
    sizes = [ch.mult for ch in chains]
    offsets = [sum(sizes[:bi]) for bi in range(len(sizes))]
    mats: list[ExactMatrix] = []
    # centre of the centralizer of the semisimple part: one scalar per block,
    # trace-free
    k = len(sizes)
    for bi in range(k - 1):
        diag = [Scalar(0)] * n
        for t in range(offsets[bi], offsets[bi] + sizes[bi]):
            diag[t] = Scalar(sizes[k - 1])
        for t in range(offsets[k - 1], offsets[k - 1] + sizes[k - 1]):
            diag[t] = Scalar(-sizes[bi])
        mats.append(U * ExactMatrix.diagonal(diag) * U_inv)
    # upper-triangular part of each block (the unique Borel of the factor
    # sl_{m} containing the single Jordan block nilpotent)
    for o, m in zip(offsets, sizes):
        for p in range(m):
            for q in range(p + 1, m):
                mats.append(frame_unit(U, U_inv, o + p, o + q))
        for p in range(o, o + m - 1):
            mats.append(frame_unit(U, U_inv, p, p) - frame_unit(U, U_inv, p + 1, p + 1))
    b_basis = span_to_elements(L, elements_span([L.element(M) for M in mats]))
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

