"""Sparse multivariate polynomials over Q(i).

A polynomial carries an explicit ordered variable tuple; terms live in a dict
keyed by exponent tuples with nonzero Scalar values.  The canonical term
order everywhere (printing, iteration for reports) is graded lexicographic:
higher total degree first, ties broken lexicographically on the exponent
tuple, so earlier variables dominate.  Two polynomials are equal iff they
have the same variables and identical term dicts, which makes string forms
byte-stable across runs.

The constructor stores what it is given and checks nothing.  Every MPoly
keeps one invariant: each value in terms is a nonzero Scalar, keyed by a
tuple of len(vars) nonnegative ints.  The operations below build only such
dicts (a sum or product drops the coefficients that cancel, and
affine_chart drops the zero entries of its input), so a stored zero, which
would break equality, cannot arise.  Numbers enter through MPoly.const and
scalar multiplication, the only places that coerce.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Sequence

from .scalar import Scalar, as_scalar

Exponent = tuple[int, ...]


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: dict[Exponent, Scalar]):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "MPoly":
        return MPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], c) -> "MPoly":
        c = as_scalar(c)
        vt = tuple(vars)
        if c.is_zero():
            return MPoly(vt, {})
        return MPoly(vt, {(0,) * len(vt): c})

    @staticmethod
    def var(vars: Sequence[str], name: str) -> "MPoly":
        vt = tuple(vars)
        idx = vt.index(name)
        e = [0] * len(vt)
        e[idx] = 1
        return MPoly(vt, {tuple(e): Scalar(1)})

    # -- ring operations ---------------------------------------------------------

    def _check_vars(self, other: "MPoly"):
        if self.vars != other.vars:
            raise ValueError(
                f"variable mismatch: {self.vars} vs {other.vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = MPoly.const(self.vars, other)
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            c = as_scalar(other)
            if c.is_zero():
                return MPoly.zero(self.vars)
            return MPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check_vars(other)
        out: dict[Exponent, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("MPoly powers must be nonnegative integers")
        out = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if inhomogeneous.
        Zero polynomial reports None."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), Scalar(0))

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def collect(self, name: str) -> dict[int, "MPoly"]:
        """Split into {exponent of name: coefficient polynomial}."""
        idx = self.vars.index(name)
        buckets: dict[int, dict[Exponent, Scalar]] = {}
        for e, c in self.terms.items():
            k = e[idx]
            e2 = list(e)
            e2[idx] = 0
            buckets.setdefault(k, {})[tuple(e2)] = c
        return {k: MPoly(self.vars, d) for k, d in sorted(buckets.items())}

    # -- calculus and evaluation ----------------------------------------------------

    def diff(self, name: str) -> "MPoly":
        idx = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            e2 = list(e)
            e2[idx] = k - 1
            key = tuple(e2)
            add = Scalar(k) * c
            acc = out.get(key)
            s = add if acc is None else acc + add
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return MPoly(self.vars, out)

    def eval(self, point) -> Scalar:
        """Evaluate at a full point: mapping var->value or a value sequence."""
        if isinstance(point, Mapping):
            vals = [point[v] for v in self.vars]
        else:
            vals = list(point)
            if len(vals) != len(self.vars):
                raise ValueError("point length mismatch")
        total = Scalar(0)
        for e, c in self.terms.items():
            term = c
            for val, k in zip(vals, e):
                if k:
                    term = term * val**k
            total = total + term
        return total

    def subs(self, target_vars: Sequence[str], mapping: Mapping[str, "MPoly"]) -> "MPoly":
        """Substitute every variable by a polynomial over target_vars."""
        vt = tuple(target_vars)
        images: list[MPoly] = []
        for v in self.vars:
            if v not in mapping:
                raise ValueError(f"no image for variable {v}")
            img = mapping[v]
            if img.vars != vt:
                raise ValueError("mapping image over wrong variables")
            images.append(img)
        pow_cache: list[dict[int, MPoly]] = [
            {0: MPoly.const(vt, 1), 1: img} for img in images
        ]

        def img_pow(idx: int, k: int) -> MPoly:
            cache = pow_cache[idx]
            if k not in cache:
                cache[k] = img_pow(idx, k - 1) * cache[1]
            return cache[k]

        total = MPoly.zero(vt)
        for e, c in self.terms.items():
            term = MPoly.const(vt, c)
            for idx, k in enumerate(e):
                if k:
                    term = term * img_pow(idx, k)
            total = total + term
        return total

    def project(self, new_vars: Sequence[str]) -> "MPoly":
        """Restrict to a variable subset; fails if a dropped variable occurs."""
        vt = tuple(new_vars)
        keep = []
        for v in vt:
            keep.append(self.vars.index(v))
        drop = [i for i in range(len(self.vars)) if i not in keep]
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise ValueError("projection would lose a variable in use")
            out[tuple(e[i] for i in keep)] = c
        return MPoly(vt, out)

    # -- canonical text -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.vars, e)
                if k
            )
            cs = str(c)
            if not mono:
                term = cs if (c.is_real() or c.re == 0) else f"({cs})"
            elif cs == "1":
                term = mono
            elif cs == "-1":
                term = "-" + mono
            elif c.is_real() or c.re == 0:
                term = f"{cs}*{mono}"
            else:
                term = f"({cs})*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"MPoly({str(self)})"


def affine_chart(vars_: Sequence[str], base: Sequence[Scalar],
                 dirs: Sequence[Sequence[Scalar]]) -> list[MPoly]:
    """One polynomial per coordinate of base + sum_k vars_[k] * dirs[k]."""
    vt = tuple(vars_)
    if len(dirs) != len(vt):
        raise ValueError("need one variable per direction")
    units = [tuple(int(m == k) for m in range(len(vt))) for k in range(len(vt))]
    const = (0,) * len(vt)
    out = []
    for idx, c in enumerate(base):
        terms = {const: c}
        for e, d in zip(units, dirs):
            terms[e] = d[idx]
        out.append(MPoly(vt, {e: v for e, v in terms.items() if v}))
    return out


# -- polynomial matrices ------------------------------------------------------------


def mpoly_mat_mul(A: Sequence[Sequence[MPoly]], B: Sequence[Sequence[MPoly]]) -> list[list[MPoly]]:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    if any(len(row) != k for row in A):
        raise ValueError("shape mismatch")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = MPoly.zero(A[0][0].vars)
            for t in range(k):
                if A[i][t] and B[t][j]:
                    acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mpoly_mat_pair(P: Sequence[Sequence[MPoly]], Q: Sequence[Sequence[MPoly]]) -> MPoly:
    """tr(P Q) = sum_ij P_ij Q_ji, without forming the product."""
    acc = MPoly.zero(P[0][0].vars)
    for i, row in enumerate(P):
        for j, p in enumerate(row):
            if p and Q[j][i]:
                acc = acc + p * Q[j][i]
    return acc


def mpoly_mat_trace(A: Sequence[Sequence[MPoly]]) -> MPoly:
    acc = MPoly.zero(A[0][0].vars)
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


def mpoly_det(A: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square MPoly matrix by memoized Laplace expansion."""
    n = len(A)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in A):
        raise ValueError("non-square matrix")
    vars_ = A[0][0].vars
    full_mask = (1 << n) - 1
    cache: dict[tuple[int, int], MPoly] = {}

    def minor(row: int, mask: int) -> MPoly:
        if row == n:
            return MPoly.const(vars_, 1)
        key = (row, mask)
        got = cache.get(key)
        if got is not None:
            return got
        acc = MPoly.zero(vars_)
        idx = 0
        for j in range(n):
            bit = 1 << j
            if not (mask & bit):
                continue
            entry = A[row][j]
            if entry:
                sub = minor(row + 1, mask & ~bit)
                contrib = entry * sub
                acc = acc + (contrib if idx % 2 == 0 else -contrib)
            idx += 1
        cache[key] = acc
        return acc

    return minor(0, full_mask)
