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
tuple of len(vars) nonnegative ints.  Like terms are added in one routine,
_merge: sums, products, substitution, the dot product and trace hand it all
the (exponent, coefficient) terms of a result at once, so no partial
polynomial is built per term, and it drops the coefficients that cancel, so
a stored zero, which would break equality, cannot arise.  mpoly_dot,
sum u_k v_k over rows of polynomials, is the counterpart of linalg._dot: the
lambda-expansion in mfsystem takes either one as its ring's dot, and the
matrix product and trace pairing are rows against columns of it.  The other
operations keep distinct exponents distinct (differentiation, scaling,
negation, projection) or drop zeros themselves (affine_chart).  Numbers
enter through MPoly.const and scalar multiplication, the only places that
coerce.

The polynomial views of sl_n live here too, so lie needs no polynomials:
generic_matrix (the coordinate functions as a matrix) and
permute_cartan_chart (the Weyl group acting on the Cartan chart).
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

from .lie import LieAlgebraA, permute_diagonal
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
        return _merge(self.vars, chain(self.terms.items(), other.terms.items()))

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
        return _merge(self.vars, _products(self, other))

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

    # -- calculus and evaluation ----------------------------------------------------

    def diff(self, name: str) -> "MPoly":
        """d/d name.  Distinct terms keep distinct exponents, so nothing merges."""
        idx = self.vars.index(name)
        return MPoly(self.vars, {
            (*e[:idx], e[idx] - 1, *e[idx + 1:]): Scalar(e[idx]) * c
            for e, c in self.terms.items() if e[idx]
        })

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
            total += term
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
        pow_cache: list[dict[int, MPoly]] = [{1: img} for img in images]
        one = MPoly.const(vt, 1)

        def img_pow(idx: int, k: int) -> MPoly:
            cache = pow_cache[idx]
            if k not in cache:
                cache[k] = img_pow(idx, k - 1) * cache[1]
            return cache[k]

        def image(e: Exponent, c: Scalar):
            """The terms of c times the image of the monomial e, the last
            product left unmerged."""
            head, *rest = [img_pow(idx, k) for idx, k in enumerate(e) if k] or [one]
            head = head * c
            for f in rest[:-1]:
                head = head * f
            return _products(head, rest[-1]) if rest else head.terms.items()

        return _merge(vt, chain.from_iterable(image(e, c) for e, c in self.terms.items()))

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
                term = cs if not (c.x and c.y) else f"({cs})"
            elif cs == "1":
                term = mono
            elif cs == "-1":
                term = "-" + mono
            elif not (c.x and c.y):
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


def _merge(vars_: tuple[str, ...], terms: Iterable[tuple[Exponent, Scalar]]) -> MPoly:
    """The one place like terms are added: the polynomial whose coefficient at
    each exponent is the sum of the given terms with that exponent, without
    the sums that cancel."""
    out: dict[Exponent, Scalar] = {}
    get = out.get
    for e, c in terms:
        acc = get(e)
        out[e] = c if acc is None else acc + c
    return MPoly(vars_, {e: c for e, c in out.items() if c})


def _products(p: MPoly, q: MPoly) -> Iterable[tuple[Exponent, Scalar]]:
    """The terms of p * q, one per pair of terms, unmerged."""
    qterms = q.terms.items()
    return ((tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in p.terms.items() for e2, c2 in qterms)


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


def restrict_to_chart(polys: Sequence[MPoly], vars_: Sequence[str], base: Sequence[Scalar],
                      dirs: Sequence[Sequence[Scalar]]) -> list[MPoly]:
    """Each polynomial, a function of the coordinates base and dirs are given
    in, composed with the affine_chart base + sum_k vars_[k] * dirs[k]: the
    restriction to that affine family, over vars_."""
    vt = tuple(vars_)
    chart = affine_chart(vt, base, dirs)
    return [p.subs(vt, dict(zip(p.vars, chart))) for p in polys]


# -- polynomial matrices ------------------------------------------------------------


def generic_matrix(L: LieAlgebraA) -> list[list[MPoly]]:
    """The n x n matrix of sl_n whose entries are the coordinate functions:
    the inverse chart at the coordinate variables."""
    vt = L.coord_names
    return L.chart_inverse([MPoly.var(vt, name) for name in vt], MPoly.zero(vt))


def permute_cartan_chart(perm: tuple[int, ...], svars: Sequence[str]) -> dict[str, MPoly]:
    """lie.permute_diagonal on the Cartan chart diag(s_1, ..., s_{n-1},
    -sum s_k), as the substitution s_k -> slot k of the permuted diagonal:
    composing a polynomial on the chart with it evaluates the polynomial at
    perm(D)."""
    sigma = [MPoly.var(svars, s) for s in svars]
    sigma.append(-sum(sigma, MPoly.zero(svars)))
    return dict(zip(svars, permute_diagonal(perm, sigma)))


def mpoly_dot(u: Sequence[MPoly], v: Sequence[MPoly]) -> MPoly:
    """sum u_k v_k, the terms of all the products merged at once: the
    counterpart of linalg._dot, for a nonempty u."""
    return _merge(u[0].vars, chain.from_iterable(_products(p, q) for p, q in zip(u, v)))


def mpoly_mat_mul(A: Sequence[Sequence[MPoly]], B: Sequence[Sequence[MPoly]]) -> list[list[MPoly]]:
    cols = list(zip(*B))
    return [[mpoly_dot(row, col) for col in cols] for row in A]


def mpoly_mat_pair(P: Sequence[Sequence[MPoly]], Q: Sequence[Sequence[MPoly]]) -> MPoly:
    """tr(P Q) = sum_ij P_ij Q_ji, without forming the product: one dot of
    P's rows laid end to end with Q's columns laid end to end."""
    return mpoly_dot([p for row in P for p in row], [q for col in zip(*Q) for q in col])


def mpoly_mat_trace(A: Sequence[Sequence[MPoly]]) -> MPoly:
    return _merge(A[0][0].vars, chain.from_iterable(A[i][i].terms.items() for i in range(len(A))))

