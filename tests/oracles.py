"""Named oracles: the slower, independent routes that the fast product paths
in mfatlas replaced, kept here to cross-check them.

* is_regular_ad_kernel: x is regular iff dim ker ad_x = n - 1, the kernel of
  the (n^2 - 1) x (n^2 - 1) adjoint matrix (oracle for lie.is_regular).
* evaluate_symbolic, jacobian_polys, jacobian_at_symbolic: substitute x into
  the symbolic components of F_a and into their partial derivatives (oracles
  for mfsystem.mf_values and ShiftSystem.jacobian_at).
* shift_expansion_by_substitution: substitute x + lambda a into tr(X^d) and
  collect by lambda (oracle for mfsystem.trace_power_coefficients).
* killing_form: tr(ad_x ad_y) from adjoint matrices, 2n times the trace form.
* poisson_bracket_grads: {f, g} = <X, Gf Gg - Gg Gf> from three full
  polynomial-matrix products (oracle for mfsystem.poisson_brackets, which
  pairs one commutator [X, Gf] per f with each later Gg).
* span_intersection: the canonical basis of span(A) intersect span(B), from
  the kernel of [A | -B] (folded pairwise over the Borels' spans, the oracle
  for b^a as the solutions of all their stabilizer equations in
  flags.enumerate_atlas).
* stabilizer_equations_by_kernel: the stabilizer equations of a flag from the
  kernel of V^T at each step and the nonzero entries of the coordinate basis
  (oracle for flags.stabilizer_equations, which reads the annihilators off
  the rows of the frame's U0^-1).
* min_poly: the minimal polynomial from the first power of m that is a
  combination of lower powers (checked against sympy in test_linalg_oracle).
* krylov_line_regular_sympy: the line x + C a is regular iff the gcd over
  the v-monomials of the lambda-coefficients of det[v | Mv | ... |
  M^{n-1}v], M = x + lambda a and v a symbolic vector, is a nonzero
  constant; built entirely in sympy (oracle for
  mfsystem.krylov_line_regular).
* line_spot_checks: x + k a is regular for k = 0..2b, a necessary condition
  for a regular line (the one-sided oracle for the same certificate).
* FractionPairScalar, dot_fraction_pairs: Gaussian rationals stored as a pair
  of fractions.Fraction, each part computed by the textbook formulas (oracle
  for the integer-backed scalar.Scalar and linalg._dot).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mfatlas.lie import GElement, ad_matrix, is_regular
from mfatlas.linalg import ExactMatrix, canonical_basis, mat_kernel, solve
from mfatlas.mfsystem import ShiftSystem
from mfatlas.mpoly import MPoly, mpoly_mat_mul, mpoly_mat_trace
from mfatlas.scalar import Scalar, scalar_to_str


def is_regular_ad_kernel(x: GElement) -> bool:
    return len(mat_kernel(ad_matrix(x))) == x.algebra.rank


def krylov_line_regular_sympy(x: GElement, a: GElement) -> bool:
    from sympy import QQ_I, I, Rational, ring
    from sympy.polys.matrices import DomainMatrix

    n = x.algebra.n
    R, *gens = ring([f"v{k + 1}" for k in range(n)] + ["lam"], QQ_I)
    v, lam = gens[:n], gens[n]
    S, t = ring("lam", QQ_I)

    def sym(s: Scalar):
        return QQ_I.from_sympy(Rational(s.re.numerator, s.re.denominator)
                               + I * Rational(s.im.numerator, s.im.denominator))

    M = [[R(sym(xe)) + lam * R(sym(ae)) for xe, ae in zip(xrow, arow)]
         for xrow, arow in zip(x.matrix.entries, a.matrix.entries)]
    cols = [list(v)]
    for _ in range(n - 1):
        cols.append([sum((m * c for m, c in zip(row, cols[-1])), R.zero) for row in M])
    K = DomainMatrix([list(row) for row in zip(*cols)], (n, n), R.to_domain()).det()
    by_monomial: dict[tuple[int, ...], object] = {}
    for monom, coeff in K.terms():
        by_monomial[monom[:n]] = by_monomial.get(monom[:n], S.zero) + coeff * t ** monom[n]
    g = S.zero
    for c in by_monomial.values():
        g = g.gcd(c)
    return g != 0 and g.degree() == 0


def line_spot_checks(sys_: ShiftSystem, x: GElement) -> bool:
    return all(is_regular(x + sys_.a.scale(Scalar(k))) for k in range(2 * sys_.b + 1))


def killing_form(x: GElement, y: GElement) -> Scalar:
    return (ad_matrix(x) * ad_matrix(y)).trace()


def poisson_bracket_grads(L, Gf, Gg) -> MPoly:
    """{f, g}(x) = <x, [Gf(x), Gg(x)]> as a polynomial, from the gradient
    matrices of f and g."""
    C = [[p - q for p, q in zip(rp, rq)]
         for rp, rq in zip(mpoly_mat_mul(Gf, Gg), mpoly_mat_mul(Gg, Gf))]
    return mpoly_mat_trace(mpoly_mat_mul(L.generic_matrix(), C))


def shift_expansion_by_substitution(a: GElement) -> list[list[MPoly]]:
    """For d = 2..n, the lambda-coefficients [c_0, ..., c_{d-1}] of
    tr((x + lambda a)^d), as polynomials in x."""
    L = a.algebra
    ext = L.coord_names + ("lam",)
    lam = MPoly.var(ext, "lam")
    mapping = {name: MPoly.var(ext, name) + lam * c for name, c in zip(L.coord_names, a.coords)}
    X = L.generic_matrix()
    out = []
    P = X
    for d in range(2, L.n + 1):
        P = mpoly_mat_mul(P, X)
        buckets = mpoly_mat_trace(P).subs(ext, mapping).collect("lam")
        out.append([buckets.get(j, MPoly.zero(ext)).project(L.coord_names) for j in range(d)])
    return out


def evaluate_symbolic(sys_: ShiftSystem, x: GElement) -> tuple[Scalar, ...]:
    point = dict(zip(sys_.algebra.coord_names, x.coords))
    return tuple(c.eval(point) for c in sys_.components)


@lru_cache(maxsize=None)
def jacobian_polys(sys_: ShiftSystem) -> tuple[tuple[MPoly, ...], ...]:
    return tuple(
        tuple(c.diff(v) for v in sys_.algebra.coord_names) for c in sys_.components
    )


def jacobian_at_symbolic(sys_: ShiftSystem, x: GElement) -> ExactMatrix:
    point = dict(zip(sys_.algebra.coord_names, x.coords))
    return ExactMatrix([[e.eval(point) for e in row] for row in jacobian_polys(sys_)])


def span_intersection(A, B) -> tuple[tuple[Scalar, ...], ...]:
    """Canonical basis of span(A) intersect span(B)."""
    a = [tuple(v) for v in A if any(v)]
    b = [tuple(v) for v in B if any(v)]
    if not a or not b:
        return ()
    # Columns are the A vectors then the negated B vectors; kernel elements
    # (u, w) satisfy sum u_k a_k = sum w_k b_k.
    M = ExactMatrix.from_columns(a + [tuple(-x for x in v) for v in b])
    inter = []
    for k in mat_kernel(M):
        vec = [Scalar(0)] * len(a[0])
        for coef, vector in zip(k, a):
            vec = [t + coef * x for t, x in zip(vec, vector)]
        inter.append(tuple(vec))
    return canonical_basis(inter)


def stabilizer_equations_by_kernel(L, U: ExactMatrix, composition) -> ExactMatrix:
    """One row w (B v) over the coordinate basis B per column v of U added at
    a flag step (the steps take the columns of U in order, composition[t] at
    step t) and per vector w of the kernel of V^T, V the columns so far."""
    basis_entries = [
        [(r, c, x) for r, row in enumerate(e.matrix.entries) for c, x in enumerate(row)
         if not x.is_zero()]
        for e in L.basis()
    ]
    rows = []
    done = 0
    for k in composition:
        done += k
        ann = mat_kernel(ExactMatrix([U.col(c) for c in range(done)]))
        for v in (U.col(c) for c in range(done - k, done)):
            for w in ann:
                rows.append([sum((w[r] * x * v[c] for r, c, x in nz), Scalar(0))
                             for nz in basis_entries])
    return ExactMatrix(rows or [[Scalar(0)] * L.dim])


def min_poly(m: ExactMatrix) -> list[Scalar]:
    """Monic minimal polynomial coefficients, low degree first."""
    if m.rows != m.cols:
        raise ValueError("min_poly needs a square matrix")
    n = m.rows
    power = ExactMatrix.identity(n)
    vecs = [_vec(power)]
    while True:
        power = power * m
        target = _vec(power)
        x = solve(ExactMatrix.from_columns(vecs), target)
        if x is not None:
            return [-c for c in x] + [Scalar(1)]
        vecs.append(target)
        if len(vecs) > n * n + 1:
            raise RuntimeError("min_poly failed to terminate")


def _vec(m: ExactMatrix) -> tuple[Scalar, ...]:
    return tuple(v for row in m.entries for v in row)


class FractionPairScalar:
    """re + im*i with both parts a Fraction: the arithmetic scalar.Scalar had
    before it stored (x + y*i)/d in ints, without its zero short cuts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FractionPairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairScalar(-self.re, -self.im)

    def __mul__(self, other):
        return FractionPairScalar(self.re * other.re - self.im * other.im,
                                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return FractionPairScalar((self.re * other.re + self.im * other.im) / n,
                                  (self.im * other.re - self.re * other.im) / n)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)!r})"


def dot_fraction_pairs(u, v) -> FractionPairScalar:
    """sum u_k v_k over FractionPairScalar vectors, term by term."""
    out = FractionPairScalar()
    for a, b in zip(u, v):
        out = out + a * b
    return out
