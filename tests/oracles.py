"""Named oracles: the slower, independent routes that the fast product paths
in mfatlas replaced, kept here to cross-check them.

* is_regular_ad_kernel: x is regular iff dim ker ad_x = n - 1, the kernel of
  the (n^2 - 1) x (n^2 - 1) adjoint matrix (oracle for lie.is_regular).
* evaluate_symbolic, jacobian_polys, jacobian_at_symbolic: substitute x into
  the symbolic components of F_a and into their partial derivatives (oracles
  for mfsystem.mf_values and ShiftSystem.jacobian_at).
* min_poly: the minimal polynomial from the first power of m that is a
  combination of lower powers (checked against sympy in test_linalg_oracle).
"""

from __future__ import annotations

from functools import lru_cache

from mfatlas.lie import GElement, ad_matrix
from mfatlas.linalg import ExactMatrix, mat_kernel, solve
from mfatlas.mfsystem import ShiftSystem
from mfatlas.mpoly import MPoly
from mfatlas.scalar import Scalar


def is_regular_ad_kernel(x: GElement) -> bool:
    return len(mat_kernel(ad_matrix(x))) == x.algebra.rank


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
