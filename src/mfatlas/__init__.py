"""Exact-arithmetic Mishchenko-Fomenko systems on sl_n.

Everything is computed over the Gaussian rationals Q(i): a scalar is a
Gaussian integer over one denominator, three ints in canonical form,
polynomials are sparse dicts keyed by exponent tuples, and linear algebra runs
on one exact Gauss-Jordan elimination.  No floats anywhere.
"""

from .scalar import Scalar, as_scalar
from .linalg import ExactMatrix, mat_rank, mat_kernel

__all__ = ["Scalar", "as_scalar", "ExactMatrix", "mat_rank", "mat_kernel"]

__version__ = "0.1.0"

