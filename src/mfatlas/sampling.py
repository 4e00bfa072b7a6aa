"""Seeded exact samplers used by property checks and CLI verification.

Everything draws from an explicit random.Random so runs are reproducible;
values are small rationals to keep fraction growth in check.  Every sampler
returns Scalars, each rational built from one drawn numerator and one drawn
denominator (random_rational_scalar).
"""

from __future__ import annotations

from math import prod
from random import Random
from typing import Sequence

from .lie import GElement, LieAlgebraA
from .linalg import ExactMatrix, mat_inverse
from .scalar import Scalar, scalar_from_ints


def rng_for(tag: str, seed: int) -> Random:
    # string seeding is stable across processes (no hash randomization)
    return Random(f"{tag}:{seed}")


DENOMINATORS = (1, 1, 2, 3)  # drawn uniformly, so 1 half the time
SHEARS = 4  # shear draws per random_unimodular; a draw with i == j is skipped


def random_rational_scalar(rng: Random, num_bound: int = 9) -> Scalar:
    """A numerator in [-num_bound, num_bound] over a denominator drawn from
    DENOMINATORS."""
    return scalar_from_ints(rng.randint(-num_bound, num_bound), 0, rng.choice(DENOMINATORS))


def random_scalar(rng: Random, gaussian: bool = False) -> Scalar:
    re = random_rational_scalar(rng)
    return re + Scalar(0, 1) * random_rational_scalar(rng) if gaussian and rng.random() < 0.5 else re


def random_nonzero_rational(rng: Random, num_bound: int = 9) -> Scalar:
    while True:
        q = random_rational_scalar(rng, num_bound)
        if q:
            return q


def random_element(L: LieAlgebraA, rng: Random, gaussian: bool = False) -> GElement:
    coords = [random_scalar(rng, gaussian) for _ in range(L.dim)]
    return L.element_from_coords(coords)


def random_combination(L: LieAlgebraA, basis: Sequence[GElement], rng: Random) -> GElement:
    """Sum of the basis elements with one random rational coefficient each,
    drawn in basis order."""
    x = L.zero()
    for e in basis:
        x = x + e.scale(random_rational_scalar(rng))
    return x


def random_distinct_rationals(rng: Random, k: int, num_bound: int = 9) -> list[Scalar]:
    seen: set[Scalar] = set()
    out: list[Scalar] = []
    while len(out) < k:
        q = random_rational_scalar(rng, num_bound)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def random_traceless_distinct_diag(L: LieAlgebraA, rng: Random) -> GElement:
    """Diagonal element with pairwise distinct entries summing to zero."""
    n = L.n
    while True:
        vals = random_distinct_rationals(rng, n - 1)
        last = -sum(vals, Scalar(0))
        if last not in vals:
            vals.append(last)
            return L.element(ExactMatrix.diagonal(vals))


def random_upper_unipotent(L: LieAlgebraA, rng: Random) -> ExactMatrix:
    n = L.n
    rows = [
        [
            Scalar(1) if i == j else (random_rational_scalar(rng, 4) if i < j else Scalar(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ExactMatrix(rows)


def random_torus(L: LieAlgebraA, rng: Random) -> ExactMatrix:
    """Diagonal matrix with nonzero rational entries and determinant 1."""
    n = L.n
    vals = [random_nonzero_rational(rng, 4) for _ in range(n - 1)]
    vals.append(1 / prod(vals))
    return ExactMatrix.diagonal(vals)


def random_borel_group_element(L: LieAlgebraA, rng: Random) -> ExactMatrix:
    """Element of the standard Borel subgroup: torus times upper unipotent."""
    return random_torus(L, rng) * random_upper_unipotent(L, rng)


def random_unimodular(L: LieAlgebraA, rng: Random) -> ExactMatrix:
    """Product of elementary shears; always invertible with det 1."""
    n = L.n
    g = ExactMatrix.identity(n)
    for _ in range(SHEARS):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = [[Scalar(1) if r == c else Scalar(0) for c in range(n)] for r in range(n)]
        e[i][j] = random_rational_scalar(rng, 3)
        g = g * ExactMatrix(e)
    return g


def conjugate(g: ExactMatrix, x: GElement) -> GElement:
    return x.algebra.element(g * x.matrix * mat_inverse(g))
