"""Seeded property suites shared by test_properties and the acceptance gate.

Each suite checks one structural identity on `instances` random inputs
spread over the five desk-scale representatives (sl_2 s/n, sl_3 s/r/n),
raising AssertionError with a description on the first violation and
returning the number of instances it certified.  Every suite stops after a
fixed number of draws: suite_tangent_triple skips draws that are not
strongly regular and gives up after ATTEMPTS_PER_INSTANCE * instances of
them, so its count can fall short and a caller's `>= instances` bound can
fail.  All arithmetic is exact; a fixed seed makes every run identical.

Where mfatlas.verify has the identity as a check, the suite calls that
check once per instance with its own seeded generator, so mf verify and
these suites run the same code.  The other suites check identities that
verify does not: numeric Vandermonde inversion, a fresh generator per
tangent-space attempt, and scaling.
"""

from __future__ import annotations

from functools import lru_cache

from mfatlas.corpus import (
    sl2_nilpotent,
    sl2_semisimple,
    sl3_mixed,
    sl3_nilpotent,
    sl3_semisimple,
)
from mfatlas.flags import enumerate_atlas
from mfatlas.lie import sl
from mfatlas.linalg import ExactMatrix, solve
from mfatlas.components import is_strongly_regular, tangent_space
from mfatlas.mfsystem import build_system, invariant_values_along
from mfatlas.sampling import (
    conjugate,
    random_distinct_rationals,
    random_element,
    random_rational_scalar,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from mfatlas.scalar import Scalar
from mfatlas.verify import (
    check_borel_invariance,
    check_centralizer_containment,
    check_equivariance,
    check_finite_lambda_membership,
    check_homogeneity,
    check_shift_reconstruction,
)

REP_KEYS = ("sl2-s", "sl2-n", "sl3-s", "sl3-r", "sl3-n")
ATTEMPTS_PER_INSTANCE = 3


@lru_cache(maxsize=None)
def representative(key: str):
    return {
        "sl2-s": lambda: sl2_semisimple(1),
        "sl2-n": sl2_nilpotent,
        "sl3-s": lambda: sl3_semisimple(1, 2),
        "sl3-r": lambda: sl3_mixed(1),
        "sl3-n": sl3_nilpotent,
    }[key]()


@lru_cache(maxsize=None)
def system_for(key: str):
    return build_system(representative(key))


@lru_cache(maxsize=None)
def atlas_for(key: str):
    return enumerate_atlas(representative(key))


def _require(result, where: str) -> None:
    assert result.passed, f"{result.name} failed for {where}: {result.detail}"


def _round_robin(instances: int):
    for k in range(instances):
        yield REP_KEYS[k % len(REP_KEYS)]


def suite_reconstruction(instances: int = 100, seed: int = 0) -> int:
    """f_i(x + lam a) = sum_j f_ij(x) lam^j + f_i(a) lam^{d_i}."""
    checked = 0
    for key in _round_robin(instances):
        sys_ = system_for(key)
        rng = rng_for(f"prop-reconstruction:{key}:{checked}", seed)
        _require(check_shift_reconstruction(sys_, rng, 1), key)
        checked += 1
    return checked


def suite_homogeneity(instances: int = 100, seed: int = 0) -> int:
    """f_ij(t x) = t^{d_i - j} f_ij(x); degrees also certified symbolically."""
    for key in REP_KEYS:
        _require(check_homogeneity(system_for(key)), key)
    checked = 0
    for key in _round_robin(instances):
        sys_ = system_for(key)
        L = sys_.algebra
        rng = rng_for(f"prop-homogeneity:{key}:{checked}", seed)
        x = random_element(L, rng)
        t = random_rational_scalar(rng)
        vx = sys_.evaluate(x)
        vt = sys_.evaluate(x.scale(t))
        for (i, j), v, w in zip(sys_.labels, vx, vt):
            assert w == v * t ** (sys_.degrees[i - 1] - j), (
                f"scaling failed for {key}, component {(i, j)}"
            )
        checked += 1
    return checked


def suite_equivariance(instances: int = 100, seed: int = 0) -> int:
    """F_a(g x g^-1) = F_{g^-1 a g}(x) for unimodular rational g."""
    checked = 0
    for key in _round_robin(instances):
        rng = rng_for(f"prop-equivariance:{key}:{checked}", seed)
        _require(check_equivariance(system_for(key), rng, 1), key)
        checked += 1
    return checked


def suite_borel_invariance(instances: int = 100, seed: int = 0) -> int:
    """For a and x in a common Borel, F_a is constant on the conjugation
    orbit of x under the Borel subgroup (adapted-basis upper-triangular
    rational matrices)."""
    checked = 0
    for key in _round_robin(instances):
        sys_ = system_for(key)
        borels = atlas_for(key).borels
        rng = rng_for(f"prop-borel:{key}:{checked}", seed)
        B = borels[checked % len(borels)]
        _require(check_borel_invariance(sys_, B, rng, 1), key)
        checked += 1
    return checked


def suite_vandermonde(instances: int = 100, seed: int = 0) -> int:
    """The alternative generators at pairwise-distinct lambdas recover the
    expansion coefficients by inverting a Vandermonde system."""
    checked = 0
    for key in _round_robin(instances):
        sys_ = system_for(key)
        L = sys_.algebra
        a = sys_.a
        rng = rng_for(f"prop-vandermonde:{key}:{checked}", seed)
        x = random_element(L, rng)
        vals = sys_.evaluate(x)
        fa = invariant_values_along(a, L.zero(), Scalar(1))
        r = L.rank
        for i in range(r):
            d = sys_.degrees[i]
            idx = r + sum(sys_.degrees[k] - 1 for k in range(i))
            coeffs = [vals[i]] + [vals[idx + j - 1] for j in range(1, d)]
            lams = random_distinct_rationals(rng, d)
            V = ExactMatrix([[lam**k for k in range(d)] for lam in lams])
            g = [
                invariant_values_along(a, x, lam)[i] - fa[i] * lam**d
                for lam in lams
            ]
            sol = solve(V, g)
            assert sol is not None and list(sol) == coeffs, (
                f"Vandermonde inversion failed for {key}, generator {i + 1}"
            )
        checked += 1
    return checked


def suite_finite_lambda(instances: int = 100, seed: int = 0) -> int:
    """Fibre membership from the components agrees with the finite-lambda
    invariant-value criterion, on random pairs and engineered fibre pairs."""
    checked = 0
    for key in _round_robin(instances):
        sys_ = system_for(key)
        rng = rng_for(f"prop-membership:{key}:{checked}", seed)
        # every third instance is a same-fibre pair, the others a random pair
        random_pairs, fibre_pairs = (0, 1) if checked % 3 == 2 else (1, 0)
        B = atlas_for(key).borels[0]
        _require(check_finite_lambda_membership(sys_, B, rng, random_pairs, fibre_pairs), key)
        checked += 1
    return checked


def suite_tangent_triple(instances: int = 100, seed: int = 0) -> int:
    """tangent_space cross-checks its three computation routes internally;
    at strongly regular points the dimension is b - r."""
    checked = 0
    for attempt in range(ATTEMPTS_PER_INSTANCE * instances):
        if checked == instances:
            break
        key = REP_KEYS[attempt % len(REP_KEYS)]
        sys_ = system_for(key)
        L = sys_.algebra
        rng = rng_for(f"prop-tangent:{key}:{attempt + 1}", seed)
        x = random_element(L, rng)
        if not is_strongly_regular(sys_, x):
            continue
        span = tangent_space(sys_, x)
        assert len(span) == sys_.b - L.rank, f"tangent dimension off for {key}"
        checked += 1
    return checked


def suite_containment(instances: int = 100, seed: int = 0) -> int:
    """The centralizer of a regular element lies in every Borel and
    parabolic of its atlas, and in b^a."""
    checked = 0
    for attempt in range(instances):
        n = 2 if attempt % 5 < 3 else 3
        L = sl(n)
        rng = rng_for(f"prop-containment:{n}:{attempt}", seed)
        kind = attempt % 3
        if kind == 0:
            base = random_traceless_distinct_diag(L, rng)
        elif kind == 1:
            base = representative("sl2-n" if n == 2 else "sl3-n")
        else:
            base = representative("sl2-s" if n == 2 else "sl3-r")
        a = conjugate(random_unimodular(L, rng), base)
        _require(check_centralizer_containment(a, enumerate_atlas(a)), f"n={n}")
        checked += 1
    return checked


ALL_SUITES = {
    "reconstruction": suite_reconstruction,
    "homogeneity": suite_homogeneity,
    "equivariance": suite_equivariance,
    "borel-invariance": suite_borel_invariance,
    "vandermonde": suite_vandermonde,
    "finite-lambda-membership": suite_finite_lambda,
    "tangent-triple": suite_tangent_triple,
    "containment": suite_containment,
}


@lru_cache(maxsize=None)
def run_suite_cached(name: str, instances: int = 100, seed: int = 0) -> int:
    """Run one named suite once per (name, instances, seed); both the
    property tests and the acceptance gate share the result."""
    return ALL_SUITES[name](instances=instances, seed=seed)
