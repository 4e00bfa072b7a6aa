"""Shift systems: construction, evaluation paths, Poisson structure,
membership criteria, strong regularity, tangent spaces, sections.  Values
and Jacobians are cross-checked against the symbolic oracles of
oracles.py."""

from fractions import Fraction
from itertools import combinations

import pytest
from property_suites import REP_KEYS, representative, system_for

from mfatlas.errors import PreconditionError, RegularityError
from mfatlas.flags import enumerate_atlas
from mfatlas.lie import is_regular, sl
from mfatlas.linalg import ExactMatrix, mat_rank
from mfatlas.mfsystem import (
    _pair,
    alt_generators,
    build_system,
    fibre_membership,
    fibre_membership_finite_lambda,
    gradient_matrix,
    invariant_values_along,
    is_strongly_regular,
    krylov_line_regular,
    mf_values,
    poisson_bracket_grads,
    section_chart,
    tangent_space,
)
from mfatlas.sampling import (
    conjugate,
    random_combination,
    random_element,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from mfatlas.scalar import Scalar
from mfatlas.verify import tarasov_check
from oracles import evaluate_symbolic, jacobian_at_symbolic, shift_expansion_by_substitution

REPS = {k: representative(k) for k in REP_KEYS}
SYSTEMS = {k: system_for(k) for k in REP_KEYS}


def test_shapes_and_labels():
    s2 = SYSTEMS["sl2-s"]
    assert s2.b == 2 and s2.degrees == [2]
    assert s2.labels == [(1, 0), (1, 1)]
    s3 = SYSTEMS["sl3-n"]
    assert s3.b == 5 and s3.degrees == [2, 3]
    assert s3.labels == [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]


def test_invariant_generators_are_trace_powers():
    sys_ = SYSTEMS["sl3-s"]
    L = sys_.algebra
    assert sys_.labels[:L.rank] == [(1, 0), (2, 0)]
    gens = sys_.components[:L.rank]
    rng = rng_for("sys-gens", 0)
    for _ in range(10):
        x = random_element(L, rng)
        m2 = x.matrix * x.matrix
        point = dict(zip(L.coord_names, x.coords))
        assert gens[0].eval(point) == m2.trace()
        assert gens[1].eval(point) == (m2 * x.matrix).trace()


def test_shift_expand_matches_along_line():
    sys_ = SYSTEMS["sl3-s"]
    L, a = sys_.algebra, sys_.a
    coeffs = [sys_.components[sys_.labels.index((2, j))] for j in range(3)]
    rng = rng_for("sys-expand", 0)
    for _ in range(10):
        x = random_element(L, rng)
        lam = Scalar(Fraction(3, 2))
        point = dict(zip(L.coord_names, x.coords))
        fa = invariant_values_along(a, L.zero(), Scalar(1))[1]
        total = fa * lam**3
        pw = Scalar(1)
        for c in coeffs:
            total = total + c.eval(point) * pw
            pw = pw * lam
        assert total == invariant_values_along(a, x, lam)[1]


def test_build_rejects_non_regular():
    L = sl(3)
    bad = L.element(ExactMatrix.diagonal([Scalar(1), Scalar(1), Scalar(-2)]))
    with pytest.raises(RegularityError):
        build_system(bad)


def test_two_evaluation_paths_agree():
    rng = rng_for("sys-eval", 0)
    for key, sys_ in SYSTEMS.items():
        for _ in range(15):
            x = random_element(sys_.algebra, rng)
            assert sys_.evaluate(x) == evaluate_symbolic(sys_, x), key


def test_printed_sl2_system():
    assert [str(c) for c in SYSTEMS["sl2-s"].scaled_components()] == [
        "x12*x21 + h1^2",
        "2*h1",
    ]
    assert [str(c) for c in SYSTEMS["sl2-n"].scaled_components()] == [
        "x12*x21 + h1^2",
        "x21",
    ]


def _poisson_bracket(f, g, L):
    return poisson_bracket_grads(L, gradient_matrix(L, f), gradient_matrix(L, g))


def test_poisson_brackets_vanish_on_system():
    sys_ = SYSTEMS["sl3-r"]
    for f, g in combinations(sys_.components, 2):
        assert _poisson_bracket(f, g, sys_.algebra).is_zero()


def test_poisson_bracket_nonzero_outside_system():
    L = sl(2)
    x12 = L.coord_names[0]
    from mfatlas.mpoly import MPoly

    f = MPoly.var(L.coord_names, "x12")
    g = MPoly.var(L.coord_names, "x21")
    br = _poisson_bracket(f, g, L)
    assert not br.is_zero()


def test_certificate_point_has_full_rank():
    for key, sys_ in SYSTEMS.items():
        assert mat_rank(sys_.jacobian_at(sys_.certificate_point)) == sys_.b, key


def test_alt_generators_default_and_bad_tables():
    sys_ = SYSTEMS["sl3-s"]
    rows = alt_generators(sys_)
    assert [len(r) for r in rows] == [2, 3]
    with pytest.raises(PreconditionError):
        alt_generators(sys_, [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(1), Scalar(2)]])
    with pytest.raises(PreconditionError):
        alt_generators(sys_, [[Scalar(0), Scalar(1)]])


def test_membership_reflexive_and_shift_translates():
    rng = rng_for("sys-member", 0)
    for key, sys_ in SYSTEMS.items():
        x = random_element(sys_.algebra, rng)
        assert fibre_membership(sys_, x, x)
        assert fibre_membership_finite_lambda(sys_, x, x)


def test_finite_lambda_membership_agrees_with_values():
    """Same-fibre pairs x, x + u with x in a Borel b containing a and u in
    its nilradical, and conjugate pairs, which share the invariants f_i
    (the values at lambda = 0) but not the rest of the fibre."""
    rng = rng_for("sys-member-pairs", 0)
    seen = set()
    for key, sys_ in SYSTEMS.items():
        L = sys_.algebra
        B = enumerate_atlas(sys_.a).borels[0]
        for _ in range(3):
            x = random_combination(L, B.p_basis, rng)
            for y in (x + random_combination(L, B.u_basis, rng),
                      conjugate(random_unimodular(L, rng), x)):
                same = fibre_membership(sys_, x, y)
                assert fibre_membership_finite_lambda(sys_, x, y) == same, key
                seen.add(same)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_is_trace_of_product(n):
    """The fused pairing equals tr(P Q) of the formed product, on Gaussian
    rationals over coprime denominators, with a zero row in each matrix."""
    rng = rng_for("pair-trace", n)

    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))

    def matrix():
        rows = [[Scalar(part(), part() if rng.random() < 0.5 else 0) for _ in range(n)]
                for _ in range(n)]
        rows[rng.randrange(n)] = [Scalar(0)] * n
        return ExactMatrix(rows)

    for _ in range(25):
        P, Q = matrix(), matrix()
        assert _pair(P, Q) == (P * Q).trace()
        assert _pair(Q, P) == (Q * P).trace()


def test_mf_values_matches_system_order():
    rng = rng_for("sys-order", 0)
    for key, sys_ in SYSTEMS.items():
        x = random_element(sys_.algebra, rng)
        assert mf_values(sys_.a, x) == sys_.evaluate(x), key


def test_krylov_line_certificate():
    a = REPS["sl3-s"]
    # the zero point: x + lambda a = lambda a is singular at lambda = 0
    assert not krylov_line_regular(a.algebra.zero(), a)
    # a regular nilpotent stays regular along the whole line for nilpotent a
    rng = rng_for("sys-krylov", 0)
    sys_ = SYSTEMS["sl3-s"]
    hits = 0
    for _ in range(10):
        x = random_element(sys_.algebra, rng)
        if krylov_line_regular(x, sys_.a):
            hits += 1
            assert is_strongly_regular(sys_, x, certify=True)
    assert hits > 0


def test_strong_regularity_origin_fails():
    for key, sys_ in SYSTEMS.items():
        assert not is_strongly_regular(sys_, sys_.algebra.zero()), key


def test_tangent_space_dimension():
    sys_ = SYSTEMS["sl3-r"]
    rng = rng_for("sys-tangent", 0)
    found = 0
    while found < 3:
        x = random_element(sys_.algebra, rng)
        if is_strongly_regular(sys_, x):
            assert len(tangent_space(sys_, x)) == 3
            found += 1
    with pytest.raises(RegularityError):
        tangent_space(sys_, sys_.algebra.zero())


def test_tangent_space_builds_one_power_chain(monkeypatch):
    """The strong-regularity guard and route (3) share one lambda-power chain."""
    import mfatlas.mfsystem

    calls = []
    real = mfatlas.mfsystem._power_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mfatlas.mfsystem, "_power_chain", counting)
    sys_ = SYSTEMS["sl3-s"]
    rng = rng_for("sys-tangent-chain", 0)
    x = random_element(sys_.algebra, rng)
    while not is_strongly_regular(sys_, x):
        x = random_element(sys_.algebra, rng)
    calls.clear()
    assert len(tangent_space(sys_, x)) == 3
    assert len(calls) == 1


def test_tarasov_reports():
    rep2 = tarasov_check(SYSTEMS["sl2-s"], sample_count=10, seed=0)
    assert rep2.passed
    rep3 = tarasov_check(SYSTEMS["sl3-s"], sample_count=10, seed=0)
    assert rep3.passed
    assert rep3.strong_regular_checked == 10
    with pytest.raises(PreconditionError):
        tarasov_check(SYSTEMS["sl3-r"], sample_count=5, seed=0)
    with pytest.raises(PreconditionError):
        tarasov_check(SYSTEMS["sl3-n"], sample_count=5, seed=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_section_chart(n):
    L = sl(n)
    xi, dirs = section_chart(L)
    assert L.matrix_of_coords(xi) == ExactMatrix(
        [[Scalar(1) if i == j + 1 else Scalar(0) for j in range(n)] for i in range(n)]
    )
    assert len(dirs) == L.b
    slots = []
    for d in dirs:
        support = [idx for idx, c in enumerate(d) if not c.is_zero()]
        assert len(support) == 1 and d[support[0]] == Scalar(1)
        slots.append(support[0])
    upper = [idx for idx, (i, j) in enumerate(L.offdiag_positions) if i < j]
    cartan = list(range(len(L.offdiag_positions), L.dim))
    assert slots == upper + cartan


def _oracle_shifts(n):
    """A dense rational regular semisimple shift, a Gaussian diagonal one and
    a dense regular nilpotent one."""
    L = sl(n)
    rng = rng_for(f"sys-oracle-shifts:{n}", 0)
    rational = conjugate(random_unimodular(L, rng), random_traceless_distinct_diag(L, rng))
    gauss = [Scalar(k + 1, 2 * k - 1) for k in range(n - 1)]
    gauss.append(-sum(gauss, Scalar(0)))
    shift = ExactMatrix([[Scalar(int(j == i + 1)) for j in range(n)] for i in range(n)])
    nilpotent = conjugate(random_unimodular(L, rng), L.element(shift))
    return {
        "rational": rational,
        "Gaussian": L.element(ExactMatrix.diagonal(gauss)),
        "nilpotent": nilpotent,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobian_and_values_match_symbolic_oracles(n):
    """Entry for entry, at the origin, at a, and at random rational, Gaussian
    and b^a points.  For semisimple a, b^a is the Cartan subalgebra through
    a, where every gradient lies in b^a, so the rank drops to at most n - 1."""
    L = sl(n)
    rng = rng_for(f"sys-oracle-points:{n}", 0)
    for kind, a in _oracle_shifts(n).items():
        sys_ = build_system(a)
        b_a = enumerate_atlas(a).b_a
        points = [("origin", L.zero()), ("a", a)]
        for k in range(3):
            points.append((f"random {k}", random_element(L, rng)))
            points.append((f"Gaussian {k}", random_element(L, rng, gaussian=True)))
            points.append((f"b^a {k}", random_combination(L, b_a, rng)))
        for label, x in points:
            where = f"{kind} shift, {label} point"
            jac = sys_.jacobian_at(x)
            assert jac == jacobian_at_symbolic(sys_, x), where
            assert mf_values(a, x) == evaluate_symbolic(sys_, x), where
            if label.startswith("b^a") and kind != "nilpotent":
                assert mat_rank(jac) <= n - 1, where


def test_jacobian_at_evaluates_no_polynomial(monkeypatch):
    from mfatlas.mpoly import MPoly

    cases = [(sys_, random_element(sys_.algebra, rng_for(f"sys-no-eval:{key}", 0)))
             for key, sys_ in SYSTEMS.items()]
    sl4 = build_system(sl(4).element(ExactMatrix.diagonal([Scalar(v) for v in (1, 2, 3, -6)])))
    cases.append((sl4, random_element(sl4.algebra, rng_for("sys-no-eval:sl4", 0))))
    calls = []
    real = MPoly.eval

    def counting(self, point):
        calls.append(point)
        return real(self, point)

    monkeypatch.setattr(MPoly, "eval", counting)
    for sys_, x in cases:
        sys_.jacobian_at(x)
    assert calls == []
    evaluate_symbolic(sl4, cases[-1][1])
    assert len(calls) == sl4.b


def _dense_shift(n):
    """A dense rational shift, as a --matrix file would give."""
    L = sl(n)
    a = random_element(L, rng_for(f"sys-dense-shift:{n}", 0))
    assert is_regular(a)
    return a


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_system_matches_substitution_oracle(n):
    """Polynomial for polynomial, in component order: the pairing builder
    against substituting x + lambda a into tr(X^d)."""
    shifts = dict(_oracle_shifts(n), dense=_dense_shift(n))
    for kind, a in shifts.items():
        sys_ = build_system(a, certify=False)
        per_gen = shift_expansion_by_substitution(a)
        expected = [coeffs[0] for coeffs in per_gen]
        expected += [c for coeffs in per_gen for c in coeffs[1:]]
        assert sys_.components == expected, kind


def test_build_substitutes_nothing_and_tangent_space_uses_no_unipoly(monkeypatch):
    import mfatlas.unipoly as up
    from mfatlas.mpoly import MPoly

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MPoly, "subs", counting("subs", MPoly.subs))
    for name, fn in list(vars(up).items()):
        if name.startswith("uni") and callable(fn):
            monkeypatch.setattr(up, name, counting(name, fn))
    for n in (2, 3, 4):
        for a in dict(_oracle_shifts(n), dense=_dense_shift(n)).values():
            build_system(a)
    assert calls == []
    rng = rng_for("sys-no-unipoly", 0)
    tangents = 0
    for sys_ in SYSTEMS.values():
        x = random_element(sys_.algebra, rng)
        if is_strongly_regular(sys_, x):
            tangent_space(sys_, x)
            tangents += 1
    assert calls == [] and tangents >= 3
    sys_ = SYSTEMS["sl3-s"]
    sys_.components[0].subs(sys_.algebra.coord_names, {
        v: MPoly.var(sys_.algebra.coord_names, v) for v in sys_.algebra.coord_names
    })
    up.uni_deg(up.uni([Scalar(1), Scalar(2)]))
    assert calls == ["subs", "uni", "uni_deg"]
