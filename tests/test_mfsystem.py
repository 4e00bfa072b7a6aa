"""Shift systems: construction, evaluation paths, Poisson structure,
membership criteria, strong regularity, tangent spaces, sections.  Values
and Jacobians are cross-checked against the symbolic oracles of
oracles.py."""

import re
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from property_suites import REP_KEYS, conjugate, representative, system_for

from mfatlas.components import (
    _line_regular,
    alt_generators,
    fibre_membership,
    fibre_membership_finite_lambda,
    is_strongly_regular,
    poisson_brackets,
    section_chart,
    tangent_space,
)
from mfatlas.errors import CertificationError, PreconditionError, RegularityError
from mfatlas.flags import enumerate_atlas
from mfatlas.lie import is_regular, nilpotent_rep, semisimple_rep, sl
from mfatlas.linalg import ExactMatrix, _dot, mat_rank
from mfatlas.mfsystem import (
    ShiftSystem,
    build_system,
    gradient_matrix,
    invariant_values_along,
    mf_values,
    power_chain,
    trace_coefficients,
)
from mfatlas.mpoly import MPoly, generic_matrix, mpoly_dot
from mfatlas.sampling import (
    random_combination,
    random_distinct_rationals,
    random_element,
    random_rational_scalar,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from mfatlas.scalar import Scalar, scalar_from_str
from mfatlas.verify import check_tarasov_section
from oracles import (
    evaluate_symbolic,
    jacobian_at_symbolic,
    krylov_line_regular_sympy,
    line_spot_checks,
    poisson_bracket_grads,
    shift_expansion_by_substitution,
    tarasov_section_sympy,
)

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


def test_poisson_brackets_match_three_product_oracle():
    """The one-commutator pairing equals the three-product bracket on every
    pair of each representative's system, on a few sl_4 pairs, and on pairs
    with coordinate functions, whose brackets do not vanish."""
    from mfatlas.mpoly import MPoly

    cases = [(SYSTEMS[k].algebra, SYSTEMS[k].component_gradients()) for k in REP_KEYS]
    sl4 = build_system(semisimple_rep(sl(4), []))
    cases.append((sl4.algebra, [sl4.component_gradients()[k] for k in (0, 3, 8)]))
    for L, grads in list(cases):
        coords = [MPoly.var(L.coord_names, v) for v in L.coord_names[:2] + L.coord_names[-1:]]
        cases.append((L, [gradient_matrix(L, f) for f in coords] + grads[-2:]))
    nonzero = 0
    for L, grads in cases:
        want = [poisson_bracket_grads(L, Gf, Gg) for Gf, Gg in combinations(grads, 2)]
        assert list(poisson_brackets(L, grads)) == want
        nonzero += sum(not br.is_zero() for br in want)
    assert nonzero > 0


def test_poisson_bracket_nonzero_outside_system():
    L = sl(2)
    x12 = L.coord_names[0]
    from mfatlas.mpoly import MPoly

    f = MPoly.var(L.coord_names, "x12")
    g = MPoly.var(L.coord_names, "x21")
    br = _poisson_bracket(f, g, L)
    assert not br.is_zero()
    grads = [gradient_matrix(L, f), gradient_matrix(L, g)]
    assert list(poisson_brackets(L, grads)) == [br]


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
    """The lambda-coefficients of tr((P + lambda Q)^d), each paired as one
    dot over half powers laid end to end, equal the traces of the formed
    products summed, for d <= 4, on Gaussian rationals over coprime
    denominators, with a zero row in each matrix."""
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
        coeffs, want = [P, Q], []
        for d in range(2, 5):
            coeffs = ([coeffs[0] * P] + [C * P + D * Q for C, D in zip(coeffs[1:], coeffs)]
                      + [coeffs[-1] * Q])
            want.append([C.trace() for C in coeffs[:-1]])
        assert trace_coefficients(P.entries, Q.entries, 4, _dot) == want


def test_mf_values_matches_system_order():
    rng = rng_for("sys-order", 0)
    for key, sys_ in SYSTEMS.items():
        x = random_element(sys_.algebra, rng)
        assert mf_values(sys_.a, x) == sys_.evaluate(x), key


def _line_certificate(x, a):
    """The certificate is_strongly_regular reads: the line x + C a is
    regular, read off the lambda-power chain of x + lambda a."""
    return _line_regular(power_chain(x.matrix.entries, a.matrix.entries, a.algebra.n - 1, _dot))


def test_krylov_line_certificate():
    a = REPS["sl3-s"]
    # the zero point: x + lambda a = lambda a is singular at lambda = 0
    assert not _line_certificate(a.algebra.zero(), a)
    # a regular nilpotent stays regular along the whole line for nilpotent a
    rng = rng_for("sys-krylov", 0)
    sys_ = SYSTEMS["sl3-s"]
    hits = 0
    for _ in range(10):
        x = random_element(sys_.algebra, rng)
        if _line_certificate(x, sys_.a):
            hits += 1
            assert is_strongly_regular(sys_, x)
    assert hits > 0


def _sheet_point(L, a, rng, jordan):
    """y + lambda a for y conjugate to D (+ e_12 when jordan), D traceless
    diagonal with a repeated first eigenvalue, lambda rational."""
    n = L.n
    vals = random_distinct_rationals(rng, n - 1)
    d = [vals[0]] + vals
    mean = sum(d, Scalar(0)) / Scalar(n)
    m = [[(d[i] - mean if i == j else Scalar(0)) for j in range(n)] for i in range(n)]
    m[0][1] = Scalar(int(jordan))
    g = random_unimodular(L, rng)
    y = conjugate(g, L.element(ExactMatrix(m)))
    return y + a.scale(random_rational_scalar(rng))


# sl_3 shift diag(1, -1, 0) and a point whose line is singular only at
# lambda = +-i sqrt(2): the upper 2 x 2 block of x + lambda a has
# eigenvalues +-sqrt(lambda^2 + 2), which meet the third, 0, only there.
_IRRATIONAL_SHIFT = sl(3).element(ExactMatrix.diagonal([Scalar(1), Scalar(-1), Scalar(0)]))
_IRRATIONAL_POINT = sl(3).element(ExactMatrix(
    [[Scalar(0), Scalar(1), Scalar(0)], [Scalar(2), Scalar(0), Scalar(0)], [Scalar(0)] * 3]))
LINE_SHIFTS = dict(
    {key: REPS[key] for key in REP_KEYS},
    **{"sl4-s": semisimple_rep(sl(4), []), "sl4-n": nilpotent_rep(sl(4)),
       "sl3-irrational": _IRRATIONAL_SHIFT},
)


@pytest.mark.parametrize("key", list(LINE_SHIFTS))
def test_line_certificate_matches_oracles(key):
    """On the origin, a, rational, Gaussian, b^a, Tarasov-section and
    repeated-eigenvalue sheet points: the row-reduction certificate, the
    sympy Krylov determinant, the Jacobian rank and is_strongly_regular
    agree, and every certified line passes the spot checks."""
    pytest.importorskip("sympy")
    a = LINE_SHIFTS[key]
    L = a.algebra
    sys_ = SYSTEMS[key] if key in SYSTEMS else build_system(a)
    rng = rng_for(f"sys-line-cert:{key}", 0)
    xi, dirs = section_chart(L)
    section_dirs = [L.element_from_coords(d) for d in dirs]
    b_a = enumerate_atlas(a).b_a
    points = {"origin": L.zero(), "a": a}
    for k in range(2):
        points[f"rational {k}"] = random_element(L, rng)
        points[f"Gaussian {k}"] = random_element(L, rng, gaussian=True)
        points[f"b^a {k}"] = random_combination(L, b_a, rng)
        points[f"section {k}"] = L.element_from_coords(xi) + random_combination(L, section_dirs, rng)
    for k in range(4):
        points[f"sheet {k}"] = _sheet_point(L, a, rng, jordan=k % 2 == 0)
    if key == "sl3-irrational":
        points["singular at +-i sqrt 2"] = _IRRATIONAL_POINT
    outcomes = set()
    for label, x in points.items():
        cert = _line_certificate(x, a)
        assert cert == krylov_line_regular_sympy(x, a), label
        assert cert == (mat_rank(sys_.jacobian_at(x)) == sys_.b), label
        assert cert == is_strongly_regular(sys_, x), label
        assert not cert or line_spot_checks(sys_, x), label
        outcomes.add(cert)
    assert outcomes == {True, False}
    if key == "sl3-irrational":
        # no rational lambda sees the singular points: only the certificate does
        assert line_spot_checks(sys_, _IRRATIONAL_POINT)
        assert not _line_certificate(_IRRATIONAL_POINT, a)


def _count_power_chains(monkeypatch):
    """Count every lambda-power chain built from here on, in either module
    that names power_chain, so a chain built through ShiftSystem.jacobian_at
    counts as well as one built in the fibre layer."""
    import mfatlas.components
    import mfatlas.mfsystem

    calls = []
    real = mfatlas.mfsystem.power_chain

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (mfatlas.mfsystem, mfatlas.components):
        monkeypatch.setattr(module, "power_chain", counting)
    return calls


def test_strong_regularity_builds_one_chain_and_no_polynomial(monkeypatch):
    """is_strongly_regular reads the Jacobian and the line certificate off
    one lambda-power chain; the certificate forms no MPoly."""
    from mfatlas.mpoly import MPoly

    chains = _count_power_chains(monkeypatch)
    polys = []
    real_init = MPoly.__init__

    def counting_init(self, *args):
        polys.append(args)
        real_init(self, *args)

    monkeypatch.setattr(MPoly, "__init__", counting_init)
    for key, sys_ in SYSTEMS.items():
        for x in (random_element(sys_.algebra, rng_for(f"sys-one-chain:{key}", 0)),
                  sys_.algebra.zero()):
            chains.clear()
            is_strongly_regular(sys_, x)
            assert len(chains) == 1, key
            _line_certificate(x, sys_.a)
    assert polys == []


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
    calls = _count_power_chains(monkeypatch)
    sys_ = SYSTEMS["sl3-s"]
    rng = rng_for("sys-tangent-chain", 0)
    x = random_element(sys_.algebra, rng)
    while not is_strongly_regular(sys_, x):
        x = random_element(sys_.algebra, rng)
    calls.clear()
    assert len(tangent_space(sys_, x)) == 3
    assert len(calls) == 1


def test_tangent_triple_builds_one_chain_per_point(monkeypatch):
    """The tangent-triple row decides strong regularity and computes the
    tangent space off one lambda-power chain per point it draws, the points
    it skips included."""
    import mfatlas.verify
    from mfatlas.verify import check_tangent_triple

    calls = _count_power_chains(monkeypatch)
    draws = []
    real = mfatlas.verify.random_element

    def drawing(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(mfatlas.verify, "random_element", drawing)
    for key, sys_ in SYSTEMS.items():
        calls.clear()
        draws.clear()
        assert check_tangent_triple(sys_, rng_for(f"sys-triple-chain:{key}", 0), 6).passed, key
        assert len(calls) == len(draws) > 0, key


def test_tarasov_reports():
    rep2 = check_tarasov_section(SYSTEMS["sl2-s"], rng_for("tarasov:2", 0), 10)
    assert rep2.passed and rep2.detail == "jacobian constant 8, 10 points"
    rep3 = check_tarasov_section(SYSTEMS["sl3-s"], rng_for("tarasov:3", 0), 10)
    assert rep3.passed and rep3.detail == "jacobian constant 8640, 10 points"
    for key in ("sl3-r", "sl3-n"):
        rep = check_tarasov_section(SYSTEMS[key], rng_for("tarasov:3", 0), 5)
        assert (rep.passed, rep.detail) == (
            True, "skipped: the section check needs a diagonal shift element"), key


def _section_mutant(key, edit):
    """The system of `key` with its components edited by label."""
    sys_ = SYSTEMS[key]
    comps = dict(zip(sys_.labels, sys_.components))
    edit(comps)
    return ShiftSystem(sys_.a, [comps[label] for label in sys_.labels], sys_.labels,
                       sys_.certificate_point)


def test_tarasov_section_fails_a_term_of_the_wrong_weight():
    """x12 h1 restricts to a section term of weight 2 + 1: component (2, 1),
    of weight 2, fails the grading test alone (the term is not linear, so
    J(0) is unchanged)."""
    def edit(comps):
        x12h1 = MPoly.var(comps[(2, 1)].vars, "x12") * MPoly.var(comps[(2, 1)].vars, "h1")
        comps[(2, 1)] = comps[(2, 1)] + x12h1

    rep = check_tarasov_section(_section_mutant("sl3-s", edit), rng_for("tarasov:3", 0), 5)
    assert (rep.passed, rep.detail) == (
        False, "section component (2, 1) is not weighted-homogeneous of weight 2")


def test_tarasov_section_fails_a_singular_linear_part():
    """Components (1, 0) and (2, 1) both have weight 2; made equal, they pass
    the grading test and make J(0) singular."""
    def edit(comps):
        comps[(2, 1)] = comps[(1, 0)]

    rep = check_tarasov_section(_section_mutant("sl3-s", edit), rng_for("tarasov:3", 0), 5)
    assert (rep.passed, rep.detail) == (
        False, "restricted Jacobian determinant is not a nonzero constant")


# Diagonal shifts for the sympy oracle: the default one, a permutation of it
# and a Gaussian one, each with the n - 1 --param values.
TARASOV_SHIFTS = {
    2: [["1"], ["-1"], ["1+2*i"]],
    3: [["1", "2"], ["2", "-3"], ["1+1*i", "2-1*i"]],
    4: [["1", "2", "3"], ["3", "-6", "1"], ["1+1*i", "2-1*i", "-1+2*i"]],
}
TARASOV_DEFAULT_CONSTANTS = {2: "8", 3: "8640", 4: "21849440256"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tarasov_constant_matches_sympy(n):
    """The section's Jacobian constant, rebuilt in sympy.  On sl2 and sl3 the
    full symbolic determinant equals the printed constant.  On sl4, where
    sympy's determinant takes minutes, the two facts the row certifies by are
    checked instead: weighted homogeneity and det J(0).  The default shift's
    constant is the frozen value mf verify prints."""
    sympy = pytest.importorskip("sympy")
    for k, params in enumerate(TARASOV_SHIFTS[n]):
        a = semisimple_rep(sl(n), [scalar_from_str(p) for p in params])
        sys_ = build_system(a)
        rep = check_tarasov_section(sys_, rng_for(f"tarasov:{n}", 0), 0)
        assert rep.passed, (params, rep.detail)
        printed = rep.detail.removeprefix("jacobian constant ").removesuffix(", 0 points")
        if k == 0:
            assert printed == TARASOV_DEFAULT_CONSTANTS[n]
        comps, tvars, weights = tarasov_section_sympy(a)
        assert list(comps) == sys_.labels
        for (i, j), comp in comps.items():
            degrees = {sum(map(mul, m, weights)) for m in sympy.Poly(comp, *tvars).monoms()}
            assert degrees == {i + 1 - j}, (params, (i, j))
        J = sympy.Matrix([[sympy.diff(c, v) for v in tvars] for c in comps.values()])
        if n < 4:
            det = sympy.expand(J.det(method="berkowitz"))
            assert det.is_number, (params, det)
        else:
            det = J.subs({v: 0 for v in tvars}).det()
        re_part, im_part = sympy.expand_complex(det).as_real_imag()
        assert Scalar(Fraction(int(re_part.p), int(re_part.q)),
                      Fraction(int(im_part.p), int(im_part.q))) == scalar_from_str(printed), params


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
        sys_ = build_system(a)
        per_gen = shift_expansion_by_substitution(a)
        expected = [coeffs[0] for coeffs in per_gen]
        expected += [c for coeffs in per_gen for c in coeffs[1:]]
        assert sys_.components == expected, kind


def test_build_substitutes_nothing_and_tangent_space_runs_one_line_certificate(monkeypatch):
    """build_system neither substitutes nor touches unipoly; tangent_space
    substitutes nothing and row-reduces one line certificate, the one
    deciding strong regularity, per point."""
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
        if mat_rank(sys_.jacobian_at(x)) == sys_.b:
            tangent_space(sys_, x)
            tangents += 1
    assert "subs" not in calls and calls.count("uni_echelon_pivots") == tangents >= 3
    calls.clear()
    sys_ = SYSTEMS["sl3-s"]
    sys_.components[0].subs(sys_.algebra.coord_names, {
        v: MPoly.var(sys_.algebra.coord_names, v) for v in sys_.algebra.coord_names
    })
    up.uni_deg(up.uni([Scalar(1), Scalar(2)]))
    assert calls == ["subs", "uni", "uni_deg"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_chain_step_matches_the_products(n):
    """Each C_j X + C_(j-1) A of the power chain, formed as one dot over
    concatenated rows and columns, equals the two products summed, on seeded
    Gaussian-rational matrices with a zero row in x."""
    L = sl(n)
    rng = rng_for("test-fused-chain", n)
    a = random_element(L, rng, gaussian=True)
    rows = [list(row) for row in random_element(L, rng, gaussian=True).matrix.entries]
    rows[0] = [Scalar(0)] * n
    rows[-1][-1] = -sum((rows[k][k] for k in range(n - 1)), Scalar(0))
    x = L.element(rows)
    X, A = x.matrix, a.matrix
    chain = [[ExactMatrix(C) for C in coeffs]
             for coeffs in power_chain(X.entries, A.entries, 4, _dot)]
    assert len(chain) == 4 and chain[0] == [X, A]
    for C, nxt in zip(chain, chain[1:]):
        assert nxt == [C[0] * X] + [C[j] * X + C[j - 1] * A for j in range(1, len(C))] + [C[-1] * A]
    assert not any(chain[-1][0].entries[0])  # x^4 keeps the zero row


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_over_mpoly_evaluates_to_the_scalar_run(n):
    """power_chain and trace_coefficients run on the generic matrix and the
    constants of a, with mpoly_dot, and evaluated at seeded Gaussian points
    x, equal the same routines run on x and a with linalg._dot."""
    L = sl(n)
    rng = rng_for("test-ring-expansion", n)
    a = random_element(L, rng, gaussian=True)
    A = [[MPoly.const(L.coord_names, c) for c in row] for row in a.matrix.entries]
    chain = power_chain(generic_matrix(L), A, n, mpoly_dot)
    coeffs = trace_coefficients(generic_matrix(L), A, n, mpoly_dot)
    for _ in range(3):
        x = random_element(L, rng, gaussian=True)

        def at(polys):
            return [p.eval(x.coords) for p in polys]

        assert [[tuple(map(tuple, map(at, C))) for C in step] for step in chain] == \
            power_chain(x.matrix.entries, a.matrix.entries, n, _dot)
        assert [at(c) for c in coeffs] == \
            trace_coefficients(x.matrix.entries, a.matrix.entries, n, _dot)


@pytest.mark.parametrize("tamper, detail", [
    ("invariant", "invariant gradient fails to centralize"),
    ("shifted", "tangent space route (3) disagrees"),
])
def test_tangent_space_checks_can_fail(monkeypatch, tamper, detail):
    """The centralizer test and the route cross-check each fire: the first
    invariant given a shifted component's gradient, or a shifted component's
    gradient zeroed so route (1) loses a direction."""
    from mfatlas.mfsystem import ShiftSystem

    sys_ = SYSTEMS["sl3-s"]
    rng = rng_for("sys-tangent-tamper", 0)
    x = random_element(sys_.algebra, rng)
    while not is_strongly_regular(sys_, x):
        x = random_element(sys_.algebra, rng)
    gradients = ShiftSystem.component_gradients

    def tampered(self):
        grads = list(gradients(self))
        rank = self.algebra.rank
        if tamper == "invariant":
            grads[0] = grads[rank]
        else:
            grads[rank] = [[p - p for p in row] for row in grads[rank]]
        return grads

    monkeypatch.setattr(ShiftSystem, "component_gradients", tampered)
    with pytest.raises(CertificationError, match=re.escape(detail)):
        tangent_space(sys_, x)
