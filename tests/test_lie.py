"""sl_n structure: brackets, forms, centralizers, regularity, Weyl action.
Regularity is cross-checked against the ad_x kernel oracle of oracles.py."""

import json
from fractions import Fraction

import pytest

from mfatlas.errors import PreconditionError
from mfatlas.lie import (
    GElement,
    ad_matrix,
    bracket,
    centralizer,
    is_regular,
    permute_diagonal,
    sl,
    weyl_group,
    weyl_stabilizer,
)
from mfatlas.linalg import ExactMatrix
from mfatlas.mpoly import MPoly, permute_cartan_chart
from mfatlas.sampling import (
    random_distinct_rationals,
    random_element,
    random_scalar,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
from mfatlas.scalar import Scalar
from oracles import is_regular_ad_kernel, killing_form
from property_suites import conjugate


def _el(L, rows):
    return L.element(ExactMatrix([[Scalar(Fraction(v)) for v in row] for row in rows]))


def test_coordinates_round_trip():
    L = sl(3)
    rng = rng_for("lie-coords", 0)
    for _ in range(20):
        x = random_element(L, rng)
        assert L.element_from_coords(x.coords) == x
    assert L.coord_names[:2] == ("x12", "x13")
    assert L.coord_names[-2:] == ("h1", "h2")


def _chart_case(n, ring):
    """(zero, C, Y, k) on sl_n with entries in ring: C an n x n matrix of
    trace 1, Y a trace-free one and k a coordinate vector.  The Scalar case
    is drawn; the MPoly case is generic, one variable per free entry."""
    if ring is Scalar:
        rng = rng_for(f"lie-chart:{n}", 0)
        C = [[random_scalar(rng, gaussian=True) for _ in range(n)] for _ in range(n)]
        Y = [list(row) for row in random_element(sl(n), rng).matrix.entries]
        k = [random_scalar(rng) for _ in range(sl(n).dim)]
        zero, one = Scalar(0), Scalar(1)
    else:
        cells = [(i, j) for i in range(n) for j in range(n)]
        vars_ = tuple(f"c{i}{j}" for i, j in cells) + tuple(f"y{i}{j}" for i, j in cells[:-1])
        vars_ += sl(n).coord_names
        zero, one = MPoly.zero(vars_), MPoly.const(vars_, 1)
        C = [[MPoly.var(vars_, f"c{i}{j}") for j in range(n)] for i in range(n)]
        Y = [[MPoly.var(vars_, f"y{i}{j}") if (i, j) in cells[:-1] else zero for j in range(n)]
             for i in range(n)]
        Y[-1][-1] = -sum((Y[i][i] for i in range(n - 1)), zero)
        k = [MPoly.var(vars_, name) for name in sl(n).coord_names]
    trace = sum((C[i][i] for i in range(n)), zero)
    C[-1][-1] = C[-1][-1] - trace + one
    return zero, C, Y, k


RINGS = pytest.mark.parametrize("ring", [Scalar, MPoly])
SIZES = pytest.mark.parametrize("n", [2, 3, 4])


@SIZES
@RINGS
def test_chart_inverse_inverts_the_chart(n, ring):
    L = sl(n)
    zero, _, Y, k = _chart_case(n, ring)
    assert L.chart_inverse(L.chart(Y), zero) == Y
    assert L.chart(L.chart_inverse(k, zero)) == tuple(k)


def _trace_dual_inverse_faults(L, inverse, zero, C, Y) -> list[str]:
    """The properties of an inverse trace-form dual that fail: on C it must
    give a trace-free G with C's dual, and on the trace-free Y, Y itself."""
    G = inverse(L.trace_dual(C), zero)
    faults = []
    if sum((G[k][k] for k in range(L.n)), zero) != zero:
        faults.append("trace")
    if L.trace_dual(G) != L.trace_dual(C):
        faults.append("dual")
    if inverse(L.trace_dual(Y), zero) != Y:
        faults.append("round trip")
    return faults


@SIZES
@RINGS
def test_trace_dual_inverse_gives_the_trace_free_gradient(n, ring):
    L = sl(n)
    zero, C, Y, _ = _chart_case(n, ring)
    assert _trace_dual_inverse_faults(L, L.trace_dual_inverse, zero, C, Y) == []


@SIZES
@RINGS
def test_trace_dual_pairs_with_the_chart_as_the_trace_form(n, ring):
    """sum_m dual(C)_m coords(Y)_m = tr(C Y), for C not trace-free."""
    L = sl(n)
    zero, C, Y, _ = _chart_case(n, ring)
    pairing = sum((d * y for d, y in zip(L.trace_dual(C), L.chart(Y))), zero)
    assert pairing == sum((C[i][j] * Y[j][i] for i in range(n) for j in range(n)), zero)
    assert pairing != zero


@SIZES
@RINGS
def test_a_trace_dual_inverse_without_its_normalisation_fails(n, ring):
    """The diagonal solve without its 1/n, t_1 = sum_j (n - j) g_j, adds
    (n - 1) t_1 to every diagonal entry: the differences, and so the dual,
    are unchanged, but G is no longer trace-free."""
    L = sl(n)

    def unnormalised(form, zero):
        G = L.trace_dual_inverse(form, zero)
        shift = G[0][0] * Scalar(n - 1)
        return [[v + shift if i == j else v for j, v in enumerate(row)] for i, row in enumerate(G)]

    zero, C, Y, _ = _chart_case(n, ring)
    assert _trace_dual_inverse_faults(L, unnormalised, zero, C, Y) == ["trace", "round trip"]


def test_traceless_enforced():
    L = sl(2)
    with pytest.raises(PreconditionError):
        _el(L, [[1, 0], [0, 1]])


def test_bracket_antisymmetry_and_jacobi():
    L = sl(3)
    rng = rng_for("lie-jacobi", 0)
    for _ in range(25):
        x, y, z = (random_element(L, rng) for _ in range(3))
        assert bracket(x, y) == -bracket(y, x)
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero()


def _trace_form(x, y):
    return (x.matrix * y.matrix).trace()


def test_invariant_form_associativity():
    L = sl(3)
    rng = rng_for("lie-form", 0)
    for _ in range(25):
        x, y, z = (random_element(L, rng) for _ in range(3))
        assert _trace_form(bracket(x, y), z) == _trace_form(x, bracket(y, z))


def test_killing_form_is_2n_trace_form():
    L = sl(3)
    rng = rng_for("lie-killing", 0)
    for _ in range(10):
        x = random_element(L, rng)
        y = random_element(L, rng)
        assert killing_form(x, y) == Scalar(6) * _trace_form(x, y)


def test_ad_matrix_realizes_bracket():
    L = sl(3)
    rng = rng_for("lie-ad", 0)
    for _ in range(10):
        x = random_element(L, rng)
        y = random_element(L, rng)
        assert L.element_from_coords(ad_matrix(x).apply(y.coords)) == bracket(x, y)


def test_centralizer_dimensions():
    L = sl(3)
    s = _el(L, [[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    n = _el(L, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sub = _el(L, [[1, 0, 0], [0, 1, 0], [0, 0, -2]])
    assert len(centralizer(s)) == 2
    assert len(centralizer(n)) == 2
    assert len(centralizer(sub)) == 4
    for c in centralizer(s):
        assert bracket(c, s).is_zero()


def test_regularity():
    L = sl(3)
    assert is_regular(_el(L, [[1, 0, 0], [0, 2, 0], [0, 0, -3]]))
    assert is_regular(_el(L, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert is_regular(_el(L, [[1, 1, 0], [0, 1, 0], [0, 0, -2]]))
    assert not is_regular(_el(L, [[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    assert not is_regular(L.zero())


def _regularity_cases(n):
    """(label, element, expected verdict or None) for sl_n: zero, the
    minimal, subregular and regular nilpotents and repeated-eigenvalue
    diagonals (with and without a Jordan block on the repeated eigenvalue),
    each also conjugated to a dense matrix, then random rational and Gaussian
    points."""
    L = sl(n)
    rng = rng_for(f"lie-reg-oracle:{n}", 0)

    def units(cells):
        return ExactMatrix([[Scalar(int((i, j) in cells)) for j in range(n)] for i in range(n)])

    bases = [
        ("zero", L.zero(), False),
        ("minimal nilpotent", L.element(units({(0, n - 1)})), n == 2),
        ("subregular nilpotent", L.element(units({(i, i + 1) for i in range(n - 2)})), False),
        ("regular nilpotent", L.element(units({(i, i + 1) for i in range(n - 1)})), True),
    ]
    if n >= 3:
        for _ in range(3):
            vals = random_distinct_rationals(rng, n - 2)
            d = [vals[0], vals[0]] + vals[1:]
            d.append(-sum(d))
            diag = L.element(ExactMatrix.diagonal(d))
            bases.append(("repeated-eigenvalue diagonal", diag, False))
            bases.append(("repeated eigenvalue, Jordan block", diag + L.element(units({(0, 1)})), None))
    cases = []
    for label, x, want in bases:
        cases.append((label, x, want))
        cases.append((f"conjugated {label}", conjugate(random_unimodular(L, rng), x), want))
    for k in range(10):
        cases.append((f"random {k}", random_element(L, rng), None))
        cases.append((f"Gaussian {k}", random_element(L, rng, gaussian=True), None))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_regular_matches_ad_kernel_oracle(n):
    verdicts = set()
    for label, x, want in _regularity_cases(n):
        got = is_regular(x)
        assert got == is_regular_ad_kernel(x), label
        if want is not None:
            assert got == want, label
        verdicts.add(got)
    assert verdicts == {True, False}


def test_is_regular_builds_no_ad_matrix_and_no_kernel(monkeypatch):
    import mfatlas.lie
    import mfatlas.linalg

    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(mfatlas.lie, "ad_matrix", counting("ad_matrix", mfatlas.lie.ad_matrix))
    for mod in (mfatlas.lie, mfatlas.linalg):
        monkeypatch.setattr(mod, "mat_kernel", counting("mat_kernel", mod.mat_kernel))
    for n in (2, 3, 4):
        for _, x, _ in _regularity_cases(n):
            is_regular(x)
    assert calls == []
    centralizer(sl(3).zero())
    assert calls == ["ad_matrix", "mat_kernel"]


def test_weyl_group_order_and_action():
    assert len(weyl_group(2)) == 2
    assert len(weyl_group(3)) == 6
    L = sl(3)
    s = _el(L, [[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    diag = [s.matrix.entries[i][i] for i in range(3)]
    orbit = {L.element(ExactMatrix.diagonal(permute_diagonal(w, diag))) for w in weyl_group(3)}
    assert len(orbit) == 6
    sub = _el(L, [[2, 0, 0], [0, 2, 0], [0, 0, -4]])
    assert len(weyl_stabilizer(sub)) == 2
    assert len(weyl_stabilizer(s)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cartan_chart_action_agrees_with_permute_diagonal(n):
    """Composing with permute_cartan_chart(w) evaluates at w(D): on the chart
    D = diag(s_1, ..., s_{n-1}, -sum s_k) its images are the first n - 1
    entries of permute_diagonal(w, D)."""
    svars = tuple(f"s{k + 1}" for k in range(n - 1))
    D = random_traceless_distinct_diag(sl(n), rng_for("lie-cartan-chart", n)).matrix
    diag = [D.entries[i][i] for i in range(n)]
    for w in weyl_group(n):
        chart = permute_cartan_chart(w, svars)
        assert list(chart) == list(svars)
        assert [p.eval(diag[:-1]) for p in chart.values()] == list(permute_diagonal(w, diag)[:-1])


def test_json_round_trip():
    L = sl(3)
    rng = rng_for("lie-json", 0)
    for _ in range(5):
        x = random_element(L, rng)
        assert GElement.from_json_dict(x.to_json_dict()) == x
        assert GElement.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x
