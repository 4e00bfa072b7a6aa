"""The frozen regression corpus must pass bit-exactly, and its tamper
harness must catch a perturbed coefficient."""

import time
from itertools import product
from math import factorial, prod

import pytest

from mfatlas import corpus
from mfatlas.corpus import (
    check_singular_families,
    check_sl2_nilpotent_fibres,
    check_sl2_semisimple_fibre_split,
    check_sl2_singular_images,
    check_sl3_orbit_invariance,
    check_sl3_weyl_degree,
    run_corpus,
    run_tamper_self_test,
)
from mfatlas.linalg import ExactMatrix
from mfatlas.mfsystem import ShiftSystem
from mfatlas.mpoly import MPoly
from mfatlas.scalar import Scalar


def test_corpus_all_pass_and_fast():
    t0 = time.time()
    results = run_corpus()
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert len(results) >= 15
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"


def test_corpus_deterministic_details():
    r1 = run_corpus()
    r2 = run_corpus()
    assert [(r.name, r.passed, r.detail) for r in r1] == [
        (r.name, r.passed, r.detail) for r in r2
    ]


def test_tamper_self_test_catches_perturbation():
    res = run_tamper_self_test()
    assert res.passed
    assert "tamper" in res.name


def test_self_test_included_when_requested():
    names = [r.name for r in run_corpus(self_test=True)]
    assert any("tamper" in n for n in names)


def test_corpus_builds_each_shift_once(monkeypatch):
    """A self-test run builds 10 systems and 6 atlases, one per distinct
    shift, and a check reads the same from cold and from warm memos."""
    calls = {"build_system": 0, "enumerate_atlas": 0}

    def counted(name):
        build = getattr(corpus, name)

        def wrapper(a):
            calls[name] += 1
            return build(a)

        monkeypatch.setattr(corpus, name, wrapper)

    counted("build_system")
    counted("enumerate_atlas")

    def checks():
        return [(r.passed, r.detail)
                for r in (check_sl3_weyl_degree(), check_singular_families())]

    monkeypatch.setattr(corpus, "_SYSTEMS", {})
    monkeypatch.setattr(corpus, "_ATLASES", {})
    assert all(r.passed for r in run_corpus(self_test=True))
    assert calls == {"build_system": 10, "enumerate_atlas": 6}
    warm = checks()
    assert all(passed for passed, _ in warm)
    assert calls == {"build_system": 10, "enumerate_atlas": 6}
    monkeypatch.setattr(corpus, "_SYSTEMS", {})
    monkeypatch.setattr(corpus, "_ATLASES", {})
    assert checks() == warm


SL2_FAMILY_CHECKS = (check_sl2_semisimple_fibre_split, check_sl2_nilpotent_fibres)


def test_sl2_line_families_certified_once(monkeypatch):
    """The two sl_2 line families are certified symbolically in their
    parameter: no certificate per point, and one substitution per component,
    identity and shift (four identities on each of two semisimple shifts,
    four on the nilpotent shift)."""
    calls = {"subs": 0, "certify_affine_constant": 0}
    subs, certify = MPoly.subs, corpus.certify_affine_constant

    def counted_subs(self, target_vars, mapping):
        calls["subs"] += 1
        return subs(self, target_vars, mapping)

    def counted_certify(*args):
        calls["certify_affine_constant"] += 1
        return certify(*args)

    monkeypatch.setattr(MPoly, "subs", counted_subs)
    monkeypatch.setattr(corpus, "certify_affine_constant", counted_certify)
    counts = []
    for check in SL2_FAMILY_CHECKS:
        assert check().passed  # warm the shared builds
        calls["subs"] = 0
        assert check().passed
        counts.append(calls["subs"])
    assert counts == [2 * 4 * 2, 4 * 2]
    assert calls["certify_affine_constant"] == 0


def _sampler_functions(module):
    return [name for name, obj in vars(module).items()
            if callable(obj) and getattr(obj, "__module__", None) == "mfatlas.sampling"
            and (name == "rng_for" or name.startswith("random_"))]


def test_identity_checks_draw_nothing(monkeypatch):
    """Every corpus row decides on identities or fixed points: with every
    sampler raising, a whole self-test run passes as before."""
    import mfatlas.sampling
    import mfatlas.verify

    warm = [(r.name, r.passed, r.detail) for r in run_corpus(self_test=True)]
    assert all(passed for _, passed, _ in warm)

    def raising(*args, **kwargs):
        raise AssertionError("drew from the sampler")

    for module in (mfatlas.sampling, corpus, mfatlas.verify):
        for name in _sampler_functions(module):
            monkeypatch.setattr(module, name, raising)
    assert [(r.name, r.passed, r.detail) for r in run_corpus(self_test=True)] == warm


def test_corpus_symbolic_work_does_not_scale_with_samples(monkeypatch):
    """No corpus row reads a sample count or binds a sampler: each singular
    family is based at its shift and certified over all of b^a with one
    certificate per Borel (2 Borels for each of 3 shifts), besides the 3
    lines of sl2-zero-fibre."""
    import mfatlas.components

    assert _sampler_functions(corpus) == []
    certified = [0]
    certify = mfatlas.components.certify_affine_constant

    def counted_certify(*args):
        certified[0] += 1
        return certify(*args)

    monkeypatch.setattr(mfatlas.components, "certify_affine_constant", counted_certify)
    monkeypatch.setattr(corpus, "certify_affine_constant", counted_certify)
    assert all(r.passed for r in run_corpus(self_test=True))
    assert certified[0] == 3 + 3 * 2


def test_verify_singular_family_row_draws_nothing(monkeypatch):
    """mf verify bases its singular family at the shift: with the row's
    generator raising, the row passes on each non-nilpotent named sl_3
    shift."""
    import mfatlas.verify

    rng_for = mfatlas.verify.rng_for

    def guarded(tag, seed):
        assert "singular-family" not in tag, "drew from the sampler"
        return rng_for(tag, seed)

    monkeypatch.setattr(mfatlas.verify, "rng_for", guarded)
    for name in ("s", "r"):
        results = mfatlas.verify.run_verify_suite(corpus._system(corpus._sl3_shifts()[name].rep),
                                                  samples=1)
        row = next(r for r in results if r.name == "singular-family")
        assert (row.passed, row.detail) == (True, "x + u^a lies in two distinct Borel components")


class _TamperedSystem:
    """A system whose scaled component `index` gains the polynomial
    extra(coordinate names)."""

    def __init__(self, sys_, index, extra):
        self._sys = sys_
        self._index = index
        self._extra = extra

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def scaled_components(self):
        comps = list(self._sys.scaled_components())
        comps[self._index] = comps[self._index] + self._extra(comps[self._index].vars)
        return comps


def _tilt(v):
    # h1*x12 depends on t on the x12 = t chart of each sl_2 line family
    return MPoly.var(v, "h1") * MPoly.var(v, "x12")


def _cross(v):
    # x12*x21 vanishes on both lines through the diagonal but not on the orbit
    return MPoly.var(v, "x12") * MPoly.var(v, "x21")


def _upper(v):
    # x12 vanishes on the diagonal line but not on the nilpotent line C n
    return MPoly.var(v, "x12")


@pytest.mark.parametrize("check, index, extra, detail", [
    pytest.param(check, index, extra, detail, id=f"{check.__name__}-{detail}")
    for check, index, extra, detail in [
        (check_sl2_semisimple_fibre_split, 0, _tilt, "parabola components"),
        (check_sl2_nilpotent_fibres, 0, _tilt, "parallel components"),
        (check_sl2_semisimple_fibre_split, 1, _cross, "torus orbit"),
        (check_sl2_singular_images, 1, _upper, "nilpotent image not origin"),
    ]
])
def test_sl2_line_identity_catches_a_tilted_component(monkeypatch, check, index, extra, detail):
    system = corpus._system
    monkeypatch.setattr(corpus, "_system", lambda a: _TamperedSystem(system(a), index, extra))
    res = check()
    assert (res.passed, res.detail) == (False, detail)


def test_orbit_invariance_fails_off_the_centralizer(monkeypatch):
    """E21 centralizes none of the three sl_3 shifts: the invariance identity
    along it fails."""
    z = Scalar(0)
    e21 = ExactMatrix([[z, z, z], [Scalar(1), z, z], [z, z, z]])
    monkeypatch.setattr(corpus, "centralizer", lambda a: [a.algebra.element(e21)])
    res = check_sl3_orbit_invariance()
    assert (res.passed, res.detail) == (False, "centralizer conjugation")


def test_orbit_invariance_fails_for_a_witness_in_a_borel(monkeypatch):
    """e12 - e23 lies in the zero fibre of the sl_3 nilpotent shift, inside
    its Borel: its orbit meets a member."""
    z, one = Scalar(0), Scalar(1)
    upper = corpus.sl3_nilpotent().algebra.element(
        ExactMatrix([[z, one, z], [z, z, -one], [z, z, z]]))
    monkeypatch.setattr(corpus, "lowering_zero_fibre_witness", lambda: upper)
    res = check_sl3_orbit_invariance()
    assert (res.passed, res.detail) == (False, "orbit met a member")


# Each named sl_3 shift by its Jordan chains over e1, e2, e3: one chain per
# eigenvalue, listing its vectors in chain order.
JORDAN_CHAINS_SL3 = {"s": [[0], [1], [2]], "r": [[0, 1], [2]], "n": [[0, 1, 2]]}


def _derived_row(chains, n=3):
    """The values frozen for a named shift, derived from its Jordan chains
    without mfatlas.  A flag of k blocks is an ordered set partition of
    {e1, ..., en} that keeps each chain in non-decreasing blocks, with * at
    (i, j) iff block(i) <= block(j): n blocks give the Borels, two the
    proper parabolics.  u^a is supported where e_i precedes e_j in a chain,
    and b^a on that and the diagonal.  With multiplicities m_k there are
    n!/prod m_k! Borels, which is also the image-bba degree,
    dim u^a = sum m_k(m_k - 1)/2, dim b^a = (n - 1) + dim u^a, and the count's
    lower bound is the Borel count plus one."""
    def mask(star):
        return "|".join("".join("*" if star(i, j) else "0" for j in range(n)) for i in range(n))

    def flags(k):
        return frozenset(
            mask(lambda i, j: block[i] <= block[j])
            for block in product(range(k), repeat=n)
            if set(block) == set(range(k))
            and all(block[c[t]] <= block[c[t + 1]] for c in chains for t in range(len(c) - 1)))

    mults = sorted((len(c) for c in chains), reverse=True)
    borels = factorial(n) // prod(factorial(m) for m in mults)
    before = {(c[s], c[t]) for c in chains for s in range(len(c)) for t in range(s + 1, len(c))}
    dim_ua = sum(m * (m - 1) // 2 for m in mults)
    return {
        "borel_masks": flags(n),
        "parabolic_masks": flags(2),
        "ba_mask": mask(lambda i, j: i == j or (i, j) in before),
        "ua_mask": mask(lambda i, j: (i, j) in before),
        "dims": (n - 1 + dim_ua, dim_ua),
        "image_bba": f"degree {borels}" + (", nilpotent form" if len(chains) == 1 else ""),
        "formula": f"I'({n},[{','.join(map(str, mults))}]) + 0 + {borels}",
        "lower": borels + 1,
    }


def test_named_shift_table_matches_its_derivation():
    """Every frozen value of the sl_3 table, re-derived from the Jordan
    chains of its shift."""
    table = corpus._sl3_shifts()
    assert sorted(table) == sorted(JORDAN_CHAINS_SL3)
    for name, chains in JORDAN_CHAINS_SL3.items():
        derived = _derived_row(chains)
        assert {field: getattr(table[name], field) for field in derived} == derived, name


def test_weyl_degree_fails_on_a_tampered_mixed_system(monkeypatch):
    """h1 added to the component 2 tr(a x) of sl3_mixed(1) breaks the
    W_s-invariance of its restriction to b^a, which the image-bba probe
    reports."""
    r = corpus.sl3_mixed(1)
    system = corpus._system

    def tampered(a):
        sys_ = system(a)
        if a != r:
            return sys_
        comps = list(sys_.components)
        comps[2] = comps[2] + MPoly.var(sys_.algebra.coord_names, "h1")
        return ShiftSystem(sys_.a, comps, sys_.labels, sys_.certificate_point)

    monkeypatch.setattr(corpus, "_system", tampered)
    res = check_sl3_weyl_degree()
    assert (res.passed, res.detail) == (False, "image probes")


@pytest.mark.parametrize("shift, detail", [
    (corpus.sl3_semisimple(1, 2), "semisimple (1,2)"),
    (corpus.sl3_semisimple(2, 0), "semisimple (2,0)"),
    (corpus.sl3_mixed(1), "mixed rho=1"),
    (corpus.sl3_mixed(2), "mixed rho=2"),
    (corpus.sl3_nilpotent(), "nilpotent"),
])
def test_bba_restrictions_name_each_tampered_shift(monkeypatch, shift, detail):
    """Every parameter choice of every table row is checked: h1 added to the
    component 2 tr(a x) of one shift fails the check with that shift's detail."""
    system = corpus._system

    def tampered(a):
        sys_ = system(a)
        if a != shift:
            return sys_
        comps = list(sys_.components)
        comps[2] = comps[2] + MPoly.var(sys_.algebra.coord_names, "h1")
        return ShiftSystem(sys_.a, comps, sys_.labels, sys_.certificate_point)

    monkeypatch.setattr(corpus, "_system", tampered)
    res = corpus.check_sl3_bba_restrictions()
    assert (res.passed, res.detail) == (False, detail)


def _without_reduced_identity(sys_):
    # x12 is a variable of both reduced charts; only scaled_components changes
    return _TamperedSystem(sys_, 2, lambda v: MPoly.var(v, "x12"))


@pytest.mark.parametrize("check, shift, detail", [
    (corpus.check_sl3_exotic_semisimple, corpus.sl3_semisimple(1, 2), "semisimple (1,2)"),
    (corpus.check_sl3_exotic_semisimple, corpus.sl3_semisimple(2, 0), "semisimple (2,0)"),
    (corpus.check_sl3_exotic_mixed, corpus.sl3_mixed(1), "mixed rho=1"),
    (corpus.check_sl3_exotic_mixed, corpus.sl3_mixed(2), "mixed rho=2"),
])
def test_exotic_reduced_system_names_each_tampered_shift(monkeypatch, check, shift, detail):
    """The reduced system is checked at both parameter choices of its row: a
    system tampered on the reduced chart of one shift, and nowhere the
    witness steps look, fails the row with that shift's detail."""
    system = corpus._system
    monkeypatch.setattr(corpus, "_system",
                        lambda a: _without_reduced_identity(system(a)) if a == shift else system(a))
    res = check()
    assert (res.passed, res.detail) == (False, f"reduced system, {detail}")


EXOTIC_CHECKS = (corpus.check_sl3_exotic_semisimple, corpus.check_sl3_exotic_mixed,
                 corpus.check_sl3_exotic_nilpotent)


@pytest.mark.parametrize("step, detail", [
    ("krylov_line_regular", "line not regular"),
    ("is_strongly_regular", "not strongly regular"),
])
def test_every_exotic_row_runs_every_witness_step(monkeypatch, step, detail):
    """All three exotic rows run the same witness steps: a step that rejects
    every witness fails each row with the same detail."""
    monkeypatch.setattr(corpus, step, lambda *args: False)
    assert [(r.passed, r.detail) for r in (check() for check in EXOTIC_CHECKS)] == [(False, detail)] * 3
