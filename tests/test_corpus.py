"""The frozen regression corpus must pass bit-exactly, and its tamper
harness must catch a perturbed coefficient."""

import time

import pytest

from mfatlas import corpus
from mfatlas.corpus import (
    check_singular_families,
    check_sl2_nilpotent_fibres,
    check_sl2_semisimple_fibre_split,
    check_sl3_weyl_degree,
    run_corpus,
    run_tamper_self_test,
)
from mfatlas.mpoly import MPoly


def test_corpus_all_pass_and_fast():
    t0 = time.time()
    results = run_corpus(samples=100, seed=0)
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    assert len(results) >= 15
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"


def test_corpus_deterministic_details():
    r1 = run_corpus(samples=30, seed=3)
    r2 = run_corpus(samples=30, seed=3)
    assert [(r.name, r.passed, r.detail) for r in r1] == [
        (r.name, r.passed, r.detail) for r in r2
    ]


def test_tamper_self_test_catches_perturbation():
    res = run_tamper_self_test()
    assert res.passed
    assert "tamper" in res.name


def test_self_test_included_when_requested():
    names = [r.name for r in run_corpus(samples=5, seed=0, self_test=True)]
    assert any("tamper" in n for n in names)


def test_corpus_builds_each_shift_once(monkeypatch):
    """A self-test run builds 11 systems and 6 atlases, one per distinct
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
                for r in (check_sl3_weyl_degree(10, 0), check_singular_families(5, 0))]

    monkeypatch.setattr(corpus, "_SYSTEMS", {})
    monkeypatch.setattr(corpus, "_ATLASES", {})
    assert all(r.passed for r in run_corpus(samples=5, seed=0, self_test=True))
    assert calls == {"build_system": 11, "enumerate_atlas": 6}
    warm = checks()
    assert all(passed for passed, _ in warm)
    assert calls == {"build_system": 11, "enumerate_atlas": 6}
    monkeypatch.setattr(corpus, "_SYSTEMS", {})
    monkeypatch.setattr(corpus, "_ATLASES", {})
    assert checks() == warm


SL2_FAMILY_CHECKS = (check_sl2_semisimple_fibre_split, check_sl2_nilpotent_fibres)


def test_sl2_line_families_certified_once(monkeypatch):
    """The two sl_2 line families are certified symbolically in their
    parameter: no per-sample certificate, and the same number of
    substitutions at 1 and at 100 samples."""
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
    for check in SL2_FAMILY_CHECKS:
        assert check(1, 0).passed  # warm the shared builds
        counts = []
        for samples in (1, 100):
            calls["subs"] = 0
            assert check(samples, 0).passed
            counts.append(calls["subs"])
        assert counts[0] == counts[1] > 0, check.__name__
    assert calls["certify_affine_constant"] == 0


class _TiltedSystem:
    """A system whose scaled F1 gains h1*x12, which depends on t on the
    x12 = t chart of each sl_2 line family."""

    def __init__(self, sys_):
        self._sys = sys_

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def scaled_components(self):
        F1, *rest = self._sys.scaled_components()
        tilt = MPoly.var(F1.vars, "h1") * MPoly.var(F1.vars, "x12")
        return [F1 + tilt, *rest]


@pytest.mark.parametrize("check, detail", [
    (check_sl2_semisimple_fibre_split, "parabola components"),
    (check_sl2_nilpotent_fibres, "parallel components"),
])
def test_sl2_line_identity_catches_a_tilted_component(monkeypatch, check, detail):
    system = corpus._system
    monkeypatch.setattr(corpus, "_system", lambda a: _TiltedSystem(system(a)))
    res = check(100, 0)
    assert (res.passed, res.detail) == (False, detail)
