"""The frozen regression corpus must pass bit-exactly, and its tamper
harness must catch a perturbed coefficient."""

import time

from mfatlas import corpus
from mfatlas.corpus import (
    check_singular_families,
    check_sl3_weyl_degree,
    run_corpus,
    run_tamper_self_test,
)


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
