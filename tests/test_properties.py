"""Structural identities on >= 100 seeded random instances each.

The suites live in property_suites so the acceptance gate can reuse the
cached runs; every suite is exact (no tolerances) and deterministic."""

import pytest

from property_suites import ALL_SUITES, run_suite_cached

INSTANCES = 100
SEED = 0


@pytest.mark.parametrize("name", sorted(ALL_SUITES))
def test_property_suite(name):
    checked = run_suite_cached(name, INSTANCES, SEED)
    assert checked >= INSTANCES


def test_tangent_suite_count_falls_short_when_draws_are_skipped(monkeypatch):
    import property_suites

    monkeypatch.setattr(property_suites, "is_strongly_regular", lambda sys_, x: False)
    assert property_suites.suite_tangent_triple(instances=5, seed=0) == 0
