"""Failure paths of the verify checks: on the sl3 semisimple system, each
check fed data that breaks its identity reports passed=False and says why.
Also the exact pass-path reports of the fibre checks on the representatives
the replayed references do not cover, and their Weyl-orbit draws."""

import pytest
from property_suites import representative, system_for

from mfatlas.flags import enumerate_atlas
from mfatlas.lie import mixed_rep, nilpotent_rep, semisimple_rep, sl
from mfatlas.mfsystem import ShiftSystem, build_system
from mfatlas.mpoly import MPoly
from mfatlas.sampling import conjugate, random_combination, random_unimodular, rng_for
from mfatlas.verify import (
    check_borel_invariance,
    check_centralizer_containment,
    check_critical_values,
    check_finite_lambda_membership,
    check_homogeneity,
    check_image_bba,
    check_near_section,
    check_singular_family,
    run_verify_suite,
)

SYS = system_for("sl3-s")
# the atlas of a conjugate of the sl3 mixed shift, whose members miss a
g = random_unimodular(SYS.algebra, rng_for("test-verify-conjugate", 0))
OTHER = enumerate_atlas(conjugate(g, representative("sl3-r")))


def _fails(result, detail):
    assert (result.passed, result.detail) == (False, detail)


def test_borel_checks_fail_on_a_borel_without_a():
    B = OTHER.borels[0]
    assert not B.contains(SYS.a)
    _fails(check_borel_invariance(SYS, B, rng_for("test-verify-borel", 0), 5),
           "value changed under the Borel group")
    _fails(check_finite_lambda_membership(SYS, B, rng_for("test-verify-membership", 0), 0, 5),
           "nilradical translate left the fibre")


def test_centralizer_containment_fails_for_another_atlas():
    _fails(check_centralizer_containment(SYS.a, OTHER), "not inside b^a")


def test_homogeneity_fails_on_a_tampered_component():
    comps = list(SYS.components)
    comps[SYS.labels.index((1, 0))] += MPoly.var(SYS.algebra.coord_names, "x12")
    bad = ShiftSystem(SYS.a, comps, SYS.labels, SYS.certificate_point)
    _fails(check_homogeneity(bad), "component (1, 0)")


def test_certificate_disagreement_fails_its_rows(monkeypatch):
    """A line certificate that disagrees with the Jacobian rank fails every
    check that decides strong regularity with a report row, instead of
    ending the suite."""
    import mfatlas.mfsystem

    monkeypatch.setattr(mfatlas.mfsystem, "_line_regular", lambda chain: False)
    rows = {r.name: r for r in run_verify_suite(system_for("sl2-s"), samples=5, seed=0)}
    disagree = "Jacobian rank and Krylov line certificate disagree"
    for name in ("tangent-triple", "strong-regularity", "tarasov-section"):
        _fails(rows[name], disagree)
    assert [r.name for r in rows.values() if not r.passed] == [
        "tangent-triple", "strong-regularity", "tarasov-section"]


NEAR_SECTION = ("equal-value translates (translate count is a lower bound for the "
                "fibre degree; exactness not asserted)")
TWO_BORELS = "x + u^a lies in two distinct Borel components"
SKIPPED = "skipped: needs a nilpotent shift"

# (passed, detail) of image-bba, critical-values, singular-family and
# near-section as mf verify reports them at the default --samples 25, --seed 0
PINNED = {
    "sl3-r": (lambda: mixed_rep(sl(3), []),
              ["degree 3", "max rank 4 of 5", TWO_BORELS, SKIPPED]),
    "sl4-s": (lambda: semisimple_rep(sl(4), []),
              ["degree 24", "max rank 8 of 9", TWO_BORELS, SKIPPED]),
    "sl4-n": (lambda: nilpotent_rep(sl(4)),
              ["degree 1, nilpotent form", "max rank 8 of 9",
               "nilpotent shift element: unique Borel, no second component exists",
               f"24 {NEAR_SECTION}"]),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_fibre_check_reports_are_pinned(key):
    build, details = PINNED[key]
    a = build()
    sys_, atlas = build_system(a), enumerate_atlas(a)
    x = random_combination(a.algebra, atlas.b_a, rng_for(f"verify-singular-family:{a.algebra.n}", 0))
    results = [
        check_image_bba(sys_, atlas, 12, 0),
        check_critical_values(sys_, 20, 0),
        check_singular_family(sys_, x, atlas),
        check_near_section(sys_, atlas, 25, 0),
    ]
    assert [(r.passed, r.detail) for r in results] == [(True, d) for d in details]


def test_critical_values_on_sl2_rank_one_point(monkeypatch):
    """On sl_2 the family is C a and the check ranks the one point a, at
    every sample count; the parabola holds for a dense semisimple shift."""
    import mfatlas.verify

    ranks = []
    real = mfatlas.verify.mat_rank
    monkeypatch.setattr(mfatlas.verify, "mat_rank", lambda m: ranks.append(real(m)) or ranks[-1])
    s = semisimple_rep(sl(2), [])
    dense = conjugate(random_unimodular(sl(2), rng_for("test-verify-sl2-dense", 0)), s)
    for a in (s, nilpotent_rep(sl(2)), dense):
        sys_ = build_system(a)
        for samples in (1, 20):
            ranks.clear()
            result = check_critical_values(sys_, samples, 0)
            assert (result.passed, result.detail) == (True, "max rank 1 of 2, closed form")
            assert ranks == [1]


def test_near_section_redraws_a_diagonal_with_a_repeated_entry():
    """The one draw at seed 6 repeats an entry; it is redrawn, not skipped."""
    a = nilpotent_rep(sl(2))
    result = check_near_section(build_system(a), enumerate_atlas(a), 1, 6)
    assert (result.passed, result.detail) == (True, f"2 {NEAR_SECTION}")


def test_image_bba_redraws_a_diagonal_with_a_repeated_entry(monkeypatch):
    """The one draw at seed 18 repeats an entry; it is redrawn, so the
    degree probe evaluates F_a on both points of the Weyl orbit."""
    a = semisimple_rep(sl(2), [])
    sys_ = build_system(a)
    points = []
    evaluate = sys_.evaluate
    monkeypatch.setattr(sys_, "evaluate", lambda x: points.append(x) or evaluate(x))
    result = check_image_bba(sys_, enumerate_atlas(a), 1, 18)
    assert (result.passed, result.detail, len(points)) == (True, "degree 2", 2)
