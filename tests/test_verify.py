"""Failure paths of the verify checks: on the sl3 semisimple system, each
check fed data that breaks its identity reports passed=False and says why.
Also the exact pass-path reports of the fibre checks on the representatives
the replayed references do not cover, and the symbolic degree of the image of
b^a against the sampled Weyl-orbit oracle."""

import contextlib
import io
import json

import pytest
from oracles import weyl_orbit_value_count
from property_suites import atlas_for, representative, system_for

from mfatlas.cli import main
from mfatlas.errors import MembershipError
from mfatlas.flags import BorelAtlas, enumerate_atlas
from mfatlas.lie import GElement, mixed_rep, nilpotent_rep, semisimple_rep, sl
from mfatlas.mfsystem import ShiftSystem, build_system
from mfatlas.mpoly import MPoly
from mfatlas.sampling import (
    conjugate,
    random_combination,
    random_distinct_rationals,
    random_traceless_distinct_diag,
    random_unimodular,
    rng_for,
)
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


def _tampered(sys_, label, name):
    """sys_ with the coordinate `name` added to its component `label`."""
    comps = list(sys_.components)
    comps[sys_.labels.index(label)] += MPoly.var(sys_.algebra.coord_names, name)
    return ShiftSystem(sys_.a, comps, sys_.labels, sys_.certificate_point)


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
    _fails(check_homogeneity(_tampered(SYS, (1, 0), "x12")), "component (1, 0)")


def test_certificate_disagreement_fails_its_rows(monkeypatch):
    """A line certificate that disagrees with the Jacobian rank fails every
    check that decides strong regularity with a report row, instead of
    ending the suite."""
    import mfatlas.components

    monkeypatch.setattr(mfatlas.components, "_line_regular", lambda chain: False)
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
        check_image_bba(sys_, atlas),
        check_critical_values(sys_, 20, 0),
        check_singular_family(sys_, x, atlas),
        check_near_section(sys_, atlas),
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


def test_critical_values_reports_each_failure_once(monkeypatch):
    """A failure that every sample repeats is reported once, with its count."""
    import mfatlas.verify

    sys_ = system_for("sl3-s")
    monkeypatch.setattr(mfatlas.verify, "mat_rank", lambda m: sys_.b)
    result = check_critical_values(sys_, 20, 0)
    assert (result.passed, result.detail) == (
        False, "singular sample is not a critical point (20 samples); "
        "max sampled rank 5 outside [b-2, b-1]")


def test_image_bba_fails_when_the_restriction_depends_on_u_a():
    """x12 spans a direction of u^a for the sl3 nilpotent shift; the row
    fails there instead of going on to the Weyl compositions."""
    bad = _tampered(system_for("sl3-n"), (2, 2), "x12")
    _fails(check_image_bba(bad, atlas_for("sl3-n")),
           "restriction to b^a depends on a u^a direction")


def test_singular_family_failures_are_rows():
    """A component that varies along the Borel nilradicals, or an atlas
    whose two Borels coincide, fails the row instead of raising; a point
    outside b^a still raises."""
    atlas = atlas_for("sl3-s")
    x = random_combination(SYS.algebra, atlas.b_a, rng_for("test-verify-singular", 0))
    result = check_singular_family(_tampered(SYS, (1, 0), "x21"), x, atlas)
    assert not result.passed
    assert result.detail.startswith("family is not contained in a single fibre")
    twice = BorelAtlas(a=atlas.a, chains=atlas.chains, frame=atlas.frame,
                       borels=[atlas.borels[0]] * 2, parabolics=atlas.parabolics,
                       b_a=atlas.b_a, u_a=atlas.u_a)
    _fails(check_singular_family(SYS, x, twice), "the two Borels share a nilradical")
    with pytest.raises(MembershipError):
        check_singular_family(SYS, representative("sl3-n"), atlas)


def test_near_section_redraws_a_diagonal_with_a_repeated_entry():
    """The first sl_2 draw at the near-section tag and seed 6 repeats an
    entry (0 and -0); random_traceless_distinct_diag redraws it."""
    assert random_distinct_rationals(rng_for("near-section:2", 6), 1) == [0]
    x = random_traceless_distinct_diag(sl(2), rng_for("near-section:2", 6))
    assert x.matrix.entries[0][0] != 0


def test_image_bba_redraws_a_diagonal_with_a_repeated_entry():
    """The first sl_2 draw at the image-bba tag and seed 18 repeats an entry;
    random_traceless_distinct_diag redraws it."""
    assert random_distinct_rationals(rng_for("image-bba:2", 18), 1) == [0]
    x = random_traceless_distinct_diag(sl(2), rng_for("image-bba:2", 18))
    assert x.matrix.entries[0][0] != 0


# explicit sl_4 shifts of Jordan types (2,1,1), (2,2), (3,1), given through
# --matrix, and their degrees |W| / |W_s|
JORDAN_SL4 = {
    "2-1-1": ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, -4]], 12),
    "2-2": ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]], 6),
    "3-1": ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -3]], 4),
}
ORACLE_DRAWS = 3


def _oracle_counts(sys_, atlas, tag):
    rng = rng_for(f"test-orbit-oracle:{tag}", 0)
    return [weyl_orbit_value_count(sys_, atlas, rng) for _ in range(ORACLE_DRAWS)]


@pytest.mark.parametrize("key", ["sl2-s", "sl2-n", "sl3-s", "sl3-r", "sl3-n", "sl4-s", "sl4-n"])
def test_image_bba_degree_matches_the_orbit_oracle(key):
    if key in PINNED:
        a = PINNED[key][0]()
        sys_, atlas = build_system(a), enumerate_atlas(a)
    else:
        sys_, atlas = system_for(key), atlas_for(key)
    result = check_image_bba(sys_, atlas)
    assert result.passed
    degree = int(result.detail.split(",")[0].removeprefix("degree "))
    assert _oracle_counts(sys_, atlas, key) == [degree] * ORACLE_DRAWS


@pytest.mark.parametrize("jordan", sorted(JORDAN_SL4))
def test_image_bba_degree_of_sl4_jordan_types(tmp_path, jordan):
    """mf verify --matrix reports degree |W| / |W_s| for each Jordan type,
    and the sampled orbit oracle counts as many values."""
    entries, degree = JORDAN_SL4[jordan]
    data = {"n": 4, "entries": [[str(v) for v in row] for row in entries]}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["verify", "--matrix", str(path), "--samples", "1"]) == 0
    rows = {r["name"]: r for r in json.loads(buf.getvalue())["checks"]}
    assert (rows["image-bba"]["passed"], rows["image-bba"]["detail"]) == (True, f"degree {degree}")
    a = GElement.from_json_dict(data)
    assert _oracle_counts(build_system(a), enumerate_atlas(a), jordan) == [degree] * ORACLE_DRAWS



@pytest.mark.parametrize("key", ["sl3-s", "sl3-r", "sl3-n", "sl4-s", "sl4-n", *sorted(JORDAN_SL4)])
def test_image_bba_certifies_a_rank_g_dimensional_image(key):
    """image-bba passes on each shift of rank(g) >= 2 (the rank-one sl_2
    shifts pass in the oracle test above), and once the second component is
    replaced by the first it fails with exactly the image dimension: the
    invariants restricted to the Cartan chart lose a rank."""
    if key in JORDAN_SL4:
        entries = JORDAN_SL4[key][0]
        a = GElement.from_json_dict({"n": 4, "entries": [[str(v) for v in row] for row in entries]})
    else:
        a = PINNED[key][0]() if key in PINNED else representative(key)
    sys_, atlas = build_system(a), enumerate_atlas(a)
    assert check_image_bba(sys_, atlas).passed
    rank = sys_.algebra.rank
    comps = list(sys_.components)
    comps[1] = comps[0]
    mutant = ShiftSystem(sys_.a, comps, sys_.labels, sys_.certificate_point)
    _fails(check_image_bba(mutant, atlas),
           f"image dimension: Jacobian rank {rank - 1} of the first {rank} components")
