"""Acceptance gate: ten pass/fail criteria covering the full verification
surface, one printed line each.

Run order matters only for the shared caches; every criterion is
self-contained and exact."""

import time

from property_suites import (
    ALL_SUITES,
    REP_KEYS,
    _require,
    atlas_for,
    representative,
    run_suite_cached,
    system_for,
)

from mfatlas.count import count_zero_fibre
from mfatlas.corpus import (
    check_sl2_nilpotent_fibres,
    check_sl2_printed_system,
    check_sl2_semisimple_fibre_split,
    check_sl2_singular_images,
    check_sl2_zero_fibre,
    check_sl3_atlas_tables,
    check_sl3_bba_restrictions,
    check_sl3_exotic_mixed,
    check_sl3_exotic_nilpotent,
    check_sl3_exotic_semisimple,
    check_sl3_printed_system,
    check_singular_families,
)
from mfatlas.verify import (
    check_image_bba,
    check_jacobian_certificate,
    check_poisson_commutativity,
    check_tarasov_section,
)

REPS = {k: representative(k) for k in REP_KEYS}
SYSTEMS = {k: system_for(k) for k in REP_KEYS}
ATLASES = {k: atlas_for(k) for k in REP_KEYS}


def _criterion(num: int, slug: str, fn):
    try:
        detail = fn()
    except BaseException as exc:
        print(f"[criterion {num:02d}] {slug}: FAIL ({exc})", flush=True)
        raise
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {slug}: PASS{suffix}", flush=True)


def test_criterion_01_poisson_commutativity():
    def run():
        t0 = time.time()
        for key, sys_ in SYSTEMS.items():
            _require(check_poisson_commutativity(sys_), key)
        pairs = sum(s.b * (s.b - 1) // 2 for s in SYSTEMS.values())
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"{elapsed:.1f}s over budget"
        return f"{pairs} bracket pairs identically zero in {elapsed:.1f}s"

    _criterion(1, "poisson-commutativity", run)


def test_criterion_02_free_generation_certificate():
    def run():
        for key, sys_ in SYSTEMS.items():
            _require(check_jacobian_certificate(sys_), key)
        return "rank b certificates for all five shift elements"

    _criterion(2, "free-generation-certificate", run)


def test_criterion_03_sl2_closed_forms():
    def run():
        for r in (
            check_sl2_printed_system(),
            check_sl2_zero_fibre(),
            check_sl2_semisimple_fibre_split(100, 0),
            check_sl2_singular_images(100, 0),
            check_sl2_nilpotent_fibres(100, 0),
        ):
            _require(r, "sl2")
        return "printed systems, case-split identities, 100-sample images"

    _criterion(3, "sl2-closed-forms", run)


def test_criterion_04_sl3_atlas_tables():
    def run():
        for r in (check_sl3_printed_system(), check_sl3_atlas_tables(),
                  check_sl3_bba_restrictions()):
            _require(r, "sl3")
        counts = {
            key: (len(ATLASES[key].borels), len(ATLASES[key].parabolics))
            for key in ("sl3-s", "sl3-r", "sl3-n")
        }
        assert counts == {"sl3-s": (6, 6), "sl3-r": (3, 4), "sl3-n": (1, 2)}
        return "member counts (6,6)/(3,4)/(1,2) and printed shapes"

    _criterion(4, "sl3-atlas-tables", run)


def test_criterion_05_recursive_count():
    def run():
        rep = count_zero_fibre(REPS["sl2-s"])
        assert rep["total"] == 2
        rep = count_zero_fibre(REPS["sl2-n"])
        assert rep["total"] == 1
        rep_s = count_zero_fibre(REPS["sl3-s"], atlas=ATLASES["sl3-s"])
        assert rep_s["formula"] == "I'(3,[1,1,1]) + 0 + 6"
        assert rep_s["total_lower"] == 7
        rep_n = count_zero_fibre(REPS["sl3-n"], atlas=ATLASES["sl3-n"])
        assert rep_n["formula"] == "I'(3,[3]) + 0 + 1"
        assert rep_n["total_lower"] == 2
        return "totals 2/1 exact; structural bounds 7 and 2"

    _criterion(5, "recursive-count", run)


def test_criterion_06_exotic_witnesses():
    def run():
        for r in (
            check_sl3_exotic_semisimple(),
            check_sl3_exotic_mixed(),
            check_sl3_exotic_nilpotent(),
        ):
            _require(r, "sl3")
        return "three witnesses: value zero, outside every member, x^2 != 0 = x^3"

    _criterion(6, "exotic-witnesses", run)


def test_criterion_07_image_of_bba():
    def run():
        want = {
            "sl2-s": "degree 2",
            "sl2-n": "degree 1, nilpotent form",
            "sl3-s": "degree 6",
            "sl3-r": "degree 3",
            "sl3-n": "degree 1, nilpotent form",
        }
        for key, sys_ in SYSTEMS.items():
            rep = check_image_bba(sys_, ATLASES[key])
            assert (rep.passed, rep.detail) == (True, want[key]), key
        return "t-free restrictions; degrees 6/3/1 from the Weyl translates of the restriction"

    _criterion(7, "image-of-bba", run)


def test_criterion_08_singular_family():
    def run():
        _require(check_singular_families(0), "sl2 s, sl3 s/r, sl2 n, sl3 n")
        return "two-Borel certificates over all of b^a; nilpotent expected-failure"

    _criterion(8, "singular-family", run)


def test_criterion_09_tarasov_section():
    def run():
        rep2 = check_tarasov_section(SYSTEMS["sl2-s"], 50, 0)
        rep3 = check_tarasov_section(SYSTEMS["sl3-s"], 50, 0)
        assert (rep2.passed, rep2.detail) == (True, "jacobian constant 8, 50 points"), rep2.detail
        assert (rep3.passed, rep3.detail) == (True, "jacobian constant 8640, 50 points"), rep3.detail
        return f"sl2: {rep2.detail}; sl3: {rep3.detail}; distinct section values"

    _criterion(9, "tarasov-section", run)


def test_criterion_10_property_suites():
    def run():
        t0 = time.time()
        for name in sorted(ALL_SUITES):
            checked = run_suite_cached(name, 100, 0)
            assert checked >= 100, name
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"{elapsed:.1f}s over budget"
        return f"8 suites x 100 exact instances in {elapsed:.1f}s"

    _criterion(10, "property-suites", run)
