"""Failure paths of the verify checks: on the sl3 semisimple system, each
check fed data that breaks its identity reports passed=False and says why."""

from property_suites import representative, system_for

from mfatlas.flags import enumerate_atlas
from mfatlas.mfsystem import ShiftSystem
from mfatlas.mpoly import MPoly
from mfatlas.sampling import conjugate, random_unimodular, rng_for
from mfatlas.verify import (
    check_borel_invariance,
    check_centralizer_containment,
    check_finite_lambda_membership,
    check_homogeneity,
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
