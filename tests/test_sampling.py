"""Seeded samplers: the Scalar samplers build their Scalars from the drawn
ints, with the same calls on the generator as a Fraction of the same draws."""

from fractions import Fraction

import pytest

from mfatlas.sampling import (
    DENOMINATORS,
    random_distinct_rationals,
    random_nonzero_rational,
    random_rational_scalar,
    random_scalar,
    rng_for,
)
from mfatlas.scalar import Scalar


def _fields(s):
    return s.x, s.y, s.d


def _fraction_draw(rng, num_bound=9):
    """The reference draw: a Fraction of the same numerator and denominator."""
    return Fraction(rng.randint(-num_bound, num_bound), rng.choice(DENOMINATORS))


@pytest.mark.parametrize("seed", range(4))
def test_rational_scalar_is_the_fraction_draw(seed):
    for bound in (9, 4, 3):
        fast, slow = rng_for("test-sampler", seed), rng_for("test-sampler", seed)
        for _ in range(50):
            got = random_rational_scalar(fast, bound)
            assert _fields(got) == _fields(Scalar(_fraction_draw(slow, bound)))
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("gaussian", [False, True])
def test_random_scalar_is_the_fraction_draw(gaussian):
    fast, slow = rng_for("test-scalar-sampler", 0), rng_for("test-scalar-sampler", 0)
    for _ in range(200):
        got = random_scalar(fast, gaussian)
        re = _fraction_draw(slow)
        im = _fraction_draw(slow) if gaussian and slow.random() < 0.5 else 0
        assert _fields(got) == _fields(Scalar(re, im))
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", range(4))
def test_nonzero_and_distinct_samplers_are_the_fraction_draws(seed):
    fast, slow = rng_for("test-distinct-sampler", seed), rng_for("test-distinct-sampler", seed)
    for _ in range(20):
        got = random_nonzero_rational(fast, 4)
        want = _fraction_draw(slow, 4)
        while want == 0:
            want = _fraction_draw(slow, 4)
        assert _fields(got) == _fields(Scalar(want))
        k = fast.randint(1, 5)
        assert slow.randint(1, 5) == k
        got = random_distinct_rationals(fast, k)
        want = []
        while len(want) < k:
            q = _fraction_draw(slow)
            if q not in want:
                want.append(q)
        assert [_fields(s) for s in got] == [_fields(Scalar(q)) for q in want]
        assert fast.getstate() == slow.getstate()
