"""Seeded samplers: the Scalar samplers build their Scalars from the drawn
ints, with the same calls on the generator as the Fraction route."""

import pytest

from mfatlas.sampling import random_rational, random_rational_scalar, random_scalar, rng_for
from mfatlas.scalar import Scalar


def _fields(s):
    return s.x, s.y, s.d


@pytest.mark.parametrize("seed", range(4))
def test_rational_scalar_is_the_fraction_draw(seed):
    for bound in (9, 4, 3):
        fast, slow = rng_for("test-sampler", seed), rng_for("test-sampler", seed)
        for _ in range(50):
            got = random_rational_scalar(fast, bound)
            assert _fields(got) == _fields(Scalar(random_rational(slow, bound)))
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("gaussian", [False, True])
def test_random_scalar_is_the_fraction_draw(gaussian):
    fast, slow = rng_for("test-scalar-sampler", 0), rng_for("test-scalar-sampler", 0)
    for _ in range(200):
        got = random_scalar(fast, gaussian)
        re = random_rational(slow)
        im = random_rational(slow) if gaussian and slow.random() < 0.5 else 0
        assert _fields(got) == _fields(Scalar(re, im))
        assert fast.getstate() == slow.getstate()
