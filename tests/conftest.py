"""Shared fixtures.

rng_log records every generator built through mfatlas.verify's rng_for, that
is every generator run_verify_suite hands mf verify's sampled rows: one
RecordingRandom per generator, in build order, with its (tag, seed) and the
number of primitive draws taken from it.  Each one starts in the state
rng_for gives, so every draw is unchanged.
"""

from __future__ import annotations

from random import Random

import pytest

import mfatlas.verify
from mfatlas.sampling import rng_for


class RecordingRandom(Random):
    """The generator rng_for(tag, seed) builds, counting its primitive draws:
    random() and getrandbits(), which all other methods of Random draw from."""

    def __init__(self, tag: str, seed: int) -> None:
        super().__init__(0)
        self.setstate(rng_for(tag, seed).getstate())
        self.key = (tag, seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


@pytest.fixture
def rng_log(monkeypatch) -> list[RecordingRandom]:
    log: list[RecordingRandom] = []

    def recording(tag: str, seed: int) -> RecordingRandom:
        log.append(RecordingRandom(tag, seed))
        return log[-1]

    monkeypatch.setattr(mfatlas.verify, "rng_for", recording)
    return log
