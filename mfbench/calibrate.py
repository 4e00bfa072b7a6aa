"""Reference kernel for the benchmark's speed calibration.

The machines the benchmark runs on change speed by up to a factor of two over
seconds and minutes (shared hosts, virtual CPUs), so two runs of the same code
can differ by a quarter in wall time.  To compare runs taken at different
moments, ``run.py`` starts this script beside the timed part of each run (the
set-up probes and the passes), on the same CPU as the ``mf`` commands but at a
low priority (``NICE``).  The scheduler then gives it a few percent of that CPU
in short slices spread over the whole time, so it samples the speed the
commands ran at.  It repeats a fixed kernel and counts the CPU time each run of
it took; ``run.py`` divides the commands' CPU time by the kernel's mean CPU
time.  That is a baseline taken in the same run, as the roadmap asks, rather
than absolute seconds.

The kernel does the kind of work mfatlas spends most of its time on: exact
Gaussian elimination over Q(i) with ``fractions.Fraction`` parts.  It uses no
mfatlas code, so a change to the program cannot move it.

Run as a script it prints ``ready``, repeats the kernel until it receives
SIGTERM, and then prints one JSON object: ``{"runs": N, "cpu_s": S}``.  It
also stops when the process that started it has gone.
"""

from __future__ import annotations

import json
import os
import signal
import time
from fractions import Fraction

SIZE = 7
EXPECTED_RANK = SIZE
NICE = 15
# CPU seconds per kernel run on the machine the baseline was taken on (2-vCPU
# Xeon virtual machine, Python 3.11.7); run.py reports set-up time at this speed.
REFERENCE_S = 0.0075


def _matrix() -> list[list[tuple[Fraction, Fraction]]]:
    """A fixed full-rank SIZE x SIZE matrix of Gaussian integers."""
    return [[(Fraction((3 * r + 5 * c + r * c) % 11 - 5),
              Fraction((7 * r + 2 * c + 1) % 5 - 2) if (r + c) % 3 else Fraction(0))
             for c in range(SIZE)] for r in range(SIZE)]


MATRIX = _matrix()


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def kernel() -> int:
    """Row-reduce MATRIX over Q(i); return its rank."""
    m = [row[:] for row in MATRIX]
    rank = 0
    for col in range(SIZE):
        pivot = next((r for r in range(rank, SIZE) if m[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        m[rank] = [_div(x, p) for x in m[rank]]
        for r in range(SIZE):
            f = m[r][col]
            if r != rank and f != (0, 0):
                m[r] = [(x[0] - y[0], x[1] - y[1])
                        for x, y in zip(m[r], (_mul(f, v) for v in m[rank]))]
        rank += 1
    return rank


def serve() -> None:
    stop = False

    def on_term(signum, frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    os.nice(NICE)
    print("ready", flush=True)
    parent = os.getppid()
    runs, cpu_s = 0, 0.0
    while not stop and os.getppid() == parent:
        start = time.process_time()
        rank = kernel()
        cpu_s += time.process_time() - start
        runs += 1
        if rank != EXPECTED_RANK:
            raise SystemExit(f"calibration kernel gave rank {rank}, not {EXPECTED_RANK}")
    print(json.dumps({"runs": runs, "cpu_s": cpu_s}), flush=True)


if __name__ == "__main__":
    serve()
