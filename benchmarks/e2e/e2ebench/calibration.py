"""The host-speed reference: a fixed loop timed next to every slice.

The benchmark shares a few cores of a busy host.  The speed of those
cores is not a constant: the same Python loop takes 1.0 ms in one
second and 2.1 ms in the next, in phases that last from milliseconds to
hours (README.md, "The estimator", has the measurements).  Nothing the
benchmark could do to a raw time removes that: the undisturbed state is
visited too rarely for a minimum to find it at every slice, and a mean
or a median of raw times reports how busy the neighbours were.

So every workload runs this loop between its slices, and a slice's time
is divided by how much slower than :data:`NOMINAL_S` the loop ran just
before and just after it.  What is reported is the time the work would
take on a host that runs the loop in exactly ``NOMINAL_S`` — seconds of
a *nominal host*, not of the wall clock.  The loop belongs to the
benchmark and calls nothing of ``repro``, so a change to the program
cannot move it; it mixes what the program's hot paths are made of
(bytecode, dict and list work, small numpy calls) so that it slows down
by about the same factor when the host does.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "calibrate", "slowdowns"]

#: What one round of the loop takes on an undisturbed core of the
#: development host (Xeon 2.1 GHz, CPython 3.11).  A constant of the
#: benchmark: it only fixes the scale of the reported times.
NOMINAL_S = 0.0005

_STEPS = 300
_DATA = np.arange(50_000, dtype=np.float64)
_TABLE = {i: i for i in range(5_000)}

_now = time.perf_counter


def calibrate(rounds: int = 1) -> float:
    """Seconds one round of the fixed loop takes right now (the mean of
    ``rounds`` rounds run back to back)."""
    table, data = _TABLE, _DATA
    acc = 0.0
    start = _now()
    for _ in range(rounds):
        for i in range(_STEPS):
            acc += table[(i * 37) % 5_000]
            acc += float(data[i * 100:i * 100 + 64].sum())
            scratch = [j for j in range(20)]
            scratch.sort()
    return (_now() - start) / rounds


def slowdowns(readings: list[float], per_gap: list[int]) -> list[float]:
    """Host slowdown of every slice of a pass.

    ``readings`` are the ``calibrate()`` results of the pass, one before
    the first slice, one after the last and one at every boundary in
    between; ``per_gap[g]`` slices ran between reading ``g`` and reading
    ``g + 1``.  Each of them gets the mean of those two readings, as a
    multiple of :data:`NOMINAL_S`.
    """
    if len(readings) != len(per_gap) + 1:
        raise ValueError(f"{len(readings)} calibration readings for "
                         f"{len(per_gap)} gaps")
    out: list[float] = []
    for before, after, count in zip(readings, readings[1:], per_gap):
        out += [(before + after) / 2.0 / NOMINAL_S] * count
    return out
