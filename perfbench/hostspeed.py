"""Host-speed calibration: a fixed reference computation timed between requests.

On a shared VM the cores' speed changes with other tenants' load.  On the
2-vCPU VM this benchmark was sized on, a pure-Python loop ran up to 1.9x
slower for stretches of a few seconds to about a minute.  Every wall time
moves with that, so two runs of the same code could differ by more than any
regression bound.

The reference computation below is timed before the first request and after
every request (and around every set-up).  It does not touch fracvol, so a
change to the package does not change it.  A measured interval is reported
as *adjusted* seconds:

    adjusted = wall * REFERENCE_S / mean(calibration before, calibration after)

that is, the time the interval would have taken on a host where the reference
computation takes REFERENCE_S.  REFERENCE_S is about what it takes on that VM
in its fast state, so adjusted times read close to the wall times seen there.
Raw wall times are kept in the run's details line.

The mix (interpreter loop plus many numpy calls on a short array) follows
the benchmark's requests, which are dominated by per-step numpy calls from
Python.  On that VM it tracked request times better than a memory-bound numpy
kernel, a matrix product or either half alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
_LOOP = 100_000
_NUMPY_CALLS = 2_000
_SHORT = np.linspace(0.0, 1.0, 64)


def _reference_work() -> float:
    total = 0
    for i in range(_LOOP):
        total += i * i
    x = _SHORT
    for _ in range(_NUMPY_CALLS):
        x = np.sqrt(x * 1.0001 + 0.5)
    return total + float(x[0])


def measure() -> float:
    """Wall seconds of one reference computation."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def adjusted(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled to the reference host speed (see module docstring)."""
    return seconds * REFERENCE_S / statistics.fmean((before, after))


_reference_work()  # first numpy calls allocate; keep that out of every measurement
