"""How fast the host runs right now, from a fixed calibration kernel.

On a shared 2-core host the same code runs up to 1.7× slower while
neighbouring load is high, and such periods last from seconds to
minutes.  Medians over a run cannot hide that: whole runs land in a
slow period.  So the benchmark times a small fixed kernel right before
and right after each measured interval, and scales the interval by how
much slower than :data:`REFERENCE_S` the kernel ran.  A scaled time
reads as the time the host would have taken at its calm speed.

The kernel is benchmark code, not program code, so a change to the
program cannot change it.  It runs with the garbage collector off, so
the size of the program's heap does not change it either.  It mixes an
interpreter loop, dict inserts and a numpy sort, the kinds of work the
program's own ops do.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Kernel seconds on a calm host of the kind the bounds were measured on
#: (2 vCPUs, Python 3.11, numpy 2.4); the median of the fastest samples.
REFERENCE_S = 0.020

_RNG = np.random.default_rng(0)
#: Scattered Python ints and a 16 MiB array, gathered in random order:
#: like the program's ops, the kernel misses the caches.
_INTS = [int(v) for v in _RNG.integers(0, 1 << 40, size=100_000)]
_ORDER = [int(v) for v in _RNG.permutation(len(_INTS))]
_ARRAY = _RNG.random(2_000_000)
_GATHER = _RNG.integers(0, len(_ARRAY), size=400_000)


def _kernel_once() -> float:
    start = time.perf_counter()
    ints = _INTS
    total = 0
    for i in _ORDER:
        total += ints[i] & 7
    table = {}
    for i in range(20_000):
        table[i] = i
    np.sort(_ARRAY[_GATHER])
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """One sample of the host's speed: the faster of two kernel runs.

    The first run refills the caches the program's op just evicted, so
    the sample measures the host rather than what the op left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_kernel_once(), _kernel_once())
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two kernel samples."""
    return (before + after) / 2.0 / REFERENCE_S
