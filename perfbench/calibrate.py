"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual CPUs whose speed drifts over minutes
(measured on the reference container: a fixed pure-Python loop's 30 s
medians spread about 8 % across a 4-minute trace, and its median moved
by half within the hour).
A run therefore times short calibration slices, a fixed loop that does
not touch the library, between its jobs.  The run's speed factor is
:data:`REFERENCE_S` over the median slice, and the end-to-end times are
reported multiplied by it: the time the run would have taken at the
reference speed.  The raw times and the factor are in the report too.
"""

from __future__ import annotations

import time

#: Loop iterations in one calibration slice (~20 ms).
ITERATIONS = 300_000

#: A typical slice time on the reference machine (2-core container,
#: CPython 3.11, where slice medians ranged 0.020-0.032 s over an hour).
REFERENCE_S = 0.025


def calibration_slice() -> float:
    """Time one fixed calibration slice, in seconds."""
    began = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - began
