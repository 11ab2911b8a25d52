"""Speed reference for rescaling times to a fixed machine speed.

On a shared 2-core VM the same code runs up to 2x slower for spells of
seconds to minutes (see README.md), which moves medians of raw wall time
by 15-35% between runs.  The benchmark therefore times a fixed pure-Python
loop right before and after each timed call and reports

    rescaled time = wall time * REFERENCE_S / (mean loop time around it),

i.e. seconds on a machine where the loop takes REFERENCE_S.  The loop
touches nothing of the program, so a change to the program moves the
rescaled time exactly as it moves the wall time at a steady speed.
"""

import time

REFERENCE_LOOP = 200_000
REFERENCE_S = 0.02


def reference_seconds() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that rescales a wall time measured between two loop timings."""
    return REFERENCE_S / (0.5 * (before + after))
