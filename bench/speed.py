"""Reference timings that put op times on a fixed machine speed.

The CPU speed a shared host gives this process drifts by tens of percent
over seconds to minutes, in both directions, and moves every timing of a run
with it.  So every timed op is bracketed by a reference job: fixed work that
does not touch igk.  An op's time is reported as

    wall * NOMINAL / mean(reference just before, reference just after)

that is, in seconds on a machine where the reference takes NOMINAL seconds.
A change to igk moves that figure as it moves the wall time; a change of
host speed moves op and reference together and cancels.  The raw wall times
and the reference times are kept in the report.

Two references, each as close as possible to what it brackets:

- cold ops (a fresh interpreter importing igk): a fresh interpreter
  importing numpy, run as a child like the op itself;
- warm passes (in-process calls, mostly interpreter work on small arrays):
  a fixed pure-Python loop in the same process.
"""

import sys
import time

COLD_ARGV = [sys.executable, "-c", "import numpy"]
COLD_NOMINAL_S = 0.15
WARM_NOMINAL_S = 0.02
WARM_ITERATIONS = 120_000


def warm():
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(WARM_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


def scale(times, refs, nominal):
    """``times[i]`` rescaled by the mean of ``refs[i]`` and ``refs[i + 1]``.

    ``refs`` has one more entry than ``times``: the reference before each
    timed item and the one after the last.
    """
    return [t * nominal / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(times)]
