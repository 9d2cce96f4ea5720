"""Host-speed adjustment: a fixed computation timed beside the program.

On a shared host the speed a process gets drifts by tens of percent, within
seconds and over minutes, with the load of other tenants; wall times taken
minutes apart then differ by more than a change in the program would.  The
benchmark therefore times ``probe()``, a fixed pure-Python computation that
shares no code with ``dpchannel``, right before and right after each timed
interval, and reports the interval scaled to a host on which the probe takes
``REFERENCE_S``::

    adjusted = wall * REFERENCE_S / mean(probe before, probe after)

A slower program still reads slower by the same factor; a slower moment of
the host reads as it would at reference speed.  The probe mixes the kinds of
work the program does: dict updates, small-integer arithmetic and ``Fraction``
arithmetic on growing big integers.
"""

import time
from fractions import Fraction
from statistics import median

# The probe's median time on the 2-vCPU host the benchmark was tuned on,
# so that adjusted times read close to that host's wall times.
REFERENCE_S = 0.0033


def probe():
    """Run the fixed computation once; return its wall time in seconds."""
    start = time.perf_counter()
    counts = {}
    for i in range(12000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i * i % 7
    total = Fraction(0)
    for i in range(1, 220):
        total += Fraction(i, i * i + 1)
    return time.perf_counter() - start


def probe_median(k=3):
    """The median of ``k`` probes, in seconds."""
    return median(probe() for _ in range(k))


def adjust(wall, before, after):
    """Scale a wall time to the reference host speed, given the probe times
    measured right before and right after it."""
    return wall * REFERENCE_S * 2 / (before + after)
