"""Host-speed probe that turns measured intervals into reference seconds.

The benchmark's host is a shared virtual machine whose speed drifts: a
fixed pure-Python loop, timed back to back for a minute, ranged over
1.75x between 10 s windows, and one solve pass took from 20 s to 36 s
over twenty minutes.  Drift of that size buries any change worth
measuring, so every end-to-end time is reported at a fixed reference
speed.  A SIGALRM timer runs a small fixed probe every ``INTERVAL``
seconds, and an interval of raw length ``t`` whose probes took ``p`` on
average is reported as ``t * REFERENCE_PROBE_S / p``.

The probe is pure interpreter work on a few small integers.  Its working
set is too small to depend on the caches the program leaves behind, so a
change to the program cannot move its own yardstick; probes that touched
numpy arrays ran 1.7x slower beside one workload than beside another.
The probe's own time, about 0.1% of each interval, stays in the measured
intervals on every commit alike.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL = 0.02
PROBE_LOOPS = 300
# Mean probe time on the 2-vCPU host the benchmark was tuned on; it only
# fixes the scale of the reported seconds.
REFERENCE_PROBE_S = 25e-6
# An interval is judged by the probes inside it, or by this many probes
# nearest to it when fewer fall inside.
MIN_PROBES = 25


class Speedometer:
    """Context manager sampling interpreter speed on a timer signal."""

    def __init__(self):
        self.at = []
        self.took = []
        self._previous = None

    def _probe(self, signum, frame):
        t = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        self.at.append(t)
        self.took.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, start, end):
        """Length of ``[start, end]`` at the reference probe speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < MIN_PROBES:
            hi = min(len(self.at), (lo + hi + MIN_PROBES) // 2)
            lo = max(0, hi - MIN_PROBES)
            hi = min(len(self.at), lo + MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("no speed probe was taken")
        mean = sum(self.took[lo:hi]) / (hi - lo)
        return (end - start) * REFERENCE_PROBE_S / mean
