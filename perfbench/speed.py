"""Pass times in nominal seconds, corrected for the speed of a shared core.

On a shared virtual machine the speed of a core changes with the load of
other tenants.  The same pass of fixed work can take anywhere from 1x to 2x
its quiet time.  Those slow stretches last from seconds to minutes, and CPU
time slows with wall time, so neither longer runs nor CPU time remove them.

``Clock`` therefore samples the core's speed while it measures.  It runs a
fixed pure-Python reference kernel at the start, every ``TICK_S`` seconds
from a timer signal, and at the end.  Each stretch of work between two
samples is scaled by ``NOMINAL_S / reference time``, averaged over the
samples at both ends of the stretch.  The sum is the time the work would
have taken on a core where the kernel takes ``NOMINAL_S``: a quiet core of
the machine the benchmark was written on (a 2.0 GHz Xeon virtual machine
with Python 3.11).  Time spent in the kernel itself is not counted.

The kernel does what jetvir's exact arithmetic does most: integer gcds and
divisions, tuple keys and dict updates in interpreted Python.  It uses only
``math``, so sampling before ``import jetvir`` imports nothing jetvir needs.
"""

import math
import signal
import time

NOMINAL_S = 1.4e-3
TICK_S = 0.1
WALL, NOMINAL = 0, 1    # the two readings ``Clock.stop()`` returns


def reference_s() -> float:
    t0 = time.perf_counter()
    acc = {}
    for a in range(1, 400):
        for b in range(1, 10):
            n, d = 7 * a - b, 3 * b + 1
            g = math.gcd(n, d)
            key = (a % 7, b % 3)
            acc[key] = acc.get(key, 0) + (n // g) * (d // g)
    return time.perf_counter() - t0


class Clock:
    """Measures one interval of work; ``stop()`` returns
    ``(wall seconds, nominal seconds)``, both without the sampling time."""

    def __init__(self):
        reference_s()  # the first call runs cold code

    def start(self) -> None:
        self._segments = []
        self._ref = reference_s()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame) -> None:
        self._sample(time.perf_counter())
        self._mark = time.perf_counter()

    def _sample(self, now: float) -> None:
        ref = reference_s()
        self._segments.append((now - self._mark, self._ref, ref))
        self._ref = ref

    def stop(self) -> tuple:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample(time.perf_counter())
        wall = sum(w for w, _, _ in self._segments)
        nominal = sum(w * NOMINAL_S * (1 / r0 + 1 / r1) / 2
                      for w, r0, r1 in self._segments)
        return wall, nominal
