"""The host's speed while a call runs, sampled with a fixed probe.

The machine this benchmark was written on (2 vCPUs under KVM) shares its
cores with other tenants.  Its speed flips between full and about half in
phases of 50 to 500 ms, and the share of slow time drifts over minutes.  So
while a timed call runs, a timer signal runs a small fixed piece of
``Fraction`` arithmetic (the kind of work zhangforge does) every
``INTERVAL_S`` of wall time.  Each probe's time against ``PROBE_REF_S`` gives
the host's speed over that interval, and the mean over the call is the call's
``factor``.  A raw time multiplied by its factor is the time at reference
speed.  In five 30-second corpus runs, the raw medians ranged over 7.0-9.2 s
and the corrected medians over 4.98-5.18 s.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# about the probe's time on an uncontended core of the 2-vCPU Xeon host the
# benchmark was written on; it scales every reported time by the same factor
PROBE_REF_S = 120e-6
_VALUES = tuple(Fraction(i % 13 + 1, i % 7 + 2) for i in range(40))
_CAP = 10**6


def probe() -> float:
    """Seconds taken by the fixed probe."""
    t0 = perf_counter()
    acc = Fraction(0)
    for x in _VALUES:
        acc = acc * x + x
        if acc.denominator > _CAP:
            acc = Fraction(1, 3)
    return perf_counter() - t0


class SpeedSampler:
    """Context manager: probes the host's speed while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples.append(probe())

    def __enter__(self) -> "SpeedSampler":
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    @property
    def factor(self) -> float:
        """Mean speed relative to the reference over the block (1.0 = reference)."""
        return sum(PROBE_REF_S / s for s in self.samples) / len(self.samples)
