"""A fixed reference kernel that tracks the machine's momentary speed.

On a shared host the same work can run 10-20% faster or slower from one
minute to the next. The benchmark interleaves this kernel with the
workload and scales every reported time to a machine that runs
``NOMINAL_UNITS_PER_S`` reference units per second, which cancels most
of that drift. The kernel imitates the program's cost profile (small
dicts, small NumPy reshapes and products, many Python calls) but never
touches hyperbell, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

# reference units per second that reported times are scaled to; about
# what a shared 2-vCPU Intel Xeon VM runs, so scaled and raw figures
# agree there to within the host's drift
NOMINAL_UNITS_PER_S = 1400.0

_BLOCK = np.arange(64, dtype=complex).reshape(2, 4, 2, 4)


def reference_unit() -> float:
    acc = 0.0
    for k in range(40):
        table = {i: i * k for i in range(16)}
        acc += sum(table.values())
        mat = np.moveaxis(_BLOCK, (2, 3), (0, 1)).reshape(8, 8)
        acc += float(np.sum(np.abs(mat @ mat) ** 2))
    return acc


class ReferenceClock:
    """Times reference units and reports the machine's speed relative to nominal.

    Units run either in a burst (``run_for``) or, inside ``sampling()``,
    one per SIGALRM tick, in between the bytecodes of whatever op is
    running. Each unit is kept with its start time, so the speed can be
    read for the neighbourhood of one op and the units' own time can be
    taken back out of that op's time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def run_unit(self, *_signal_args):
        start = time.perf_counter()
        reference_unit()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def run_for(self, seconds: float):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.run_unit()

    @contextlib.contextmanager
    def sampling(self, interval: float):
        previous = signal.signal(signal.SIGALRM, self.run_unit)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _range(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.starts, end))

    def seconds_within(self, start: float, end: float) -> float:
        """Time spent in units that started inside [start, end]."""
        return sum(self.durations[self._range(start, end)])

    @property
    def speed(self) -> float:
        """Rate over nominal for all units: above 1 on a faster machine."""
        return len(self.durations) / sum(self.durations) / NOMINAL_UNITS_PER_S

    def speed_near(self, start: float, end: float, margin: float) -> float:
        """Rate over nominal of the units within ``margin`` s of [start, end]."""
        durations = self.durations[self._range(start - margin, end + margin)]
        if not durations:
            return self.speed
        return len(durations) / sum(durations) / NOMINAL_UNITS_PER_S
