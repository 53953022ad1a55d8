"""Host-speed probe: times a fixed reference computation throughout a run,
so that operation times can be expressed at one fixed host speed.

On a shared host the same single-threaded Python computation takes up to
twice as long from one minute to the next, because other tenants' work
slows the core, its caches and its memory.  Those swings are far wider
than any bound a benchmark of this library could keep.  While a probe
runs, SIGALRM interrupts the main thread every PERIOD_S seconds (between
bytecodes, also inside a long library call) and times `reference_work`,
a fixed mix of the operations cstnu spends its time in: small Fractions,
frozensets and dict look-ups.

`net(start, end)` is the wall time of an interval without the probe's
own time in it, and `scaled(start, end)` is that time multiplied by
REFERENCE_S / (mean reference time over the interval): the seconds the
interval would have taken on a host where `reference_work` takes
REFERENCE_S.  A slower program still reads slower, since the reference
work does not change with the program; a slower host does not.

The host's speed changes within a second, so an interval is compared
with the samples taken during it and the one on each side of it, and
with their mean: the interval's time adds up the host's slowness over
its whole length.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_S = 0.002     # about the reference time on an unloaded host


def reference_work():
    """A fixed computation of about 2 ms: rational arithmetic and
    comparisons, hashing of small frozensets, dict updates."""
    table = {}
    count = 0
    for i in range(1, 300):
        a = Fraction(i % 17 - 8, i % 13 + 1)
        b = Fraction(i % 11, i % 7 + 1)
        if a + b <= b - a:
            count += 1
        key = frozenset(("p%d" % (i % 5), "!q%d" % (i % 3)))
        table[key] = table.get(key, a) + b
    return count, len(table)


class SpeedProbe:
    """Samples the host's speed while started; a sample is the start time
    and the duration of one `reference_work`."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []
        self.durations = []
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()                # a collection would scan the program's heap
        try:
            start = time.perf_counter()
            reference_work()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def net(self, start, end):
        """Wall time from start to end less the samples taken within it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def reference(self, start, end):
        """Mean reference time over the samples taken between start and
        end and the nearest sample before and after them."""
        lo = max(bisect.bisect_left(self.starts, start) - 1, 0)
        hi = bisect.bisect_left(self.starts, end) + 1
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("the speed probe took no sample")
        return sum(window) / len(window)

    def scaled(self, start, end):
        """`net` time at the host speed where reference_work takes REFERENCE_S."""
        return self.net(start, end) * REFERENCE_S / self.reference(start, end)
