"""Host speed probe: scales a sample's times to a fixed reference speed.

The shared hosts this benchmark runs on change speed by up to 1.6x, in
phases that last from a second to several minutes, whatever runs on them.
Medians over a run cannot remove phases longer than the run, so the same
code read up to 40% apart between runs.  The probe measures the host's speed
during each sample instead: every PERIOD_S of wall time, a SIGALRM handler
times a fixed pure-Python loop (fractions, small dicts and lists, big-integer
formatting, with the collector paused so nfk's heap does not enter it).  The
sample's speed is the mean of REF_S / loop time over its probes, and its
times are multiplied by it: "reference seconds", the time the sample would
have taken on a host where the loop takes REF_S.  A change to nfk cannot
move the loop, so it moves reference seconds exactly as it moves wall time
on a steady host.

The handler's own time is left out of every time taken with clock().
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# the loop's time on the host the benchmark was written on, in its fast phases
REF_S = 0.0005


def _loop() -> None:
    total = Fraction(0)
    table = {}
    for i in range(1, 120):
        total += Fraction(i % 97, i)
        table[i] = [i * j for j in range(8)]
        table[-i] = str(i * 12345678901234567)


class SpeedProbe:
    def __init__(self):
        self.spent = 0.0  # seconds spent in the handler, all samples
        self._speeds: list[float] = []
        self._previous = None

    def clock(self) -> float:
        """time.perf_counter without the handler's time."""
        return time.perf_counter() - self.spent

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop()
            self._speeds.append(REF_S / (time.perf_counter() - t0))
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - start

    def start(self) -> None:
        """Probe now and then every PERIOD_S until stop()."""
        self._speeds = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, int]:
        """(mean speed since start(), number of probes)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return sum(self._speeds) / len(self._speeds), len(self._speeds)
