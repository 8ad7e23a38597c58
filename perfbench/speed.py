"""Item timing, and rescaling of measured times to a reference CPU speed.

On a shared host the CPU speed a process gets moves by up to about 20 %
within tens of seconds, which swamps the differences a benchmark has to
resolve.  `SpeedProbe` interrupts the process every PERIOD_S (SIGALRM) and
times a fixed pure-Python calibration loop.  A measured interval is then
rescaled by REFERENCE_LOOP_S / (the loop's duration around that time):
the result is the time the interval would have taken at the speed at which
the loop takes REFERENCE_LOOP_S.  The probe's own time is excluded from
every measured interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
LOOP_ITERATIONS = 4000
REFERENCE_LOOP_S = 0.0008  # the loop's typical duration on the host the benchmark was defined on
WINDOW = 3  # samples each side of an instant that give the speed there


def calibration_loop() -> int:
    """Fixed interpreter work: integer arithmetic, list and dict traffic."""
    acc = 0
    table: dict[int, int] = {}
    row = [0] * 64
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        row[i & 63] = acc
        table[i & 255] = row[(i * 7) & 63]
    return acc + len(table)


class SpeedProbe:
    """Samples the calibration loop's duration while the process works."""

    def __init__(self):
        self.times: list[float] = []   # midpoint of each sample
        self.loops: list[float] = []   # loop duration of each sample
        self.paused = 0.0              # total time spent inside the probe
        self._previous = None

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.loops.append(t1 - t0)
        self.paused += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """Wall clock minus the time spent in the probe."""
        return time.perf_counter() - self.paused

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_LOOP_S over the median loop duration sampled in [t0, t1],
        widened by WINDOW samples on each side."""
        lo = max(0, bisect.bisect_left(self.times, t0) - WINDOW)
        hi = min(len(self.times), bisect.bisect_right(self.times, t1) + WINDOW)
        if lo >= hi:
            raise RuntimeError("no speed sample near the measured interval")
        return REFERENCE_LOOP_S / statistics.median(self.loops[lo:hi])


class ItemTimer:
    """Per-item durations, excluding probe time, with their wall position."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self.starts: list[float] = []
        self.raw: list[float] = []
        self._t0 = self._p0 = 0.0

    def _paused(self) -> float:
        return self.probe.paused if self.probe is not None else 0.0

    def start(self) -> None:
        self._p0 = self._paused()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        t1 = time.perf_counter()
        self.starts.append(self._t0)
        self.raw.append(t1 - self._t0 - (self._paused() - self._p0))

    def rescaled(self) -> list[float]:
        """Each item's duration at the reference speed."""
        return [d * self.probe.factor(s, s + d) for s, d in zip(self.starts, self.raw)]
