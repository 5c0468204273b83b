"""Timings in reference seconds, corrected for the host's speed drift.

The benchmark runs on a shared host whose speed drifts: a fixed Python
loop ran up to twice as slow in one hour as in another, and two sets of
the same ten runs, half an hour apart, gave median job times 28% apart.
Within a minute the speed still swings by a quarter, second by second.
A timing taken alone cannot tell that drift from a change in the
program.  So while a job or a set-up runs, a timer interrupts it every
SAMPLE_INTERVAL_S to run one pass of a fixed calibration loop, and
every stretch of work between two passes is rescaled by how fast they
ran:

    reference seconds = host seconds * REFERENCE_PASS_S / mean pass time

where the mean pass time is the average of the two passes on either
side of the stretch.  Calibration time is left out of every timing.
The loop is the benchmark's own code and never changes with the
program, so a slower program still reads slower; a slower host does
not.  One pass mixes interpreter work (a heap, a dict, integer and
float arithmetic) with a memory-bound numpy pass, because the host
slows both kinds of work and the workloads do both; either half alone
tracked the drift less well.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

#: A round figure near one calibration pass on a quiet 2-vCPU VM; it
#: only sets the scale of reference seconds.
REFERENCE_PASS_S = 0.01
#: Host seconds of work between two calibration passes inside a job.
SAMPLE_INTERVAL_S = 0.1
#: Calibration when a clock is made.
CALIBRATION_S = 0.2
_ARRAY = np.random.default_rng(0).random(200_000)


def calibration_pass() -> float:
    """One pass of the fixed calibration loop."""
    heap = []
    table = {}
    x = 12345
    total = 0.0
    for i in range(7_500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 1023, i))
        if len(heap) > 64:
            key, j = heapq.heappop(heap)
            table[j & 255] = table.get(j & 255, 0) + key
        total += x * 1e-9
    return total + float((np.cumsum(_ARRAY) * np.exp(-_ARRAY)).sum())


def timed_pass() -> float:
    """Seconds one calibration pass takes now."""
    started = time.perf_counter()
    calibration_pass()
    return time.perf_counter() - started


def calibrate(seconds: float) -> float:
    """Mean seconds per calibration pass over about ``seconds``."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(timed_pass())
    return statistics.fmean(passes)


class HostClock:
    """Times jobs, and pieces of them, in reference seconds.

    ``start()`` begins a job and arms the timer; ``split()`` ends a
    piece of it (a simulator call) and returns the piece's seconds; ``stop()`` ends the last piece, disarms the timer
    and returns the job's seconds.  With ``calibrated=False`` the clock
    never calibrates and returns host seconds, for runs whose timings
    are not compared across runs.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.pass_s = calibrate(CALIBRATION_S) if calibrated else 0.0
        self.total = 0.0
        self._piece = 0.0
        self._mark = time.perf_counter()
        self._running = False
        self._busy = False
        if calibrated:
            # Installed for good: an alarm already on its way when the
            # timer is disarmed must not reach the default handler,
            # which ends the process.
            signal.signal(signal.SIGALRM, self._on_timer)

    def start(self) -> None:
        self.total = 0.0
        self._piece = 0.0
        self._mark = time.perf_counter()
        self._running = self.calibrated
        self._arm()

    def split(self) -> float:
        """End the current piece; return its seconds."""
        self._busy = True
        self._advance()
        seconds, self._piece = self._piece, 0.0
        self.total += seconds
        self._busy = False
        return seconds

    def stop(self) -> float:
        """End the job; return its seconds."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.split()
        return self.total

    def _arm(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def _advance(self) -> None:
        """Add the stretch since the last mark to the open piece."""
        now = time.perf_counter()
        if self.calibrated:
            current = timed_pass()
            self._piece += ((now - self._mark) * 2 * REFERENCE_PASS_S
                            / (self.pass_s + current))
            self.pass_s = current
        else:
            self._piece += now - self._mark
        self._mark = time.perf_counter()

    def _on_timer(self, signum, frame) -> None:
        # One-shot, re-armed here, so a slow pass never overlaps the next.
        if self._running and not self._busy:
            self._advance()
        self._arm()
