"""A small discrete-event simulation engine.

Used by the system-level Multi-CLP simulator to model CLPs contending
for a shared off-chip memory channel.  Events are (time, sequence,
callback) tuples on a heap; the sequence number keeps simultaneous
events in scheduling order, making runs fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["Simulator"]


class Simulator:
    """Deterministic event loop with a monotonically advancing clock.

    ``now`` is the current simulation time in cycles: a plain attribute
    (hosts read it on every arrival and dispatch) that only :meth:`run`
    writes.  ``on_event``, when given, is called with the event's
    timestamp just before each callback runs — a read-only observation
    hook used by the telemetry layer (:mod:`repro.obs`) to count
    event-loop activity per window.  It must not schedule or mutate
    simulation state.
    """

    def __init__(
        self, on_event: Optional[Callable[[float], None]] = None
    ) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._processed = 0
        self._on_event = on_event

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), callback)
        )

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time`` (stored exactly).

        The event fires at the float ``time`` given, not at
        ``now + (time - now)`` — the round trip through a delay can lose
        the last bit, which matters to callers that pin event times to an
        arithmetic grid (``index * epoch`` boundary chains, materialized
        arrival timestamps).
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._queue, (time, next(self._counter), callback))

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` passes).

        Returns the final simulation time.
        """
        while self._queue:
            time, _, callback = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = time
            self._processed += 1
            if self._on_event is not None:
                self._on_event(time)
            callback()
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next pending event, if any."""
        return self._queue[0][0] if self._queue else None
