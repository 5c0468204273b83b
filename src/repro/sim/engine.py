"""A small discrete-event simulation engine.

The one event loop under both simulators: :mod:`repro.sim.system`
models CLPs contending for a shared off-chip memory channel, and
:mod:`repro.fleet.cluster` runs every serving and fleet traffic run.
Events are (time, sequence, callback, args) tuples; the sequence number
keeps simultaneous events in scheduling order, making runs fully
deterministic.  A callback's arguments ride in the event (as in
asyncio's ``call_later(delay, callback, *args)``), so hosts schedule
bound methods directly instead of building a closure per event.

Events wait on a heap, or on a *lane*: a FIFO the host opens with
:meth:`Simulator.lane` for a stream it already schedules in time order
(a board's epoch boundaries, a tenant's arrivals, completions a fixed
delay after dispatch).  A lane push costs an ``append`` instead of a
heap sift.  Order stays exact by construction: a push earlier than its
lane's tail goes to the heap instead, so every lane stays sorted by
``(time, sequence)``, and :meth:`Simulator.run` pops the least
``(time, sequence)`` among the heap top and the lane heads, the order a
heap holding every event would pop.  A lane's entries for one instant
(every board's boundary of one epoch) that were queued when the heads
were scanned run back to back, without a rescan, while they beat every
other head.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["Simulator"]

_Event = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]

#: Compares above every event: what ``run`` sees once all are done.
_DRAINED = (math.inf, math.inf, None, ())


class Simulator:
    """Deterministic event loop with a monotonically advancing clock.

    ``now`` is the current simulation time in cycles: a plain attribute
    (hosts read it on every arrival and dispatch) that only :meth:`run`
    writes.  ``on_event``, when given, is called with the event's
    timestamp just before each callback runs — a read-only observation
    hook used by the telemetry layer (:mod:`repro.obs`) to count
    event-loop activity per window.  It must not schedule or mutate
    simulation state.

    Every event takes its sequence number from one counter, on the heap
    or on a lane (``schedule(..., lane=lane)``), so lanes change the
    cost of an event, never when it runs.  :meth:`run` scans every lane
    head to pick an event, so a host opens a handful, not one per
    stream; an engine with no lanes is a plain heap.
    """

    def __init__(
        self, on_event: Optional[Callable[[float], None]] = None
    ) -> None:
        self._queue: List[_Event] = []
        self._lanes: List[Deque[_Event]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._processed = 0
        self._on_event = on_event

    @property
    def events_processed(self) -> int:
        return self._processed

    def lane(self) -> Deque[_Event]:
        """Open a FIFO lane, to pass as ``lane=`` when scheduling."""
        lane: Deque[_Event] = deque()
        self._lanes.append(lane)
        return lane

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        lane: Optional[Deque[_Event]] = None,
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` cycles (on ``lane``
        when it is given and the event is not earlier than its tail)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = (time, next(self._counter), callback, args)
        if lane is not None and (not lane or lane[-1][0] <= time):
            lane.append(event)
        else:
            heapq.heappush(self._queue, event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        lane: Optional[Deque[_Event]] = None,
    ) -> None:
        """Run ``callback(*args)`` at absolute ``time`` (stored exactly).

        The event fires at the float ``time`` given, not at
        ``now + (time - now)`` — the round trip through a delay can lose
        the last bit, which matters to callers that pin event times to an
        arithmetic grid (``index * epoch`` boundary chains, materialized
        arrival timestamps).  ``lane`` works as in :meth:`schedule`.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        event = (time, next(self._counter), callback, args)
        if lane is not None and (not lane or lane[-1][0] <= time):
            lane.append(event)
        else:
            heapq.heappush(self._queue, event)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` passes).

        Returns the final simulation time.
        """
        queue, lanes, on_event = self._queue, self._lanes, self._on_event
        heappop = heapq.heappop
        limit = math.inf if until is None else until
        while True:
            # The least (time, seq) of the heap top and the lane heads,
            # and the runner-up; sequence numbers are unique, so no
            # callback is ever compared.
            event = queue[0] if queue else _DRAINED
            source, runner_up = None, _DRAINED
            for lane in lanes:
                if lane:
                    head = lane[0]
                    if head < event:
                        event, runner_up, source = head, event, lane
                    elif head < runner_up:
                        runner_up = head
            if event is _DRAINED:
                return self.now
            time = event[0]
            if time > limit:
                self.now = until
                return self.now
            if source is None:
                heappop(queue)
            else:
                source.popleft()
            self.now = time
            # A lane's next entry at this same time that beats every
            # other head runs next without a rescan, while it was queued
            # before the scan: a callback's push has a later seq and no
            # earlier time, so it cannot beat such an entry, but it can
            # beat the lane's own later pushes (a same-time heap push).
            if source:
                following, tail_seq = source[0], source[-1][1]
            else:
                following = None
            while True:
                self._processed += 1
                if on_event is not None:
                    on_event(time)
                event[2](*event[3])
                if (
                    following is None
                    or following[0] != time
                    or following[1] > tail_seq
                    or not following < runner_up
                ):
                    break
                event = source.popleft()
                following = source[0] if source else None
