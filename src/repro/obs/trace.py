"""Structured span/event tracing for simulation runs.

The recorder mirrors the simulators' FIFO bookkeeping: each admitted
request opens an async span on arrival, moves from the recorder's
queued deque to its pipeline deque on dispatch, and closes on
completion (or on a drop/evacuation/board death).  Because the
per-(tenant, replica) deques evolve in lockstep with the simulator's
own queues, span identity never needs to be threaded through the event
loop — the oldest open span *is* the request being served.

Exports:

- Chrome ``trace_event`` JSON (:meth:`TraceRecorder.to_chrome`) —
  async ``b``/``e`` spans per request (async, because a tenant's
  overlapping in-flight requests would break synchronous ``B``/``E``
  stack nesting), ``B``/``E`` duration events for incident windows on
  each replica's track, and ``i`` instants for drops, dispatches, and
  scale steps.  Load the file in ``chrome://tracing`` or Perfetto.
- JSONL (:meth:`TraceRecorder.write_jsonl`) — the same events, one
  JSON object per line, for ad-hoc grepping.

Timestamps are recorded in cycles and converted to microseconds at
export using the run's clock frequency.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["TraceRecorder"]

#: (tenant, replica-index) — replica is None for fleet-level events.
_Key = Tuple[str, Optional[int]]


class TraceRecorder:
    """Collects request-lifecycle spans and incident events from a run."""

    def __init__(self) -> None:
        #: Raw events: ph/name/cat/ts(cycles)/track/id/args.
        self.events: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._queued: Dict[_Key, Deque[int]] = {}
        self._pipeline: Dict[_Key, Deque[int]] = {}
        self._tracks: Dict[_Key, str] = {}

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------- low level
    def _track(self, tenant: str, replica: Optional[int]) -> str:
        # One string per track, shared by all of its events.
        key = (tenant, replica)
        track = self._tracks.get(key)
        if track is None:
            track = tenant if replica is None else f"{tenant}@r{replica}"
            self._tracks[key] = track
        return track

    def _emit(
        self,
        ph: str,
        name: str,
        ts: float,
        track: str,
        *,
        cat: str = "request",
        span_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "ph": ph,
            "name": name,
            "cat": cat,
            "ts": ts,
            "track": track,
        }
        if span_id is not None:
            event["id"] = span_id
        if args:
            event["args"] = args
        self.events.append(event)

    def _open(self, key: _Key, ts: float, args: Dict[str, Any]) -> int:
        span_id = next(self._ids)
        self._queued.setdefault(key, deque()).append(span_id)
        self._emit(
            "b", "request", ts, self._track(*key), span_id=span_id, args=args
        )
        return span_id

    def _close_queued(self, key: _Key, ts: float, args: Dict[str, Any]) -> None:
        span_id = self._queued[key].popleft()
        self._emit(
            "e", "request", ts, self._track(*key), span_id=span_id, args=args
        )

    # ------------------------------------------------------ request lifecycle
    def request_arrived(
        self,
        tenant: str,
        replica: Optional[int],
        now: float,
        *,
        dropped: bool = False,
        policy: str = "drop-tail",
    ) -> None:
        """An arrival landed on a replica's queue (or was shed).

        ``dropped`` mirrors the simulator's queue-full outcome: under
        drop-tail the newcomer never opens a span; under drop-head the
        *oldest waiter's* span closes and the newcomer opens one.
        """
        key = (tenant, replica)
        if dropped and policy == "drop-tail":
            self._emit(
                "i", "drop", now, self._track(*key),
                cat="queue", args={"policy": policy},
            )
            return
        if dropped:
            self._close_queued(key, now, {"outcome": "dropped", "policy": policy})
        self._open(key, now, {"tenant": tenant})

    def request_dispatched(
        self, tenant: str, replica: Optional[int], now: float, arrival: float
    ) -> None:
        """The epoch boundary admitted the queue head into the pipeline."""
        key = (tenant, replica)
        span_id = self._queued[key].popleft()
        self._pipeline.setdefault(key, deque()).append(span_id)
        self._emit(
            "i", "dispatch", now, self._track(*key),
            cat="pipeline", args={"queue_wait_cycles": now - arrival},
        )

    def request_completed(
        self, tenant: str, replica: Optional[int], now: float, arrival: float
    ) -> None:
        key = (tenant, replica)
        span_id = self._pipeline[key].popleft()
        self._emit(
            "e", "request", now, self._track(*key),
            span_id=span_id, args={"latency_cycles": now - arrival},
        )

    def request_unroutable(self, tenant: str, now: float) -> None:
        """An arrival found no healthy replica anywhere in the fleet."""
        self._emit(
            "i", "unroutable", now, self._track(tenant, None),
            cat="fault",
        )

    # ------------------------------------------------------ overload control
    def request_rejected(
        self,
        tenant: str,
        replica: Optional[int],
        now: float,
        *,
        reason: str = "admission",
    ) -> None:
        """An arrival was turned away at admission (never queued).

        ``reason`` is ``"admission"`` (token bucket), ``"deadline"``
        (queue-deadline admission), or ``"brownout"`` (a shed class).
        """
        self._emit(
            "i", "reject", now, self._track(tenant, replica),
            cat="overload", args={"reason": reason},
        )

    def request_expired(
        self, tenant: str, replica: Optional[int], now: float
    ) -> None:
        """A queued request's deadline passed; it was shed at dispatch.

        Under non-FIFO disciplines span identity is approximate: the
        *oldest* open queued span is closed, which is exact for the
        expiry-prone head-of-line work EDF sheds.
        """
        self._close_queued(
            (tenant, replica), now, {"outcome": "expired"}
        )

    def request_retry(
        self,
        tenant: str,
        now: float,
        *,
        attempt: int,
        delay_cycles: float,
        reason: str = "",
    ) -> None:
        """A client scheduled a retry attempt after a backoff delay."""
        args: Dict[str, Any] = {
            "attempt": attempt, "delay_cycles": delay_cycles,
        }
        if reason:
            args["reason"] = reason
        self._emit(
            "i", "retry", now, self._track(tenant, None),
            cat="overload", args=args,
        )

    def request_hedged(self, tenant: str, now: float) -> None:
        """A hedge duplicate fired for a still-queued request."""
        self._emit(
            "i", "hedge", now, self._track(tenant, None), cat="overload"
        )

    def brownout_step(
        self, now: float, *, action: str, shed: List[int]
    ) -> None:
        """The brownout controller shed or restored a priority class."""
        self._emit(
            "i", "brownout", now, "brownout",
            cat="overload", args={"action": action, "shed": shed},
        )

    # ------------------------------------------------------ failure handling
    def pipeline_killed(
        self, tenant: str, replica: Optional[int], now: float
    ) -> None:
        """Close every in-flight span on a replica that just died."""
        key = (tenant, replica)
        for span_id in self._pipeline.get(key, ()):
            self._emit(
                "e", "request", now, self._track(*key),
                span_id=span_id, args={"outcome": "killed"},
            )
        self._pipeline.pop(key, None)

    def request_evacuated(
        self,
        tenant: str,
        replica: Optional[int],
        now: float,
        *,
        outcome: str,
        target: Optional[int] = None,
    ) -> None:
        """Close the oldest queued span on a dead replica.

        ``outcome`` is ``"requeued"`` (a span reopens on ``target``),
        ``"dropped"`` (the target's queue was full), or ``"lost"``.
        """
        key = (tenant, replica)
        self._close_queued(key, now, {"outcome": outcome, "target": target})
        if outcome == "requeued":
            self._open(
                (tenant, target), now, {"tenant": tenant, "requeued": True}
            )

    # ------------------------------------------------- timeouts & failover
    def _close_any(
        self, key: _Key, now: float, args: Dict[str, Any], *, phase: str
    ) -> None:
        """Close the oldest open span in ``phase`` (queue or pipeline).

        Span identity is approximate for mid-queue removals (the
        timeout sweep reaps by age, not position) — the oldest open
        span is the closest stand-in, same convention as
        :meth:`request_expired`.  Defensive: a missing span is skipped
        rather than corrupting the deque bookkeeping.
        """
        book = self._pipeline if phase == "pipeline" else self._queued
        spans = book.get(key)
        if not spans:
            return
        span_id = spans.popleft()
        self._emit(
            "e", "request", now, self._track(*key),
            span_id=span_id, args=args,
        )

    def request_timeout(
        self, tenant: str, replica: Optional[int], now: float
    ) -> None:
        """A queued request outlived its timeout with no failover left."""
        self._close_any(
            (tenant, replica), now, {"outcome": "timed_out"}, phase="queue"
        )

    def request_errored(
        self, tenant: str, replica: Optional[int], now: float
    ) -> None:
        """A flaky replica returned an error and the budget was spent."""
        self._close_any(
            (tenant, replica), now, {"outcome": "errored"}, phase="pipeline"
        )

    def request_failover(
        self,
        tenant: str,
        replica: Optional[int],
        now: float,
        *,
        target: Optional[int] = None,
        phase: str = "queue",
    ) -> None:
        """A timed-out/errored request re-dispatched to another replica."""
        self._close_any(
            (tenant, replica), now,
            {"outcome": "failed_over", "target": target}, phase=phase,
        )
        self._open(
            (tenant, target), now, {"tenant": tenant, "failover": True}
        )

    # ------------------------------------------------------ failure detection
    def replica_ejected(
        self, target: str, now: float, *, reason: str = ""
    ) -> None:
        """The failure detector pulled a replica out of routing."""
        args: Dict[str, Any] = {}
        if reason:
            args["reason"] = reason
        self._emit(
            "i", "ejected", now, target, cat="detector", args=args or None
        )

    def replica_readmitted(self, target: str, now: float) -> None:
        """An ejected replica passed probation and rejoined routing."""
        self._emit("i", "readmitted", now, target, cat="detector")

    def degradation_begin(
        self, target: str, now: float, *, mode: str, severity: float
    ) -> None:
        """A gray-failure window opened on a replica."""
        self._emit(
            "B", "gray", now, target, cat="incident",
            args={"mode": mode, "severity": severity},
        )

    def degradation_end(self, target: str, now: float, *, mode: str) -> None:
        self._emit(
            "E", "gray", now, target, cat="incident", args={"mode": mode}
        )

    # -------------------------------------------------------------- incidents
    def incident_begin(self, target: str, now: float, kind: str = "fault") -> None:
        self._emit("B", kind, now, target, cat="incident")

    def incident_end(self, target: str, now: float, kind: str = "fault") -> None:
        self._emit("E", kind, now, target, cat="incident")

    # ------------------------------------------------------------ scale steps
    def scale_step(
        self, now: float, *, replicas: int, action: str, reason: str = ""
    ) -> None:
        args: Dict[str, Any] = {"replicas": replicas, "action": action}
        if reason:
            args["reason"] = reason
        self._emit("i", "scale", now, "autoscaler", cat="scale", args=args)

    # ---------------------------------------------------------------- exports
    def to_chrome(self, frequency_mhz: float = 100.0) -> Dict[str, Any]:
        """The collected run as a Chrome ``trace_event`` JSON object."""
        tracks: Dict[str, int] = {}
        for event in self.events:
            tracks.setdefault(event["track"], len(tracks) + 1)
        trace_events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro simulation"},
            }
        ]
        for track, tid in tracks.items():
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        # Hooks fire in simulation-time order already; the stable sort is
        # belt and braces for consumers that require monotone timestamps.
        for event in sorted(self.events, key=lambda e: e["ts"]):
            record: Dict[str, Any] = {
                "ph": event["ph"],
                "name": event["name"],
                "cat": event["cat"],
                "ts": event["ts"] / frequency_mhz,  # cycles -> microseconds
                "pid": 0,
                "tid": tracks[event["track"]],
            }
            if "id" in event:
                record["id"] = event["id"]
            if event["ph"] == "i":
                record["s"] = "t"  # thread-scoped instant
            if "args" in event:
                record["args"] = event["args"]
            trace_events.append(record)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str, frequency_mhz: float = 100.0) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(frequency_mhz), handle)
            handle.write("\n")

    def write_jsonl(self, path: str, frequency_mhz: float = 100.0) -> None:
        """One event per line (the chrome records, minus the metadata)."""
        chrome = self.to_chrome(frequency_mhz)
        with open(path, "w") as handle:
            for event in chrome["traceEvents"]:
                if event["ph"] == "M":
                    continue
                handle.write(json.dumps(event))
                handle.write("\n")
