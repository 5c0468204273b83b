"""Structured span/event tracing for simulation runs.

The recorder mirrors the simulators' FIFO bookkeeping: each request
opens an async span when it reaches a replica's queue, moves from the
recorder's queued deque to its pipeline deque on dispatch, and closes
on completion (or on a drop, evacuation, timeout or board death).
Because the per-(tenant, replica) deques evolve in lockstep with the
simulator's own queues, span identity never needs to be threaded
through the event loop: the oldest open span *is* the request being
served.  A close that finds no open span raises ``LookupError``.  What
each fleet event emits is defined in
:class:`repro.obs.observer.TracingObserver`.  Exports:

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
        #: Open span ids per key, oldest first, by phase.
        self._spans: Dict[str, Dict[_Key, Deque[int]]] = {
            "queue": {}, "pipeline": {}
        }
        self._tracks: Dict[_Key, str] = {}

    def __len__(self) -> int:
        return len(self.events)

    def track(self, tenant: str, replica: Optional[int]) -> str:
        """The track of a tenant on a replica (or at its front door)."""
        # One string per track, shared by all of its events.
        key = (tenant, replica)
        track = self._tracks.get(key)
        if track is None:
            track = tenant if replica is None else f"{tenant}@r{replica}"
            self._tracks[key] = track
        return track

    def emit(
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

    # ----------------------------------------------------------------- spans
    def _take(self, key: _Key, phase: str, now: float) -> int:
        """Pop the oldest open span of ``key`` in ``phase``."""
        spans = self._spans[phase].get(key)
        if not spans:
            raise LookupError(
                f"no open {phase} span for tenant {key[0]!r} on replica "
                f"{key[1]} at cycle {now}"
            )
        return spans.popleft()

    def open(self, key: _Key, now: float, args: Dict[str, Any]) -> None:
        """Open a request span queued on ``key``'s replica."""
        span_id = next(self._ids)
        self._spans["queue"].setdefault(key, deque()).append(span_id)
        self.emit("b", "request", now, self.track(*key), span_id=span_id,
                  args=args)

    def to_pipeline(self, key: _Key, now: float) -> None:
        """Move the oldest queued span into the pipeline."""
        span_id = self._take(key, "queue", now)
        self._spans["pipeline"].setdefault(key, deque()).append(span_id)

    def close(self, key: _Key, now: float, args: Dict[str, Any],
              phase: str = "queue") -> None:
        """Close the oldest open span in ``phase`` (queue or pipeline)."""
        span_id = self._take(key, phase, now)
        self.emit("e", "request", now, self.track(*key), span_id=span_id,
                  args=args)

    def close_pipeline(self, key: _Key, now: float,
                       args: Dict[str, Any]) -> None:
        """Close every in-flight span (a board died)."""
        for span_id in self._spans["pipeline"].pop(key, ()):
            self.emit("e", "request", now, self.track(*key),
                      span_id=span_id, args=args)

    # ------------------------------------------------------------ scale steps
    def scale_step(
        self, now: float, *, replicas: int, action: str, reason: str = ""
    ) -> None:
        args: Dict[str, Any] = {"replicas": replicas, "action": action}
        if reason:
            args["reason"] = reason
        self.emit("i", "scale", now, "autoscaler", cat="scale", args=args)

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
