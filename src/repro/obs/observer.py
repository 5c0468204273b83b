"""The run observer: where each fleet lifecycle event is recorded.

:class:`~repro.fleet.cluster.ClusterSimulator` reports every request
lifecycle, incident and detector event of a run to the run's observer,
once and unconditionally.  :func:`make_observer` builds it from the
run's :class:`~repro.obs.ObsSpec`: a :class:`RunObserver` (every method
does nothing) when the run is unobserved, a :class:`CountingObserver`
for telemetry, a :class:`TracingObserver` for a trace, or both at once.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .telemetry import BusySampler, MetricsRecorder, ObsSpec, TenantGroupSampler
from .trace import TraceRecorder

__all__ = ["RunObserver", "CountingObserver", "TracingObserver", "make_observer"]


class RunObserver:
    """An unobserved run: one empty method per lifecycle event.

    ``tenant`` is a tenant name, ``replica`` a replica index (``None``
    at the tenant's front door), ``target`` a replica label and ``now``
    the time in cycles.
    """

    #: The event engine's per-event hook (``None``: no hook).
    on_event = None

    def arrived(self, tenant, replica, now, dropped, policy) -> None:
        """An attempt reached a queue; ``dropped`` if it was full, so
        drop-tail shed it or drop-head the oldest waiter (``policy``)."""

    def dispatched(self, tenant, replica, now, arrival) -> None:
        """An epoch boundary admitted the queue head into the pipeline."""

    def completed(self, tenant, replica, now, arrival, late) -> None:
        """A request completed, ``late`` past its deadline or not."""

    def unroutable(self, tenant, now) -> None:
        """An attempt found no routable replica."""

    def rejected(self, tenant, replica, now, reason) -> None:
        """The overload controller turned an attempt away."""

    def retried(self, tenant, now, attempt, delay_cycles, reason) -> None:
        """A client scheduled a retry after an attempt ended unanswered."""

    def hedged(self, tenant, now) -> None:
        """A hedge duplicate fired for a still-queued request."""

    def expired(self, tenant, replica, now) -> None:
        """A queued request's deadline passed; it was shed at dispatch."""

    def brownout(self, now, action, shed: Iterable[int]) -> None:
        """A brownout step; ``shed`` holds the priorities now shed."""

    def killed(self, tenant, replica, now) -> None:
        """A board died with this tenant's pipeline in flight."""

    def evacuated(self, tenant, replica, now, outcome, target) -> None:
        """A dead board's queued request was ``"requeued"`` on replica
        ``target``, ``"dropped"`` there (queue full) or ``"lost"``."""

    def timed_out(self, tenant, replica, now) -> None:
        """A queued request outlived its timeout with no failover left."""

    def failed_over(
        self, tenant, replica, now, target, phase, dropped
    ) -> None:
        """A request left ``phase`` (queue or pipeline) for ``target``,
        ``dropped`` there if that queue was full."""

    def flaky_error(self, tenant, now) -> None:
        """A dispatched attempt came back as an error (flaky board)."""

    def errored(self, tenant, replica, now) -> None:
        """An error was the final word: no failover was left."""

    def fault_begin(self, target, now) -> None:
        """A replica went down."""

    def fault_end(self, target, now) -> None:
        """A replica came back up."""

    def gray_begin(self, target, now, mode, severity) -> None:
        """A gray-failure window opened on a replica."""

    def gray_end(self, target, now, mode) -> None:
        """A gray-failure window closed."""

    def ejected(self, target, now, reason) -> None:
        """The detector pulled a replica out of routing."""

    def readmitted(self, target, now) -> None:
        """An ejected replica passed probation and rejoined routing."""

    def start(self, run: Any) -> None:
        """The run (a ``_FleetRun``) has scheduled its own events."""

    def timeseries(self):
        """The run's :class:`~repro.obs.TimeSeries`, if it samples one."""
        return None


class _Sinks(dict):
    """Tenant name -> the ``add`` of counter ``{kind}/{tenant}``,
    resolved on the tenant's first count of ``kind`` (so series keep
    their first-count order)."""

    def __init__(self, recorder: MetricsRecorder, kind: str):
        super().__init__()
        self.recorder, self.kind = recorder, kind

    def __missing__(self, tenant):
        add = self[tenant] = self.recorder.counter(f"{self.kind}/{tenant}").add
        return add


class CountingObserver(RunObserver):
    """Telemetry: per-window event counts and window-end samples."""

    def __init__(self, recorder: MetricsRecorder):
        self.recorder = recorder
        # The engine calls its hook before every event, so this is
        # always the first counter, as if created at the first event.
        self.on_event = recorder.counter("engine_events").add
        self._late, self._rejected, self._retries, self._hedges = (
            _Sinks(recorder, kind)
            for kind in ("late", "rejected", "retries", "hedges")
        )
        self._expired, self._timeouts, self._failovers, self._errors = (
            _Sinks(recorder, kind)
            for kind in ("expired", "timeouts", "failovers", "errors")
        )

    def completed(self, tenant, replica, now, arrival, late):
        if late:
            self._late[tenant](now)

    def rejected(self, tenant, replica, now, reason):
        self._rejected[tenant](now)

    def retried(self, tenant, now, attempt, delay_cycles, reason):
        self._retries[tenant](now)

    def hedged(self, tenant, now):
        self._hedges[tenant](now)

    def expired(self, tenant, replica, now):
        self._expired[tenant](now)

    def brownout(self, now, action, shed):
        self.recorder.count("brownout_steps", now)

    def timed_out(self, tenant, replica, now):
        self._timeouts[tenant](now)

    def failed_over(self, tenant, replica, now, target, phase, dropped):
        self._failovers[tenant](now)

    def flaky_error(self, tenant, now):
        self._errors[tenant](now)

    def start(self, run):
        """Build the samplers over the run's tenant states and boards,
        and schedule one sample per window, after every run event."""
        recorder = self.recorder
        self.replicas, self.fdet = run.replicas, run.fdet
        self.incidents = bool(run.outages or run.degradations)
        self.samplers = [
            TenantGroupSampler(recorder, name, run.tenant_states(name))
            for name in run.names
        ] + [
            BusySampler(recorder, f"util/{replica.label}", replica)
            for replica in run.replicas
        ]
        for window, when in enumerate(recorder.times):
            run.sim.schedule_at(when, self.sample, window, when)

    def sample(self, window: int, when: float) -> None:
        """Read-only telemetry sample at the end of one window; bins
        the counters' logged event times."""
        self.recorder.fold()
        gauge = self.recorder.gauge
        for sampler in self.samplers:
            sampler.sample(window, when)
        gauge("healthy_replicas", window,
              sum(1 for replica in self.replicas if replica.healthy))
        if self.fdet is not None:
            # The detector's view next to the oracle's: the two diverge
            # exactly during detection lag and false positives — the
            # gap *is* the gray-failure story.
            gauge("detected_healthy_replicas", window,
                  self.fdet.detected_healthy_count())
        for replica in self.replicas:
            gauge(f"outstanding/{replica.label}", window, replica.outstanding)
            if self.incidents:
                clean = replica.healthy and not replica.degraded
                gauge(f"healthy/{replica.label}", window, 1.0 if clean else 0.0)

    def timeseries(self):
        return self.recorder.finalize()


class TracingObserver(RunObserver):
    """The request-lifecycle and incident trace.

    Each request is an async span on its ``tenant@r<replica>`` track:
    it opens on arrival, moves to the pipeline on dispatch and closes
    with its outcome.  Span identity is by age: a close takes the
    oldest open span of its phase, which is exact for FIFO queues and
    the closest stand-in for mid-queue removals (timeouts, EDF).
    """

    def __init__(self, trace: TraceRecorder):
        self.trace = trace

    def _instant(self, name, now, track, cat, args=None):
        self.trace.emit("i", name, now, track, cat=cat, args=args)

    def arrived(self, tenant, replica, now, dropped, policy):
        trace, key = self.trace, (tenant, replica)
        if dropped and policy == "drop-tail":
            self._instant("drop", now, trace.track(*key), "queue",
                          {"policy": policy})
            return
        if dropped:
            trace.close(key, now, {"outcome": "dropped", "policy": policy})
        trace.open(key, now, {"tenant": tenant})

    def dispatched(self, tenant, replica, now, arrival):
        trace, key = self.trace, (tenant, replica)
        trace.to_pipeline(key, now)
        self._instant("dispatch", now, trace.track(*key), "pipeline",
                      {"queue_wait_cycles": now - arrival})

    def completed(self, tenant, replica, now, arrival, late):
        self.trace.close((tenant, replica), now,
                         {"latency_cycles": now - arrival}, "pipeline")
        super().completed(tenant, replica, now, arrival, late)

    def unroutable(self, tenant, now):
        self._instant("unroutable", now, self.trace.track(tenant, None), "fault")

    def rejected(self, tenant, replica, now, reason):
        self._instant("reject", now, self.trace.track(tenant, replica),
                      "overload", {"reason": reason})
        super().rejected(tenant, replica, now, reason)

    def retried(self, tenant, now, attempt, delay_cycles, reason):
        self._instant("retry", now, self.trace.track(tenant, None), "overload", {
            "attempt": attempt, "delay_cycles": delay_cycles, "reason": reason,
        })
        super().retried(tenant, now, attempt, delay_cycles, reason)

    def hedged(self, tenant, now):
        self._instant("hedge", now, self.trace.track(tenant, None), "overload")
        super().hedged(tenant, now)

    def expired(self, tenant, replica, now):
        self.trace.close((tenant, replica), now, {"outcome": "expired"})
        super().expired(tenant, replica, now)

    def brownout(self, now, action, shed):
        self._instant("brownout", now, "brownout", "overload", {
            "action": action, "shed": [int(p) for p in sorted(shed)],
        })
        super().brownout(now, action, shed)

    def killed(self, tenant, replica, now):
        self.trace.close_pipeline((tenant, replica), now, {"outcome": "killed"})

    def evacuated(self, tenant, replica, now, outcome, target):
        trace = self.trace
        trace.close((tenant, replica), now,
                    {"outcome": outcome, "target": target})
        if outcome == "requeued":
            trace.open((tenant, target), now,
                       {"tenant": tenant, "requeued": True})

    def timed_out(self, tenant, replica, now):
        self.trace.close((tenant, replica), now, {"outcome": "timed_out"})
        super().timed_out(tenant, replica, now)

    def failed_over(self, tenant, replica, now, target, phase, dropped):
        trace, outcome = self.trace, "dropped" if dropped else "failed_over"
        trace.close((tenant, replica), now,
                    {"outcome": outcome, "target": target}, phase)
        if not dropped:
            trace.open((tenant, target), now,
                       {"tenant": tenant, "failover": True})
        super().failed_over(tenant, replica, now, target, phase, dropped)

    def errored(self, tenant, replica, now):
        self.trace.close((tenant, replica), now, {"outcome": "errored"},
                         "pipeline")

    def fault_begin(self, target, now):
        self.trace.emit("B", "fault", now, target, cat="incident")

    def fault_end(self, target, now):
        self.trace.emit("E", "fault", now, target, cat="incident")

    def gray_begin(self, target, now, mode, severity):
        self.trace.emit("B", "gray", now, target, cat="incident",
                        args={"mode": mode, "severity": severity})

    def gray_end(self, target, now, mode):
        self.trace.emit("E", "gray", now, target, cat="incident",
                        args={"mode": mode})

    def ejected(self, target, now, reason):
        self._instant("ejected", now, target, "detector", {"reason": reason})

    def readmitted(self, target, now):
        self._instant("readmitted", now, target, "detector")


class _CountingTracer(TracingObserver, CountingObserver):
    """Trace and telemetry: the tracing method of a counted event
    reaches the counting one through ``super()``."""

    def __init__(self, trace: TraceRecorder, recorder: MetricsRecorder):
        TracingObserver.__init__(self, trace)
        CountingObserver.__init__(self, recorder)


def make_observer(obs: Optional[ObsSpec], horizon: float) -> RunObserver:
    """The observer for a run of ``horizon`` cycles under ``obs``.  A
    trace-only run builds no :class:`MetricsRecorder`."""
    if obs is None or not obs.active:
        return RunObserver()
    recorder = obs.make_recorder(horizon)
    if obs.trace is None:
        return CountingObserver(recorder)
    if recorder is None:
        return TracingObserver(obs.trace)
    return _CountingTracer(obs.trace, recorder)
