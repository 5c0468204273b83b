"""Observability: run telemetry, event tracing, and profiling hooks.

Every simulation in this repo reduces a run to end-of-run scalars; this
package adds the time dimension back, opt-in and zero-cost when off:

- :mod:`repro.obs.telemetry` — a zero-dependency :class:`MetricsRecorder`
  (counters, gauges, fixed-bucket histograms) sampled on a configurable
  window grid, reduced to an immutable :class:`TimeSeries` carried on
  ``ServeResult``/``FleetResult``.
- :mod:`repro.obs.trace` — request spans and incident windows,
  exportable as Chrome ``trace_event`` JSON (load it in
  ``chrome://tracing`` / Perfetto) or JSONL.
- :mod:`repro.obs.observer` — the one place each fleet event's
  observation is defined: its per-window count, its span or instant,
  and the window-end samples.

Both are driven through one :class:`ObsSpec` handed to
``ClusterSimulator.run`` (directly, or through ``simulate_traffic``,
which is a one-board fleet run), which reports every lifecycle event to
the observer :func:`~repro.obs.observer.make_observer` builds from it.
With the default ``ObsSpec()`` (or ``obs=None``) that observer does
nothing and schedules no event, so results stay bit-identical to
pre-observability runs — the differential tests pin this.
"""

from .telemetry import (
    DEFAULT_WINDOWS,
    HistogramSummary,
    MetricsRecorder,
    ObsSpec,
    TimeSeries,
)
from .trace import TraceRecorder

__all__ = [
    "DEFAULT_WINDOWS",
    "HistogramSummary",
    "MetricsRecorder",
    "ObsSpec",
    "TimeSeries",
    "TraceRecorder",
]
