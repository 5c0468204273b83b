"""Observability: run telemetry, event tracing, and profiling hooks.

Every simulation in this repo reduces a run to end-of-run scalars; this
package adds the time dimension back, opt-in and zero-cost when off:

- :mod:`repro.obs.telemetry` — a zero-dependency :class:`MetricsRecorder`
  (counters, gauges, fixed-bucket histograms) sampled on a configurable
  window grid, reduced to an immutable :class:`TimeSeries` carried on
  ``ServeResult``/``FleetResult``.
- :mod:`repro.obs.trace` — structured span/event emission for the
  request lifecycle and incident windows, exportable as Chrome
  ``trace_event`` JSON (load it in ``chrome://tracing`` / Perfetto) or
  JSONL.

Both are driven through one :class:`ObsSpec` handed to
``ClusterSimulator.run`` (directly, or through ``simulate_traffic``,
which is a one-board fleet run).  With the default
``ObsSpec()`` (or ``obs=None``) the simulators schedule no extra events
and take no extra branches that alter event ordering, so results stay
bit-identical to pre-observability runs — the differential tests pin
this.
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
