"""Zero-dependency run telemetry on a fixed window grid.

The recorder divides a run's horizon into ``ceil(horizon / window)``
windows and collects three kinds of signals against that grid:

- **gauges** — instantaneous values sampled at each window's end (queue
  depth, in-flight, healthy replicas).  Samplers fire on the grid
  whether or not any traffic arrived, so idle windows record explicit
  zeros rather than gaps.
- **counters** — monotone totals either sampled cumulatively at window
  ends (:meth:`MetricsRecorder.cumulative`, diffed into per-window
  increments at finalize) or bumped per event
  (:meth:`MetricsRecorder.count`).
- **windowed values** — quantities that only exist per window, like the
  windowed p99; ``None`` marks windows with no samples.

Plus run-wide **fixed-bucket histograms** (:meth:`MetricsRecorder.observe`)
for latency distributions.  Everything reduces to an immutable
:class:`TimeSeries` that serializes to plain JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .trace import TraceRecorder

__all__ = [
    "DEFAULT_WINDOWS",
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramSummary",
    "TimeSeries",
    "MetricsRecorder",
    "ObsSpec",
    "TenantGroupSampler",
    "BusySampler",
    "window_grid",
]

#: Default number of grid windows when no explicit window size is given.
DEFAULT_WINDOWS = 60

#: 1-2-5 ladder of latency bucket upper bounds, in cycles.  Fixed (not
#: data-dependent) so histograms from different runs share bucket edges
#: and can be summed.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp for exp in range(3, 9) for base in (1.0, 2.0, 5.0)
)


@dataclass(frozen=True)
class HistogramSummary:
    """Counts against fixed bucket upper bounds (+inf bucket implied)."""

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]  # len(edges) + 1: one overflow bucket

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TimeSeries:
    """A run's telemetry: named series sampled on one window grid.

    ``times`` are window *end* times in cycles (the last entry is the
    horizon, so the final window may be shorter than ``window_cycles``
    when the horizon is not a multiple of the window).  Counter series
    hold per-window increments; gauge series hold the value observed at
    the window's end; windowed series may contain ``None`` for windows
    without samples.
    """

    window_cycles: float
    times: Tuple[float, ...]
    series: Dict[str, Tuple[Optional[float], ...]]
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.series))

    def get(self, name: str) -> Tuple[Optional[float], ...]:
        if name not in self.series:
            raise KeyError(
                f"no series {name!r}; known: {list(self.names())}"
            )
        return self.series[name]

    def matching(self, prefix: str) -> Dict[str, Tuple[Optional[float], ...]]:
        """All series whose name starts with ``prefix`` (sorted by name)."""
        return {
            name: self.series[name]
            for name in self.names()
            if name.startswith(prefix)
        }


def window_grid(horizon_cycles: float, window_cycles: float) -> Tuple[float, ...]:
    """Window-end sample times covering ``[0, horizon]``.

    ``ceil(horizon / window)`` windows; the last end time is clamped to
    the horizon exactly.  A window larger than the horizon degenerates
    to a single window ending at the horizon.
    """
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    if window_cycles <= 0:
        raise ValueError("window_cycles must be positive")
    count = max(1, math.ceil(horizon_cycles / window_cycles))
    return tuple(
        min((index + 1) * window_cycles, horizon_cycles)
        for index in range(count)
    )


class MetricsRecorder:
    """Collects gauges, counters, and histograms against a window grid."""

    def __init__(self, horizon_cycles: float, window_cycles: float):
        self.horizon_cycles = float(horizon_cycles)
        self.window_cycles = float(window_cycles)
        self.times = window_grid(horizon_cycles, window_cycles)
        self.num_windows = len(self.times)
        self._gauges: Dict[str, List[Optional[float]]] = {}
        self._windowed: Dict[str, List[Optional[float]]] = {}
        self._counts: Dict[str, List[float]] = {}
        self._cumulative: Dict[str, List[Optional[float]]] = {}
        self._histograms: Dict[str, Tuple[Tuple[float, ...], List[int]]] = {}

    # ------------------------------------------------------------------ grid
    def window_index(self, time: float) -> int:
        """The window containing ``time`` (clamped to the grid).

        Windows are start-inclusive: an event at exactly ``k * window``
        lands in window ``k``.  Times past the horizon (drain tails)
        clamp to the last window.
        """
        if time <= 0:
            return 0
        index = int(time / self.window_cycles)
        return min(index, self.num_windows - 1)

    def _blank(self) -> List[Optional[float]]:
        return [None] * self.num_windows

    # --------------------------------------------------------------- signals
    def gauge(self, name: str, window: int, value: float) -> None:
        """Record an instantaneous value observed at ``window``'s end."""
        self._gauges.setdefault(name, self._blank())[window] = float(value)

    def windowed(self, name: str, window: int, value: Optional[float]) -> None:
        """Record a per-window quantity (``None`` = no samples this window)."""
        slot = self._windowed.setdefault(name, self._blank())
        slot[window] = None if value is None else float(value)

    def count(self, name: str, time: float, amount: float = 1.0) -> None:
        """Bump a per-window counter at an event's timestamp."""
        slot = self._counts.setdefault(name, [0.0] * self.num_windows)
        slot[self.window_index(time)] += amount

    def cumulative(self, name: str, window: int, total: float) -> None:
        """Sample a monotone running total; finalize diffs consecutive
        samples into per-window increments."""
        self._cumulative.setdefault(name, self._blank())[window] = float(total)

    def observe(
        self,
        name: str,
        value: float,
        edges: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        """Add one sample to a run-wide fixed-bucket histogram."""
        if name not in self._histograms:
            self._histograms[name] = (edges, [0] * (len(edges) + 1))
        bucket_edges, counts = self._histograms[name]
        for index, edge in enumerate(bucket_edges):
            if value <= edge:
                counts[index] += 1
                return
        counts[-1] += 1

    # -------------------------------------------------------------- finalize
    def finalize(self) -> TimeSeries:
        """Reduce everything collected into an immutable :class:`TimeSeries`
        (``ValueError`` if a name is both a count and a cumulative)."""
        clash = self._counts.keys() & self._cumulative.keys()
        if clash:
            raise ValueError(
                f"series both counted and cumulative: {sorted(clash)}"
            )
        series: Dict[str, Tuple[Optional[float], ...]] = {}
        for name, values in self._gauges.items():
            series[name] = tuple(values)
        for name, values in self._windowed.items():
            series[name] = tuple(values)
        for name, values in self._counts.items():
            series[name] = tuple(values)
        for name, totals in self._cumulative.items():
            deltas: List[Optional[float]] = []
            previous = 0.0
            for total in totals:
                if total is None:
                    # A missed sample (should not happen with grid-driven
                    # samplers) carries the previous total forward.
                    deltas.append(None)
                    continue
                deltas.append(total - previous)
                previous = total
            series[name] = tuple(deltas)
        histograms = {
            name: HistogramSummary(edges=edges, counts=tuple(counts))
            for name, (edges, counts) in self._histograms.items()
        }
        return TimeSeries(
            window_cycles=self.window_cycles,
            times=self.times,
            series=series,
            histograms=histograms,
        )


class TenantGroupSampler:
    """Samples one tenant's state (possibly spread over replicas).

    ``states`` are ``TenantState``-shaped objects (duck-typed: ``queue``,
    ``pipeline``, ``arrivals``, ``completions``, ``drops``, ``lost``,
    ``latencies``); the fleet passes the state of every replica that
    serves the tenant, then its front door (attempts that reached no
    queue), so the series sum to the tenant's totals.  Gauges fire on every grid window regardless of traffic, so idle
    windows record explicit zeros.
    """

    def __init__(
        self, recorder: MetricsRecorder, name: str, states: "List[Any]"
    ):
        self.recorder = recorder
        self.name = name
        self.states = list(states)
        self._latency_marks = [0] * len(self.states)

    def sample(self, window: int, when: float) -> None:
        rec, name = self.recorder, self.name
        queued = sum(len(s.queue) for s in self.states)
        in_flight = queued + sum(s.pipeline for s in self.states)
        rec.gauge(f"queue_depth/{name}", window, queued)
        rec.gauge(f"in_flight/{name}", window, in_flight)
        rec.cumulative(
            f"arrivals/{name}", window, sum(s.arrivals for s in self.states)
        )
        rec.cumulative(
            f"admissions/{name}",
            window,
            sum(s.completions + s.pipeline for s in self.states),
        )
        rec.cumulative(
            f"completions/{name}",
            window,
            sum(s.completions for s in self.states),
        )
        rec.cumulative(
            f"drops/{name}", window, sum(s.drops for s in self.states)
        )
        rec.cumulative(
            f"lost/{name}", window, sum(s.lost for s in self.states)
        )
        fresh: List[float] = []
        for index, state in enumerate(self.states):
            fresh.extend(state.latencies[self._latency_marks[index]:])
            self._latency_marks[index] = len(state.latencies)
        if fresh:
            ordered = sorted(fresh)
            rank = max(1, -(-len(ordered) * 99 // 100))  # nearest-rank p99
            rec.windowed(f"p99_cycles/{name}", window, ordered[rank - 1])
            for value in fresh:
                rec.observe(f"latency_cycles/{name}", value)
        else:
            rec.windowed(f"p99_cycles/{name}", window, None)


class BusySampler:
    """Windowed duty factor from a live list of busy-cycle counters.

    ``busy`` is the simulator's mutable per-CLP accumulator; each sample
    diffs it against the previous window and records the epoch-limiting
    CLP's share (a replica's duty factor) as the ``name`` series.
    Fractions clamp at 0 — a failure's admission-charge refund can pull
    a window's delta negative, which reads as an idle window.
    """

    def __init__(
        self,
        recorder: MetricsRecorder,
        name: str,
        busy: "List[float]",
    ):
        self.recorder = recorder
        self.name = name
        self.busy = busy
        self._marks = [0.0] * len(busy)
        self._when = 0.0

    def sample(self, window: int, when: float) -> None:
        span = when - self._when
        fractions = []
        for index, total in enumerate(self.busy):
            delta = total - self._marks[index]
            self._marks[index] = total
            fractions.append(max(0.0, delta / span) if span > 0 else 0.0)
        self._when = when
        self.recorder.windowed(self.name, window, max(fractions, default=0.0))


@dataclass(frozen=True)
class ObsSpec:
    """What to observe during a simulation run.

    The default spec observes nothing and is equivalent to passing
    ``obs=None`` — simulators must stay bit-identical in that case.
    ``window_cycles=None`` derives a grid of ``windows`` equal windows
    from the run's horizon.
    """

    timeseries: bool = False
    window_cycles: Optional[float] = None
    windows: int = DEFAULT_WINDOWS
    trace: Optional[TraceRecorder] = None

    @property
    def active(self) -> bool:
        return self.timeseries or self.trace is not None

    def resolve_window(self, horizon_cycles: float) -> float:
        if self.window_cycles is not None:
            if self.window_cycles <= 0:
                raise ValueError("window_cycles must be positive")
            return float(self.window_cycles)
        if self.windows < 1:
            raise ValueError("windows must be at least 1")
        return horizon_cycles / self.windows

    def make_recorder(self, horizon_cycles: float) -> Optional[MetricsRecorder]:
        if not self.timeseries:
            return None
        return MetricsRecorder(
            horizon_cycles, self.resolve_window(horizon_cycles)
        )
