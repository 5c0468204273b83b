"""Resilience metrics: how a fleet behaved *through* its incidents.

Whole-run averages hide exactly what a failure drill is meant to show —
a 25%-of-horizon rack outage can triple p99 inside its window yet move
the run-wide percentile by almost nothing, because the healthy majority
of the run dominates the sample.  :func:`compute_resilience` therefore
splits every completion by whether it finished inside the union of the
run's incident windows (replica outages and declared traffic surges)
and summarizes the two populations separately, alongside the loss
ledger, fleet availability, and recovery times.

The report is computed inside ``ClusterSimulator.run`` while the raw
per-completion samples are still in hand; only this compact summary
rides on the :class:`~repro.fleet.metrics.FleetResult` (and through
JSON), never the sample stream itself.  All times stay in cycles — the
result's clock converts for display.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.serialize import omit_default
from ..serve.metrics import fold_sum, percentile
from .faults import Incident

__all__ = ["WindowMetrics", "ResilienceReport", "compute_resilience"]


@dataclass(frozen=True)
class WindowMetrics:
    """Service quality over one (possibly disjoint) slice of the run."""

    #: Total time covered by the slice, in cycles (union, not sum —
    #: overlapping incidents are not double-counted).
    cycles: float
    completions: int
    #: Completions per cycle over the slice; 0 for an empty slice.
    goodput_per_cycle: float
    #: Tail latency of completions inside the slice; ``None`` when none.
    p99_cycles: Optional[float]
    p50_cycles: Optional[float]


@dataclass(frozen=True)
class ResilienceReport:
    """Incident-aware summary of one fleet run."""

    #: Replica-time-weighted uptime: 1 - down_cycles / (N * horizon).
    availability: float
    #: Union of all incident windows, in cycles.
    incident_cycles: float
    #: Requests destroyed by failures (in-flight on dead boards, queued
    #: under the ``lost`` policy, unroutable arrivals) — fleet total.
    lost_requests: int
    #: Mean outage duration over *recovered* fault incidents; ``None``
    #: when every outage was still open at the end of the run (censored).
    mean_time_to_recover_cycles: Optional[float]
    during: WindowMetrics
    outside: WindowMetrics
    #: Mean lag between a replica truly going bad (outage or gray
    #: onset) and the failure detector ejecting it; ``None`` for oracle
    #: detection (which has no lag) or when nothing was detected.
    mean_time_to_detect_cycles: Optional[float] = omit_default(None)


def _union(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping [start, end) intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _split(
    samples: Sequence[Tuple[float, float]],
    windows: Sequence[Tuple[float, float]],
) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """Split samples into (inside, outside) the sorted disjoint
    ``windows``: only the last window starting at or before a sample's
    time can cover it."""
    starts = [start for start, _ in windows]
    inside: List[Tuple[float, float]] = []
    outside: List[Tuple[float, float]] = []
    for sample in samples:
        k = bisect_right(starts, sample[0]) - 1
        if k >= 0 and sample[0] < windows[k][1]:
            inside.append(sample)
        else:
            outside.append(sample)
    return inside, outside


def _window_metrics(
    samples: Sequence[Tuple[float, float]], cycles: float
) -> WindowMetrics:
    latencies = [latency for _, latency in samples]
    return WindowMetrics(
        cycles=cycles,
        completions=len(samples),
        goodput_per_cycle=len(samples) / cycles if cycles else 0.0,
        p99_cycles=percentile(latencies, 99) if latencies else None,
        p50_cycles=percentile(latencies, 50) if latencies else None,
    )


def compute_resilience(
    *,
    completions: Sequence[Tuple[float, float]],
    incidents: Sequence[Incident],
    horizon_cycles: float,
    num_replicas: int,
    lost_requests: int,
    mean_time_to_detect_cycles: Optional[float] = None,
) -> ResilienceReport:
    """Summarize a run's behaviour inside vs outside its incidents.

    ``completions`` are ``(finish_cycles, latency_cycles)`` samples for
    every completed request fleet-wide; a completion belongs to the
    *during* population when its finish time falls inside the union of
    incident windows — attribution by finish time, because that is when
    the latency was actually paid (a request admitted before an outage
    but finished during one queued through it).

    Availability counts only ``fault`` incidents (replica outages,
    unioned per replica so overlapping schedules are not double-billed);
    surge incidents degrade service but no capacity is down.
    """
    windows = _union(
        [(i.start_cycles, i.end_cycles) for i in incidents]
    )
    incident_cycles = fold_sum([end - start for start, end in windows])

    during, outside = _split(completions, windows)

    faults = [i for i in incidents if i.kind == "fault"]
    # Replicas fold in first-incident order: a fold over a set of names
    # would follow the string hash, and so change with PYTHONHASHSEED.
    spans: Dict[str, List[Tuple[float, float]]] = {}
    for i in faults:
        spans.setdefault(i.target, []).append((i.start_cycles, i.end_cycles))
    down_cycles = fold_sum([
        fold_sum([end - start for start, end in _union(windows_of)])
        for windows_of in spans.values()
    ])
    replica_cycles = num_replicas * horizon_cycles
    availability = (
        1.0 - down_cycles / replica_cycles if replica_cycles else 1.0
    )

    recovered = [i.duration_cycles for i in faults if i.recovered]
    mean_ttr = fold_sum(recovered) / len(recovered) if recovered else None

    return ResilienceReport(
        availability=availability,
        incident_cycles=incident_cycles,
        lost_requests=lost_requests,
        mean_time_to_recover_cycles=mean_ttr,
        during=_window_metrics(during, incident_cycles),
        outside=_window_metrics(
            outside, max(horizon_cycles - incident_cycles, 0.0)
        ),
        mean_time_to_detect_cycles=mean_time_to_detect_cycles,
    )
