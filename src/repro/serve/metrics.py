"""Per-tenant serving metrics and the :class:`ServeResult` record.

The simulator reduces each run to plain, JSON-friendly dataclasses so a
load-test can be pinned in version control next to the design it
exercised (see ``serve_result_to_dict`` in :mod:`repro.core.serialize`).
Latencies are kept in cycles — the design-space currency of the rest of
the repo — with millisecond conversions derived from the run's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..core.serialize import omit_default

if TYPE_CHECKING:  # annotation only; results never construct telemetry
    from ..obs.telemetry import TimeSeries
    from .overload import OverloadReport

__all__ = [
    "fold_sum",
    "percentile",
    "LatencySummary",
    "TenantStats",
    "ServeResult",
]


def fold_sum(values: Sequence[float]) -> float:
    """Left-to-right float sum ``((x0 + x1) + x2) + ...``; 0.0 when empty.

    Recorded means go through this rather than the builtin ``sum``,
    which compensates its rounding error since Python 3.12 and so gives
    different last bits on different interpreters.  ``numpy.cumsum`` is
    a sequential fold (``numpy.sum`` is pairwise).
    """
    folded = np.cumsum(np.asarray(values, dtype=np.float64))
    return float(folded[-1]) if folded.size else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` is in [0, 100]; values need not be sorted.  Raises on empty
    input — callers decide how to represent "no completions".
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class LatencySummary:
    """Request latency distribution of one tenant, in cycles."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    min: float
    max: float

    @classmethod
    def of(cls, latencies: Sequence[float]) -> Optional["LatencySummary"]:
        """Summarize a list or float64 array of latencies (``None`` if empty)."""
        values = np.asarray(latencies, dtype=np.float64)
        n = int(values.size)
        if n == 0:
            return None
        # One sort serves every percentile; nearest-rank selection on
        # the sorted copy returns the exact elements ``percentile`` would.
        ordered = np.sort(values)
        return cls(
            count=n,
            mean=fold_sum(values) / n,
            p50=float(ordered[max(1, -(-n * 50 // 100)) - 1]),
            p95=float(ordered[max(1, -(-n * 95 // 100)) - 1]),
            p99=float(ordered[max(1, -(-n * 99 // 100)) - 1]),
            min=float(ordered[0]),
            max=float(ordered[-1]),
        )


@dataclass(frozen=True)
class TenantStats:
    """One tenant's (network's) view of a traffic simulation."""

    name: str
    offered_rate_per_cycle: float
    arrivals: int
    completions: int
    drops: int
    in_flight: int
    latency: Optional[LatencySummary]
    mean_queue_depth: float
    peak_queue_depth: int
    #: (completions - 1) / (last - first completion time): the epoch-rate
    #: the accelerator actually sustained, independent of warm-up and
    #: horizon truncation.  ``None`` below two completions.
    steady_rate_per_cycle: Optional[float]
    #: Requests destroyed by replica failures (in-flight work on a board
    #: that died, queued requests under the ``lost`` failure policy, and
    #: arrivals with no healthy replica to route to).  Always 0 for
    #: single-device runs and fault-free fleets — drops are back-pressure,
    #: losses are incidents, and the two are budgeted separately.
    lost: int = 0
    #: Arrivals turned away by admission control (token bucket,
    #: queue-deadline admission, or a brownout gate) before queueing.
    #: Distinct from ``drops`` (back-pressure) and ``lost`` (failures):
    #: rejections are deliberate, cheap, and happen at the front door.
    rejected: int = omit_default(0)
    #: Queued requests shed at dispatch because their deadline passed
    #: while waiting (``edf``/``priority`` disciplines only — FIFO
    #: serves them late instead).
    expired: int = omit_default(0)
    #: Arrivals that were client retries (attempt > 1) of earlier
    #: rejected/dropped/expired/lost requests.  Subset of ``arrivals``.
    retries: int = omit_default(0)
    #: Arrivals that were hedge duplicates of still-queued requests.
    hedges: int = omit_default(0)
    #: Completions whose latency exceeded the tenant's deadline — served,
    #: but not goodput.  Always 0 without a deadline.
    late: int = omit_default(0)
    #: The tenant's scheduling priority class (higher = more important);
    #: 0 unless overload control assigned one.
    priority: int = omit_default(0)
    #: Requests whose timeout expired with the failover budget spent —
    #: the request was abandoned unserved.  Always 0 unless a
    #: :class:`~repro.fleet.detector.DetectorSpec` armed
    #: ``request_timeout_ms``.
    timed_out: int = omit_default(0)
    #: Logical requests that failed over to another replica at least
    #: once (after a timeout or a flaky-replica error).  Counted once
    #: per request regardless of how many hops it took; informational —
    #: not a term of the conservation invariant.
    failed_over: int = omit_default(0)

    @property
    def drop_rate(self) -> float:
        return self.drops / self.arrivals if self.arrivals else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals not served: drops, losses, rejections,
        in-queue expiries, and timeouts.

        This is the rate an SLO drop budget must cover — a client retries
        a request lost to a dead board exactly like one shed by a full
        queue or turned away at admission, so
        :func:`repro.serve.slo.evaluate_slo` charges all of them against
        ``max_drop_rate``."""
        if not self.arrivals:
            return 0.0
        shed = (
            self.drops + self.lost + self.rejected + self.expired
            + self.timed_out
        )
        return shed / self.arrivals

    @property
    def good_completions(self) -> int:
        """Completions within deadline (all of them when no deadline)."""
        return self.completions - self.late

    def completed_rate_per_cycle(self, window_cycles: float) -> float:
        """Completions per cycle over an observation window.

        Pass the *horizon* (offered-traffic window), not the drained
        elapsed time: a drained run's tail has no arrivals, and dividing
        by it would under-report designs with deep pipelines."""
        return self.completions / window_cycles if window_cycles else 0.0


@dataclass(frozen=True)
class ServeResult:
    """Everything one seeded multi-tenant traffic simulation produced.

    ``clp_busy_fraction`` is each CLP's busy time share: admitted images
    charge the CLP its modelled per-image cycles, so at saturation the
    epoch-limiting CLP approaches 1.0 and the others approach their
    Section 4.1 duty factor (``clp.total_cycles / epoch_cycles``).
    """

    design_label: str
    num_clps: int
    epoch_cycles: float
    pipeline_depths: Tuple[int, ...]  # per tenant, in epochs
    frequency_mhz: float
    horizon_cycles: float
    elapsed_cycles: float
    seed: int
    queue_depth: int
    policy: str
    drained: bool
    tenants: Tuple[TenantStats, ...]
    clp_busy_fraction: Tuple[float, ...]
    #: Windowed telemetry (:class:`repro.obs.TimeSeries`), present only
    #: when the run was observed (``ObsSpec(timeseries=True)``).  ``None``
    #: by default so unobserved results stay byte-identical to pre-obs
    #: records; fast-engine runs legitimately report ``None`` too.
    timeseries: Optional["TimeSeries"] = omit_default(None)
    #: Overload-control report (:class:`repro.serve.overload
    #: .OverloadReport`): per-priority windowed goodput and brownout
    #: shedding.  ``None`` whenever no overload feature was active, so
    #: plain runs stay byte-identical to pre-overload records.
    overload: Optional["OverloadReport"] = omit_default(None)

    # ------------------------------------------------------------ conversions
    @property
    def cycles_per_second(self) -> float:
        return self.frequency_mhz * 1e6

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / self.cycles_per_second * 1e3

    def rate_to_rps(self, rate_per_cycle: float) -> float:
        return rate_per_cycle * self.cycles_per_second

    @property
    def capacity_rps(self) -> float:
        """One image per tenant per epoch: the analytic service ceiling."""
        return self.cycles_per_second / self.epoch_cycles

    # ----------------------------------------------------------------- access
    def tenant(self, name: str) -> TenantStats:
        for stats in self.tenants:
            if stats.name == name:
                return stats
        raise KeyError(
            f"no tenant {name!r}; tenants: {[t.name for t in self.tenants]}"
        )

    @property
    def total_arrivals(self) -> int:
        return sum(t.arrivals for t in self.tenants)

    @property
    def total_completions(self) -> int:
        return sum(t.completions for t in self.tenants)

    # ----------------------------------------------------------------- report
    def format(self) -> str:
        from ..analysis.report import render_table

        # Overload columns appear only when the run produced the class
        # (mirrors the fleet table's conditional ``lost`` column).
        show_rejected = any(t.rejected for t in self.tenants)
        show_expired = any(t.expired for t in self.tenants)
        rows = []
        for t in self.tenants:
            if t.latency is None:
                p50 = p95 = p99 = "-"
            else:
                p50 = f"{self.cycles_to_ms(t.latency.p50):.2f}"
                p95 = f"{self.cycles_to_ms(t.latency.p95):.2f}"
                p99 = f"{self.cycles_to_ms(t.latency.p99):.2f}"
            row = [
                t.name,
                f"{self.rate_to_rps(t.offered_rate_per_cycle):.0f}",
                t.arrivals,
                t.completions,
                f"{self.rate_to_rps(t.completed_rate_per_cycle(self.horizon_cycles)):.1f}",
                p50,
                p95,
                p99,
                f"{t.drop_rate:.1%}",
                f"{t.mean_queue_depth:.1f}",
            ]
            if show_rejected:
                row.append(t.rejected)
            if show_expired:
                row.append(t.expired)
            rows.append(tuple(row))
        headers = [
            "tenant", "offered r/s", "arrivals", "done", "goodput r/s",
            "p50 ms", "p95 ms", "p99 ms", "drop", "avg queue",
        ]
        if show_rejected:
            headers.append("rejected")
        if show_expired:
            headers.append("expired")
        table = render_table(
            tuple(headers),
            rows,
            title=(
                f"{self.design_label}: {self.num_clps} CLPs @ "
                f"{self.frequency_mhz:.0f}MHz, epoch={self.epoch_cycles:.0f} "
                f"cycles, capacity={self.capacity_rps:.1f} img/s/tenant, "
                f"seed={self.seed}"
            ),
        )
        busy = ", ".join(
            f"CLP{i}={share:.1%}" for i, share in enumerate(self.clp_busy_fraction)
        )
        window = (
            f"simulated {self.cycles_to_ms(self.elapsed_cycles):.1f} ms "
            f"({self.elapsed_cycles:.0f} cycles)"
            + (", drained" if self.drained else "")
        )
        return f"{table}\nCLP utilization: {busy}\n{window}"
