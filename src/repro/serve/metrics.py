"""Per-tenant serving metrics and the :class:`ServeResult` record.

The simulator reduces each run to plain, JSON-friendly dataclasses so a
load-test can be pinned in version control next to the design it
exercised (see ``to_record`` in :mod:`repro.core.serialize`).
Latencies are kept in cycles — the design-space currency of the rest of
the repo — with millisecond conversions derived from the run's clock.
A tenant's outcome counters are named once, in :data:`COUNTERS`, and
:class:`RunSummary` holds what serve and fleet results share.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.serialize import omit_default

if TYPE_CHECKING:  # annotation only; results never construct telemetry
    from ..obs.telemetry import TimeSeries
    from .overload import OverloadReport

__all__ = [
    "COUNTERS",
    "SHED",
    "TABLE_COUNTERS",
    "REPORT_COUNTERS",
    "fold_sum",
    "WindowCounts",
    "percentile",
    "LatencySummary",
    "TenantStats",
    "RunSummary",
    "ServeResult",
]

#: A tenant's outcome counters, in :class:`TenantStats` record order:
#: what a fleet sums across its boards and a result totals.
COUNTERS = (
    "arrivals", "completions", "drops", "lost", "rejected", "expired",
    "retries", "hedges", "late", "timed_out", "failed_over",
)
#: The counters of arrivals that were not served: a shed rate's numerator.
SHED = ("drops", "lost", "rejected", "expired", "timed_out")
#: Counters a tenant table shows as a column once any tenant counted one.
TABLE_COUNTERS = ("lost", "rejected", "expired", "timed_out", "failed_over")
#: Counters the cross-run report shows as a column once any run counted one.
REPORT_COUNTERS = ("rejected", "expired")


def fold_sum(values: Sequence[float]) -> float:
    """Left-to-right float sum ``((x0 + x1) + x2) + ...``; 0.0 when empty.

    Recorded means go through this rather than the builtin ``sum``,
    which compensates its rounding error since Python 3.12 and so gives
    different last bits on different interpreters.  ``numpy.cumsum`` is
    a sequential fold (``numpy.sum`` is pairwise).
    """
    folded = np.cumsum(np.asarray(values, dtype=np.float64))
    return float(folded[-1]) if folded.size else 0.0


class WindowCounts:
    """Per-window event counts on a grid of ``num_windows`` windows of
    ``window_cycles`` each, logged as times and binned in batches.

    ``add`` (a bound ``array.append``) logs one event time.
    :meth:`fold` bins the logged times into the totals and clears the
    log: an event at ``t`` counts in window ``min(int(t / window),
    num_windows - 1)``, or window 0 when ``t <= 0``.  Windows include
    their start, and drain tails past the grid clamp to the last
    window.  Counts are sums, so any fold schedule gives the totals
    per-event binning would.
    """

    __slots__ = ("window_cycles", "num_windows", "pending", "add", "_totals")

    def __init__(self, window_cycles: float, num_windows: int) -> None:
        self.window_cycles = float(window_cycles)
        self.num_windows = num_windows
        #: Event times not yet binned.
        self.pending = array("d")
        self.add = self.pending.append
        self._totals = np.zeros(num_windows, dtype=np.int64)

    def fold(self) -> None:
        """Bin the logged times into the totals and clear the log."""
        if not self.pending:
            return
        times = np.frombuffer(self.pending, dtype=np.float64)
        # Clamped before the cast, so no time overflows the int64.
        index = np.minimum(
            times / self.window_cycles, self.num_windows - 1
        ).astype(np.int64)
        # The view pins the log's buffer; drop it before clearing.
        del times
        np.maximum(index, 0, out=index)
        self._totals += np.bincount(index, minlength=self.num_windows)
        del self.pending[:]

    def totals(self) -> List[int]:
        """Events per window, everything logged so far included."""
        self.fold()
        return self._totals.tolist()


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
        return sum(getattr(self, name) for name in SHED) / self.arrivals

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

    def good_rate_per_cycle(self, window_cycles: float) -> float:
        """:meth:`completed_rate_per_cycle` without late completions."""
        return self.good_completions / window_cycles if window_cycles else 0.0


class RunSummary:
    """What a serve and a fleet run result share: clock conversions,
    the tenant ledger's totals, the headline numbers and the tenant
    table.

    Field-less: a subclass is a frozen dataclass with ``frequency_mhz``,
    ``horizon_cycles``, ``elapsed_cycles``, ``drained`` and ``tenants``
    (a tuple of :class:`TenantStats`).
    """

    # ------------------------------------------------------------ conversions
    @property
    def cycles_per_second(self) -> float:
        return self.frequency_mhz * 1e6

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / self.cycles_per_second * 1e3

    def rate_to_rps(self, rate_per_cycle: float) -> float:
        return rate_per_cycle * self.cycles_per_second

    # ----------------------------------------------------------------- access
    def tenant(self, name: str) -> TenantStats:
        for stats in self.tenants:
            if stats.name == name:
                return stats
        raise KeyError(
            f"no tenant {name!r}; tenants: {[t.name for t in self.tenants]}"
        )

    def total(self, counter: str) -> int:
        """One of :data:`COUNTERS` summed over the tenants."""
        if counter not in COUNTERS:
            raise ValueError(
                f"unknown counter {counter!r}; expected one of {COUNTERS}"
            )
        return sum(getattr(t, counter) for t in self.tenants)

    @property
    def total_arrivals(self) -> int:
        return self.total("arrivals")

    @property
    def total_completions(self) -> int:
        return self.total("completions")

    # -------------------------------------------------------------- headlines
    @property
    def worst_p99_ms(self) -> Optional[float]:
        """The highest tenant p99; ``None`` when nothing completed."""
        p99s = [
            self.cycles_to_ms(t.latency.p99)
            for t in self.tenants
            if t.latency is not None
        ]
        return max(p99s) if p99s else None

    @property
    def goodput_rps(self) -> float:
        """Completions within deadline per second of horizon, all tenants."""
        return sum(
            self.rate_to_rps(t.good_rate_per_cycle(self.horizon_cycles))
            for t in self.tenants
        )

    @property
    def shed_rate(self) -> float:
        """Share of all arrivals not served (see ``TenantStats.shed_rate``)."""
        arrivals = self.total_arrivals
        if not arrivals:
            return 0.0
        return sum(self.total(name) for name in SHED) / arrivals

    # ----------------------------------------------------------------- report
    def tenant_table(
        self,
        title: str,
        columns: Sequence[Tuple[str, Callable[[TenantStats], object]]],
    ) -> str:
        """One row per tenant: rates, counts and latency percentiles,
        then ``columns`` (a header and the cell of a tenant each), then
        each of :data:`TABLE_COUNTERS` that some tenant counted."""
        from ..analysis.report import render_table

        counters = [name for name in TABLE_COUNTERS if self.total(name)]
        headers = [
            "tenant", "offered r/s", "arrivals", "done", "goodput r/s",
            "p50 ms", "p95 ms", "p99 ms",
            *(header for header, _ in columns),
            *(name.replace("_", "-") for name in counters),
        ]
        rows = []
        for t in self.tenants:
            if t.latency is None:
                percentiles = ["-"] * 3
            else:
                percentiles = [
                    f"{self.cycles_to_ms(cycles):.2f}"
                    for cycles in (t.latency.p50, t.latency.p95, t.latency.p99)
                ]
            good = t.good_rate_per_cycle(self.horizon_cycles)
            rows.append((
                t.name,
                f"{self.rate_to_rps(t.offered_rate_per_cycle):.0f}",
                t.arrivals,
                t.completions,
                f"{self.rate_to_rps(good):.1f}",
                *percentiles,
                *(cell(t) for _, cell in columns),
                *(getattr(t, name) for name in counters),
            ))
        return render_table(headers, rows, title=title)

    def window_line(self) -> str:
        """How long the run simulated, and whether it drained."""
        return (
            f"simulated {self.cycles_to_ms(self.elapsed_cycles):.1f} ms "
            f"({self.elapsed_cycles:.0f} cycles)"
            + (", drained" if self.drained else "")
        )


@dataclass(frozen=True)
class ServeResult(RunSummary):
    """Everything one seeded multi-tenant traffic simulation produced.

    ``clp_busy_fraction`` is each CLP's busy time share: admitted images
    charge the CLP its modelled per-image cycles, so at saturation the
    epoch-limiting CLP approaches 1.0 and the others approach their
    Section 4.1 duty factor (``clp.total_cycles / epoch_cycles``).
    """

    record_kind = "serve run"
    record_schema = 1

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

    @property
    def capacity_rps(self) -> float:
        """One image per tenant per epoch: the analytic service ceiling."""
        return self.cycles_per_second / self.epoch_cycles

    # ----------------------------------------------------------------- report
    def format(self) -> str:
        table = self.tenant_table(
            (
                f"{self.design_label}: {self.num_clps} CLPs @ "
                f"{self.frequency_mhz:.0f}MHz, epoch={self.epoch_cycles:.0f} "
                f"cycles, capacity={self.capacity_rps:.1f} img/s/tenant, "
                f"seed={self.seed}"
            ),
            (
                ("drop", lambda t: f"{t.drop_rate:.1%}"),
                ("avg queue", lambda t: f"{t.mean_queue_depth:.1f}"),
            ),
        )
        busy = ", ".join(
            f"CLP{i}={share:.1%}" for i, share in enumerate(self.clp_busy_fraction)
        )
        return f"{table}\nCLP utilization: {busy}\n{self.window_line()}"
