"""Fleet-level metrics: per-replica and aggregate serving statistics.

A cluster run reduces to the same JSON-friendly shape as a single-device
run (:class:`~repro.serve.metrics.ServeResult`), twice over: once per
replica (:class:`ReplicaStats`, each holding the familiar per-tenant
:class:`~repro.serve.metrics.TenantStats`) and once fleet-wide, where
per-tenant latencies are merged across replicas *before* the percentile
reduction — so the aggregate p99 is the p99 a client would actually
observe, not an average of per-board p99s.  A one-replica fleet's
aggregate tenants are therefore identical to the ``ServeResult`` of the
same seeded run, which the differential tests pin exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # annotation only; results never construct telemetry
    from ..obs.telemetry import TimeSeries
    from ..serve.overload import OverloadReport
    from .detector import DetectorSpec

from ..core.serialize import omit_default
from ..scenario.faults import Incident
from ..scenario.resilience import ResilienceReport, WindowMetrics
from ..serve.metrics import TenantStats

__all__ = ["ReplicaStats", "FleetResult"]


@dataclass(frozen=True)
class ReplicaStats:
    """One board's view of a fleet simulation."""

    label: str
    part: Optional[str]
    epoch_cycles: float
    pipeline_depths: Tuple[int, ...]  # per served tenant, in epochs
    tenants: Tuple[TenantStats, ...]
    clp_busy_fraction: Tuple[float, ...]

    @property
    def utilization(self) -> float:
        """Busy share of the epoch-limiting CLP (the board's duty factor)."""
        return max(self.clp_busy_fraction, default=0.0)

    @property
    def arrivals(self) -> int:
        """Requests routed to this replica (including ones it dropped)."""
        return sum(t.arrivals for t in self.tenants)

    @property
    def completions(self) -> int:
        return sum(t.completions for t in self.tenants)

    @property
    def drops(self) -> int:
        return sum(t.drops for t in self.tenants)

    def tenant(self, name: str) -> TenantStats:
        for stats in self.tenants:
            if stats.name == name:
                return stats
        raise KeyError(
            f"replica {self.label} serves {[t.name for t in self.tenants]}, "
            f"not {name!r}"
        )


@dataclass(frozen=True)
class FleetResult:
    """Everything one seeded cluster simulation produced.

    ``tenants`` are the fleet-wide aggregates (latency percentiles over
    the merged per-replica samples; arrivals/completions/drops summed;
    queue depth summed — the expected number of requests waiting
    anywhere in the fleet); ``replicas`` keep the per-board breakdown
    the imbalance metrics come from.  The conversion helpers mirror
    :class:`~repro.serve.metrics.ServeResult` exactly, so
    :func:`repro.serve.slo.evaluate_slo` scores either shape.
    """

    balancer: str
    num_replicas: int
    frequency_mhz: float
    horizon_cycles: float
    elapsed_cycles: float
    seed: int
    queue_depth: int
    policy: str
    drained: bool
    tenants: Tuple[TenantStats, ...]
    replicas: Tuple[ReplicaStats, ...]
    #: Name of the scenario the run executed, or ``None`` for a plain run.
    #: All three scenario fields default to their empty values so a
    #: scenario-less result is byte-identical to pre-scenario results —
    #: the no-op differential test compares against exactly this.
    scenario: Optional[str] = None
    incidents: Tuple[Incident, ...] = ()
    resilience: Optional[ResilienceReport] = None
    #: Windowed telemetry (:class:`repro.obs.TimeSeries`), present only
    #: when the run was observed; ``None`` keeps unobserved results
    #: byte-identical to pre-obs records (fast-path runs report ``None``).
    timeseries: Optional["TimeSeries"] = omit_default(None)
    #: Overload-control report (per-priority windowed goodput, brownout
    #: shedding); ``None`` whenever no overload feature was active so
    #: plain runs stay byte-identical to pre-overload records.
    overload: Optional["OverloadReport"] = omit_default(None)
    #: The failure-detection spec the run routed with
    #: (:class:`~repro.fleet.detector.DetectorSpec`); recorded only when
    #: it could have mattered (probe mode, request timeouts, or gray
    #: faults present), so detector-free runs stay byte-identical to
    #: pre-detector records.
    detector: Optional["DetectorSpec"] = omit_default(None)

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

    @property
    def total_arrivals(self) -> int:
        return sum(t.arrivals for t in self.tenants)

    @property
    def total_completions(self) -> int:
        return sum(t.completions for t in self.tenants)

    @property
    def total_drops(self) -> int:
        return sum(t.drops for t in self.tenants)

    @property
    def total_lost(self) -> int:
        """Requests destroyed by failures, fleet-wide (see ``TenantStats.lost``)."""
        return sum(t.lost for t in self.tenants)

    @property
    def total_rejected(self) -> int:
        """Arrivals turned away by admission control, fleet-wide."""
        return sum(t.rejected for t in self.tenants)

    @property
    def total_expired(self) -> int:
        """Queued requests shed past-deadline at dispatch, fleet-wide."""
        return sum(t.expired for t in self.tenants)

    @property
    def total_timed_out(self) -> int:
        """Requests abandoned after exhausting timeout failovers, fleet-wide."""
        return sum(t.timed_out for t in self.tenants)

    @property
    def total_failed_over(self) -> int:
        """Logical requests that failed over at least once, fleet-wide."""
        return sum(t.failed_over for t in self.tenants)

    # --------------------------------------------------------------- capacity
    def tenant_capacity_rps(self, name: str) -> float:
        """Admission slots per second the fleet offers one tenant."""
        return sum(
            self.cycles_per_second / replica.epoch_cycles
            for replica in self.replicas
            if any(t.name == name for t in replica.tenants)
        )

    @property
    def capacity_rps(self) -> float:
        """Total admission slots per second across the whole fleet."""
        return sum(
            self.tenant_capacity_rps(tenant.name) for tenant in self.tenants
        )

    # -------------------------------------------------------------- imbalance
    @property
    def utilization_imbalance(self) -> float:
        """Spread (max - min) of replica duty factors; 0 for one board.

        A high value under a supposedly balancing policy means routing
        is concentrating load — the signal the balancer property tests
        and the autoscaler's scale-down guard look at.
        """
        if len(self.replicas) < 2:
            return 0.0
        utilizations = [replica.utilization for replica in self.replicas]
        return max(utilizations) - min(utilizations)

    # ----------------------------------------------------------------- report
    def format(self) -> str:
        from ..analysis.report import render_table

        # The unserved column must show what the SLO layer charges: the
        # *shed* rate (queue drops plus fault losses).  Printing bare
        # ``drop_rate`` let a rack-loss drill report 0.0% while the fleet
        # was losing traffic to dead boards.  A separate ``lost`` column
        # appears whenever failures actually destroyed requests.
        show_lost = self.total_lost > 0
        # Overload columns follow the same rule: present only when the
        # run actually produced the class, so plain reports are stable.
        show_rejected = self.total_rejected > 0
        show_expired = self.total_expired > 0
        show_timed_out = self.total_timed_out > 0
        show_failed_over = self.total_failed_over > 0
        tenant_rows = []
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
                f"{t.shed_rate:.1%}",
            ]
            if show_lost:
                row.append(t.lost)
            if show_rejected:
                row.append(t.rejected)
            if show_expired:
                row.append(t.expired)
            if show_timed_out:
                row.append(t.timed_out)
            if show_failed_over:
                row.append(t.failed_over)
            tenant_rows.append(tuple(row))
        headers = [
            "tenant", "offered r/s", "arrivals", "done", "goodput r/s",
            "p50 ms", "p95 ms", "p99 ms", "shed",
        ]
        if show_lost:
            headers.append("lost")
        if show_rejected:
            headers.append("rejected")
        if show_expired:
            headers.append("expired")
        if show_timed_out:
            headers.append("timed-out")
        if show_failed_over:
            headers.append("failed-over")
        tenant_table = render_table(
            tuple(headers),
            tenant_rows,
            title=(
                f"fleet of {self.num_replicas} replicas, "
                f"balancer={self.balancer}, @{self.frequency_mhz:.0f}MHz, "
                f"capacity={self.capacity_rps:.1f} img/s, seed={self.seed}"
            ),
        )
        replica_rows = []
        for index, replica in enumerate(self.replicas):
            worst = None
            for t in replica.tenants:
                if t.latency is not None:
                    p99 = t.latency.p99
                    worst = p99 if worst is None else max(worst, p99)
            replica_rows.append(
                (
                    index,
                    replica.label,
                    f"{replica.epoch_cycles:.0f}",
                    replica.arrivals,
                    replica.completions,
                    replica.drops,
                    "-" if worst is None else f"{self.cycles_to_ms(worst):.2f}",
                    f"{replica.utilization:.1%}",
                )
            )
        replica_table = render_table(
            (
                "#", "replica", "epoch", "routed", "done", "drops",
                "p99 ms", "util",
            ),
            replica_rows,
            title=(
                f"per-replica breakdown "
                f"(imbalance={self.utilization_imbalance:.1%})"
            ),
        )
        window = (
            f"simulated {self.cycles_to_ms(self.elapsed_cycles):.1f} ms "
            f"({self.elapsed_cycles:.0f} cycles)"
            + (", drained" if self.drained else "")
        )
        report = f"{tenant_table}\n\n{replica_table}\n{window}"
        if self.scenario is not None:
            report += f"\n{self._format_resilience()}"
        if self.overload is not None:
            report += f"\n{self._format_overload()}"
        return report

    def _format_overload(self) -> str:
        o = self.overload
        classes = "  ".join(
            f"p{c.priority}: good={c.good} rejected={c.rejected} "
            f"expired={c.expired} retries={c.retries}"
            for c in o.classes
        )
        line = f"overload: discipline={o.queue_policy}  {classes}"
        if o.brownout_steps:
            line += f"  brownout-steps={o.brownout_steps}"
        return line

    def _format_resilience(self) -> str:
        lines = [
            f"scenario: {self.scenario} "
            f"({len(self.incidents)} incidents, {self.total_lost} requests lost)"
        ]
        r = self.resilience
        if r is not None:
            def p99(window: WindowMetrics) -> str:
                if window.p99_cycles is None:
                    return "-"
                return f"{self.cycles_to_ms(window.p99_cycles):.2f}ms"

            ttr = (
                f"{self.cycles_to_ms(r.mean_time_to_recover_cycles):.2f}ms"
                if r.mean_time_to_recover_cycles is not None
                else "-"
            )
            line = (
                f"  availability={r.availability:.2%}  mean-ttr={ttr}  "
                f"incident window={self.cycles_to_ms(r.incident_cycles):.1f}ms"
            )
            if r.mean_time_to_detect_cycles is not None:
                line += (
                    f"  mean-ttd="
                    f"{self.cycles_to_ms(r.mean_time_to_detect_cycles):.2f}ms"
                )
            lines.append(line)
            lines.append(
                f"  during incidents:  p99={p99(r.during)}  "
                f"goodput={self.rate_to_rps(r.during.goodput_per_cycle):.1f} r/s"
            )
            lines.append(
                f"  outside incidents: p99={p99(r.outside)}  "
                f"goodput={self.rate_to_rps(r.outside.goodput_per_cycle):.1f} r/s"
            )
        return "\n".join(lines)
