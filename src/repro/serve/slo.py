"""Service-level objectives over traffic-simulation results.

A design that wins on raw epoch throughput can still be the wrong
accelerator for a workload: under bursty traffic a deeper pipeline
(Section 4.1's general schedule) pays its latency back in queueing
delay, and a tight BRAM design may drop requests a slightly slower
design would absorb.  An :class:`SLOSpec` captures the operator's
contract — tail latency, drop budget, throughput floor — and
:func:`evaluate_slo` scores a :class:`~repro.serve.metrics.ServeResult`
against it, giving design-space sweeps (``repro dse rank``) an
SLO-attainment objective instead of steady-state throughput alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.serialize import omit_default
from .metrics import ServeResult

__all__ = ["SLOSpec", "TenantVerdict", "SLOReport", "evaluate_slo"]


@dataclass(frozen=True)
class SLOSpec:
    """Per-tenant serving contract; ``None`` disables a clause.

    ``deadline_ms`` makes the contract deadline-aware: completions later
    than the deadline are charged against the drop budget alongside
    drops and losses (a response past its deadline is as good as no
    response), and the capacity planner and every DSE ranking stamp the
    deadline onto the tenants they synthesise, so late completions are
    counted and overload runs can shed expired work.
    ``min_goodput_rps`` floors the *good* completion rate — completions
    minus late ones — which is the honest throughput clause under
    overload.  Both default off, so existing specs behave identically.
    """

    p99_ms: Optional[float] = None
    max_drop_rate: float = 0.0
    min_throughput_rps: Optional[float] = None
    deadline_ms: Optional[float] = omit_default(None)
    min_goodput_rps: Optional[float] = omit_default(None)

    def __post_init__(self) -> None:
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise ValueError("p99_ms must be positive when set")
        if not 0 <= self.max_drop_rate <= 1:
            raise ValueError("max_drop_rate must be a fraction in [0, 1]")
        if self.min_throughput_rps is not None and self.min_throughput_rps <= 0:
            raise ValueError("min_throughput_rps must be positive when set")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.min_goodput_rps is not None and self.min_goodput_rps <= 0:
            raise ValueError("min_goodput_rps must be positive when set")


@dataclass(frozen=True)
class TenantVerdict:
    """One tenant's measurements against each SLO clause.

    ``drop_rate`` holds the tenant's **shed** rate — queue drops *plus*
    requests lost to replica failures — because that is what the drop
    budget is charged against (see :func:`evaluate_slo`).  The
    :attr:`shed_rate` alias names it honestly; the original field name
    is kept for stored-result compatibility.
    """

    name: str
    meets: bool
    p99_ms: Optional[float]
    drop_rate: float
    throughput_rps: float
    violations: Tuple[str, ...]
    #: Deadline-aware completion rate: (completions - late) / horizon.
    #: Equals ``throughput_rps`` whenever nothing finished late, so
    #: pre-overload verdicts are unchanged by the added field.
    goodput_rps: float = 0.0
    #: Priority class of the tenant (0 unless overload assigns one).
    priority: int = 0

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals not served (drops + fault losses)."""
        return self.drop_rate


@dataclass(frozen=True)
class SLOReport:
    """SLO attainment of one traffic simulation."""

    meets: bool
    attainment: float  # fraction of tenants meeting every clause
    tenants: Tuple[TenantVerdict, ...]

    @property
    def worst_p99_ms(self) -> Optional[float]:
        values = [t.p99_ms for t in self.tenants if t.p99_ms is not None]
        return max(values) if values else None

    @property
    def worst_shed_rate(self) -> float:
        """Highest per-tenant shed rate (queue drops plus fault losses)."""
        return max((t.drop_rate for t in self.tenants), default=0.0)

    @property
    def total_goodput_rps(self) -> float:
        """Summed deadline-aware goodput (r/s): late completions excluded."""
        return sum(t.goodput_rps for t in self.tenants)

    @property
    def goodput_by_priority(self) -> Tuple[Tuple[int, float], ...]:
        """Deadline-aware goodput (r/s) per priority class, ascending.

        Under brownout the question is not "did the fleet keep up" but
        "did the *protected* classes keep up while lower ones were
        shed" — this is the per-class view that answers it.
        """
        totals: dict = {}
        for t in self.tenants:
            totals[t.priority] = totals.get(t.priority, 0.0) + t.goodput_rps
        return tuple(sorted(totals.items()))


def evaluate_slo(result: ServeResult, slo: SLOSpec) -> SLOReport:
    """Check every tenant of ``result`` against ``slo``.

    A tenant with arrivals but no completions fails any latency or
    throughput clause outright (its tail latency is effectively
    unbounded); a tenant that saw no traffic at all trivially passes.

    ``result`` may equally be a :class:`~repro.fleet.metrics.FleetResult`
    — it exposes the same per-tenant stats and clock conversions, with
    tail latencies taken over the merged cross-replica samples — which
    is how the capacity planner scores whole fleets against one spec.
    """
    verdicts: List[TenantVerdict] = []
    for tenant in result.tenants:
        violations: List[str] = []
        p99_ms = (
            result.cycles_to_ms(tenant.latency.p99)
            if tenant.latency is not None
            else None
        )
        # Rate over the offered window (horizon): a drained run's tail
        # has no arrivals and must not deflate the measured throughput.
        throughput = result.rate_to_rps(
            tenant.completed_rate_per_cycle(result.horizon_cycles)
        )
        late = getattr(tenant, "late", 0)
        goodput = result.rate_to_rps(
            max(tenant.completions - late, 0) / result.horizon_cycles
        )
        saw_traffic = tenant.arrivals > 0
        if slo.p99_ms is not None and saw_traffic:
            if p99_ms is None:
                violations.append("p99: no completions")
            elif p99_ms > slo.p99_ms:
                violations.append(
                    f"p99 {p99_ms:.2f}ms > {slo.p99_ms:.2f}ms"
                )
        # The drop budget covers every unserved arrival: queue drops plus
        # requests lost to replica failures (fault scenarios) — a client
        # retries both the same way.  shed_rate == drop_rate when lost=0,
        # so fault-free behaviour is unchanged.  With a deadline clause,
        # *late* completions join the charge: a response past its
        # deadline is no more useful to the client than a dropped one.
        charged = tenant.shed_rate
        if slo.deadline_ms is not None and saw_traffic:
            charged += late / tenant.arrivals
        if charged > slo.max_drop_rate:
            violations.append(
                f"drops {charged:.1%} > {slo.max_drop_rate:.1%}"
            )
        if slo.min_throughput_rps is not None and saw_traffic:
            if throughput < slo.min_throughput_rps:
                violations.append(
                    f"throughput {throughput:.1f} < "
                    f"{slo.min_throughput_rps:.1f} r/s"
                )
        if slo.min_goodput_rps is not None and saw_traffic:
            if goodput < slo.min_goodput_rps:
                violations.append(
                    f"goodput {goodput:.1f} < "
                    f"{slo.min_goodput_rps:.1f} r/s"
                )
        verdicts.append(
            TenantVerdict(
                name=tenant.name,
                meets=not violations,
                p99_ms=p99_ms,
                drop_rate=charged,
                throughput_rps=throughput,
                violations=tuple(violations),
                goodput_rps=goodput,
                priority=getattr(tenant, "priority", 0),
            )
        )
    met = sum(1 for v in verdicts if v.meets)
    return SLOReport(
        meets=met == len(verdicts),
        attainment=met / len(verdicts) if verdicts else 1.0,
        tenants=tuple(verdicts),
    )
