"""Analysis of sweep results: Pareto frontiers, winners, and tables.

The optimizer answers "what is the best design for THIS budget"; these
helpers answer the questions a sweep exists for — which designs are
Pareto-optimal across the whole space (throughput vs. DSPs, BRAM, or
bandwidth), which configuration wins per network/device group, and what
does the study look like as a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.report import render_table
from .point import METRIC_NAMES, SweepResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..fleet.metrics import FleetResult
    from ..fleet.planner import CapacityPlan
    from ..serve.metrics import ServeResult
    from ..serve.slo import SLOReport, SLOSpec

__all__ = [
    "METRIC_NAMES",
    "pareto_frontier",
    "best_per_group",
    "summary_table",
    "frontier_table",
    "TrafficRanking",
    "rank_by_traffic",
    "traffic_rank_table",
    "CostToServeRanking",
    "rank_by_cost_to_serve",
    "cost_to_serve_table",
    "ResilienceRanking",
    "rank_by_resilience",
    "resilience_rank_table",
]

#: Axes where smaller is better when used as an objective.
_COST_METRICS = {"dsp", "bram", "bandwidth", "epoch_cycles", "num_clps"}


def _check_metric(name: str) -> str:
    if name not in METRIC_NAMES:
        raise ValueError(
            f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}"
        )
    return name


def _objective_values(
    result: SweepResult, maximize: Sequence[str], minimize: Sequence[str]
) -> Tuple[float, ...]:
    """Objectives as a uniform maximize-vector (costs negated)."""
    values = []
    for name, sign in [(n, 1.0) for n in maximize] + [(n, -1.0) for n in minimize]:
        value = result.metric(name)
        if value is None:
            raise ValueError(
                f"result {result.point.key()[:12]} has no metric {name!r}"
                " (corrupt or foreign store record?)"
            )
        values.append(sign * float(value))
    return tuple(values)


def pareto_frontier(
    results: Iterable[SweepResult],
    maximize: Sequence[str] = ("throughput",),
    minimize: Sequence[str] = ("dsp",),
) -> List[SweepResult]:
    """Non-dominated solved points under the given objectives.

    A point is dominated when another is at least as good on every
    objective and strictly better on one.  Infeasible points never make
    the frontier.  The result keeps sweep order.
    """
    for name in (*maximize, *minimize):
        _check_metric(name)
    solved = [r for r in results if r.ok]
    vectors = [_objective_values(r, maximize, minimize) for r in solved]
    frontier: List[SweepResult] = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if j == i:
                continue
            if all(o >= c for o, c in zip(other, candidate)) and other != candidate:
                dominated = True
                break
        if not dominated:
            frontier.append(solved[i])
    return frontier


def best_per_group(
    results: Iterable[SweepResult],
    by: Sequence[str] = ("network", "dtype"),
    key: str = "throughput",
) -> Dict[Tuple, SweepResult]:
    """Highest-``key`` solved point per group of point attributes.

    ``by`` names DesignPoint attributes (e.g. ``("network", "part")``);
    cost metrics like ``dsp`` select the *lowest* value instead.
    """
    _check_metric(key)
    pick_min = key in _COST_METRICS
    winners: Dict[Tuple, SweepResult] = {}
    for result in results:
        if not result.ok:
            continue
        group = tuple(getattr(result.point, attr) for attr in by)
        value = result.metric(key)
        incumbent = winners.get(group)
        if incumbent is None:
            winners[group] = result
            continue
        best = incumbent.metric(key)
        if (value < best) if pick_min else (value > best):
            winners[group] = result
    return winners


_SUMMARY_HEADERS = (
    "network", "budget", "dtype", "mode", "b/w cap", "CLPs",
    "img/s", "util", "DSP", "BRAM", "need GB/s", "status",
)


def _summary_row(result: SweepResult) -> Tuple:
    point = result.point
    cap = f"{point.bandwidth_gbps:g}" if point.bandwidth_gbps else "-"
    if not result.ok:
        return (
            point.network, point.budget_label, point.dtype, point.mode,
            cap, "-", "-", "-", "-", "-", "-",
            f"infeasible: {result.error_type}",
        )
    return (
        point.network,
        point.budget_label,
        point.dtype,
        point.mode,
        cap,
        result.metrics["num_clps"],
        f"{result.metrics['throughput_images_per_s']:.1f}",
        f"{result.metrics['arithmetic_utilization']:.1%}",
        result.metrics["dsp"],
        result.metrics["bram"],
        f"{result.metrics['required_bandwidth_gbps']:.2f}",
        "ok",
    )


def summary_table(
    results: Iterable[SweepResult], title: str = "Design-space sweep"
) -> str:
    """All results as a fixed-width table (sweep order)."""
    return render_table(
        _SUMMARY_HEADERS, [_summary_row(r) for r in results], title=title
    )


def _candidates(
    results: Iterable[SweepResult],
    rate_rps: float,
    slo: "SLOSpec",
    duration_ms: float,
    process: str = "poisson",
):
    """Every solved point rebuilt once for a ranking run.

    Yields ``(result, device, tenants, window_cycles)``: a one-board
    :class:`~repro.fleet.DeviceSpec` at the point's own bandwidth, its
    ``process`` tenants at ``rate_rps`` and the point's own clock with
    ``slo.deadline_ms`` stamped on them (as
    :func:`~repro.fleet.plan_capacity` does), and the ``duration_ms``
    window floored at a few pipeline latencies.
    """
    from ..fleet import DeviceSpec
    from ..fleet.planner import _fleet_tenants
    from ..networks import get_network
    from ..serve import floor_window_cycles

    for result in results:
        if not result.ok:
            continue
        point = result.point
        design = result.design(get_network(point.network))
        bytes_per_cycle = point.budget().bytes_per_cycle()
        device = DeviceSpec(
            design=design, part=point.part, bytes_per_cycle=bytes_per_cycle
        )
        cycles_per_second = point.frequency_mhz * 1e6
        tenants = _fleet_tenants(
            device, rate_rps, cycles_per_second, slo.deadline_ms, process
        )
        window_cycles = floor_window_cycles(
            duration_ms * 1e-3 * cycles_per_second, design, bytes_per_cycle
        )
        yield result, device, tenants, window_cycles


def _ranked(rankings: List) -> List:
    """Rankings best first, by each ranking's own ``sort_key``."""
    return sorted(rankings, key=lambda ranking: ranking.sort_key)


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def _ranking_table(rankings: Sequence, columns: Sequence, title: str) -> str:
    """A ranking as a table: rank and point, ``columns``, SLO verdict.

    ``columns`` are ``(header, cell)`` pairs, ``cell`` mapping one
    ranking entry to its rendered value.
    """
    headers = ("#", "network", "budget", "dtype", "mode")
    rows = []
    for rank, entry in enumerate(rankings, start=1):
        point = entry.result.point
        rows.append(
            (rank, point.network, point.budget_label, point.dtype, point.mode)
            + tuple(cell(entry) for _, cell in columns)
            + ("yes" if entry.meets else "NO",)
        )
    return render_table(
        headers + tuple(header for header, _ in columns) + ("meets SLO",),
        rows,
        title=f"{title} -- {len(rankings)} designs",
    )


@dataclass(frozen=True)
class TrafficRanking:
    """One stored design scored under a concrete traffic scenario."""

    result: SweepResult
    serve: "ServeResult"
    report: "SLOReport"

    @property
    def meets(self) -> bool:
        return self.report.meets

    @property
    def sort_key(self) -> Tuple:
        """Meets-SLO first, then attainment, tail latency, and goodput.

        Tail latency outranks goodput: designs that all meet the SLO
        serve (nearly) the whole offered load, so their goodput differs
        only by sampling noise of the drained window, while p99 is the
        real discriminator.  Goodput still breaks p99 ties at overload.
        """
        p99 = self.report.worst_p99_ms
        return (
            0 if self.report.meets else 1,
            -self.report.attainment,
            p99 if p99 is not None else float("inf"),
            -self.report.total_goodput_rps,
        )


def rank_by_traffic(
    results: Iterable[SweepResult],
    rate_rps: float,
    slo: "SLOSpec",
    duration_ms: float = 200.0,
    seed: int = 0,
    process: str = "poisson",
    queue_depth: int = 64,
    policy: str = "drop-tail",
) -> List[TrafficRanking]:
    """Rank solved sweep points by SLO attainment under real traffic.

    This is the "best design for this traffic mix" objective: every
    solved point is rebuilt into a full design, load-tested with a
    seeded ``process`` stream at ``rate_rps``, and scored against
    ``slo`` — so a sweep can pick the accelerator that actually *serves*
    a workload (tail latency, drops) rather than the one with the best
    steady-state epoch throughput.  Points from the same store solved at
    different clocks are simulated at their own ``frequency_mhz``.

    Runs are *drained* and the horizon is floored at a few pipeline
    latencies: a deep general-schedule pipeline (depth = layer count)
    can exceed a short wall-clock window, and a non-drained run would
    then report zero completions for every candidate, collapsing the
    ranking.
    """
    from ..serve import evaluate_slo, simulate_traffic

    rankings = []
    for result, device, tenants, window_cycles in _candidates(
        results, rate_rps, slo, duration_ms, process
    ):
        serve = simulate_traffic(
            device.design,
            tenants,
            duration_cycles=window_cycles,
            frequency_mhz=result.point.frequency_mhz,
            seed=seed,
            queue_depth=queue_depth,
            policy=policy,
            bytes_per_cycle=device.bytes_per_cycle,
            drain=True,
        )
        rankings.append(TrafficRanking(result, serve, evaluate_slo(serve, slo)))
    return _ranked(rankings)


def _slo_clauses(slo: "SLOSpec") -> str:
    """The SLO's active clauses as a ranking title reads them."""
    clauses = []
    if slo.p99_ms is not None:
        clauses.append(f"p99<={slo.p99_ms:g}ms")
    clauses.append(f"drops<={slo.max_drop_rate:.0%}")
    if slo.min_throughput_rps is not None:
        clauses.append(f"goodput>={slo.min_throughput_rps:g}r/s")
    return ", ".join(clauses)


def traffic_rank_table(
    rankings: Sequence[TrafficRanking], rate_rps: float, slo: "SLOSpec"
) -> str:
    """SLO ranking rendered as a table (best design first)."""
    return _ranking_table(
        rankings,
        (
            ("CLPs", lambda entry: entry.serve.num_clps),
            ("goodput r/s", lambda entry: f"{entry.report.total_goodput_rps:.1f}"),
            ("p99 ms", lambda entry: _ms(entry.report.worst_p99_ms)),
            ("shed", lambda entry: f"{entry.report.worst_shed_rate:.1%}"),
        ),
        f"SLO ranking @ {rate_rps:g} r/s ({_slo_clauses(slo)})",
    )


def _board_cost(point) -> float:
    """Relative price of one board for a design point.

    Catalog parts carry explicit cost metadata
    (:attr:`repro.fpga.parts.FpgaPart.cost_weight`); synthetic budgets
    fall back to a DSP-proportional estimate anchored so a 485T-sized
    budget (2,240 DSP at the paper's 80% fraction) weighs 1.0.
    """
    if point.part is not None:
        from ..fpga.parts import get_part

        return get_part(point.part).cost_weight
    return point.dsp / 2240.0


@dataclass(frozen=True)
class CostToServeRanking:
    """One stored design priced out as a fleet meeting an SLO."""

    result: SweepResult
    plan: "CapacityPlan"
    board_cost: float

    @property
    def meets(self) -> bool:
        return self.plan.meets

    @property
    def boards(self) -> Optional[int]:
        return self.plan.replicas

    @property
    def total_cost(self) -> Optional[float]:
        """Boards needed x relative board price; None when SLO unmet."""
        if self.plan.replicas is None:
            return None
        return self.plan.replicas * self.board_cost

    @property
    def p99_ms(self) -> Optional[float]:
        """Tail latency of the planned fleet; None when SLO unmet."""
        return self.plan.report.worst_p99_ms if self.plan.report else None

    @property
    def sort_key(self) -> Tuple:
        """Feasible fleets first, then cheapest, then smallest, then p99.

        Per-board SLO attainment (``rank_by_traffic``) rewards the
        biggest board; cost-to-serve instead asks what the whole service
        costs, so a cheap board that needs two replicas can beat an
        expensive one that needs one.
        """
        cost = self.total_cost
        p99 = self.p99_ms
        return (
            0 if cost is not None else 1,
            cost if cost is not None else float("inf"),
            self.boards if self.boards is not None else float("inf"),
            p99 if p99 is not None else float("inf"),
        )


def rank_by_cost_to_serve(
    results: Iterable[SweepResult],
    rate_rps: float,
    slo: "SLOSpec",
    *,
    max_replicas: int = 32,
    duration_ms: float = 100.0,
    seed: int = 0,
    balancer: str = "least-outstanding",
    queue_depth: int = 64,
    policy: str = "drop-tail",
) -> List["CostToServeRanking"]:
    """Rank solved sweep points by fleet cost to meet an SLO.

    For every solved point the design is rebuilt, capacity-planned via
    :func:`repro.fleet.planner.plan_capacity` (minimum replicas whose
    simulated fleet meets ``slo`` at ``rate_rps``), and priced as
    boards-needed x relative board cost.  This is the provisioning
    objective the fleet layer exists for: not "which single board
    attains the SLO" but "which design serves this workload cheapest at
    scale".  Designs that cannot meet the SLO within ``max_replicas``
    boards sort last (by tail latency).
    """
    from ..fleet import plan_capacity

    rankings = []
    for result, device, tenants, _ in _candidates(
        results, rate_rps, slo, duration_ms
    ):
        plan = plan_capacity(
            device,
            rate_rps,
            slo,
            tenants=tenants,
            max_replicas=max_replicas,
            duration_ms=duration_ms,
            seed=seed,
            balancer=balancer,
            queue_depth=queue_depth,
            policy=policy,
            frequency_mhz=result.point.frequency_mhz,
        )
        rankings.append(
            CostToServeRanking(result, plan, _board_cost(result.point))
        )
    return _ranked(rankings)


def _fleet_cost(entry: CostToServeRanking) -> str:
    if entry.total_cost is not None:
        return f"{entry.total_cost:.2f}"
    return f">{entry.plan.max_replicas * entry.board_cost:.2f}"


def cost_to_serve_table(
    rankings: Sequence["CostToServeRanking"], rate_rps: float, slo: "SLOSpec"
) -> str:
    """Cost-to-serve ranking rendered as a table (cheapest fleet first)."""
    return _ranking_table(
        rankings,
        (
            ("boards", lambda entry: "-" if entry.boards is None else entry.boards),
            ("board cost", lambda entry: f"{entry.board_cost:.2f}"),
            ("fleet cost", _fleet_cost),
            ("p99 ms", lambda entry: _ms(entry.p99_ms)),
        ),
        f"cost-to-serve @ {rate_rps:g} r/s ({_slo_clauses(slo)})",
    )


@dataclass(frozen=True)
class ResilienceRanking:
    """One stored design drilled as a fixed-size fleet under a scenario."""

    result: SweepResult
    fleet: "FleetResult"
    report: "SLOReport"

    @property
    def meets(self) -> bool:
        return self.report.meets

    @property
    def during_p99_ms(self) -> Optional[float]:
        """Tail latency inside the scenario's incident windows."""
        resilience = self.fleet.resilience
        if resilience is None or resilience.during.p99_cycles is None:
            return None
        return self.fleet.cycles_to_ms(resilience.during.p99_cycles)

    @property
    def sort_key(self) -> Tuple:
        """Meets-SLO-through-the-drill first, then in-incident p99,
        then fewest lost requests, then goodput.

        The discriminator is deliberately the *in-incident* tail, not
        the run-wide one: two designs that both survive a rack loss on
        paper can differ 3x in what clients experienced while the rack
        was down, and the run-wide percentile averages that away.
        """
        p99 = self.during_p99_ms
        return (
            0 if self.report.meets else 1,
            -self.report.attainment,
            p99 if p99 is not None else float("inf"),
            self.fleet.total_lost,
            -self.report.total_goodput_rps,
        )


def rank_by_resilience(
    results: Iterable[SweepResult],
    rate_rps: float,
    slo: "SLOSpec",
    *,
    scenario: str = "rack-loss",
    replicas: int = 4,
    duration_ms: float = 100.0,
    seed: int = 0,
    balancer: str = "least-outstanding",
    queue_depth: int = 64,
    policy: str = "drop-tail",
) -> List["ResilienceRanking"]:
    """Rank solved sweep points by SLO attainment *through* a drill.

    Every solved point becomes a ``replicas``-board fleet run under the
    named scenario (same size for all candidates — this ranks designs,
    not fleet budgets) and is scored against ``slo`` over the whole run,
    losses included.  The throughput-per-board winner is not
    automatically the resilience winner: a deeper pipeline holds more
    in-flight work per board, so each board it loses to the drill takes
    more requests down with it and its recovery backlog drains slower.

    Remember that a fault drill puts a floor under the shed rate, so
    rank with ``slo.max_drop_rate`` above that floor (see
    :func:`repro.fleet.plan_capacity`'s note).
    """
    from ..fleet import simulate_fleet
    from ..serve import evaluate_slo

    rankings = []
    for result, device, tenants, window_cycles in _candidates(
        results, rate_rps, slo, duration_ms
    ):
        fleet = simulate_fleet(
            device.replicated(replicas),
            tenants,
            duration_cycles=window_cycles,
            balancer=balancer,
            frequency_mhz=result.point.frequency_mhz,
            seed=seed,
            queue_depth=queue_depth,
            policy=policy,
            drain=True,
            scenario=scenario,
        )
        rankings.append(ResilienceRanking(result, fleet, evaluate_slo(fleet, slo)))
    return _ranked(rankings)


def _availability(entry: ResilienceRanking) -> str:
    resilience = entry.fleet.resilience
    return f"{resilience.availability:.1%}" if resilience else "-"


def resilience_rank_table(
    rankings: Sequence["ResilienceRanking"],
    rate_rps: float,
    slo: "SLOSpec",
    scenario: str,
) -> str:
    """Resilience ranking rendered as a table (most resilient first)."""
    return _ranking_table(
        rankings,
        (
            ("avail", _availability),
            ("incident p99 ms", lambda entry: _ms(entry.during_p99_ms)),
            ("lost", lambda entry: entry.fleet.total_lost),
            ("shed", lambda entry: f"{entry.report.worst_shed_rate:.1%}"),
        ),
        f"resilience ranking under {scenario} @ {rate_rps:g} r/s",
    )


def frontier_table(
    results: Iterable[SweepResult],
    maximize: Sequence[str] = ("throughput",),
    minimize: Sequence[str] = ("dsp",),
) -> str:
    """The Pareto frontier rendered as a table."""
    frontier = pareto_frontier(results, maximize=maximize, minimize=minimize)
    title = (
        f"Pareto frontier: max({', '.join(maximize)}) "
        f"vs min({', '.join(minimize)}) -- {len(frontier)} points"
    )
    return render_table(
        _SUMMARY_HEADERS, [_summary_row(r) for r in frontier], title=title
    )
