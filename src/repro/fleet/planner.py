"""Capacity planning and reactive autoscaling over the cluster simulator.

Two ways to answer "how many boards?":

* :func:`plan_capacity` — offline: binary-search the minimum replica
  count whose simulated fleet meets an :class:`~repro.serve.slo.SLOSpec`
  at a target arrival rate.  Every probe is a full seeded fleet
  simulation (drained, horizon floored at a few pipeline latencies), so
  the plan accounts for queueing and tail latency, not just the analytic
  throughput ceiling.
* :func:`autoscale` — online: a reactive controller stepped *between*
  simulation windows.  Each window is one seeded fleet run at the
  current replica count; the controller then compares the observed p99
  and mean queue depth against its thresholds and scales up or down for
  the next window.  A rate schedule makes ramps and spikes expressible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from ..obs.telemetry import TimeSeries
    from ..obs.trace import TraceRecorder
    from ..serve.overload import OverloadSpec

from ..scenario.library import ScenarioSpec, get_scenario
from ..serve.arrivals import make_arrival_process, rate_per_cycle
from ..serve.simulator import TenantSpec, floor_window_cycles
from ..serve.slo import SLOReport, SLOSpec, evaluate_slo
from .balancer import Balancer
from .cluster import ClusterSimulator
from .detector import DetectorSpec
from .device import DeviceSpec
from .metrics import FleetResult

__all__ = [
    "PlanProbe",
    "CapacityPlan",
    "plan_capacity",
    "AutoscalerPolicy",
    "AutoscaleWindow",
    "AutoscaleTrace",
    "autoscale",
]


def _fleet_tenants(
    device: DeviceSpec,
    rate_rps: float,
    cycles_per_second: float,
    deadline_ms: Optional[float] = None,
    process: str = "poisson",
) -> List[TenantSpec]:
    """One ``process`` tenant per network of ``device`` at ``rate_rps``."""
    rate = rate_per_cycle(rate_rps, cycles_per_second)
    return [
        TenantSpec(
            name,
            make_arrival_process(process, rate),
            deadline_ms=deadline_ms,
        )
        for name in device.networks
    ]


@dataclass(frozen=True)
class PlanProbe:
    """One evaluated replica count during the capacity search."""

    replicas: int
    meets: bool
    p99_ms: Optional[float]
    drop_rate: float
    goodput_rps: float


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of a minimum-replica search against an SLO."""

    rate_rps: float
    slo: SLOSpec
    replicas: Optional[int]  # minimum meeting count; None if unmet at cap
    max_replicas: int
    probes: Tuple[PlanProbe, ...]
    result: Optional[FleetResult]  # the fleet at the planned count
    report: Optional[SLOReport]
    #: Scenario the probes ran under (after any redundancy overlay);
    #: ``None`` for a plain fault-free plan.  Defaults keep pre-scenario
    #: plans comparing equal.
    scenario: Optional[str] = None
    #: Extra replica failures the plan was forced to survive (N+k).
    redundancy: int = 0

    @property
    def meets(self) -> bool:
        return self.replicas is not None

    def format(self) -> str:
        from ..analysis.report import render_table

        rows = [
            (
                probe.replicas,
                "-" if probe.p99_ms is None else f"{probe.p99_ms:.2f}",
                f"{probe.drop_rate:.1%}",
                f"{probe.goodput_rps:.1f}",
                "yes" if probe.meets else "NO",
            )
            for probe in self.probes
        ]
        verdict = (
            f"minimum fleet: {self.replicas} replica(s)"
            if self.meets
            else f"SLO not met within {self.max_replicas} replicas"
        )
        stress = ""
        if self.scenario is not None:
            stress = f" under {self.scenario}"
        table = render_table(
            ("replicas", "p99 ms", "drop", "goodput r/s", "meets SLO"),
            rows,
            title=(
                f"capacity plan @ {self.rate_rps:g} r/s per tenant"
                f"{stress} -- {verdict}"
            ),
        )
        if self.result is not None and self.result.resilience is not None:
            table += "\n" + self.result._format_resilience()
        return table


def plan_capacity(
    device: DeviceSpec,
    rate_rps: float,
    slo: SLOSpec,
    *,
    tenants: Optional[Sequence[TenantSpec]] = None,
    max_replicas: int = 64,
    duration_ms: float = 100.0,
    seed: int = 0,
    balancer: Union[str, Balancer, None] = "least-outstanding",
    queue_depth: int = 64,
    policy: str = "drop-tail",
    frequency_mhz: float = 100.0,
    scenario: Union[str, ScenarioSpec, None] = None,
    redundancy: int = 0,
    engine: str = "auto",
    overload: Optional["OverloadSpec"] = None,
    detector: Optional[DetectorSpec] = None,
) -> CapacityPlan:
    """Minimum replicas of ``device`` meeting ``slo`` at ``rate_rps``.

    ``rate_rps`` is the offered rate *per tenant* (matching the
    ``repro serve --rate`` convention); pass explicit ``tenants`` for a
    non-uniform mix.  The search doubles the fleet until the SLO is met
    (or ``max_replicas`` is hit), then binary-searches the gap — probing
    O(log n) counts, each one seeded, drained fleet simulation.

    ``scenario`` makes every probe run a failure/surge drill (see
    :mod:`repro.scenario`), so the plan answers "how many boards survive
    a rack loss at the daily peak?" rather than the fair-weather
    question.  ``detector`` runs every probe under that failure
    detector (see :mod:`repro.fleet.detector`), so a gray-fault drill
    is planned against *detected* health — including detection lag,
    request timeouts, and failover — rather than oracle knowledge.
    ``redundancy=k`` additionally forces the *last* ``k``
    replicas down over the worst window of each probe (N+k planning);
    the search then starts at ``k + 1`` boards, since a fleet of ``k``
    can be wiped out entirely.  Note a fault scenario makes a strict
    ``max_drop_rate=0`` unattainable — work in flight on a dying board
    is always lost — so plan drills with a small positive drop budget
    and let the latency clause bind.

    The bisection is sound only for *load-spreading* policies, where a
    bigger fleet gives every tenant more admission slots and SLO
    attainment is monotone in the replica count.  ``tenant-affinity``
    breaks that premise twice over — a pinned tenant gains nothing from
    added boards, and the CRC-32 pin (``digest % n``) moves
    non-monotonically as ``n`` grows — so it is rejected here rather
    than silently producing a non-minimal (or falsely "unmet") plan.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if max_replicas < 1:
        raise ValueError("max_replicas must be at least 1")
    if redundancy < 0:
        raise ValueError("redundancy must be >= 0")
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if redundancy > 0:
        base = scenario if scenario is not None else get_scenario("steady")
        scenario = base.with_redundancy(redundancy)
    if redundancy >= max_replicas:
        raise ValueError(
            f"redundancy {redundancy} leaves no surviving replica within "
            f"max_replicas {max_replicas}"
        )
    balancer_name = (
        balancer if isinstance(balancer, str)
        else balancer.name if balancer is not None
        else "round-robin"
    )
    if balancer_name == "tenant-affinity":
        raise ValueError(
            "tenant-affinity pins each tenant to one board, so capacity "
            "is not monotone in the replica count and the minimum-fleet "
            "search is meaningless; plan with a load-spreading balancer "
            "(e.g. least-outstanding) instead"
        )
    cycles_per_second = frequency_mhz * 1e6
    if tenants is None:
        tenants = _fleet_tenants(
            device, rate_rps, cycles_per_second, deadline_ms=slo.deadline_ms
        )
    duration_cycles = floor_window_cycles(
        duration_ms * 1e-3 * cycles_per_second, device.design, device.bytes_per_cycle
    )

    evaluations: dict = {}

    def evaluate(count: int) -> Tuple[FleetResult, SLOReport]:
        if count not in evaluations:
            cluster = ClusterSimulator(
                device.replicated(count),
                tenants,
                balancer=balancer,
                frequency_mhz=frequency_mhz,
                queue_depth=queue_depth,
                policy=policy,
            )
            result = cluster.run(
                duration_cycles,
                seed=seed,
                drain=True,
                scenario=scenario,
                engine=engine,
                overload=overload,
                detector=detector,
            )
            evaluations[count] = (result, evaluate_slo(result, slo))
        return evaluations[count]

    # Exponential probe for an upper bound, then bisect the gap.  With
    # redundancy k the floor is k+1 boards (k of them will be failed).
    floor = redundancy + 1
    count = floor
    while not evaluate(count)[1].meets and count < max_replicas:
        count = min(count * 2, max_replicas)
    if not evaluate(count)[1].meets:
        planned: Optional[int] = None
    else:
        low = max(count // 2 + 1, floor) if count > floor else floor
        high = count
        while low < high:
            mid = (low + high) // 2
            if evaluate(mid)[1].meets:
                high = mid
            else:
                low = mid + 1
        planned = high

    probes = tuple(
        PlanProbe(
            replicas=n,
            meets=report.meets,
            p99_ms=report.worst_p99_ms,
            drop_rate=report.worst_shed_rate,
            goodput_rps=report.total_goodput_rps,
        )
        for n, (result, report) in sorted(evaluations.items())
    )
    final = evaluations.get(planned) if planned is not None else None
    return CapacityPlan(
        rate_rps=rate_rps,
        slo=slo,
        replicas=planned,
        max_replicas=max_replicas,
        probes=probes,
        result=final[0] if final else None,
        report=final[1] if final else None,
        scenario=scenario.name if scenario is not None else None,
        redundancy=redundancy,
    )


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Reactive thresholds: scale up on pressure, down on slack.

    The controller scales *up* by ``step`` when the observed fleet p99
    exceeds ``p99_high_ms`` or the mean queued requests per replica
    exceed ``queue_high`` (a window with arrivals but no completions
    counts as unbounded p99).  It scales *down* when every configured
    low-water clause holds (p99 below ``p99_low_ms``, queue below
    ``queue_low``).  ``None`` disables a clause; bounds always win.
    """

    min_replicas: int = 1
    max_replicas: int = 16
    step: int = 1
    p99_high_ms: Optional[float] = None
    queue_high: Optional[float] = None
    p99_low_ms: Optional[float] = None
    queue_low: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.step < 1:
            raise ValueError("step must be at least 1")
        if self.p99_high_ms is None and self.queue_high is None:
            raise ValueError(
                "configure at least one scale-up clause "
                "(p99_high_ms or queue_high)"
            )

    # ------------------------------------------------------------- decisions
    def decide(self, result: FleetResult) -> int:
        """Replica delta for the next window (positive = scale up).

        When the window ran a scenario, the pressure signal is the worse
        of the whole-window p99 and the *in-incident* p99 from the
        resilience report.  A short flash crowd can triple latency inside
        its spike yet leave the window-wide percentile under the
        threshold (calm traffic dominates the sample), and a controller
        watching only the aggregate scales up one window late — after
        the spike already burned the SLO.
        """
        p99_ms = self._observed_p99_ms(result)
        resilience = result.resilience
        if (
            p99_ms is not None
            and resilience is not None
            and resilience.during.p99_cycles is not None
        ):
            p99_ms = max(
                p99_ms, result.cycles_to_ms(resilience.during.p99_cycles)
            )
        queue = self._queue_per_replica(result)
        up = False
        if self.p99_high_ms is not None:
            up = up or p99_ms is None or p99_ms > self.p99_high_ms
        if self.queue_high is not None:
            up = up or queue > self.queue_high
        if up:
            return min(self.step, self.max_replicas - result.num_replicas)
        down = True
        if self.p99_low_ms is not None:
            down = down and p99_ms is not None and p99_ms < self.p99_low_ms
        if self.queue_low is not None:
            down = down and queue < self.queue_low
        if (self.p99_low_ms is None and self.queue_low is None) or not down:
            return 0
        return -min(self.step, result.num_replicas - self.min_replicas)

    @staticmethod
    def _observed_p99_ms(result: FleetResult) -> Optional[float]:
        """Worst aggregate tenant p99 in ms; None = unbounded (no samples)."""
        worst = None
        for tenant in result.tenants:
            if tenant.latency is None:
                if tenant.arrivals > 0:
                    return None  # saw traffic, completed nothing
                continue
            p99 = result.cycles_to_ms(tenant.latency.p99)
            worst = p99 if worst is None else max(worst, p99)
        return 0.0 if worst is None else worst

    @staticmethod
    def _queue_per_replica(result: FleetResult) -> float:
        total = sum(t.mean_queue_depth for t in result.tenants)
        return total / result.num_replicas if result.num_replicas else 0.0


@dataclass(frozen=True)
class AutoscaleWindow:
    """One controller step: what it saw and what it did."""

    index: int
    replicas: int
    rate_rps: float
    p99_ms: Optional[float]
    queue_per_replica: float
    drops: int
    completions: int
    action: int  # replica delta applied after this window


@dataclass(frozen=True)
class AutoscaleTrace:
    """The controller's whole trajectory across windows."""

    windows: Tuple[AutoscaleWindow, ...]
    policy: AutoscalerPolicy
    #: Simulated cycles per controller window; lets the trajectory be
    #: re-expressed on the telemetry grid (:meth:`to_timeseries`).
    #: Defaults to ``None`` so pre-obs traces compare equal.
    window_cycles: Optional[float] = None

    def to_timeseries(self) -> "TimeSeries":
        """The trajectory as a :class:`repro.obs.TimeSeries`.

        One telemetry window per controller window, so autoscaler
        decisions render with the same sparkline/report machinery as
        run telemetry.  ``p99_ms`` is ``None`` for windows that saw
        traffic but completed nothing (unbounded latency).
        """
        from ..obs.telemetry import TimeSeries

        width = self.window_cycles if self.window_cycles is not None else 1.0
        times = tuple((index + 1) * width for index in range(len(self.windows)))
        series = {
            "replicas": tuple(float(w.replicas) for w in self.windows),
            "action": tuple(float(w.action) for w in self.windows),
            "rate_rps": tuple(float(w.rate_rps) for w in self.windows),
            "p99_ms": tuple(w.p99_ms for w in self.windows),
            "queue_per_replica": tuple(
                float(w.queue_per_replica) for w in self.windows
            ),
            "drops": tuple(float(w.drops) for w in self.windows),
            "completions": tuple(float(w.completions) for w in self.windows),
        }
        return TimeSeries(window_cycles=width, times=times, series=series)

    @property
    def final_replicas(self) -> int:
        last = self.windows[-1]
        return last.replicas + last.action

    @property
    def peak_replicas(self) -> int:
        return max(window.replicas for window in self.windows)

    def format(self) -> str:
        from ..analysis.report import render_table

        rows = [
            (
                window.index,
                window.replicas,
                f"{window.rate_rps:g}",
                "inf" if window.p99_ms is None else f"{window.p99_ms:.2f}",
                f"{window.queue_per_replica:.1f}",
                window.drops,
                window.completions,
                f"{window.action:+d}" if window.action else "hold",
            )
            for window in self.windows
        ]
        return render_table(
            (
                "window", "replicas", "rate r/s", "p99 ms", "queue/replica",
                "drops", "done", "action",
            ),
            rows,
            title=(
                f"autoscaler trace: {len(self.windows)} windows, "
                f"final fleet {self.final_replicas} replica(s)"
            ),
        )


def autoscale(
    device: DeviceSpec,
    rate_schedule: Sequence[float],
    policy: AutoscalerPolicy,
    *,
    window_ms: float = 50.0,
    initial_replicas: Optional[int] = None,
    seed: int = 0,
    balancer: Union[str, Balancer, None] = "least-outstanding",
    queue_depth: int = 64,
    drop_policy: str = "drop-tail",
    frequency_mhz: float = 100.0,
    scenario: Union[str, ScenarioSpec, None] = None,
    engine: str = "auto",
    trace: Optional["TraceRecorder"] = None,
    overload: Optional["OverloadSpec"] = None,
    detector: Optional[DetectorSpec] = None,
) -> AutoscaleTrace:
    """Step a reactive autoscaler across per-window offered rates.

    ``rate_schedule`` gives the per-tenant offered rate (req/s) of each
    window; the fleet size carries over between windows (queue state
    does not — each window is an independent seeded run, the standard
    fluid approximation for control-loop studies).  Window ``w`` runs at
    seed ``seed + w`` so consecutive windows see fresh randomness while
    the whole trace stays reproducible.

    ``scenario`` replays the drill inside *every* window (the window is
    the scenario's horizon): a flash-crowd scenario spikes each window,
    a rack-loss scenario fails boards each window — sustained incident
    pressure, the hostile environment for threshold tuning.  Because
    :meth:`AutoscalerPolicy.decide` reads each window's resilience
    report, the controller reacts to in-incident degradation rather
    than only the window-wide aggregate.

    ``detector`` runs every window under that failure detector, so the
    controller's p99/queue signals reflect detection lag and failover
    rather than oracle health.

    ``trace`` (a :class:`repro.obs.TraceRecorder`) records every scale
    step as an instant event on the autoscaler track, timestamped at
    the end of the window that triggered it.
    """
    if not rate_schedule:
        raise ValueError("rate_schedule must name at least one window")
    replicas = (
        policy.min_replicas if initial_replicas is None else initial_replicas
    )
    if not policy.min_replicas <= replicas <= policy.max_replicas:
        raise ValueError(
            f"initial_replicas {replicas} outside "
            f"[{policy.min_replicas}, {policy.max_replicas}]"
        )
    cycles_per_second = frequency_mhz * 1e6
    duration_cycles = floor_window_cycles(
        window_ms * 1e-3 * cycles_per_second, device.design, device.bytes_per_cycle
    )
    windows: List[AutoscaleWindow] = []
    for index, rate_rps in enumerate(rate_schedule):
        if rate_rps <= 0:
            raise ValueError(f"window {index} rate must be positive")
        tenants = _fleet_tenants(device, rate_rps, cycles_per_second)
        cluster = ClusterSimulator(
            device.replicated(replicas),
            tenants,
            balancer=balancer,
            frequency_mhz=frequency_mhz,
            queue_depth=queue_depth,
            policy=drop_policy,
        )
        result = cluster.run(
            duration_cycles,
            seed=seed + index,
            drain=True,
            scenario=scenario,
            engine=engine,
            overload=overload,
            detector=detector,
        )
        action = policy.decide(result)
        if trace is not None and action != 0:
            trace.scale_step(
                (index + 1) * duration_cycles,
                replicas=replicas + action,
                action=f"{action:+d}",
                reason=f"window {index} @ {rate_rps:g} r/s",
            )
        windows.append(
            AutoscaleWindow(
                index=index,
                replicas=replicas,
                rate_rps=rate_rps,
                p99_ms=AutoscalerPolicy._observed_p99_ms(result),
                queue_per_replica=AutoscalerPolicy._queue_per_replica(result),
                drops=result.total_drops,
                completions=result.total_completions,
                action=action,
            )
        )
        replicas += action
    return AutoscaleTrace(
        windows=tuple(windows),
        policy=policy,
        window_cycles=duration_cycles,
    )
