"""The cluster simulator: N epoch-pipelined devices, one event engine.

Scale-out layer over :mod:`repro.serve`'s device model: seeded arrival
streams (one per tenant, keyed ``{seed}/{index}/{name}``) are routed by
a pluggable :class:`~repro.fleet.balancer.Balancer` to one of N
replicas, each an independent epoch-pipelined device model with its own
per-tenant bounded FIFO queues, epoch boundary chain, and CLP busy
accounting.  All replicas share one discrete-event engine, so
cross-replica orderings are deterministic under a fixed seed.

This is the repo's only traffic event loop: the single-device
simulator, :func:`repro.serve.simulator.simulate_traffic`, is a
one-replica run of this class reshaped into a ``ServeResult``.  Fleet
answers (how many boards?) therefore extrapolate exactly the device
model a lone board is measured with.

Each :meth:`ClusterSimulator.run` builds one private run-state object,
``_FleetRun``: the run's replicas, overlays and ledgers, with one
method per event kind (arrival, retry or hedge delivery, brownout step,
boundary, completion, fault, gray window, probe, timeout sweep) and
one result builder both engines end in.  Events are scheduled as those
methods plus their arguments
(``sim.schedule_at(when, self.boundary, replica, count, lane=...)``).
The three streams that come in time order ride the engine's FIFO lanes
(:mod:`repro.sim.engine`) instead of its heap: each tenant's arrivals,
the exact ``count * epoch`` boundary grid of each epoch length, and
completions a fixed ``depth * epoch`` after dispatch (a slow or
link-delayed completion takes the heap).  Lanes change what an event
costs, never when it runs.

Every run follows one request lifecycle, owned by the run: each
arrival, retry and hedge is a :class:`~repro.serve.simulator.Request`
that lands, queues, is admitted at an epoch boundary and completes (or
is lost, dropped, rejected, expired, timed out or failed over).
Overlays answer questions on that lifecycle, not second paths; one
that is off is ``None``.  When active, an
:class:`~repro.serve.overload.OverloadController` answers the overload
questions (gate, retry, hedge, brownout step) and the run schedules
and books what follows; a
:class:`~repro.fleet.detector.FailureDetector` decides which replicas
are routable; gray failures set each replica's ``slow_factor``,
``error_rate`` and ``link_delay_epochs``, which every dispatch reads.
Every lifecycle, incident and detector event is reported once, to the
run's observer (:mod:`repro.obs.observer`), whether or not the run is
observed: an unobserved run's observer does nothing, and what an
observed run counts, traces and samples is defined there, not here.
Scenarios, active overload control, active detectors, observation
(``obs``) and balancers without a static split
(:meth:`~repro.fleet.balancer.Balancer.split`) all need the event
engine; :func:`repro.sim.fastpath.resolve_engine` decides once per run.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from ..obs.telemetry import ObsSpec

from ..obs.observer import make_observer
from ..scenario.faults import Degradation, Incident, Outage
from ..scenario.library import ScenarioSpec, get_scenario
from ..scenario.resilience import compute_resilience
from ..serve.metrics import COUNTERS, LatencySummary, TenantStats, fold_sum
from ..serve.overload import (
    OverloadController,
    OverloadSpec,
    OverloadTenantState,
)
from ..serve.simulator import DROP_POLICIES, Request, TenantSpec, TenantState
from .balancer import Balancer, make_balancer
from .detector import DetectorSpec, FailureDetector
from .device import DeviceSpec
from .metrics import FleetResult, ReplicaStats

__all__ = ["Replica", "ClusterSimulator", "simulate_fleet"]

#: Engine lanes one run opens at most: the engine scans every lane head
#: to pick an event, so each lane must carry a busy stream.
_MAX_LANES = 8


class Replica:
    """Runtime model of one board: per-tenant states + derived busy time.

    With ``overload`` its tenant queues follow the spec's discipline and
    deadlines (converted at ``cycles_per_ms``, 100 MHz by default).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        index: int,
        tenants: Sequence[TenantSpec],
        queue_depth: int,
        policy: str,
        overload: Optional[OverloadSpec] = None,
        cycles_per_ms: float = 1e5,
    ):
        self.spec = spec
        self.index = index
        self.label = f"{spec.display_label}#{index}"
        #: Failure-injection state: a replica is healthy iff no outage
        #: currently covers it (``down_depth`` handles overlapping
        #: schedules); ``generation`` bumps on every fresh failure so
        #: completion events scheduled before the board died become
        #: no-ops instead of resurrecting destroyed work.
        self.down_depth = 0
        self.generation = 0
        #: Gray-failure overlays: one severity stack per mode so
        #: overlapping degradation windows compose (the worst active
        #: severity wins); ``slow_next`` is the next boundary index at
        #: which a straggling replica may dispatch again.
        self.gray: Dict[str, List[float]] = {
            "slow": [], "flaky": [], "link-delay": []
        }
        self.slow_next = 0.0
        self._regray()
        base, plans = spec.plans()
        self.epoch = spec.resolve_epoch()
        self.num_clps = base.num_clps
        #: Requests queued or in the pipeline (the balancer's load
        #: signal): a maintained counter, not a sum.  The tenant states
        #: below keep it equal to the sum of their ``len(queue) +
        #: pipeline`` wherever a queue or pipeline changes, so a route
        #: reads it in O(1).
        self.outstanding = 0
        #: Tenant states in fleet tenant order, only for served tenants.
        self.states: Dict[str, TenantState] = {}
        for tenant in tenants:
            if tenant.name not in plans:
                continue
            depth, clp_cycles = plans[tenant.name]
            if overload is not None:
                self.states[tenant.name] = OverloadTenantState(
                    tenant, depth, clp_cycles, queue_depth, policy,
                    queue_policy=overload.queue_policy,
                    epoch=self.epoch,
                    deadline_cycles=overload.deadline_cycles(
                        tenant, cycles_per_ms
                    ),
                    board=self,
                )
            else:
                self.states[tenant.name] = TenantState(
                    tenant, depth, clp_cycles, queue_depth, policy, self
                )

    @property
    def healthy(self) -> bool:
        return self.down_depth == 0

    @property
    def clp_busy(self) -> List[float]:
        """Busy cycles per CLP: each tenant's ``charged`` images times
        its cycles per image there (integer sums, exact below 2**53)."""
        states = self.states.values()
        return [
            float(sum(s.charged * s.clp_cycles[clp] for s in states))
            for clp in range(self.num_clps)
        ]

    def gray_begin(self, mode: str, severity: float) -> None:
        self.gray[mode].append(severity)
        self._regray()

    def gray_end(self, mode: str, severity: float) -> None:
        self.gray[mode].remove(severity)
        self._regray()

    def _regray(self) -> None:
        """Recompute the service model from the severity stacks.

        A replica outside every gray window has ``slow_factor`` 1.0,
        ``error_rate`` 0.0 and ``link_delay_epochs`` 0.0, so the one
        service formula ``depth * epoch * slow_factor + link_delay *
        epoch`` is bit-exact to ``depth * epoch`` there.
        """
        slow, flaky, link = (
            self.gray["slow"], self.gray["flaky"], self.gray["link-delay"]
        )
        self.slow_factor = max(slow, default=1.0)
        self.error_rate = min(1.0, max(flaky, default=0.0))
        self.link_delay_epochs = max(link, default=0.0)
        #: True while any gray-failure window covers this replica.
        self.degraded = bool(slow or flaky or link)

    def serves(self, tenant: str) -> bool:
        return tenant in self.states

    def stats(self, elapsed: float) -> ReplicaStats:
        fractions = tuple(
            min(1.0, busy / elapsed) if elapsed > 0 else 0.0
            for busy in self.clp_busy
        )
        return ReplicaStats(
            label=self.label,
            part=self.spec.part,
            epoch_cycles=self.epoch,
            pipeline_depths=tuple(
                state.depth_epochs for state in self.states.values()
            ),
            tenants=tuple(
                state.stats(elapsed) for state in self.states.values()
            ),
            clp_busy_fraction=fractions,
        )


def _aggregate_tenant(
    spec: TenantSpec,
    states: Sequence[TenantState],
    stats: Sequence[TenantStats],
) -> TenantStats:
    """Fleet-wide view of one tenant: merge per-board stats and samples.

    ``states`` are the tenant's state on every replica that serves it,
    then its front door (:meth:`_FleetRun.tenant_states`), summed like
    one more board; ``stats`` are their reduced views, in the same
    order.  Counters sum from ``stats``, and latency percentiles merge
    the raw samples — except when one state holds them all, whose
    summary is reused rather than sorting the same latencies twice.
    """
    served = [s.latency for s in stats if s.latency is not None]
    if len(served) <= 1:
        latency = served[0] if served else None
    else:
        latency = LatencySummary.of(np.concatenate(
            [np.asarray(state.latencies, dtype=np.float64) for state in states]
        ))
    counts = {name: sum(getattr(s, name) for s in stats) for name in COUNTERS}
    completions = counts["completions"]
    firsts = [s.first_completion for s in states if s.first_completion is not None]
    lasts = [s.last_completion for s in states if s.last_completion is not None]
    steady = None
    if completions >= 2 and firsts and max(lasts) > min(firsts):
        steady = (completions - 1) / (max(lasts) - min(firsts))
    return TenantStats(
        name=spec.name,
        offered_rate_per_cycle=spec.process.mean_rate,
        in_flight=sum(s.in_flight for s in stats),
        latency=latency,
        mean_queue_depth=fold_sum([s.mean_queue_depth for s in stats]),
        peak_queue_depth=max(s.peak_queue_depth for s in stats),
        steady_rate_per_cycle=steady,
        priority=spec.priority,
        **counts,
    )


class ClusterSimulator:
    """Multiplex N device models over shared arrival streams.

    Construction validates the topology (every tenant must be servable
    by at least one replica; every replica network must be an offered
    tenant); :meth:`run` executes one seeded window and returns a
    :class:`~repro.fleet.metrics.FleetResult`.  A simulator instance is
    reusable — each ``run`` builds fresh replica state — which is what
    the capacity planner and autoscaler lean on.
    """

    def __init__(
        self,
        devices: Union[DeviceSpec, Sequence[DeviceSpec]],
        tenants: Sequence[TenantSpec],
        *,
        balancer: Union[str, Balancer, None] = None,
        frequency_mhz: float = 100.0,
        queue_depth: int = 64,
        policy: str = "drop-tail",
    ):
        if isinstance(devices, DeviceSpec):
            devices = [devices]
        if not devices:
            raise ValueError("a fleet needs at least one device spec")
        if not tenants:
            raise ValueError("a fleet needs at least one tenant")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if policy not in DROP_POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {DROP_POLICIES}")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.devices = tuple(devices)
        self.tenants = tuple(tenants)
        self._balancer_spec = balancer
        self.frequency_mhz = frequency_mhz
        self.queue_depth = queue_depth
        self.policy = policy

        served = set()
        for device in self.devices:
            served.update(device.networks)
        offered = set(names)
        if not offered <= served:
            raise ValueError(
                f"tenants {sorted(offered - served)} are not served by any "
                f"replica (fleet serves {sorted(served)})"
            )
        if not served <= offered:
            raise ValueError(
                f"replica networks {sorted(served - offered)} have no tenant "
                f"stream (offered: {sorted(offered)})"
            )

    @property
    def num_replicas(self) -> int:
        return sum(device.count for device in self.devices)

    def _make_balancer(self) -> Balancer:
        spec = self._balancer_spec
        if spec is None:
            spec = "round-robin"
        if isinstance(spec, str):
            return make_balancer(spec)
        # Reuse the caller's policy object (it may carry configuration a
        # plain re-instantiation would lose) but drop its per-run state.
        spec.reset()
        return spec

    # ------------------------------------------------------------------- run
    def run(
        self,
        duration_cycles: float,
        *,
        seed: int = 0,
        drain: bool = False,
        scenario: Union[str, ScenarioSpec, None] = None,
        engine: str = "auto",
        obs: Optional["ObsSpec"] = None,
        overload: Optional[OverloadSpec] = None,
        detector: Optional[DetectorSpec] = None,
    ) -> FleetResult:
        """One seeded traffic window over the whole fleet.

        ``drain=False`` cuts the run at the horizon (queued/pipelined
        requests reported in-flight); ``drain=True`` stops arrivals at
        the horizon but serves out every queue, so arrivals equal
        completions plus drops exactly.  Identical arguments produce an
        identical :class:`~repro.fleet.metrics.FleetResult`.

        Each call builds one private run-state object (replicas,
        overlays, ledgers and one method per event kind) and returns its
        result; the simulator itself keeps no per-run state.

        ``engine`` selects the execution strategy: ``"auto"`` (default)
        uses the epoch-batched fast path (:mod:`repro.sim.fastpath`)
        unless a scenario, active overload control, an active detector
        or observation needs the event engine; ``"fast"``/``"event"``
        force a choice (``"fast"`` with any of those raises one
        ``ValueError`` naming them all).  Both engines produce
        bit-identical results; a balancer without a static split
        (:meth:`~repro.fleet.balancer.Balancer.split`) runs the event
        engine under ``"fast"`` too.

        ``scenario`` (a name from :data:`repro.scenario.SCENARIOS` or a
        :class:`~repro.scenario.ScenarioSpec`) overlays a failure/surge
        drill on the run: fault specs become fail/recover events inside
        this same event loop, surge shapes replace each tenant's arrival
        process with a time-varying one, and the result carries the
        incident log plus a resilience report.  Fault draws come from a
        dedicated RNG substream (``{seed}/scenario/faults``), so a
        scenario never perturbs the arrival streams; a *no-op* scenario
        (no faults, no surge) is bit-exact to passing ``scenario=None``
        apart from the result's ``scenario`` label.

        ``obs`` (an :class:`~repro.obs.ObsSpec`) opts the run into
        windowed telemetry (the result's ``timeseries`` field: fleet
        per-tenant gauges and rates, per-replica duty factors and
        health, windowed p99) and/or request-lifecycle + incident
        tracing.  Observation samples the event stream, so an active
        spec is an engine blocker like a scenario: ``"auto"`` runs the
        event engine (scalars stay bit-identical to an unobserved run)
        and ``"fast"`` raises.  ``obs=None`` (default) changes nothing.

        ``overload`` (an :class:`~repro.serve.overload.OverloadSpec`)
        switches on admission control, queue disciplines, client
        retries, and/or brownout — see :mod:`repro.serve.overload`.
        When ``None``, a scenario that carries its own overload spec
        (e.g. ``retry-storm``) supplies it.  Active overload forces the
        event engine under ``auto`` (``"fast"`` raises); with every
        feature off, results are bit-identical to ``overload=None``.

        ``detector`` (a :class:`~repro.fleet.detector.DetectorSpec`)
        replaces oracle health with *detected* health: ``mode="probe"``
        routes on periodic health probes plus outlier ejection (with
        real detection latency, false positives under flaky replicas,
        and probation re-admission), and ``request_timeout_ms`` arms a
        request-level timeout with bounded failover (``max_failovers``
        re-dispatches per request; exhausted requests are booked in the
        new ``timed_out`` class).  When ``None``, a scenario that
        carries its own detector supplies it.  The default oracle
        detector with no timeout is inert: results are bit-identical
        to ``detector=None``.  An *active* detector forces the event
        engine under ``auto`` (``"fast"`` raises).
        """
        from ..sim import fastpath

        fleet = _FleetRun(
            self, duration_cycles, seed=seed, drain=drain, scenario=scenario,
            engine=engine, obs=obs, overload=overload, detector=detector,
        )
        if fleet.engine == "fast":
            elapsed = fastpath.run_fleet_fast(
                fleet.replicas, self.tenants, fleet.splits, fleet.horizon,
                seed, drain,
            )
        else:
            elapsed = fleet.simulate()
        result = fleet.result(elapsed)
        fleet.close()
        return result


class _FleetRun:
    """The state of one :meth:`ClusterSimulator.run` call.

    Construction resolves the overlays, builds fresh replicas and the
    balancer, materializes the scenario, and sets up every ledger the
    result reads.  The fast path then fills the replica states directly
    (:func:`repro.sim.fastpath.run_fleet_fast`); :meth:`simulate`
    instead schedules the event methods below on one event engine.
    Either way :meth:`result` reduces the run's own fields.

    The run reports each event to ``observer`` exactly once (see
    :func:`repro.obs.observer.make_observer`), and schedules the
    retries, hedges and brownout steps the overload controller asks
    for.  An overlay that is off is ``None`` (``controller``, ``fdet``,
    ``request_timeout``, ``samples``) or empty (``outages``,
    ``degradations``), never a separate code path.
    """

    def __init__(
        self,
        cluster: ClusterSimulator,
        duration_cycles: float,
        *,
        seed: int,
        drain: bool,
        scenario: Union[str, ScenarioSpec, None],
        engine: str,
        obs: Optional["ObsSpec"],
        overload: Optional[OverloadSpec],
        detector: Optional[DetectorSpec],
    ):
        from ..sim.engine import Simulator
        from ..sim.fastpath import resolve_engine

        if duration_cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if overload is None and scenario is not None:
            overload = scenario.overload
        if detector is None and scenario is not None:
            detector = scenario.detector
        tenants = cluster.tenants
        ospec: Optional[OverloadSpec] = None
        if (overload is not None and overload.active) or any(
            spec.deadline_ms is not None for spec in tenants
        ):
            ospec = overload if overload is not None else OverloadSpec()
        self.cluster = cluster
        self.tenants = tenants
        self.names = [spec.name for spec in tenants]
        self.tenant_index = {name: i for i, name in enumerate(self.names)}
        self.horizon = float(duration_cycles)
        self.seed = seed
        self.drain = drain
        self.scenario = scenario
        self.detector = detector

        boards = [d for d in cluster.devices for _ in range(d.count)]
        self.replicas = [
            Replica(
                device, index, tenants, cluster.queue_depth, cluster.policy,
                overload=ospec, cycles_per_ms=cluster.frequency_mhz * 1e3,
            )
            for index, device in enumerate(boards)
        ]
        self.eligible: Dict[str, Tuple[int, ...]] = {
            name: tuple(r.index for r in self.replicas if r.serves(name))
            for name in self.names
        }
        self.balancer = cluster._make_balancer()
        self.balancer.bind(self.replicas, random.Random(f"{seed}/balancer"))
        #: Each tenant's static split over its targets, or ``None`` where
        #: its routes depend on load (:meth:`Balancer.split`).
        self.splits = {
            name: self.balancer.split(name, targets)
            for name, targets in self.eligible.items()
        }
        self.engine = resolve_engine(
            engine,
            has_scenario=scenario is not None,
            has_overload=ospec is not None,
            has_detector=detector is not None and detector.active,
            has_obs=obs is not None and obs.active,
            static_routes=None not in self.splits.values(),
        )

        self.observer = make_observer(obs, self.horizon)
        self.sim = Simulator(on_event=self.observer.on_event)
        #: One open/closed flag per tenant *stream* (shared by replicas).
        self.stream_open = [True] * len(tenants)
        self._materialize(scenario)
        #: Flaky-replica error draws: a dedicated substream, consumed
        #: only while an error-rate window is active at dispatch time,
        #: so flaky faults never perturb arrivals or balancer draws.
        self.flaky_rng = random.Random(f"{seed}/scenario/flaky")
        self._routing(detector)

        #: Per-request failover ledger, keyed by the request object:
        #: (attempts so far, start of the current attempt).  Entries
        #: exist only for requests that have failed over at least once.
        self.failover_state: Dict[Request, Tuple[int, float]] = {}
        #: Each tenant's front door (see ``TenantState``).
        self.doors = {
            spec.name: TenantState(spec, 0, (), 0, cluster.policy)
            for spec in tenants
        }
        #: (finish_cycles, latency_cycles) fleet-wide, for resilience;
        #: kept only under a scenario.
        self.samples: Optional[List[Tuple[float, float]]] = (
            [] if scenario is not None else None
        )
        #: Scheduled retry and hedge deliveries not yet fired: a
        #: draining board keeps its boundaries alive while any remain.
        self.pending_deliveries = 0
        self.controller: Optional[OverloadController] = None
        if ospec is not None:
            self.controller = OverloadController(
                ospec,
                tenants,
                horizon=self.horizon,
                frequency_mhz=cluster.frequency_mhz,
                seed=seed,
            )
            # Scheduled first, so brownout steps win the engine's ties.
            for window, when in enumerate(self.controller.step_times(), 1):
                self.sim.schedule_at(when, self.brownout, window)

    def _materialize(self, scenario: Optional[ScenarioSpec]) -> None:
        """Apply the scenario's surge and fault specs.

        Surge shapes swap each tenant's arrival process for a
        time-varying one; fault specs materialize into concrete outage
        and degradation windows against a *dedicated* RNG substream, so
        the arrival streams draw exactly what they would without one.
        """
        self.processes = [spec.process for spec in self.tenants]
        self.outages: List[Outage] = []
        self.degradations: List[Degradation] = []
        self.failure_policy = "requeue"
        if scenario is None:
            return
        count = len(self.tenants)
        self.failure_policy = scenario.failure_policy
        if scenario.surge is not None:
            self.processes = [
                scenario.surge.reshape(spec.process, self.horizon, i, count)
                for i, spec in enumerate(self.tenants)
            ]
        fault_rng = random.Random(f"{self.seed}/scenario/faults")
        for fault in scenario.faults:
            self.outages.extend(
                fault.materialize(self.horizon, len(self.replicas), fault_rng)
            )
            self.degradations.extend(
                fault.materialize_gray(
                    self.horizon, len(self.replicas), fault_rng
                )
            )
        self.outages.sort(key=lambda o: (o.start, o.replica))
        self.degradations.sort(key=lambda d: (d.start, d.replica))

    def _routing(self, detector: Optional[DetectorSpec]) -> None:
        """Set up failure detection and the routing view.

        ``fdet`` is the probing detector (``mode="probe"`` only; oracle
        routing stays ground truth).  ``routable`` is the one health
        predicate the router, evacuation and failover all consult: with
        no detector it is exactly ``Replica.healthy``, so detector-free
        runs stay bit-identical.  Oracle detection is gray-aware:
        degraded replicas are known instantly and routed around.
        """
        #: Routing view: each tenant's routable targets in ``eligible``
        #: order, rebuilt only when ``health_version`` (``_moved``) moves,
        #: which it does when a board's ``routable`` answer flips.
        self.health_version = 0
        self.view_version = 0
        self.views: Dict[str, Tuple[int, ...]] = {}
        self.fdet: Optional[FailureDetector] = None
        self.request_timeout: Optional[float] = None
        self.max_failovers = 0
        self.routable = self._healthy
        if detector is not None:
            fd = FailureDetector(
                detector,
                len(self.replicas),
                epoch=min(replica.epoch for replica in self.replicas),
                cycles_per_ms=self.cluster.frequency_mhz * 1e3,
            )
            self.request_timeout = fd.request_timeout
            self.max_failovers = detector.max_failovers
            self.routable = self._healthy_and_clean
            if detector.mode == "probe":
                self.fdet = fd
                self.routable = fd.routable
                self.probe_rng = random.Random(f"{self.seed}/detector/probe")
        routable = self.routable
        self.was_routable = [routable(i) for i in range(len(self.replicas))]
        #: Tenant -> (state, index) of its one board when every tenant
        #: has one target (all or nothing: random draws even over one)
        #: and no fault, gray window or probe ejection can change it:
        #: ``route`` skips the router, as in every serve run.
        self.fixed_landing: Dict[str, Tuple[TenantState, int]] = {}
        if (
            not self.outages
            and not self.degradations
            and self.fdet is None
            and all(
                split is not None and len(split) == 1
                for split in self.splits.values()
            )
        ):
            self.fixed_landing = {
                name: (self.replicas[r].states[name], r)
                for name, split in self.splits.items()
                for r in split
            }

    def _healthy(self, i: int) -> bool:
        return self.replicas[i].healthy

    def _healthy_and_clean(self, i: int) -> bool:
        replica = self.replicas[i]
        return replica.healthy and not replica.degraded

    # ------------------------------------------------------------ routing
    def routable_targets(self, name: str) -> Tuple[int, ...]:
        if self.health_version != self.view_version:
            self.views.clear()
            self.view_version = self.health_version
        targets = self.views.get(name)
        if targets is None:
            routable = self.routable
            targets = tuple(i for i in self.eligible[name] if routable(i))
            self.views[name] = targets
        return targets

    def route(
        self, name: str, req: Request
    ) -> Optional[Tuple[TenantState, int]]:
        """Pick the landing ``(state, replica)`` for an arriving request,
        or book it unroutable at the tenant's door (arrived and lost)
        when no replica is."""
        landing = self.fixed_landing.get(name)
        if landing is not None:
            return landing
        targets = self.routable_targets(name)
        if not targets:
            door = self.doors[name]
            door.book_arrival(req)
            door.lost += 1
            self.observer.unroutable(name, self.sim.now)
            return None
        choice = self.balancer.route(name, targets, self.sim.now)
        return (self.replicas[choice].states[name], choice)

    # ----------------------------------------------------------- arrivals
    def pump(self, index: int, count: int = 0) -> None:
        """Schedule tenant ``index``'s next arrival or close its stream."""
        limit = self.tenants[index].limit
        if limit is not None and count >= limit:
            self.stream_open[index] = False
            return
        when = next(self.streams[index], None)
        if when is None or when > self.horizon:
            self.stream_open[index] = False
            return
        self.sim.schedule_at(
            when, self.arrive, index, count + 1,
            lane=self.arrival_lanes[index],
        )

    def arrive(self, index: int, count: int) -> None:
        self.land(index, Request(self.sim.now))
        self.pump(index, count)

    def land(self, index: int, req: Request) -> None:
        """One attempt (fresh, retry or hedge) reaches the front door:
        the one admission path (gate, route, book, deadline admission,
        push, trace, drop victim, hedge).  The overload controller only
        decides; an attempt that reaches no replica queue is booked at
        the tenant's door."""
        name, now = self.names[index], self.sim.now
        controller = self.controller
        if controller is not None:
            reason = controller.admit(index, req, now)
            if reason is not None:
                door = self.doors[name]
                door.book_arrival(req)
                self.reject(door, None, req, reason)
                return
        landing = self.route(name, req)
        if landing is None:
            self.give_up(name, req, "unroutable")
            return
        state, choice = landing
        state.book_arrival(req)
        if controller is not None and controller.refuse(index, state):
            self.reject(state, choice, req, "deadline")
            return
        victim = state.push(req, now)
        self.observer.arrived(
            name, choice, now, victim is not None, state.policy
        )
        if victim is not None:
            self.give_up(name, victim, "dropped")
        if controller is not None and victim is not req:
            when = controller.hedge(req, now)
            if when is not None:
                self.pending_deliveries += 1
                self.sim.schedule_at(when, self.fire_hedge, index, req)

    def reject(
        self, state: TenantState, replica: Optional[int], req: Request,
        reason: str,
    ) -> None:
        """The controller turned an attempt away at the door
        (``replica`` None) or at a board's queue: book and observe it,
        then let the client retry."""
        name, now = state.spec.name, self.sim.now
        state.rejected += 1
        self.observer.rejected(name, replica, now, reason)
        self.give_up(name, req, reason)

    def give_up(self, name: str, req: Request, reason: str) -> None:
        """An attempt ended without a reply (rejected, unroutable, lost,
        dropped, expired, timed out, errored).  Under overload control
        the client notices and may retry, else the outcome is final."""
        controller = self.controller
        if controller is None:
            return
        req.done = True
        index, now = self.tenant_index[name], self.sim.now
        retry = controller.retry(index, req, now)
        if retry is None:
            return
        self.observer.retried(
            name, now, retry.attempt, retry.backoff_cycles, reason
        )
        self.pending_deliveries += 1
        self.sim.schedule_at(retry.arrival, self.deliver, index, retry)

    def deliver(self, index: int, req: Request) -> None:
        """A scheduled retry or hedge reaches the front door."""
        self.pending_deliveries -= 1
        self.land(index, req)

    def fire_hedge(self, index: int, req: Request) -> None:
        """Duplicate ``req`` unless it was dispatched or shed meanwhile;
        the controller stamps the hedge's ``seq`` when it lands."""
        if req.done:
            self.pending_deliveries -= 1
            return
        name, now = self.names[index], self.sim.now
        self.observer.hedged(name, now)
        self.deliver(index, Request(now, req.attempt, hedge=True))

    def brownout(self, window: int) -> None:
        """One brownout step at the end of ``window`` (1-based)."""
        action = self.controller.step(window)
        if action is None:
            return
        self.observer.brownout(self.sim.now, action, self.controller.shed)

    # ------------------------------------------------------------- health
    def _moved(
        self, replica: Replica, was_bad: Optional[bool] = None,
        went_down: bool = False,
    ) -> None:
        """Every health change passes here.  It moves the routing views'
        version only if the board's ``routable`` answer flipped (with no
        detector that reads outages alone, under oracle detection gray
        windows too, under probing only ejections), and feeds the
        detector's ground truth (none for a detector event,
        ``was_bad=None``): an onset when the board is now down or
        degraded and was not or just went down, a clear when it was and
        is now clean."""
        routable = self.routable(replica.index)
        if routable != self.was_routable[replica.index]:
            self.was_routable[replica.index] = routable
            self.health_version += 1
        if self.fdet is None or was_bad is None:
            return
        bad = not replica.healthy or replica.degraded
        if bad and (went_down or not was_bad):
            self.fdet.note_onset(replica.index, self.sim.now)
        elif was_bad and not bad:
            self.fdet.note_clear(replica.index, self.sim.now)

    # ------------------------------------------------------------- faults
    def fail(self, replica: Replica) -> None:
        replica.down_depth += 1
        if replica.down_depth > 1:
            return  # already down (overlapping outage windows)
        now, observer = self.sim.now, self.observer
        self._moved(replica, replica.degraded, went_down=True)
        observer.fault_begin(replica.label, now)
        # Work in the pipeline dies with the board; a new generation
        # turns its already-scheduled completion events into no-ops.
        replica.generation += 1
        for state in replica.states.values():
            state.kill()
            name = state.spec.name
            observer.killed(name, replica.index, now)
            for req in state.evacuate(now):
                rescue = (
                    ()
                    if self.failure_policy == "lost"
                    else self.routable_targets(name)
                )
                if not rescue:
                    state.lost += 1
                    observer.evacuated(name, replica.index, now, "lost", None)
                    self.give_up(name, req, "lost")
                    continue
                choice = self.balancer.route(name, rescue, now)
                victim = self.replicas[choice].states[name].requeue(req, now)
                observer.evacuated(
                    name, replica.index, now,
                    "dropped" if victim is not None else "requeued", choice,
                )
                if victim is not None:
                    self.give_up(name, victim, "dropped")

    def recover(self, replica: Replica) -> None:
        replica.down_depth -= 1
        if replica.down_depth == 0:
            self._moved(replica, True)
            self.observer.fault_end(replica.label, self.sim.now)

    # ------------------------------------------------------- gray failures
    # Degradations never kill in-flight work: the board keeps serving,
    # just slower / flakier / farther away.  Onset and clearance feed
    # the detector's ground-truth ledger so mean-time-to-detect measures
    # probe latency, not luck.
    def degrade(self, replica: Replica, deg: Degradation) -> None:
        was_bad = not replica.healthy or replica.degraded
        replica.gray_begin(deg.mode, deg.severity)
        self._moved(replica, was_bad)
        self.observer.gray_begin(
            replica.label, self.sim.now, deg.mode, deg.severity
        )

    def undegrade(self, replica: Replica, deg: Degradation) -> None:
        replica.gray_end(deg.mode, deg.severity)
        self._moved(replica, True)  # degraded until this window closed
        self.observer.gray_end(replica.label, self.sim.now, deg.mode)

    # ----------------------------------------------------------- detector
    # Probes are out-of-band (they consume no replica capacity): a probe
    # round-trips one epoch plus any link delay, so a dead board, a
    # straggler, or a slow link misses the deadline, and a flaky board
    # fails the probe with its error probability (its own substream —
    # probe draws never perturb request draws).
    def probe_all(self, k: int) -> None:
        fdet, now = self.fdet, self.sim.now
        for replica in self.replicas:
            ok = replica.healthy
            if ok and (
                replica.slow_factor > 1.0 or replica.link_delay_epochs > 0.0
            ):
                ok = (
                    replica.epoch * replica.slow_factor
                    + replica.link_delay_epochs * replica.epoch
                ) <= fdet.probe_timeout
            if ok and replica.error_rate > 0.0:
                ok = self.probe_rng.random() >= replica.error_rate
            event = fdet.record_probe(replica.index, now, ok)
            if event is None:
                continue
            self._moved(replica)
            if event == "ejected":
                self.observer.ejected(replica.label, now, "probes")
            else:
                self.observer.readmitted(replica.label, now)
        upcoming = (k + 1) * fdet.probe_interval
        if upcoming <= self.horizon:
            self.sim.schedule_at(upcoming, self.probe_all, k + 1)

    def outliers(self, k: int) -> None:
        now = self.sim.now
        for index, reason in self.fdet.evaluate_outliers(now):
            self._moved(self.replicas[index])
            self.observer.ejected(self.replicas[index].label, now, reason)
        upcoming = (k + 1) * self.fdet.ejection_window
        if upcoming <= self.horizon:
            self.sim.schedule_at(upcoming, self.outliers, k + 1)

    # ---------------------------------------------------- request timeout
    # A periodic sweep (twice per timeout) reaps queue entries whose
    # *current attempt* has sat longer than the deadline: failover
    # re-dispatches them (restarting the attempt clock, original arrival
    # kept for latency), an exhausted budget books them as
    # ``timed_out``.  In-pipeline work is past the point of no return —
    # it completes late or dies with the board.
    def sweep(self, k: int) -> None:
        now, deadline = self.sim.now, self.request_timeout
        for replica in self.replicas:
            for state in replica.states.values():
                if not state.queue:
                    continue
                stale = [
                    req
                    for req in state.queue
                    if now - self.failover_state.get(req, (0, req.arrival))[1]
                    >= deadline
                ]
                if not stale:
                    continue
                state.withdraw(stale, now)
                for req in stale:
                    self.reap(replica, state, req)
        upcoming = (k + 1) * (deadline / 2.0)
        if upcoming <= self.horizon or (
            self.drain
            and any(
                state.queue
                for replica in self.replicas
                for state in replica.states.values()
            )
        ):
            self.sim.schedule_at(upcoming, self.sweep, k + 1)

    def reap(self, replica: Replica, state: TenantState, req: Request) -> None:
        name = state.spec.name
        if self.fdet is not None:
            self.fdet.record_error(replica.index)
        if self.failover(replica, state, req):
            return
        self.doors[name].timed_out += 1
        self.observer.timed_out(name, replica.index, self.sim.now)
        self.give_up(name, req, "timeout")

    def failover(
        self,
        replica: Replica,
        state: TenantState,
        req: Request,
        phase: str = "queue",
    ) -> bool:
        """Re-dispatch a failed/stale request onto another replica.

        Returns True when the request found a new queue (or died as a
        drop there — either way it was handed off); False when the
        failover budget or candidate set is exhausted and the caller
        must book the terminal outcome.
        """
        name, now = state.spec.name, self.sim.now
        used, _ = self.failover_state.get(req, (0, 0.0))
        candidates = tuple(
            i for i in self.routable_targets(name) if i != replica.index
        )
        if used >= self.max_failovers or not candidates:
            self.failover_state.pop(req, None)
            return False
        # The attempt clock restarts: timeouts measure the current
        # attempt, not the request's total age (latency still does).
        self.failover_state[req] = (used + 1, now)
        if used == 0:
            self.doors[name].failed_over += 1
        choice = self.balancer.route(name, candidates, now)
        victim = self.replicas[choice].states[name].requeue(req, now)
        if victim is not None:
            self.give_up(name, victim, "dropped")
        self.observer.failed_over(
            name, replica.index, now, choice, phase, victim is not None
        )
        return True

    def flaky_error(
        self, replica: Replica, state: TenantState, req: Request
    ) -> None:
        """A dispatched request came back as an error (flaky board)."""
        name = state.spec.name
        if self.fdet is not None:
            self.fdet.record_error(replica.index)
        self.observer.flaky_error(name, self.sim.now)
        if self.failover(replica, state, req, phase="pipeline"):
            return
        # Terminal: the error response is the final word.
        state.lost += 1
        self.observer.errored(name, replica.index, self.sim.now)
        self.give_up(name, req, "error")

    # ---------------------------------------------------- board dispatch
    def finish(
        self,
        replica: Replica,
        state: TenantState,
        req: Request,
        gen: int,
        errored: bool,
    ) -> None:
        if replica.generation != gen:
            # The board died after admission: the loss was booked at
            # fail time; the client notices around when the reply was
            # due.
            self.give_up(state.spec.name, req, "lost")
            return
        if errored:
            state.on_error()
            self.flaky_error(replica, state, req)
            return
        name, now = state.spec.name, self.sim.now
        state.on_completion(req, now)
        controller, fdet = self.controller, self.fdet
        late = controller is not None and controller.completed(
            self.tenant_index[name], req, now
        )
        if late:
            state.late += 1
        if fdet is not None:
            fdet.record_success(replica.index, now - req.arrival)
        if self.failover_state:
            self.failover_state.pop(req, None)
        self.observer.completed(name, replica.index, now, req.arrival, late)
        if self.samples is not None:
            self.samples.append((now, now - req.arrival))

    def boundary(self, replica: Replica, count: int) -> None:
        """Epoch boundary ``count`` of one board: dispatch one request
        per tenant queue, then schedule the next boundary."""
        epoch, slow = replica.epoch, replica.slow_factor
        dispatching = replica.healthy
        if dispatching and slow > 1.0:
            # A straggler dispatches only every ``slow``-th boundary —
            # epoch slowdown without perturbing the exact boundary grid.
            # The fractional accumulator keeps non-integer factors
            # honest; the catch-up clamp resets a stale marker when a
            # new slow window opens.
            if count - replica.slow_next >= slow:
                replica.slow_next = float(count)
            if count < replica.slow_next:
                dispatching = False
            else:
                replica.slow_next += slow
        sim = self.sim
        if dispatching:
            now, controller, observer = sim.now, self.controller, self.observer
            delay = replica.link_delay_epochs * epoch
            flaky = replica.error_rate
            # Off the grid (slow or link-delayed), a completion would
            # land behind its lane's later entries: it takes the heap.
            on_grid = slow == 1.0 and delay == 0.0
            lanes = self.finish_lanes[replica.index]
            for state, lane in zip(replica.states.values(), lanes):
                if controller is not None:
                    self.expire(replica, state, now)
                req = state.admit(now)
                if req is None:
                    continue
                errored = flaky > 0.0 and self.flaky_rng.random() < flaky
                observer.dispatched(
                    state.spec.name, replica.index, now, req.arrival
                )
                sim.schedule(
                    state.depth_epochs * epoch * slow + delay,
                    self.finish, replica, state, req,
                    replica.generation, errored,
                    lane=lane if on_grid else None,
                )
        # Exact grid ``count * epoch``: chaining ``now + epoch`` would
        # accumulate float error over long horizons and drift from the
        # fast engine's batched grid.
        upcoming = (count + 1) * epoch
        if upcoming <= self.horizon or (self.drain and self._pending(replica)):
            sim.schedule_at(
                upcoming, self.boundary, replica, count + 1,
                lane=self.boundary_lanes[replica.index],
            )

    def expire(self, replica: Replica, state: TenantState, now: float) -> None:
        """Shed the expired heads of a discipline queue before its
        boundary admits the next one: expired work never burns the
        epoch's admission slot, and the client may retry it."""
        name = state.spec.name
        while True:
            req = state.pop_expired(now)
            if req is None:
                return
            self.observer.expired(name, replica.index, now)
            self.give_up(name, req, "expired")

    def _pending(self, replica: Replica) -> bool:
        """Does a draining board still have work coming: a queued
        request, an open stream it serves, or a scheduled retry or
        hedge?"""
        return (
            any(state.queue for state in replica.states.values())
            or any(
                self.stream_open[self.tenant_index[name]]
                for name in replica.states
            )
            or self.pending_deliveries > 0
        )

    # --------------------------------------------------------------- run
    def simulate(self) -> float:
        """Schedule every event source, run the engine; the elapsed
        cycles.  Scheduling order is the engine's tie-break order for
        simultaneous events, on its heap and lanes alike, so it is
        fixed: brownout steps (scheduled when the overload controller
        is built), arrivals, outages, degradations, probes, outlier
        checks, timeout sweeps, boundaries (the first runs at once),
        then whatever the observer schedules (telemetry samples)."""
        sim, horizon = self.sim, self.horizon
        # Keyed by tenant, not replica: the fleet sees the *same*
        # traffic a lone board would.
        self.streams: List[Iterator[float]] = [
            process.times(random.Random(f"{self.seed}/{i}/{spec.name}"))
            for i, (spec, process) in enumerate(
                zip(self.tenants, self.processes)
            )
        ]
        self._open_lanes()
        for index in range(len(self.tenants)):
            self.pump(index)
        for outage in self.outages:
            target = self.replicas[outage.replica]
            sim.schedule_at(outage.start, self.fail, target)
            sim.schedule_at(outage.end, self.recover, target)
        for deg in self.degradations:
            target = self.replicas[deg.replica]
            sim.schedule_at(deg.start, self.degrade, target, deg)
            sim.schedule_at(deg.end, self.undegrade, target, deg)
        fdet, detector = self.fdet, self.detector
        if fdet is not None and fdet.probe_interval <= horizon:
            sim.schedule_at(fdet.probe_interval, self.probe_all, 1)
        if (
            fdet is not None
            and (
                detector.outlier_error_rate is not None
                or detector.outlier_p99_factor is not None
            )
            and fdet.ejection_window <= horizon
        ):
            sim.schedule_at(fdet.ejection_window, self.outliers, 1)
        if (
            self.request_timeout is not None
            and self.request_timeout / 2.0 <= horizon
        ):
            sim.schedule_at(self.request_timeout / 2.0, self.sweep, 1)
        for replica in self.replicas:
            self.boundary(replica, 0)
        self.observer.start(self)
        if self.drain:
            return max(sim.run(), horizon)
        sim.run(until=horizon)
        return horizon

    def _open_lanes(self) -> None:
        """Give the run's three time-ordered streams engine lanes (see
        :mod:`repro.sim.engine`): boundaries, one lane per distinct
        epoch (each board's grid ``count * epoch`` advances in step with
        every other board's of that epoch); arrivals, one per tenant
        stream; completions, one per ``(epoch, depth)``, a fixed delay
        after a dispatch.  Up to ``_MAX_LANES``, in that order; a stream
        without a lane (``None``) is scheduled on the heap."""
        sim = self.sim
        lanes: Dict[Tuple[object, ...], Optional[Deque]] = {}

        def lane(*key: object) -> Optional[Deque]:
            if key not in lanes:
                lanes[key] = sim.lane() if len(lanes) < _MAX_LANES else None
            return lanes[key]

        # Indexed by replica, by tenant, and by replica then ``states``.
        self.boundary_lanes = [
            lane("boundary", replica.epoch) for replica in self.replicas
        ]
        self.arrival_lanes = [
            lane("arrival", index) for index in range(len(self.tenants))
        ]
        self.finish_lanes = [
            [
                lane("finish", replica.epoch, state.depth_epochs)
                for state in replica.states.values()
            ]
            for replica in self.replicas
        ]

    # ------------------------------------------------------------ result
    def tenant_states(self, name: str) -> List[TenantState]:
        """What every fleet-wide tenant total sums over: ``name``'s
        state on each replica that serves it, then its door."""
        states = [self.replicas[i].states[name] for i in self.eligible[name]]
        return states + [self.doors[name]]

    def result(self, elapsed: float) -> FleetResult:
        """Reduce the final run state to a :class:`FleetResult`
        (shared by both engines)."""
        cluster, replicas = self.cluster, self.replicas
        replica_stats = tuple(replica.stats(elapsed) for replica in replicas)
        #: Each replica's reduced tenant stats by name, reused below so
        #: no tenant's latencies are reduced twice.
        by_name = [
            {stats.name: stats for stats in rstats.tenants}
            for rstats in replica_stats
        ]
        aggregates = tuple(
            _aggregate_tenant(
                spec,
                self.tenant_states(name),
                [by_name[i][name] for i in self.eligible[name]]
                + [self.doors[name].stats(elapsed)],
            )
            for spec, name in zip(self.tenants, self.names)
        )
        overload = (
            self.controller.report(aggregates)
            if self.controller is not None
            else None
        )
        scenario, detector = self.scenario, self.detector
        incidents: Tuple[Incident, ...] = ()
        resilience = None
        if scenario is not None:
            incidents = self._incidents(elapsed)
            resilience = compute_resilience(
                completions=self.samples,
                incidents=incidents,
                horizon_cycles=elapsed,
                num_replicas=len(replicas),
                lost_requests=sum(t.lost for t in aggregates),
                mean_time_to_detect_cycles=(
                    self.fdet.mean_time_to_detect()
                    if self.fdet is not None
                    else None
                ),
            )
        return FleetResult(
            balancer=self.balancer.name,
            num_replicas=len(replicas),
            frequency_mhz=cluster.frequency_mhz,
            horizon_cycles=self.horizon,
            elapsed_cycles=elapsed,
            seed=self.seed,
            queue_depth=cluster.queue_depth,
            policy=cluster.policy,
            drained=self.drain,
            tenants=aggregates,
            replicas=replica_stats,
            scenario=scenario.name if scenario is not None else None,
            incidents=incidents,
            resilience=resilience,
            timeseries=self.observer.timeseries(),
            overload=overload,
            detector=(
                detector
                if detector is not None
                and (detector.active or bool(self.degradations))
                else None
            ),
        )

    def close(self) -> None:
        """Drop the references that lead back to this run: pending
        events (on the engine's heap and on the run's lanes) hold its
        bound methods, and so may ``routable``, and each tenant state
        holds its board (for the load counter).  The run's state is then
        freed as soon as the caller lets go of it, not at the next
        cyclic garbage collection."""
        self.sim = self.routable = None
        self.boundary_lanes = self.arrival_lanes = self.finish_lanes = None
        for replica in self.replicas:
            for state in replica.states.values():
                state.board = None

    def _incidents(self, elapsed: float) -> Tuple[Incident, ...]:
        """The run's incident log: outages, gray windows and surge
        windows, ordered by start then target."""
        log = [
            Incident(
                kind=kind,
                target=self.replicas[window.replica].label,
                start_cycles=window.start,
                end_cycles=min(window.end, elapsed),
                recovered=window.end <= elapsed,
            )
            for kind, windows in (
                ("fault", self.outages),
                ("gray", self.degradations),
            )
            for window in windows
        ]
        if self.scenario.surge is not None:
            log.extend(
                Incident(
                    kind="surge",
                    target="fleet",
                    start_cycles=start,
                    end_cycles=end,
                    recovered=True,
                )
                for start, end in self.scenario.surge.windows(self.horizon)
            )
        return tuple(sorted(log, key=lambda i: (i.start_cycles, i.target)))


def simulate_fleet(
    devices: Union[DeviceSpec, Sequence[DeviceSpec]],
    tenants: Sequence[TenantSpec],
    duration_cycles: float,
    *,
    balancer: Union[str, Balancer, None] = None,
    frequency_mhz: float = 100.0,
    seed: int = 0,
    queue_depth: int = 64,
    policy: str = "drop-tail",
    drain: bool = False,
    scenario: Union[str, ScenarioSpec, None] = None,
    engine: str = "auto",
    obs: Optional["ObsSpec"] = None,
    overload: Optional[OverloadSpec] = None,
    detector: Optional[DetectorSpec] = None,
) -> FleetResult:
    """One-shot convenience wrapper around :class:`ClusterSimulator`."""
    cluster = ClusterSimulator(
        devices,
        tenants,
        balancer=balancer,
        frequency_mhz=frequency_mhz,
        queue_depth=queue_depth,
        policy=policy,
    )
    return cluster.run(
        duration_cycles,
        seed=seed,
        drain=drain,
        scenario=scenario,
        engine=engine,
        obs=obs,
        overload=overload,
        detector=detector,
    )
