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

Every run follows one request lifecycle: each arrival, retry and hedge
is a :class:`~repro.serve.simulator.Request` that lands, queues, is
admitted at an epoch boundary and completes (or is lost, dropped, timed
out or failed over).  Overload control is a hook on that lifecycle, not
a second path: when active, an
:class:`~repro.serve.overload.OverloadController` takes over admission,
dispatch order, completion accounting and client retries.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:
    from ..obs.telemetry import ObsSpec, TimeSeries

from ..scenario.faults import Degradation, Incident, Outage
from ..scenario.library import ScenarioSpec, get_scenario
from ..scenario.resilience import compute_resilience
from ..serve.metrics import LatencySummary, TenantStats, fold_sum
from ..serve.overload import (
    OverloadController,
    OverloadSpec,
    OverloadTenantState,
)
from ..serve.simulator import DROP_POLICIES, Request, TenantSpec, TenantState
from .balancer import Balancer, make_balancer, routes_fixed
from .detector import DetectorSpec, FailureDetector
from .device import DeviceSpec
from .metrics import FleetResult, ReplicaStats

__all__ = ["Replica", "ClusterSimulator", "simulate_fleet"]


class Replica:
    """Runtime model of one board: per-tenant states + busy counters.

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
        base, plans = spec.plans()
        self.epoch = spec.resolve_epoch()
        self.num_clps = base.num_clps
        self.clp_busy = [0.0] * base.num_clps
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
                )
            else:
                self.states[tenant.name] = TenantState(
                    tenant, depth, clp_cycles, queue_depth, policy
                )

    @property
    def outstanding(self) -> int:
        """Requests queued or in the pipeline (the balancer's load signal)."""
        return sum(
            len(state.queue) + state.pipeline for state in self.states.values()
        )

    @property
    def healthy(self) -> bool:
        return self.down_depth == 0

    @property
    def degraded(self) -> bool:
        """True while any gray-failure window covers this replica."""
        return any(self.gray.values())

    @property
    def slow_factor(self) -> float:
        stack = self.gray["slow"]
        return max(stack) if stack else 1.0

    @property
    def error_rate(self) -> float:
        stack = self.gray["flaky"]
        return min(1.0, max(stack)) if stack else 0.0

    @property
    def link_delay_epochs(self) -> float:
        stack = self.gray["link-delay"]
        return max(stack) if stack else 0.0

    def gray_begin(self, mode: str, severity: float) -> None:
        self.gray[mode].append(severity)

    def gray_end(self, mode: str, severity: float) -> None:
        self.gray[mode].remove(severity)

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
    unroutable: int,
    gate: Mapping[str, int],
    timed_out: int = 0,
    failed_over: int = 0,
) -> TenantStats:
    """Fleet-wide view of one tenant: merge per-replica stats and samples.

    ``stats`` are the replicas' already-reduced views of ``states`` (same
    order); counters sum from them, and latency percentiles merge the raw
    samples — except for a tenant served by one state, whose summary is
    reused rather than sorting the same latencies a second time.

    ``unroutable`` counts arrivals that found no healthy replica to land
    on during an outage — they never reached a replica's state, so the
    fleet books them here, once as an arrival and once as lost, keeping
    the conservation invariant (arrivals = completions + drops + lost +
    rejected + expired + timed_out + in-flight) intact.  ``gate`` is the
    overload controller's front-door ledger for this tenant
    (:attr:`~repro.serve.overload.OverloadController.gate`) — token-bucket
    and brownout rejections equally never landed on a replica, so they
    are folded in here the same way (once as an arrival, once as
    rejected).
    ``timed_out``/``failed_over`` are the cluster's request-timeout
    ledger (requests reaped from queues after the detector's deadline,
    and logical requests that failed over at least once) — fleet-level
    concepts, tracked outside the per-replica tenant states.
    """
    if len(stats) == 1:
        latency = stats[0].latency
    else:
        latency = LatencySummary.of(np.concatenate(
            [np.asarray(state.latencies, dtype=np.float64) for state in states]
        ))
    completions = sum(s.completions for s in stats)
    firsts = [s.first_completion for s in states if s.first_completion is not None]
    lasts = [s.last_completion for s in states if s.last_completion is not None]
    steady = None
    if completions >= 2 and firsts and max(lasts) > min(firsts):
        steady = (completions - 1) / (max(lasts) - min(firsts))
    return TenantStats(
        name=spec.name,
        offered_rate_per_cycle=spec.process.mean_rate,
        arrivals=(
            sum(s.arrivals for s in stats)
            + unroutable
            + gate.get("arrivals", 0)
        ),
        completions=completions,
        drops=sum(s.drops for s in stats),
        in_flight=sum(s.in_flight for s in stats),
        latency=latency,
        mean_queue_depth=fold_sum([s.mean_queue_depth for s in stats]),
        peak_queue_depth=max(s.peak_queue_depth for s in stats),
        steady_rate_per_cycle=steady,
        lost=sum(s.lost for s in stats) + unroutable,
        rejected=sum(s.rejected for s in stats) + gate.get("rejected", 0),
        expired=sum(s.expired for s in stats),
        retries=sum(s.retries for s in stats) + gate.get("retries", 0),
        hedges=sum(s.hedges for s in stats) + gate.get("hedges", 0),
        late=sum(s.late for s in stats),
        priority=spec.priority,
        timed_out=timed_out,
        failed_over=failed_over,
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

        ``engine`` selects the execution strategy: ``"auto"`` (default)
        uses the epoch-batched fast path (:mod:`repro.sim.fastpath`)
        for scenario-free runs and the event engine otherwise;
        ``"fast"``/``"event"`` force a choice (``"fast"`` with a
        scenario raises).  Both engines produce bit-identical results;
        routing policies whose choices depend on the global event
        interleaving (least-outstanding, power-of-two, random across
        multiple replicas) are executed on the event engine regardless,
        since their behaviour *is* that interleaving.

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
        tracing.  Observation needs the event engine: ``engine="auto"``
        falls back to it for observed runs (scalars stay bit-identical);
        an explicit ``engine="fast"`` keeps the fast path where it
        applies and reports ``timeseries=None``, and raises if a trace
        was requested.  ``obs=None`` (default) changes nothing.

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
        from ..sim.engine import Simulator
        from ..sim.fastpath import (
            fleet_fast_supported,
            resolve_engine,
            run_fleet_fast,
        )
        if duration_cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if overload is None and scenario is not None:
            overload = scenario.overload
        if detector is None and scenario is not None:
            detector = scenario.detector
        detector_active = detector is not None and detector.active
        overload_active = (overload is not None and overload.active) or any(
            spec.deadline_ms is not None for spec in self.tenants
        )
        ospec: Optional[OverloadSpec] = None
        if overload_active:
            ospec = overload if overload is not None else OverloadSpec()
        concrete = resolve_engine(
            engine,
            has_scenario=scenario is not None,
            has_overload=overload_active,
            has_detector=detector_active,
        )
        obs_active = obs is not None and obs.active
        if obs_active and concrete == "fast":
            if engine == "fast" and obs.trace is not None:
                raise ValueError(
                    "engine='fast' cannot emit a trace; use 'auto' or 'event'"
                )
            if engine != "fast":
                # The fast solver has no event stream to sample or
                # trace; "auto" prefers observability over speed.
                concrete = "event"

        replicas: List[Replica] = []
        for device in self.devices:
            for _ in range(device.count):
                replicas.append(
                    Replica(
                        device,
                        len(replicas),
                        self.tenants,
                        self.queue_depth,
                        self.policy,
                        overload=ospec,
                        cycles_per_ms=self.frequency_mhz * 1e3,
                    )
                )
        eligible: Dict[str, Tuple[int, ...]] = {
            spec.name: tuple(
                replica.index
                for replica in replicas
                if replica.serves(spec.name)
            )
            for spec in self.tenants
        }
        balancer = self._make_balancer()
        balancer.bind(replicas, random.Random(f"{seed}/balancer"))

        horizon = float(duration_cycles)

        if concrete == "fast" and fleet_fast_supported(balancer, eligible):
            elapsed = run_fleet_fast(
                replicas, self.tenants, eligible, balancer,
                horizon, seed, drain,
            )
            return self._finalize(
                balancer, replicas, horizon, elapsed, seed, drain,
                None, [], {}, {}, {}, [],
            )

        recorder = obs.make_recorder(horizon) if obs_active else None
        tracer = obs.trace if obs_active else None

        sim = Simulator(
            on_event=(
                None
                if recorder is None
                else lambda when: recorder.count("engine_events", when)
            )
        )
        #: One open/closed flag per tenant *stream* (shared by replicas).
        stream_open = [True] * len(self.tenants)

        # ----------------------------------------------- scenario overlay
        # Surge shapes swap each tenant's arrival process for a
        # time-varying one; fault specs materialize into concrete outage
        # windows against a *dedicated* RNG substream, so the arrival
        # streams below draw exactly what they would without a scenario.
        processes = [spec.process for spec in self.tenants]
        outages: List[Outage] = []
        degradations: List[Degradation] = []
        failure_policy = "requeue"
        if scenario is not None:
            failure_policy = scenario.failure_policy
            if scenario.surge is not None:
                processes = [
                    scenario.surge.reshape(
                        spec.process, horizon, index, len(self.tenants)
                    )
                    for index, spec in enumerate(self.tenants)
                ]
            fault_rng = random.Random(f"{seed}/scenario/faults")
            for fault in scenario.faults:
                outages.extend(
                    fault.materialize(horizon, len(replicas), fault_rng)
                )
                degradations.extend(
                    fault.materialize_gray(horizon, len(replicas), fault_rng)
                )
            outages.sort(key=lambda o: (o.start, o.replica))
            degradations.sort(key=lambda d: (d.start, d.replica))
        have_faults = bool(outages)
        have_gray = bool(degradations)
        #: Flaky-replica error draws: a dedicated substream, consumed
        #: only while an error-rate window is active at dispatch time,
        #: so flaky faults never perturb arrivals or balancer draws.
        flaky_rng = random.Random(f"{seed}/scenario/flaky")

        # --------------------------------------------- failure detection
        # ``fd`` resolves the spec's ms-denominated knobs into cycles;
        # probing/ejection only runs in "probe" mode (oracle routing
        # stays ground truth).  ``routable`` is the single health
        # predicate the router, evacuation, and failover all consult —
        # with no detector it is exactly ``Replica.healthy``, so
        # detector-free runs stay bit-identical.
        fd: Optional[FailureDetector] = None
        fdet: Optional[FailureDetector] = None
        rt_cycles: Optional[float] = None
        max_failovers = 0
        if detector is not None:
            fd = FailureDetector(
                detector,
                len(replicas),
                epoch=min(replica.epoch for replica in replicas),
                cycles_per_ms=self.frequency_mhz * 1e3,
            )
            rt_cycles = fd.request_timeout
            max_failovers = detector.max_failovers
            if detector.mode == "probe":
                fdet = fd
        if fdet is not None:
            routable = fdet.routable
        elif detector is not None:
            # Oracle detection is gray-aware: degraded replicas are
            # known instantly and routed around.
            def routable(i: int) -> bool:
                replica = replicas[i]
                return replica.healthy and not replica.degraded
        else:
            def routable(i: int) -> bool:
                return replicas[i].healthy
        #: Routing view: each tenant's routable targets in ``eligible``
        #: order, rebuilt only when ``health_version`` (fail, recover,
        #: degrade, undegrade) or the detector's ``version`` moves.
        health_version = 0
        view_key: Optional[Tuple[int, int]] = None
        views: Dict[str, Tuple[int, ...]] = {}

        def routable_targets(name: str) -> Tuple[int, ...]:
            nonlocal view_key
            key = (health_version, fdet.version if fdet is not None else 0)
            if key != view_key:
                views.clear()
                view_key = key
            if name not in views:
                views[name] = tuple(i for i in eligible[name] if routable(i))
            return views[name]

        #: Per-request failover ledger, keyed by the request object:
        #: (attempts so far, start of the current attempt).  Entries
        #: exist only for requests that have failed over at least once.
        failover_state: Dict[Request, Tuple[int, float]] = {}
        #: Fleet-level timeout/failover ledgers (per tenant name).
        timed_out: Dict[str, int] = {spec.name: 0 for spec in self.tenants}
        failed_over: Dict[str, int] = {spec.name: 0 for spec in self.tenants}
        #: Arrivals that found no healthy replica, per tenant name.
        unroutable: Dict[str, int] = {spec.name: 0 for spec in self.tenants}
        #: (finish_cycles, latency_cycles) fleet-wide, for resilience.
        samples: List[Tuple[float, float]] = []
        names = [spec.name for spec in self.tenants]
        tenant_index = {name: index for index, name in enumerate(names)}

        #: Tenant -> (state, index) of its one board when routes are
        #: forced and no fault, gray window or probe ejection can change
        #: them: ``route`` skips the router, as in every serve run.
        fixed_landing: Dict[str, Tuple[TenantState, int]] = (
            {
                name: (replicas[targets[0]].states[name], targets[0])
                for name, targets in eligible.items()
            }
            if not outages
            and not degradations
            and fdet is None
            and routes_fixed(balancer, eligible)
            else {}
        )

        def route(name: str) -> Optional[Tuple[TenantState, int]]:
            """Pick the landing ``(state, replica)`` for an arriving
            request, or book it unroutable (arrived and lost at
            aggregation) when no replica is."""
            landing = fixed_landing.get(name)
            if landing is not None:
                return landing
            targets = routable_targets(name)
            if not targets:
                unroutable[name] += 1
                if tracer is not None:
                    tracer.request_unroutable(name, sim.now)
                return None
            choice = balancer.route(name, targets, sim.now)
            return (replicas[choice].states[name], choice)

        def land(index: int, req: Request) -> None:
            """One attempt (fresh, retry or hedge) reaches the front door.

            Under overload control the controller owns the whole
            admission path (gates, deadline admission, retries); it
            routes through :func:`route` exactly as an ungated arrival.
            """
            if controller is not None:
                controller.arrive(index, req)
                return
            name = names[index]
            landing = route(name)
            if landing is None:
                return
            state, choice = landing
            state.book_arrival(req)
            victim = state.push(req, sim.now)
            if tracer is not None:
                tracer.request_arrived(
                    name,
                    choice,
                    sim.now,
                    dropped=victim is not None,
                    policy=self.policy,
                )

        def give_up(name: str, req: Request, reason: str) -> None:
            """An attempt ended without a reply (lost, dropped on
            requeue, timed out, errored).  Under overload control the
            client notices and may retry; otherwise the outcome is
            final."""
            if controller is not None:
                req.done = True
                controller.client_retry(
                    tenant_index[name], req, reason=reason
                )

        controller: Optional[OverloadController] = None
        if ospec is not None:
            controller = OverloadController(
                ospec,
                self.tenants,
                horizon=horizon,
                frequency_mhz=self.frequency_mhz,
                seed=seed,
                schedule_at=sim.schedule_at,
                now=lambda: sim.now,
                route=route,
                deliver=land,
                tracer=tracer,
                recorder=recorder,
            )

        def start_stream(spec: TenantSpec, index: int) -> None:
            # Keyed by tenant, not replica: the fleet sees the *same*
            # traffic a lone board would.
            rng = random.Random(f"{seed}/{index}/{spec.name}")
            stream: Iterator[float] = processes[index].times(rng)
            limit = spec.limit

            def pump(count: int = 0) -> None:
                if limit is not None and count >= limit:
                    stream_open[index] = False
                    return
                try:
                    when = next(stream)
                except StopIteration:
                    stream_open[index] = False
                    return
                if when > horizon:
                    stream_open[index] = False
                    return

                def fire() -> None:
                    land(index, Request(sim.now))
                    pump(count + 1)

                sim.schedule_at(when, fire)

            pump()

        for index, spec in enumerate(self.tenants):
            start_stream(spec, index)

        # ------------------------------------------------- fault events
        def fail(replica: Replica) -> None:
            nonlocal health_version
            replica.down_depth += 1
            if replica.down_depth > 1:
                return  # already down (overlapping outage windows)
            health_version += 1
            if fdet is not None:
                fdet.note_onset(replica.index, sim.now)
            if tracer is not None:
                tracer.incident_begin(replica.label, sim.now)
            # Work in the pipeline dies with the board; a new generation
            # turns its already-scheduled completion events into no-ops.
            replica.generation += 1
            for state in replica.states.values():
                # Refund the admission-time CLP charge of the destroyed
                # in-flight images: the cycles were booked when each image
                # entered the pipeline, but the board never finishes them,
                # so leaving the charge overstates CLP utilization for the
                # exact windows (incidents) where the number matters.
                for clp_index, cycles in enumerate(state.clp_cycles):
                    replica.clp_busy[clp_index] -= state.pipeline * cycles
                state.lost += state.pipeline
                state.pipeline = 0
                if tracer is not None:
                    tracer.pipeline_killed(
                        state.spec.name, replica.index, sim.now
                    )
                evacuated = list(state.queue)
                if not evacuated:
                    continue
                state._touch(sim.now)
                state.queue.clear()
                name = state.spec.name
                for req in evacuated:
                    rescue = (
                        ()
                        if failure_policy == "lost"
                        else routable_targets(name)
                    )
                    if not rescue:
                        state.lost += 1
                        if tracer is not None:
                            tracer.request_evacuated(
                                name, replica.index, sim.now,
                                outcome="lost",
                            )
                        give_up(name, req, "lost")
                        continue
                    choice = balancer.route(name, rescue, sim.now)
                    victim = replicas[choice].states[name].requeue(
                        req, sim.now
                    )
                    if tracer is not None:
                        tracer.request_evacuated(
                            name, replica.index, sim.now,
                            outcome=(
                                "dropped" if victim is not None else "requeued"
                            ),
                            target=choice,
                        )
                    if victim is not None:
                        give_up(name, victim, "dropped")

        def recover(replica: Replica) -> None:
            nonlocal health_version
            replica.down_depth -= 1
            if replica.down_depth == 0:
                health_version += 1
                if fdet is not None and not replica.degraded:
                    fdet.note_clear(replica.index, sim.now)
                if tracer is not None:
                    tracer.incident_end(replica.label, sim.now)

        for outage in outages:
            target = replicas[outage.replica]
            sim.schedule_at(
                outage.start, lambda target=target: fail(target)
            )
            sim.schedule_at(
                outage.end, lambda target=target: recover(target)
            )

        # ------------------------------------------- gray-failure events
        # Degradations never kill in-flight work: the board keeps
        # serving, just slower / flakier / farther away.  Onset and
        # clearance feed the detector's ground-truth ledger so
        # mean-time-to-detect measures probe latency, not luck.
        def degrade(replica: Replica, deg: Degradation) -> None:
            nonlocal health_version
            was_bad = not replica.healthy or replica.degraded
            replica.gray_begin(deg.mode, deg.severity)
            health_version += 1
            if fdet is not None and not was_bad:
                fdet.note_onset(replica.index, sim.now)
            if tracer is not None:
                tracer.degradation_begin(
                    replica.label, sim.now, mode=deg.mode,
                    severity=deg.severity,
                )

        def undegrade(replica: Replica, deg: Degradation) -> None:
            nonlocal health_version
            replica.gray_end(deg.mode, deg.severity)
            health_version += 1
            if (
                fdet is not None
                and replica.healthy
                and not replica.degraded
            ):
                fdet.note_clear(replica.index, sim.now)
            if tracer is not None:
                tracer.degradation_end(
                    replica.label, sim.now, mode=deg.mode
                )

        for deg in degradations:
            target = replicas[deg.replica]
            sim.schedule_at(
                deg.start,
                lambda target=target, deg=deg: degrade(target, deg),
            )
            sim.schedule_at(
                deg.end,
                lambda target=target, deg=deg: undegrade(target, deg),
            )

        # ------------------------------------------------ detector events
        # Probes are out-of-band (they consume no replica capacity): a
        # probe round-trips one epoch plus any link delay, so a dead
        # board, a straggler, or a slow link misses the deadline, and a
        # flaky board fails the probe with its error probability (its
        # own substream — probe draws never perturb request draws).
        if fdet is not None:
            probe_rng = random.Random(f"{seed}/detector/probe")

            def probe_all(k: int = 1) -> None:
                for replica in replicas:
                    ok = replica.healthy
                    if ok and (
                        replica.slow_factor > 1.0
                        or replica.link_delay_epochs > 0.0
                    ):
                        ok = (
                            replica.epoch * replica.slow_factor
                            + replica.link_delay_epochs * replica.epoch
                        ) <= fdet.probe_timeout
                    if ok and replica.error_rate > 0.0:
                        ok = probe_rng.random() >= replica.error_rate
                    event = fdet.record_probe(replica.index, sim.now, ok)
                    if event is not None and tracer is not None:
                        if event == "ejected":
                            tracer.replica_ejected(
                                replica.label, sim.now, reason="probes"
                            )
                        else:
                            tracer.replica_readmitted(
                                replica.label, sim.now
                            )
                upcoming = (k + 1) * fdet.probe_interval
                if upcoming <= horizon:
                    sim.schedule_at(upcoming, lambda: probe_all(k + 1))

            if fdet.probe_interval <= horizon:
                sim.schedule_at(
                    fdet.probe_interval, lambda: probe_all(1)
                )

            if detector.outlier_error_rate is not None or (
                detector.outlier_p99_factor is not None
            ):

                def outliers(k: int = 1) -> None:
                    for index, reason in fdet.evaluate_outliers(sim.now):
                        if tracer is not None:
                            tracer.replica_ejected(
                                replicas[index].label, sim.now,
                                reason=reason,
                            )
                    upcoming = (k + 1) * fdet.ejection_window
                    if upcoming <= horizon:
                        sim.schedule_at(upcoming, lambda: outliers(k + 1))

                if fdet.ejection_window <= horizon:
                    sim.schedule_at(
                        fdet.ejection_window, lambda: outliers(1)
                    )

        # ------------------------------------------------- request timeout
        # A periodic sweep (twice per timeout) reaps queue entries whose
        # *current attempt* has sat longer than the deadline: failover
        # re-dispatches them (restarting the attempt clock, original
        # arrival kept for latency), an exhausted budget books them as
        # ``timed_out``.  In-pipeline work is past the point of no
        # return — it completes late or dies with the board.
        if rt_cycles is not None:
            sweep_step = rt_cycles / 2.0

            def reap(
                replica: Replica, state: TenantState, req: Request
            ) -> None:
                name = state.spec.name
                if fdet is not None:
                    fdet.record_error(replica.index)
                if failover(replica, state, req):
                    return
                timed_out[name] += 1
                if recorder is not None:
                    recorder.count(f"timeouts/{name}", sim.now)
                if tracer is not None:
                    tracer.request_timeout(name, replica.index, sim.now)
                give_up(name, req, "timeout")

            def sweep(k: int = 1) -> None:
                for replica in replicas:
                    for state in replica.states.values():
                        if not state.queue:
                            continue
                        stale = [
                            req
                            for req in state.queue
                            if sim.now
                            - failover_state.get(req, (0, req.arrival))[1]
                            >= rt_cycles
                        ]
                        if not stale:
                            continue
                        state._touch(sim.now)
                        for req in stale:
                            state.queue.remove(req)
                        for req in stale:
                            reap(replica, state, req)
                upcoming = (k + 1) * sweep_step
                if upcoming <= horizon or (
                    drain
                    and any(
                        state.queue
                        for replica in replicas
                        for state in replica.states.values()
                    )
                ):
                    sim.schedule_at(upcoming, lambda: sweep(k + 1))

            if sweep_step <= horizon:
                sim.schedule_at(sweep_step, lambda: sweep(1))

        record = scenario is not None

        def failover(
            replica: Replica,
            state: TenantState,
            req: Request,
            phase: str = "queue",
        ) -> bool:
            """Re-dispatch a failed/stale request onto another replica.

            Returns True when the request found a new queue (or died as
            a drop there — either way it was handed off); False when
            the failover budget or candidate set is exhausted and the
            caller must book the terminal outcome.
            """
            name = state.spec.name
            used, _ = failover_state.get(req, (0, 0.0))
            candidates = tuple(
                i for i in routable_targets(name) if i != replica.index
            )
            if used >= max_failovers or not candidates:
                failover_state.pop(req, None)
                return False
            # The attempt clock restarts: timeouts measure the current
            # attempt, not the request's total age (latency still does).
            failover_state[req] = (used + 1, sim.now)
            if used == 0:
                failed_over[name] += 1
            choice = balancer.route(name, candidates, sim.now)
            victim = replicas[choice].states[name].requeue(req, sim.now)
            if victim is not None:
                give_up(name, victim, "dropped")
            if recorder is not None:
                recorder.count(f"failovers/{name}", sim.now)
            if tracer is not None:
                tracer.request_failover(
                    name, replica.index, sim.now, target=choice,
                    phase=phase,
                )
            return True

        def flaky_error(
            replica: Replica, state: TenantState, req: Request
        ) -> None:
            """A dispatched request came back as an error (flaky board)."""
            name = state.spec.name
            if fdet is not None:
                fdet.record_error(replica.index)
            if recorder is not None:
                recorder.count(f"errors/{name}", sim.now)
            if failover(replica, state, req, phase="pipeline"):
                return
            # Terminal: the error response is the final word.
            state.lost += 1
            if tracer is not None:
                tracer.request_errored(name, replica.index, sim.now)
            give_up(name, req, "error")

        def finish(
            replica: Replica,
            state: TenantState,
            req: Request,
            gen: int,
            errored: bool = False,
        ) -> None:
            if replica.generation != gen:
                # The board died after admission: the loss was booked at
                # fail time; the client notices around when the reply
                # was due.
                give_up(state.spec.name, req, "lost")
                return
            if errored:
                state.pipeline -= 1
                flaky_error(replica, state, req)
                return
            if controller is not None:
                controller.complete(
                    tenant_index[state.spec.name], state, req
                )
            else:
                state.on_completion(req, sim.now)
            if fdet is not None:
                fdet.record_success(replica.index, sim.now - req.arrival)
            if failover_state:
                failover_state.pop(req, None)
            if tracer is not None:
                tracer.request_completed(
                    state.spec.name, replica.index, sim.now, req.arrival
                )
            if record:
                samples.append((sim.now, sim.now - req.arrival))

        def make_boundary(replica: Replica):
            epoch = replica.epoch

            def boundary(count: int = 0) -> None:
                dispatching = replica.healthy
                if dispatching and have_gray:
                    sf = replica.slow_factor
                    if sf > 1.0:
                        # A straggler dispatches only every ``sf``-th
                        # boundary — epoch slowdown without perturbing
                        # the exact boundary grid.  The fractional
                        # accumulator keeps non-integer factors honest;
                        # the catch-up clamp resets a stale marker when
                        # a new slow window opens.
                        if count - replica.slow_next >= sf:
                            replica.slow_next = float(count)
                        if count < replica.slow_next:
                            dispatching = False
                        else:
                            replica.slow_next += sf
                if dispatching:
                    for state in replica.states.values():
                        if have_gray:
                            service = (
                                state.depth_epochs
                                * epoch
                                * replica.slow_factor
                                + replica.link_delay_epochs * epoch
                            )
                            flaky = replica.error_rate
                        else:
                            service = state.depth_epochs * epoch
                            flaky = 0.0
                        req = (
                            controller.dispatch(
                                tenant_index[state.spec.name],
                                state,
                                replica.index,
                            )
                            if controller is not None
                            else state.admit(sim.now)
                        )
                        if req is None:
                            continue
                        errored = (
                            flaky > 0.0 and flaky_rng.random() < flaky
                        )
                        if tracer is not None:
                            tracer.request_dispatched(
                                state.spec.name, replica.index, sim.now,
                                req.arrival,
                            )
                        for clp_index, cycles in enumerate(state.clp_cycles):
                            replica.clp_busy[clp_index] += cycles
                        sim.schedule(
                            service,
                            lambda state=state, req=req, gen=replica.generation, errored=errored: finish(
                                replica, state, req, gen, errored
                            ),
                        )
                # Exact grid ``count * epoch``: chaining ``now + epoch``
                # would accumulate float error over long horizons and
                # drift from the fast engine's batched grid.
                upcoming = (count + 1) * epoch
                if upcoming <= horizon or (
                    drain
                    and (
                        any(state.queue for state in replica.states.values())
                        or any(
                            stream_open[index]
                            for index, spec in enumerate(self.tenants)
                            if replica.serves(spec.name)
                        )
                        or (
                            controller is not None
                            and controller.pending_deliveries > 0
                        )
                    )
                ):
                    sim.schedule_at(upcoming, lambda: boundary(count + 1))

            return boundary

        for replica in replicas:
            make_boundary(replica)()  # first dispatch at cycle 0

        if recorder is not None:
            from ..obs.telemetry import BusySampler, TenantGroupSampler

            tenant_samplers = [
                TenantGroupSampler(
                    recorder,
                    spec.name,
                    [
                        replicas[i].states[spec.name]
                        for i in eligible[spec.name]
                    ],
                    unroutable=lambda name=spec.name: unroutable[name],
                )
                for spec in self.tenants
            ]
            busy_samplers = [
                BusySampler(
                    recorder, f"util/{replica.label}", replica.clp_busy
                )
                for replica in replicas
            ]

            def sample(window: int, when: float) -> None:
                for sampler in tenant_samplers:
                    sampler.sample(window, when)
                for sampler in busy_samplers:
                    sampler.sample(window, when)
                recorder.gauge(
                    "healthy_replicas",
                    window,
                    sum(1 for replica in replicas if replica.healthy),
                )
                if fdet is not None:
                    # The detector's view next to the oracle's: the two
                    # diverge exactly during detection lag and false
                    # positives — the gap *is* the gray-failure story.
                    recorder.gauge(
                        "detected_healthy_replicas",
                        window,
                        fdet.detected_healthy_count(),
                    )
                for replica in replicas:
                    recorder.gauge(
                        f"outstanding/{replica.label}",
                        window,
                        replica.outstanding,
                    )
                    if have_faults or have_gray:
                        recorder.gauge(
                            f"healthy/{replica.label}",
                            window,
                            (
                                1.0
                                if replica.healthy and not replica.degraded
                                else 0.0
                            ),
                        )

            # Read-only samplers on the shared grid; scheduled last so
            # they never perturb the run they watch.
            for window, when in enumerate(recorder.times):
                sim.schedule_at(
                    when,
                    lambda window=window, when=when: sample(window, when),
                )

        if drain:
            elapsed = max(sim.run(), horizon)
        else:
            sim.run(until=horizon)
            elapsed = horizon

        return self._finalize(
            balancer, replicas, horizon, elapsed, seed, drain,
            scenario, outages, unroutable, timed_out, failed_over, samples,
            timeseries=(
                recorder.finalize() if recorder is not None else None
            ),
            controller=controller,
            degradations=degradations,
            detector_spec=(
                detector
                if detector is not None
                and (detector.active or have_gray)
                else None
            ),
            fdet=fdet,
        )

    def _finalize(
        self,
        balancer: Balancer,
        replicas: List[Replica],
        horizon: float,
        elapsed: float,
        seed: int,
        drain: bool,
        scenario: Optional[ScenarioSpec],
        outages: List[Outage],
        unroutable: Mapping[str, int],
        timed_out: Mapping[str, int],
        failed_over: Mapping[str, int],
        samples: List[Tuple[float, float]],
        timeseries: Optional["TimeSeries"] = None,
        controller: Optional[OverloadController] = None,
        degradations: Optional[List[Degradation]] = None,
        detector_spec: Optional[DetectorSpec] = None,
        fdet: Optional[FailureDetector] = None,
    ) -> FleetResult:
        """Reduce final replica state to a :class:`FleetResult` (engine-shared).

        The per-tenant ledgers (``unroutable``, ``timed_out``,
        ``failed_over``) may omit tenants with nothing booked; the fast
        path passes them empty.
        """
        replica_stats = tuple(replica.stats(elapsed) for replica in replicas)
        #: Each replica's reduced tenant stats by name, reused below so
        #: no tenant's latencies are reduced twice.
        by_name = [
            {stats.name: stats for stats in rstats.tenants}
            for rstats in replica_stats
        ]
        if controller is not None:
            gates, overload = controller.gate, controller.report()
        else:
            gates, overload = {}, None
        aggregates = tuple(
            _aggregate_tenant(
                spec,
                [
                    replica.states[spec.name]
                    for replica in replicas
                    if replica.serves(spec.name)
                ],
                [
                    by_name[replica.index][spec.name]
                    for replica in replicas
                    if replica.serves(spec.name)
                ],
                unroutable.get(spec.name, 0),
                gates.get(spec.name, {}),
                timed_out=timed_out.get(spec.name, 0),
                failed_over=failed_over.get(spec.name, 0),
            )
            for spec in self.tenants
        )

        incidents: Tuple[Incident, ...] = ()
        resilience = None
        if scenario is not None:
            log: List[Incident] = [
                Incident(
                    kind="fault",
                    target=replicas[o.replica].label,
                    start_cycles=o.start,
                    end_cycles=min(o.end, elapsed),
                    recovered=o.end <= elapsed,
                )
                for o in outages
            ]
            log.extend(
                Incident(
                    kind="gray",
                    target=replicas[d.replica].label,
                    start_cycles=d.start,
                    end_cycles=min(d.end, elapsed),
                    recovered=d.end <= elapsed,
                )
                for d in (degradations or [])
            )
            if scenario.surge is not None:
                log.extend(
                    Incident(
                        kind="surge",
                        target="fleet",
                        start_cycles=start,
                        end_cycles=end,
                        recovered=True,
                    )
                    for start, end in scenario.surge.windows(horizon)
                )
            incidents = tuple(
                sorted(log, key=lambda i: (i.start_cycles, i.target))
            )
            resilience = compute_resilience(
                completions=samples,
                incidents=incidents,
                horizon_cycles=elapsed,
                num_replicas=len(replicas),
                lost_requests=sum(t.lost for t in aggregates),
                mean_time_to_detect_cycles=(
                    fdet.mean_time_to_detect() if fdet is not None else None
                ),
            )

        return FleetResult(
            balancer=balancer.name,
            num_replicas=len(replicas),
            frequency_mhz=self.frequency_mhz,
            horizon_cycles=horizon,
            elapsed_cycles=elapsed,
            seed=seed,
            queue_depth=self.queue_depth,
            policy=self.policy,
            drained=drain,
            tenants=aggregates,
            replicas=replica_stats,
            scenario=scenario.name if scenario is not None else None,
            incidents=incidents,
            resilience=resilience,
            timeseries=timeseries,
            overload=overload,
            detector=detector_spec,
        )


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
