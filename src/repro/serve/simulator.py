"""Event-driven multi-tenant traffic simulation over Multi-CLP designs.

The accelerator model follows Section 4.1 of the paper: a design runs
back-to-back *epochs* of ``epoch_cycles``; at every epoch boundary each
tenant (network) may inject one image into the pipeline, and an image
completes ``pipeline_depth`` epochs after injection — the number of
in-flight images per tenant (layer count in the general schedule, CLP
count for latency-constrained adjacent assignments).  A
:class:`~repro.opt.joint.JointDesign` advances one image of *every*
member network per epoch (Section 4.3), so each network is a tenant
with its own admission slot.

On top of that service process sits an open-loop traffic model: seeded
arrival streams (:mod:`repro.serve.arrivals`) feed bounded per-tenant
FIFO queues of :class:`Request` with a drop policy.  This module owns
the device model — the tenant plan, the per-tenant queue state, the
epoch calibration — while the event loop that runs it lives in one place,
:class:`repro.fleet.cluster.ClusterSimulator`: :func:`simulate_traffic`
is a one-board fleet run.  Epoch length can be taken from the analytic
model (optionally bandwidth-capped through
:meth:`MultiCLPDesign.epoch_cycles_under_bandwidth`) or calibrated by
running the cycle-level system simulator
(:func:`repro.sim.system.simulate_system`) on one epoch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from ..obs.telemetry import ObsSpec
    from .overload import OverloadSpec

from ..core.design import MultiCLPDesign
from ..opt.joint import _JOINT_SEPARATOR, JointDesign
from .arrivals import ArrivalProcess
from .metrics import COUNTERS, LatencySummary, ServeResult, TenantStats

__all__ = [
    "TenantSpec",
    "Request",
    "TenantState",
    "DROP_POLICIES",
    "tenant_plans",
    "design_name",
    "resolve_epoch",
    "service_capacity_rps",
    "pipeline_latency_cycles",
    "floor_window_cycles",
    "simulate_traffic",
]

#: Queue-full policies: reject the newcomer, or evict the oldest waiter.
DROP_POLICIES = ("drop-tail", "drop-head")


@dataclass(frozen=True)
class TenantSpec:
    """One request class: a network name and its arrival process."""

    name: str
    process: ArrivalProcess
    #: Optional bound on generated requests (guards open-ended traces).
    limit: Optional[int] = None
    #: Scheduling priority class (higher = more important).  Plain FIFO
    #: runs ignore it; the overload layer's brownout controller sheds
    #: lower classes first and its ``priority`` discipline favours fresh
    #: work within a class.
    priority: int = 0
    #: Per-request deadline in milliseconds.  When set, completions past
    #: it count as ``late`` (served but not goodput), deadline-aware
    #: disciplines (``edf``/``priority``) shed requests that expire in
    #: queue, and deadline admission can reject at enqueue.  Setting it
    #: activates the overload layer (event engine under ``auto``).
    deadline_ms: Optional[float] = None


def tenant_plans(
    design: Union[MultiCLPDesign, JointDesign],
) -> Tuple[MultiCLPDesign, Dict[str, Tuple[int, Tuple[int, ...]]]]:
    """Per-tenant (pipeline depth, per-CLP cycles-per-image) from a design.

    The service model every higher layer shares: one admission slot per
    tenant per epoch, completion ``depth`` epochs later.  The fleet
    simulator (:mod:`repro.fleet`) builds its per-replica device models
    from exactly this plan so single-device and cluster runs agree.
    """
    if isinstance(design, JointDesign):
        base = design.design
        plans: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        for network in design.networks:
            prefix = f"{network.name}{_JOINT_SEPARATOR}"
            per_clp = tuple(
                sum(
                    clp.cycles_for(layer)
                    for layer in clp.layers
                    if layer.name.startswith(prefix)
                )
                for clp in base.clps
            )
            # General (Figure 5) schedule: one image per layer position.
            plans[network.name] = (len(network.layers), per_clp)
        return base, plans
    base = design
    return base, {
        base.network.name: (base.pipeline_depth_images, base.clp_cycles)
    }


def design_name(
    design: Union[MultiCLPDesign, JointDesign], joiner: str = "+"
) -> str:
    """The network(s) a design serves, as one display name."""
    if isinstance(design, JointDesign):
        return joiner.join(net.name for net in design.networks)
    return design.network.name


def service_capacity_rps(
    design: Union[MultiCLPDesign, JointDesign], frequency_mhz: float
) -> float:
    """Analytic serving ceiling: one image per tenant per epoch."""
    return frequency_mhz * 1e6 / design.epoch_cycles


def pipeline_latency_cycles(
    design: Union[MultiCLPDesign, JointDesign],
    bytes_per_cycle: Optional[float] = None,
) -> float:
    """Worst per-tenant zero-queueing latency: pipeline depth x epoch.

    The shortest horizon at which a request can possibly complete; a
    simulation window below this reports every request as in-flight
    (callers that want percentiles should budget a few multiples, or
    drain)."""
    base, plans = tenant_plans(design)
    epoch = resolve_epoch(base, bytes_per_cycle, "model")
    return max(depth for depth, _ in plans.values()) * epoch


def floor_window_cycles(
    duration_cycles: float,
    design: Union[MultiCLPDesign, JointDesign],
    bytes_per_cycle: Optional[float] = None,
) -> float:
    """``duration_cycles`` floored at 3 pipeline latencies, so a traffic
    window completes requests and reports real percentiles."""
    latency = pipeline_latency_cycles(design, bytes_per_cycle)
    return max(float(duration_cycles), 3.0 * latency)


class Request:
    """One attempt of one logical request, as it moves through a queue.

    Every tenant queue holds these, in every run.  Mutable on purpose:
    ``done`` flips when the attempt leaves the queue (dispatched,
    dropped, evicted, expired, or given up), which is what cancels a
    pending hedge.  ``seq`` (creation order, stamped by the
    overload controller; 0 when unstamped), ``attempt``,
    ``hedge``/``hedged`` and ``backoff_cycles`` are the overload
    layer's discipline and client-retry state
    (:mod:`repro.serve.overload`).  The object is also the request's
    identity: the fleet's failover ledger keys on it.
    """

    __slots__ = (
        "arrival", "attempt", "hedge", "hedged", "done", "backoff_cycles",
        "seq",
    )

    def __init__(
        self,
        arrival: float,
        attempt: int = 1,
        *,
        hedge: bool = False,
        backoff_cycles: float = 0.0,
        seq: int = 0,
    ) -> None:
        self.arrival = arrival
        self.attempt = attempt
        self.hedge = hedge
        self.hedged = False
        self.done = False
        self.backoff_cycles = backoff_cycles
        self.seq = seq


class _UnreadLoad:
    """A load counter no balancer reads: a front door's."""

    outstanding = 0


class TenantState:
    """Mutable bookkeeping for one tenant on one board during a run.

    The queue is a bounded FIFO of :class:`Request`: arrivals and
    requeues join the tail, :meth:`admit` takes the head.  The overload
    layer's :class:`~repro.serve.overload.OverloadTenantState` swaps in
    a queue discipline by overriding :meth:`_insert` and sheds expired
    heads before each admission; the lifecycle and every counter live
    here, so one :meth:`stats` serves both.  The cluster keeps one more
    per tenant as its *front door*, booking the attempts that reach no
    board queue (unroutable, gate-rejected).

    ``board`` is the replica whose ``outstanding`` counter (the
    balancer's load signal) this state keeps equal to its share,
    ``len(queue) + pipeline``: every method that changes the queue or
    the pipeline adjusts it, and nothing else writes it during a run.
    A front door has no board and counts into a private sink.
    """

    def __init__(
        self,
        spec: TenantSpec,
        depth_epochs: int,
        clp_cycles: Tuple[int, ...],
        queue_depth: int,
        policy: str,
        board=None,
    ):
        self.spec = spec
        self.board = board if board is not None else _UnreadLoad()
        self.depth_epochs = depth_epochs
        self.clp_cycles = clp_cycles
        self.queue_depth = queue_depth
        self.policy = policy
        self.queue: Deque[Request] = deque()
        self.arrivals = 0
        self.drops = 0
        self.lost = 0
        self.completions = 0
        self.pipeline = 0
        #: Images admitted and not killed: the CLP charge.  The board's
        #: busy cycles are each state's count times its ``clp_cycles``.
        self.charged = 0
        #: Overload-layer outcomes; they stay 0 in runs without it.
        self.rejected = 0
        self.expired = 0
        self.retries = 0
        self.hedges = 0
        self.late = 0
        #: Fleet outcomes, booked only at the door; 0 on every board.
        self.timed_out = 0
        self.failed_over = 0
        #: Completion latencies in cycles (the fast path stores a float64
        #: array; both reduce through ``LatencySummary.of``).
        self.latencies: List[float] = []
        self.first_completion: Optional[float] = None
        self.last_completion: Optional[float] = None
        self.peak_queue = 0
        self._occupancy_area = 0.0
        self._occupancy_mark = 0.0

    # ------------------------------------------------------------- occupancy
    def _touch(self, now: float) -> None:
        self._occupancy_area += len(self.queue) * (now - self._occupancy_mark)
        self._occupancy_mark = now

    def mean_queue_depth(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        # Flush the integral up to the end of the observation window.
        area = self._occupancy_area + len(self.queue) * (
            elapsed - self._occupancy_mark
        )
        return area / elapsed

    # ---------------------------------------------------------------- events
    def _insert(self, req: Request) -> None:
        self.queue.append(req)

    def book_arrival(self, req: Request) -> None:
        """Count one attempt arriving (before any admission decision)."""
        self.arrivals += 1
        if req.hedge:
            self.hedges += 1
        elif req.attempt > 1:
            self.retries += 1

    def push(self, req: Request, now: float) -> Optional[Request]:
        """Queue an arrived request; returns the drop-policy victim.

        ``None`` means the request was queued with room to spare.  Under
        drop-tail a full queue returns ``req`` itself (never queued);
        under drop-head it returns the evicted head — the entry that
        would have been served next — and queues ``req``.
        """
        self._touch(now)
        victim: Optional[Request] = None
        if len(self.queue) >= self.queue_depth:
            self.drops += 1
            if self.policy == "drop-tail":
                req.done = True
                return req
            # drop-head: evict the stalest waiter to admit fresh work.
            victim = self.queue.popleft()
            victim.done = True
        else:
            self.board.outstanding += 1
        self._insert(req)
        self.peak_queue = max(self.peak_queue, len(self.queue))
        return victim

    def requeue(self, req: Request, now: float) -> Optional[Request]:
        """Re-admit a request evacuated or failed over from another board.

        Not a new arrival — the request was already counted where it
        first landed and keeps its arrival time.  Here it joins the
        tail, as a client retry would; a discipline queue re-sorts it
        instead (:class:`~repro.serve.overload.OverloadTenantState`).
        Benchmark references pin both rules.  A full queue sheds the
        request as an ordinary drop on this board and returns it.
        """
        self._touch(now)
        if len(self.queue) >= self.queue_depth:
            self.drops += 1
            req.done = True
            return req
        req.done = False
        self.board.outstanding += 1
        self._insert(req)
        self.peak_queue = max(self.peak_queue, len(self.queue))
        return None

    def admit(self, now: float) -> Optional[Request]:
        """Pop the head of the queue into the pipeline."""
        if not self.queue:
            return None
        self._touch(now)
        self.pipeline += 1
        self.charged += 1
        req = self.queue.popleft()
        req.done = True
        return req

    def on_completion(self, req: Request, now: float) -> None:
        self.pipeline -= 1
        self.board.outstanding -= 1
        self.completions += 1
        self.latencies.append(now - req.arrival)
        if self.first_completion is None:
            self.first_completion = now
        self.last_completion = now

    def on_error(self) -> None:
        """A dispatched request came back as an error: it leaves the
        pipeline without completing (the caller books its outcome)."""
        self.pipeline -= 1
        self.board.outstanding -= 1

    def kill(self) -> None:
        """The board died: every image in the pipeline is lost, and so
        is its CLP charge, since the board never finishes them."""
        killed = self.pipeline
        self.lost += killed
        self.charged -= killed
        self.pipeline = 0
        self.board.outstanding -= killed

    def evacuate(self, now: float) -> List[Request]:
        """Empty the queue of a board that died; the waiters, oldest
        first (the caller requeues or books each)."""
        evacuated = list(self.queue)
        if evacuated:
            self._touch(now)
            self.queue.clear()
            self.board.outstanding -= len(evacuated)
        return evacuated

    def withdraw(self, stale: Sequence[Request], now: float) -> None:
        """Take ``stale`` (queued requests past their timeout) out of
        the queue; the caller fails each over or books it."""
        self._touch(now)
        for req in stale:
            self.queue.remove(req)
        self.board.outstanding -= len(stale)

    # ----------------------------------------------------------------- final
    def stats(self, elapsed: float) -> TenantStats:
        steady = None
        if (
            self.completions >= 2
            and self.last_completion is not None
            and self.last_completion > self.first_completion
        ):
            steady = (self.completions - 1) / (
                self.last_completion - self.first_completion
            )
        return TenantStats(
            name=self.spec.name,
            offered_rate_per_cycle=self.spec.process.mean_rate,
            in_flight=len(self.queue) + self.pipeline,
            latency=LatencySummary.of(self.latencies),
            mean_queue_depth=self.mean_queue_depth(elapsed),
            peak_queue_depth=self.peak_queue,
            steady_rate_per_cycle=steady,
            priority=self.spec.priority,
            **{name: getattr(self, name) for name in COUNTERS},
        )


def resolve_epoch(
    base: MultiCLPDesign,
    bytes_per_cycle: Optional[float],
    calibrate: str,
) -> float:
    if calibrate == "model":
        return base.epoch_cycles_under_bandwidth(bytes_per_cycle)
    if calibrate == "simulate":
        from ..sim.system import simulate_system

        return simulate_system(base, bytes_per_cycle=bytes_per_cycle).epoch_cycles
    raise ValueError(
        f"unknown calibration {calibrate!r}; expected 'model' or 'simulate'"
    )


def simulate_traffic(
    design: Union[MultiCLPDesign, JointDesign],
    tenants: Sequence[TenantSpec],
    duration_cycles: float,
    *,
    frequency_mhz: float = 100.0,
    seed: int = 0,
    queue_depth: int = 64,
    policy: str = "drop-tail",
    bytes_per_cycle: Optional[float] = None,
    calibrate: str = "model",
    drain: bool = False,
    engine: str = "auto",
    obs: Optional["ObsSpec"] = None,
    overload: Optional["OverloadSpec"] = None,
) -> ServeResult:
    """Drive ``design`` with seeded request streams and measure serving.

    A serve run *is* a one-board fleet run: this builds a single-replica
    :class:`~repro.fleet.cluster.ClusterSimulator` over ``design`` and
    reshapes its :class:`~repro.fleet.metrics.FleetResult` into a
    :class:`~repro.serve.metrics.ServeResult`.  Arrival streams keep
    their ``{seed}/{index}/{name}`` RNG keys, so a lone board sees the
    same traffic a fleet would.

    ``tenants`` must name exactly the networks the design serves (any
    order).  With ``drain=False`` the run is cut at ``duration_cycles``
    and queued/pipelined requests are reported as in-flight; with
    ``drain=True`` arrivals stop at the horizon but dispatch continues
    until every admitted request completes, so
    ``arrivals == completions + drops`` exactly.

    ``engine`` selects the execution strategy, not the semantics:
    ``"event"`` runs the reference discrete-event loop, ``"fast"`` the
    epoch-batched solver (:mod:`repro.sim.fastpath`), and ``"auto"``
    (the default) picks fast — both produce the same result bit for
    bit, which the differential test suite pins.

    ``obs`` (an :class:`~repro.obs.ObsSpec`) opts the run into windowed
    telemetry (carried on the result's ``timeseries`` field, with the
    fleet's series for board ``#0``) and/or request-lifecycle tracing.
    Observation samples the event stream, so it needs the event engine:
    under ``engine="auto"`` an observed run uses the event loop (its
    scalar results are bit-identical to an unobserved run), and an
    explicit ``engine="fast"`` with any active ``obs`` raises.  With
    ``obs=None`` (the default) no extra events are scheduled.

    ``overload`` (an :class:`~repro.serve.overload.OverloadSpec`) opts
    the run into admission control, queue disciplines, client retries,
    and brownout (see :mod:`repro.serve.overload`).  Any active overload
    feature — including a tenant ``deadline_ms`` — is a feedback loop
    over the event stream, so ``engine="auto"`` falls back to the event
    engine and an explicit ``engine="fast"`` raises.  With every
    feature off, results are bit-identical to passing ``overload=None``.

    Determinism: identical arguments (including ``seed``) produce an
    identical :class:`~repro.serve.metrics.ServeResult`, bit for bit.
    """
    from ..fleet.cluster import ClusterSimulator
    from ..fleet.device import DeviceSpec

    device = DeviceSpec(
        design, bytes_per_cycle=bytes_per_cycle, calibrate=calibrate
    )
    base, _ = device.plans()
    fleet = ClusterSimulator(
        device,
        tenants,
        frequency_mhz=frequency_mhz,
        queue_depth=queue_depth,
        policy=policy,
    ).run(
        duration_cycles,
        seed=seed,
        drain=drain,
        engine=engine,
        obs=obs,
        overload=overload,
    )
    board = fleet.replicas[0]
    return ServeResult(
        design_label=f"{design_name(design, ' + ')} [{base.dtype.label}]",
        num_clps=len(board.clp_busy_fraction),
        epoch_cycles=board.epoch_cycles,
        pipeline_depths=board.pipeline_depths,
        frequency_mhz=frequency_mhz,
        horizon_cycles=fleet.horizon_cycles,
        elapsed_cycles=fleet.elapsed_cycles,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drained=drain,
        tenants=fleet.tenants,
        clp_busy_fraction=board.clp_busy_fraction,
        timeseries=fleet.timeseries,
        overload=fleet.overload,
    )
