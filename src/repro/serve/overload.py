"""Overload control: admission, queue disciplines, retries, brownout.

The open-loop simulator (:mod:`repro.serve.simulator`) answers "what
does this design do under a given offered load?"; this module models
what a production front door does when that load exceeds capacity:

* **Admission control** — a per-tenant token bucket
  (:class:`AdmissionPolicy`) rejects excess arrivals at the door, and
  *queue-deadline admission* rejects a request at enqueue time when its
  estimated queue wait already exceeds the tenant's deadline.  Rejected
  work is a new accounting class (``rejected``), distinct from
  back-pressure ``drops`` and failure ``lost``.
* **Queue disciplines** — ``fifo`` (the historical order), ``edf``
  (earliest absolute deadline first), and ``priority`` (fresh arrivals
  ahead of retries/hedges, the classic retry-demotion defence).  Under
  ``edf``/``priority`` a request whose deadline passed while queued is
  *shed at dispatch time* (``expired``) instead of burning an epoch on
  work the client has already given up on; ``fifo`` keeps the naive
  behaviour of serving it late.
* **Closed-loop clients** — a :class:`RetryPolicy` turns the open
  arrival streams into feedback loops: a rejected/dropped/expired/lost
  request is retried after a backoff (fixed or exponential, with
  optional full or decorrelated jitter), bounded by ``max_attempts``
  (0 = unlimited, the naive client that makes retry storms metastable).
  Retry delays draw from a dedicated ``{seed}/{tenant}/retry`` RNG
  substream, so enabling retries never perturbs the arrival streams.
  ``hedge_ms`` optionally duplicates a request still queued after that
  delay (tail-latency hedging).
* **Brownout** — a :class:`BrownoutPolicy` controller stepped on window
  boundaries (like the autoscaler, but *inside* the run): when the
  highest-priority class's windowed p99 breaches its SLO, the lowest
  still-admitted priority class is shed at the gate for subsequent
  windows; classes are restored bottom-up as the tail recovers.  The
  controller never sheds a class while a strictly lower-priority class
  is still admitted, and never sheds the top class.

Every run with any of these features active reduces, alongside the
usual per-tenant stats, to an :class:`OverloadReport`: per-priority
goodput (completions within deadline) on a window grid, which is what
the retry-storm metastability tests and the brownout invariant tests
assert against.

Engine note: overload features are feedback loops over the event
stream, so ``engine="auto"`` falls back to the event engine whenever
any feature is active; a spec with every feature off is bit-exact with
the fast path (regression-tested).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .simulator import Request, TenantState

if TYPE_CHECKING:
    from ..obs.telemetry import MetricsRecorder
    from ..obs.trace import TraceRecorder
    from .simulator import TenantSpec

__all__ = [
    "QUEUE_POLICIES",
    "BACKOFF_MODES",
    "JITTER_MODES",
    "AdmissionPolicy",
    "RetryPolicy",
    "BrownoutPolicy",
    "OverloadSpec",
    "PriorityClassStats",
    "OverloadReport",
    "OverloadTenantState",
    "OverloadController",
    "overload_spec_to_dict",
    "overload_spec_from_dict",
    "overload_report_to_dict",
    "overload_report_from_dict",
]

#: Queue disciplines: historical FIFO, earliest-deadline-first, and
#: fresh-before-retries priority ordering.
QUEUE_POLICIES = ("fifo", "edf", "priority")

BACKOFF_MODES = ("fixed", "exponential")

JITTER_MODES = ("none", "full", "decorrelated")


# --------------------------------------------------------------------- specs
@dataclass(frozen=True)
class AdmissionPolicy:
    """Front-door admission: token bucket and/or queue-deadline checks.

    ``rate_rps`` is the bucket's refill rate in requests per second per
    tenant (``None`` disables the bucket); ``burst`` its capacity in
    tokens.  ``deadline_admission`` rejects a request at enqueue when
    its estimated queue wait — ``(queued + 1) * epoch`` admission slots
    — already exceeds the tenant's deadline, which keeps queues from
    growing beyond a deadline's worth of work.
    """

    rate_rps: Optional[float] = None
    burst: float = 8.0
    deadline_admission: bool = False

    def __post_init__(self) -> None:
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive when set")
        if self.burst < 1:
            raise ValueError("burst must be at least 1 token")

    @property
    def active(self) -> bool:
        return self.rate_rps is not None or self.deadline_admission


@dataclass(frozen=True)
class RetryPolicy:
    """Closed-loop client model: bounded, backed-off retries + hedging.

    ``max_attempts`` bounds *total* tries per logical request; 0 means
    unlimited (the naive client).  Backoff for attempt ``n`` starts from
    ``base_ms`` (doubling per attempt under ``"exponential"``), capped
    at ``cap_ms`` (default ``32 * base_ms``), then jittered: ``"full"``
    draws uniformly in ``[0, delay]``; ``"decorrelated"`` draws in
    ``[base, 3 * previous]`` (AWS-style), which decorrelates synchronized
    retry waves.  ``hedge_ms`` duplicates a request still queued after
    that delay (at most one hedge per request).
    """

    max_attempts: int = 3
    backoff: str = "exponential"
    base_ms: float = 0.1
    cap_ms: Optional[float] = None
    jitter: str = "decorrelated"
    hedge_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0 (0 = unlimited)")
        if self.backoff not in BACKOFF_MODES:
            raise ValueError(
                f"backoff must be one of {BACKOFF_MODES}, got {self.backoff!r}"
            )
        if self.base_ms <= 0:
            raise ValueError("base_ms must be positive")
        if self.cap_ms is not None and self.cap_ms < self.base_ms:
            raise ValueError("cap_ms must be >= base_ms when set")
        if self.jitter not in JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {JITTER_MODES}, got {self.jitter!r}"
            )
        if self.hedge_ms is not None and self.hedge_ms <= 0:
            raise ValueError("hedge_ms must be positive when set")

    @property
    def effective_cap_ms(self) -> float:
        return self.cap_ms if self.cap_ms is not None else 32.0 * self.base_ms


@dataclass(frozen=True)
class BrownoutPolicy:
    """Graceful degradation: shed low-priority classes to save the tail.

    Every ``window_ms`` the controller compares the highest-priority
    class's windowed p99 against ``p99_ms``.  On a breach it sheds the
    lowest still-admitted priority class (never the top class); once the
    protected p99 drops under ``recover_factor * p99_ms`` it restores
    the highest shed class.  Shedding is strictly bottom-up: a class is
    only ever shed while every strictly lower class already is.
    """

    p99_ms: float = 5.0
    window_ms: float = 2.0
    recover_factor: float = 0.8

    def __post_init__(self) -> None:
        if self.p99_ms <= 0:
            raise ValueError("p99_ms must be positive")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if not 0 < self.recover_factor <= 1:
            raise ValueError("recover_factor must be in (0, 1]")


@dataclass(frozen=True)
class OverloadSpec:
    """Everything the overload layer can switch on, in one frozen spec.

    The default instance (every field at its default) is *inactive*:
    runs behave — and serialize — bit-identically to passing no spec at
    all, which the differential tests pin.  ``deadline_ms`` supplies a
    default request deadline to tenants that do not set their own
    (:attr:`repro.serve.simulator.TenantSpec.deadline_ms` wins).
    """

    queue_policy: str = "fifo"
    admission: Optional[AdmissionPolicy] = None
    retry: Optional[RetryPolicy] = None
    brownout: Optional[BrownoutPolicy] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {self.queue_policy!r}; "
                f"known: {QUEUE_POLICIES}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")

    def deadline_cycles(
        self, tenant: "TenantSpec", cycles_per_ms: float
    ) -> Optional[float]:
        """``tenant``'s request deadline in cycles: its own
        ``deadline_ms`` wins over this spec's default."""
        ms = tenant.deadline_ms
        if ms is None:
            ms = self.deadline_ms
        return None if ms is None else ms * cycles_per_ms

    @property
    def active(self) -> bool:
        """True when any feature changes run semantics (forces the event
        engine); an all-defaults spec is equivalent to ``None``."""
        return (
            self.queue_policy != "fifo"
            or (self.admission is not None and self.admission.active)
            or self.retry is not None
            or self.brownout is not None
            or self.deadline_ms is not None
        )


# ------------------------------------------------------------ disciplines
class OverloadTenantState(TenantState):
    """Tenant state whose queue follows an overload queue discipline.

    Used for every board when the overload layer is active.  The
    request lifecycle and all counters are :class:`TenantState`'s; this
    class owns only the discipline: :meth:`_insert` keeps the queue in
    ``queue_policy`` order, and :meth:`pop_next` sheds expired heads.
    """

    def __init__(
        self,
        spec: "TenantSpec",
        depth_epochs: int,
        clp_cycles: Tuple[int, ...],
        queue_depth: int,
        policy: str,
        *,
        queue_policy: str = "fifo",
        epoch: float = 1.0,
        deadline_cycles: Optional[float] = None,
    ) -> None:
        super().__init__(spec, depth_epochs, clp_cycles, queue_depth, policy)
        self.queue_policy = queue_policy
        self.epoch = epoch
        self.deadline_cycles = deadline_cycles

    # ------------------------------------------------------------- discipline
    def _key(self, req: Request):
        if self.queue_policy == "edf":
            deadline = (
                req.arrival + self.deadline_cycles
                if self.deadline_cycles is not None
                else float("inf")
            )
            return (deadline, req.seq)
        if self.queue_policy == "priority":
            # Fresh work ahead of retries and hedges: retry demotion
            # keeps a storm from starving first-attempt traffic.
            return (0 if (req.attempt == 1 and not req.hedge) else 1, req.seq)
        return (req.seq,)

    def _insert(self, req: Request) -> None:
        """Insert in discipline order.

        This is also where a requeued request lands: re-sorted by
        ``seq`` under ``fifo`` and by deadline under ``edf``, where the
        plain queue appends it at the tail.  Benchmark references pin
        both rules.
        """
        key = self._key(req)
        position = len(self.queue)
        # Seq keys are monotone, so the common case appends; a linear
        # scan from the tail is O(queue_depth) worst case (<= 64-ish).
        while position > 0 and self._key(self.queue[position - 1]) > key:
            position -= 1
        self.queue.insert(position, req)

    def pop_next(self, now: float) -> Optional[Tuple[str, Request]]:
        """Take the discipline head: ``("ok", req)`` or ``("expired", req)``.

        Expiry shedding belongs to the deadline-aware disciplines: under
        ``fifo`` a stale request is still served (and completes late),
        which is exactly the epoch-burning naive behaviour the
        retry-storm drill demonstrates.
        """
        if not self.queue:
            return None
        self._touch(now)
        req = self.queue.popleft()
        req.done = True
        if (
            self.queue_policy != "fifo"
            and self.deadline_cycles is not None
            and now > req.arrival + self.deadline_cycles
        ):
            self.expired += 1
            return ("expired", req)
        self.pipeline += 1
        return ("ok", req)


# ------------------------------------------------------------------ reports
@dataclass(frozen=True)
class PriorityClassStats:
    """One priority class's totals across a run (all member tenants)."""

    priority: int
    tenants: Tuple[str, ...]
    arrivals: int = 0
    completions: int = 0
    good: int = 0
    rejected: int = 0
    expired: int = 0
    late: int = 0
    retries: int = 0
    hedges: int = 0


@dataclass(frozen=True)
class OverloadReport:
    """What the overload layer did, on a window grid.

    ``goodput`` maps ``str(priority)`` (string keys survive JSON) to
    per-window counts of *good* completions — completions within the
    tenant's deadline, or all completions for deadline-less tenants.
    ``shed`` maps the same keys to 0/1 flags marking windows the
    brownout controller gated that class.  ``classes`` carries the
    per-class totals the SLO layer and tests reduce over.
    """

    queue_policy: str
    window_cycles: float
    times: Tuple[float, ...]
    goodput: Dict[str, Tuple[int, ...]]
    shed: Dict[str, Tuple[int, ...]]
    classes: Tuple[PriorityClassStats, ...]
    brownout_steps: int = 0

    def class_stats(self, priority: int) -> PriorityClassStats:
        for entry in self.classes:
            if entry.priority == priority:
                return entry
        raise KeyError(
            f"no priority class {priority}; "
            f"classes: {[c.priority for c in self.classes]}"
        )

    def goodput_between(
        self,
        start_cycles: float,
        end_cycles: float,
        priority: Optional[int] = None,
    ) -> int:
        """Good completions finishing in ``[start, end)`` windows.

        Windows are attributed by their end time; ``priority=None`` sums
        every class.  The metastability tests compare pre-fault and
        post-fault slices of the same run through this.
        """
        total = 0
        for key, counts in self.goodput.items():
            if priority is not None and int(key) != priority:
                continue
            for index, count in enumerate(counts):
                window_start = index * self.window_cycles
                if start_cycles <= window_start < end_cycles:
                    total += count
        return total

    def shed_priorities(self, window: int) -> Tuple[int, ...]:
        """Priority classes gated during one window, ascending."""
        return tuple(
            sorted(
                int(key)
                for key, flags in self.shed.items()
                if window < len(flags) and flags[window]
            )
        )


# --------------------------------------------------------------- controller
class OverloadController:
    """Run-scoped overload logic, hosted by the cluster simulator.

    The host simulator owns routing and the event loop; the controller
    owns every admission decision, retry/hedge scheduling, brownout
    stepping, and the per-class accounting that becomes the
    :class:`OverloadReport`.  It is a hook on the host's one request
    lifecycle, called where overload control changes it:

    * :meth:`arrive` — full admission path for one attempt (gate →
      route → deadline admission → queue insert), used for fresh
      arrivals, retries, and hedges alike.
    * :meth:`dispatch` — discipline-ordered epoch dispatch (pops expired
      entries without burning the slot).
    * :meth:`complete` — completion accounting (lateness, windowed
      goodput).
    * :meth:`client_retry` — an attempt ended without a reply.

    The host supplies ``route``, which returns the landing
    ``(state, replica_index)`` for a tenant name or ``None`` for an
    unroutable arrival (the host books those in its own ledger; the
    controller only schedules the client's retry), and ``deliver``,
    which lands a retry or hedge exactly as a fresh arrival.
    """

    def __init__(
        self,
        spec: OverloadSpec,
        tenants: Sequence["TenantSpec"],
        *,
        horizon: float,
        frequency_mhz: float,
        seed: int,
        schedule_at: Callable[[float, Callable[[], None]], None],
        now: Callable[[], float],
        route: Callable[[str], Optional[Tuple[TenantState, int]]],
        deliver: Callable[[int, Request], None],
        tracer: Optional["TraceRecorder"] = None,
        recorder: Optional["MetricsRecorder"] = None,
    ) -> None:
        self.spec = spec
        self.tenants = tuple(tenants)
        self.horizon = horizon
        self.cycles_per_ms = frequency_mhz * 1e3
        self.seed = seed
        self._schedule_at = schedule_at
        self._now = now
        self._route = route
        self._deliver = deliver
        self.tracer = tracer
        self.recorder = recorder
        #: Creation order of every attempt: the discipline tie-breaker.
        self._next_seq = itertools.count(1).__next__
        #: Scheduled retry/hedge deliveries not yet fired — the host's
        #: drain logic keeps epoch boundaries alive while any remain.
        self.pending_deliveries = 0

        #: Per-tenant deadline in cycles.
        self.deadline_cycles: List[Optional[float]] = [
            spec.deadline_cycles(t, self.cycles_per_ms) for t in self.tenants
        ]
        self.priorities: Tuple[int, ...] = tuple(
            t.priority for t in self.tenants
        )
        #: Distinct priorities ascending; brownout sheds a prefix of it.
        self.priority_levels: Tuple[int, ...] = tuple(
            sorted(set(self.priorities))
        )

        # Token buckets start full — a burst at t=0 is admitted.
        admission = spec.admission
        self._bucket_rate: Optional[float] = None
        if admission is not None and admission.rate_rps is not None:
            self._bucket_rate = admission.rate_rps / (frequency_mhz * 1e6)
        self._bucket_burst = admission.burst if admission is not None else 0.0
        self._tokens = [self._bucket_burst] * len(self.tenants)
        self._bucket_mark = [0.0] * len(self.tenants)

        self._retry_rngs: Dict[str, random.Random] = {}
        #: Per-tenant ledger of attempts the host fleet cannot aggregate
        #: from replica states because they never landed (gate
        #: rejections): ``arrivals``, ``rejected``, ``retries``, ``hedges``.
        self.gate: Dict[str, Dict[str, int]] = {
            t.name: {"arrivals": 0, "rejected": 0, "retries": 0, "hedges": 0}
            for t in self.tenants
        }

        # ---------------------------------------------------- window grid
        brownout = spec.brownout
        if brownout is not None:
            self.window_cycles = self._ms(brownout.window_ms) or 1.0
        else:
            self.window_cycles = horizon / 60.0
        self.num_windows = max(1, -int(-horizon // self.window_cycles))
        self._good: Dict[int, List[int]] = {
            level: [0] * self.num_windows for level in self.priority_levels
        }
        self._shed_flags: Dict[int, List[int]] = {
            level: [0] * self.num_windows for level in self.priority_levels
        }
        self._window_latencies: List[float] = []  # protected class, window
        self._window_arrivals: Dict[int, int] = {
            level: 0 for level in self.priority_levels
        }
        self._class_totals: Dict[int, Dict[str, int]] = {
            level: {
                "arrivals": 0, "completions": 0, "good": 0, "rejected": 0,
                "expired": 0, "late": 0, "retries": 0, "hedges": 0,
            }
            for level in self.priority_levels
        }
        self.shed_level = 0
        self.brownout_steps = 0
        if brownout is not None and len(self.priority_levels) > 1:
            self._brownout_slo_cycles = self._ms(brownout.p99_ms)
            for index in range(1, self.num_windows + 1):
                when = min(index * self.window_cycles, horizon)
                self._schedule_at(
                    when, lambda index=index: self._brownout_step(index)
                )

    # ------------------------------------------------------------- utilities
    def _ms(self, value_ms: Optional[float]) -> Optional[float]:
        return None if value_ms is None else value_ms * self.cycles_per_ms

    def _window_of(self, when: float) -> int:
        index = int(when / self.window_cycles)
        return min(index, self.num_windows - 1)

    def _retry_rng(self, name: str) -> random.Random:
        rng = self._retry_rngs.get(name)
        if rng is None:
            # Dedicated substream: enabling retries must not perturb the
            # arrival streams ({seed}/{index}/{name}) or fault draws.
            rng = random.Random(f"{self.seed}/{name}/retry")
            self._retry_rngs[name] = rng
        return rng

    @property
    def shed_set(self) -> Tuple[int, ...]:
        return self.priority_levels[: self.shed_level]

    # ---------------------------------------------------------------- arrive
    def arrive(self, index: int, req: Request) -> None:
        """Full admission path for one attempt of one request."""
        if not req.seq:
            # A fresh arrival, created just now; retries and hedges
            # were stamped when the controller created them.
            req.seq = self._next_seq()
        now = self._now()
        spec = self.tenants[index]
        priority = self.priorities[index]
        totals = self._class_totals[priority]
        totals["arrivals"] += 1
        self._window_arrivals[priority] += 1
        if req.hedge:
            totals["hedges"] += 1
        elif req.attempt > 1:
            totals["retries"] += 1

        # Brownout gate: shed classes are rejected before routing.
        if priority in self.shed_set:
            self._gate_reject(index, req, now, reason="brownout")
            return
        # Token bucket (per tenant, fleet-wide: the front door).
        if self._bucket_rate is not None:
            tokens = min(
                self._bucket_burst,
                self._tokens[index]
                + (now - self._bucket_mark[index]) * self._bucket_rate,
            )
            self._bucket_mark[index] = now
            if tokens < 1.0:
                self._tokens[index] = tokens
                self._gate_reject(index, req, now, reason="admission")
                return
            self._tokens[index] = tokens - 1.0

        landing = self._route(spec.name)
        if landing is None:
            # The host booked the unroutable arrival; the client retries.
            self._schedule_retry(index, req, now, reason="unroutable")
            return
        state, replica = landing
        state.book_arrival(req)

        admission = self.spec.admission
        deadline = self.deadline_cycles[index]
        if (
            admission is not None
            and admission.deadline_admission
            and deadline is not None
            and (len(state.queue) + 1) * state.epoch > deadline
        ):
            state.rejected += 1
            totals["rejected"] += 1
            self._note_reject(spec.name, replica, now, "deadline")
            self._schedule_retry(index, req, now, reason="deadline")
            return

        victim = state.push(req, now)
        if self.tracer is not None:
            self.tracer.request_arrived(
                spec.name,
                replica,
                now,
                dropped=victim is not None,
                policy=state.policy,
            )
        if victim is not None:
            if self.recorder is not None:
                self.recorder.count(f"drops/{spec.name}", now)
            self._schedule_retry(index, victim, now, reason="dropped")
        if victim is not req:
            self._maybe_hedge(index, req, now)

    def _gate_reject(
        self, index: int, req: Request, now: float, *, reason: str
    ) -> None:
        spec = self.tenants[index]
        gate = self.gate[spec.name]
        gate["arrivals"] += 1
        gate["rejected"] += 1
        if req.hedge:
            gate["hedges"] += 1
        elif req.attempt > 1:
            gate["retries"] += 1
        self._class_totals[self.priorities[index]]["rejected"] += 1
        self._note_reject(spec.name, None, now, reason)
        self._schedule_retry(index, req, now, reason=reason)

    def _note_reject(
        self, name: str, replica: Optional[int], now: float, reason: str
    ) -> None:
        if self.tracer is not None:
            self.tracer.request_rejected(name, replica, now, reason=reason)
        if self.recorder is not None:
            self.recorder.count(f"rejected/{name}", now)

    # --------------------------------------------------------------- retries
    def client_retry(self, index: int, req: Request, *, reason: str) -> None:
        """Host hook: the client observed a failure (evacuation loss,
        killed in-flight work) and schedules a retry under the policy."""
        self._schedule_retry(index, req, self._now(), reason=reason)

    def _schedule_retry(
        self, index: int, req: Request, now: float, *, reason: str
    ) -> None:
        policy = self.spec.retry
        if policy is None:
            return
        if policy.max_attempts and req.attempt >= policy.max_attempts:
            return
        spec = self.tenants[index]
        rng = self._retry_rng(spec.name)
        base = self._ms(policy.base_ms) or 1.0
        cap = self._ms(policy.effective_cap_ms) or base
        if policy.jitter == "decorrelated":
            previous = req.backoff_cycles if req.backoff_cycles > 0 else base
            delay = min(cap, rng.uniform(base, 3.0 * previous))
        else:
            delay = base
            if policy.backoff == "exponential":
                delay = base * (2.0 ** (req.attempt - 1))
            delay = min(cap, delay)
            if policy.jitter == "full":
                delay = rng.uniform(0.0, delay)
        when = now + delay
        if when > self.horizon:
            return  # the client's patience ends with the run window
        retry = Request(
            when, req.attempt + 1, backoff_cycles=delay,
            seq=self._next_seq(),
        )
        if self.tracer is not None:
            self.tracer.request_retry(
                spec.name, now, attempt=retry.attempt, delay_cycles=delay,
                reason=reason,
            )
        if self.recorder is not None:
            self.recorder.count(f"retries/{spec.name}", now)
        self.pending_deliveries += 1

        def fire_retry() -> None:
            self.pending_deliveries -= 1
            self._deliver(index, retry)

        self._schedule_at(when, fire_retry)

    def _maybe_hedge(self, index: int, req: Request, now: float) -> None:
        policy = self.spec.retry
        if (
            policy is None
            or policy.hedge_ms is None
            or req.hedge
            or req.hedged
        ):
            return
        req.hedged = True
        delay = self._ms(policy.hedge_ms) or 0.0
        when = now + delay
        if when > self.horizon:
            return
        spec = self.tenants[index]
        self.pending_deliveries += 1

        def fire_hedge() -> None:
            self.pending_deliveries -= 1
            if req.done:
                return  # original dispatched or shed; hedge moot
            hedge = Request(
                self._now(), req.attempt, hedge=True, seq=self._next_seq()
            )
            if self.tracer is not None:
                self.tracer.request_hedged(spec.name, self._now())
            if self.recorder is not None:
                self.recorder.count(f"hedges/{spec.name}", self._now())
            self._deliver(index, hedge)

        self._schedule_at(when, fire_hedge)

    # -------------------------------------------------------------- dispatch
    def dispatch(
        self, index: int, state: OverloadTenantState, replica: Optional[int]
    ) -> Optional[Request]:
        """Epoch-boundary admission under the queue discipline.

        Pops expired entries (counting and retrying them) until a live
        head is admitted into the pipeline or the queue runs dry —
        expired work never burns the epoch's admission slot.
        """
        now = self._now()
        spec = self.tenants[index]
        totals = self._class_totals[self.priorities[index]]
        while True:
            popped = state.pop_next(now)
            if popped is None:
                return None
            outcome, req = popped
            if outcome == "ok":
                return req
            totals["expired"] += 1
            if self.tracer is not None:
                self.tracer.request_expired(spec.name, replica, now)
            if self.recorder is not None:
                self.recorder.count(f"expired/{spec.name}", now)
            self._schedule_retry(index, req, now, reason="expired")

    # -------------------------------------------------------------- complete
    def complete(
        self, index: int, state: OverloadTenantState, req: Request
    ) -> None:
        now = self._now()
        state.on_completion(req, now)
        priority = self.priorities[index]
        totals = self._class_totals[priority]
        totals["completions"] += 1
        latency = now - req.arrival
        deadline = self.deadline_cycles[index]
        if deadline is not None and latency > deadline:
            state.late += 1
            totals["late"] += 1
            if self.recorder is not None:
                self.recorder.count(f"late/{self.tenants[index].name}", now)
        else:
            totals["good"] += 1
            self._good[priority][self._window_of(now)] += 1
        if (
            self.spec.brownout is not None
            and priority == self.priority_levels[-1]
        ):
            self._window_latencies.append(latency)

    # -------------------------------------------------------------- brownout
    def _brownout_step(self, window_index: int) -> None:
        """One controller step at a window boundary (windows 1-based)."""
        from .metrics import percentile

        brownout = self.spec.brownout
        assert brownout is not None
        slo = self._brownout_slo_cycles or 1.0
        protected = self.priority_levels[-1]
        samples = self._window_latencies
        if samples:
            breach = percentile(samples, 99) > slo
            recovered = percentile(samples, 99) < brownout.recover_factor * slo
        else:
            # No completions: a breach if the protected class even tried.
            breach = self._window_arrivals[protected] > 0
            recovered = not breach
        ceiling = len(self.priority_levels) - 1  # never shed the top class
        if breach and self.shed_level < ceiling:
            self.shed_level += 1
            self.brownout_steps += 1
            self._trace_brownout("shed")
        elif recovered and self.shed_level > 0:
            self.shed_level -= 1
            self.brownout_steps += 1
            self._trace_brownout("restore")
        # Stamp the level onto the *next* window's flags (it governs
        # admission from this boundary until the next step).
        if window_index < self.num_windows:
            for level in self.shed_set:
                self._shed_flags[level][window_index] = 1
        self._window_latencies = []
        for level in self.priority_levels:
            self._window_arrivals[level] = 0

    def _trace_brownout(self, action: str) -> None:
        if self.tracer is not None:
            self.tracer.brownout_step(
                self._now(),
                action=action,
                shed=[int(p) for p in self.shed_set],
            )
        if self.recorder is not None:
            self.recorder.count("brownout_steps", self._now())

    # ---------------------------------------------------------------- report
    def report(self) -> OverloadReport:
        times = tuple(
            min((index + 1) * self.window_cycles, self.horizon)
            for index in range(self.num_windows)
        )
        classes = tuple(
            PriorityClassStats(
                priority=level,
                tenants=tuple(
                    t.name
                    for t, p in zip(self.tenants, self.priorities)
                    if p == level
                ),
                **self._class_totals[level],
            )
            for level in self.priority_levels
        )
        return OverloadReport(
            queue_policy=self.spec.queue_policy,
            window_cycles=self.window_cycles,
            times=times,
            goodput={
                str(level): tuple(counts)
                for level, counts in self._good.items()
            },
            shed={
                str(level): tuple(flags)
                for level, flags in self._shed_flags.items()
            },
            classes=classes,
            brownout_steps=self.brownout_steps,
        )


# ------------------------------------------------------------ serialization
def overload_spec_to_dict(spec: OverloadSpec) -> Dict[str, Any]:
    """JSON-ready record; optional sections omitted when disabled, so an
    all-defaults spec round-trips to a minimal record."""
    record: Dict[str, Any] = {"queue_policy": spec.queue_policy}
    if spec.admission is not None:
        from dataclasses import asdict

        record["admission"] = asdict(spec.admission)
    if spec.retry is not None:
        from dataclasses import asdict

        record["retry"] = asdict(spec.retry)
    if spec.brownout is not None:
        from dataclasses import asdict

        record["brownout"] = asdict(spec.brownout)
    if spec.deadline_ms is not None:
        record["deadline_ms"] = spec.deadline_ms
    return record


def overload_spec_from_dict(data: Dict[str, Any]) -> OverloadSpec:
    admission = data.get("admission")
    retry = data.get("retry")
    brownout = data.get("brownout")
    deadline = data.get("deadline_ms")
    return OverloadSpec(
        queue_policy=str(data.get("queue_policy", "fifo")),
        admission=None if admission is None else AdmissionPolicy(**admission),
        retry=None if retry is None else RetryPolicy(**retry),
        brownout=None if brownout is None else BrownoutPolicy(**brownout),
        deadline_ms=None if deadline is None else float(deadline),
    )


def overload_report_to_dict(report: OverloadReport) -> Dict[str, Any]:
    from dataclasses import asdict

    return asdict(report)


def overload_report_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional[OverloadReport]:
    """Rebuild a report from a result record; tolerant of absence —
    pre-overload records have no ``overload`` key at all."""
    if data is None:
        return None
    return OverloadReport(
        queue_policy=str(data["queue_policy"]),
        window_cycles=float(data["window_cycles"]),
        times=tuple(float(t) for t in data["times"]),
        goodput={
            str(key): tuple(int(v) for v in values)
            for key, values in data["goodput"].items()
        },
        shed={
            str(key): tuple(int(v) for v in values)
            for key, values in data.get("shed", {}).items()
        },
        classes=tuple(
            PriorityClassStats(
                priority=int(entry["priority"]),
                tenants=tuple(str(t) for t in entry["tenants"]),
                arrivals=int(entry.get("arrivals", 0)),
                completions=int(entry.get("completions", 0)),
                good=int(entry.get("good", 0)),
                rejected=int(entry.get("rejected", 0)),
                expired=int(entry.get("expired", 0)),
                late=int(entry.get("late", 0)),
                retries=int(entry.get("retries", 0)),
                hedges=int(entry.get("hedges", 0)),
            )
            for entry in data.get("classes", ())
        ),
        brownout_steps=int(data.get("brownout_steps", 0)),
    )
