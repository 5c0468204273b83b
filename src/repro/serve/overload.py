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
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.serialize import omit_default
from .metrics import WindowCounts, percentile
from .simulator import Request, TenantState

if TYPE_CHECKING:
    from .metrics import TenantStats
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

    record_kind = "overload spec"

    queue_policy: str = "fifo"
    admission: Optional[AdmissionPolicy] = omit_default(None)
    retry: Optional[RetryPolicy] = omit_default(None)
    brownout: Optional[BrownoutPolicy] = omit_default(None)
    deadline_ms: Optional[float] = omit_default(None)

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
    ``queue_policy`` order, and :meth:`pop_expired` sheds expired heads
    before the host admits the next one.
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
        board=None,
    ) -> None:
        super().__init__(
            spec, depth_epochs, clp_cycles, queue_depth, policy, board
        )
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

    def pop_expired(self, now: float) -> Optional[Request]:
        """Shed the queue head if its deadline passed while it waited:
        the head, booked ``expired``, or ``None`` when it is live.

        Expiry shedding belongs to the deadline-aware disciplines: under
        ``fifo`` a stale request is still served (and completes late),
        which is exactly the epoch-burning naive behaviour the
        retry-storm drill demonstrates.
        """
        if (
            not self.queue
            or self.queue_policy == "fifo"
            or self.deadline_cycles is None
            or now <= self.queue[0].arrival + self.deadline_cycles
        ):
            return None
        self._touch(now)
        req = self.queue.popleft()
        req.done = True
        self.board.outstanding -= 1
        self.expired += 1
        return req


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
    shed: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    classes: Tuple[PriorityClassStats, ...] = ()
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
#: :class:`TenantStats` counters a priority class sums over its members.
_CLASS_COUNTERS = (
    "arrivals", "completions", "rejected", "expired", "late", "retries",
    "hedges",
)


class OverloadController:
    """Run-scoped overload policy: it answers, the host acts.

    The host owns the event loop, every ledger, every trace and count
    call and the whole request lifecycle, including shedding expired
    heads (:meth:`OverloadTenantState.pop_expired`) and scheduling what
    the controller asks for.  The controller keeps only its policy
    state (token buckets, retry RNGs, the brownout level, the goodput
    grid) and answers:

    * :meth:`admit` — the front-door gate: the rejection reason
      (``"brownout"``, ``"admission"``) or ``None``.
    * :meth:`refuse` — queue-deadline admission for a routed attempt.
    * :meth:`retry` — the client's next attempt after one ended without
      a reply, or ``None``.
    * :meth:`hedge` — when to hedge a request that was just queued, or
      ``None``.
    * :meth:`completed` — books goodput; True when the reply was late.
    * :meth:`step` — one brownout step at a time :meth:`step_times`
      lists: ``"shed"``, ``"restore"`` or ``None``.
    * :meth:`report` — the :class:`OverloadReport`; class totals are a
      group-by of the host's final per-tenant stats.
    """

    def __init__(
        self,
        spec: OverloadSpec,
        tenants: Sequence["TenantSpec"],
        *,
        horizon: float,
        frequency_mhz: float,
        seed: int,
    ) -> None:
        self.spec = spec
        self.tenants = tuple(tenants)
        self.horizon = horizon
        self.cycles_per_ms = frequency_mhz * 1e3
        #: Creation order of every attempt: the discipline tie-breaker.
        self._next_seq = itertools.count(1).__next__

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
        #: Retry delays draw from one dedicated substream per tenant:
        #: enabling retries must not perturb the arrival streams
        #: ({seed}/{index}/{name}) or fault draws.
        self._retry_rngs = [
            random.Random(f"{seed}/{t.name}/retry") for t in self.tenants
        ]

        # Token buckets start full — a burst at t=0 is admitted.
        admission = spec.admission
        self._bucket_rate: Optional[float] = None
        if admission is not None and admission.rate_rps is not None:
            self._bucket_rate = admission.rate_rps / (frequency_mhz * 1e6)
        self._bucket_burst = admission.burst if admission is not None else 0.0
        self._tokens = [self._bucket_burst] * len(self.tenants)
        self._bucket_mark = [0.0] * len(self.tenants)
        self._deadline_admission = (
            admission is not None and admission.deadline_admission
        )

        # ---------------------------------------------------- window grid
        brownout = spec.brownout
        if brownout is not None:
            self.window_cycles = self._ms(brownout.window_ms) or 1.0
        else:
            self.window_cycles = horizon / 60.0
        self.num_windows = max(1, -int(-horizon // self.window_cycles))
        self._good: Dict[int, WindowCounts] = {
            level: WindowCounts(self.window_cycles, self.num_windows)
            for level in self.priority_levels
        }
        self._shed_flags: Dict[int, List[int]] = {
            level: [0] * self.num_windows for level in self.priority_levels
        }
        self._window_latencies: List[float] = []  # protected class, window
        self._window_arrivals: Dict[int, int] = {
            level: 0 for level in self.priority_levels
        }
        self.shed_level = 0
        #: Priority classes the gate currently sheds (rebuilt per step).
        self.shed: FrozenSet[int] = frozenset()
        self.brownout_steps = 0

    # ------------------------------------------------------------- utilities
    def _ms(self, value_ms: Optional[float]) -> Optional[float]:
        return None if value_ms is None else value_ms * self.cycles_per_ms

    # ------------------------------------------------------------- admission
    def admit(self, index: int, req: Request, now: float) -> Optional[str]:
        """Gate one attempt before routing: ``"brownout"`` when brownout
        sheds its class, ``"admission"`` when its tenant's token bucket
        is empty, else ``None`` (admitted)."""
        if not req.seq:
            # A fresh arrival or hedge, created just now; retries were
            # stamped when :meth:`retry` created them.
            req.seq = self._next_seq()
        priority = self.priorities[index]
        self._window_arrivals[priority] += 1
        if priority in self.shed:
            return "brownout"
        if self._bucket_rate is None:
            return None
        tokens = min(
            self._bucket_burst,
            self._tokens[index]
            + (now - self._bucket_mark[index]) * self._bucket_rate,
        )
        self._bucket_mark[index] = now
        if tokens >= 1.0:
            self._tokens[index] = tokens - 1.0
            return None
        self._tokens[index] = tokens
        return "admission"

    def refuse(self, index: int, state: OverloadTenantState) -> bool:
        """Queue-deadline admission: True when the estimated queue wait
        on ``state``'s board, ``(queued + 1) * epoch``, already exceeds
        the tenant's deadline."""
        deadline = self.deadline_cycles[index]
        return (
            self._deadline_admission
            and deadline is not None
            and (len(state.queue) + 1) * state.epoch > deadline
        )

    # --------------------------------------------------------------- retries
    def retry(self, index: int, req: Request, now: float) -> Optional[Request]:
        """The client's next attempt after ``req`` ended without a reply
        (rejected, dropped, expired, lost, timed out, errored), due at
        its ``arrival``; ``None`` when the policy gives up or the
        backoff ends past the run window."""
        policy = self.spec.retry
        if policy is None:
            return None
        if policy.max_attempts and req.attempt >= policy.max_attempts:
            return None
        rng = self._retry_rngs[index]
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
            return None  # the client's patience ends with the run window
        return Request(
            when, req.attempt + 1, backoff_cycles=delay, seq=self._next_seq()
        )

    def hedge(self, req: Request, now: float) -> Optional[float]:
        """When to hedge a request that was just queued: a duplicate
        attempt lands then unless the original has been dispatched or
        shed by that time (at most one hedge per request).  ``None``
        when hedging is off, already armed, or past the run window."""
        policy = self.spec.retry
        if (
            policy is None
            or policy.hedge_ms is None
            or req.hedge
            or req.hedged
        ):
            return None
        req.hedged = True
        when = now + (self._ms(policy.hedge_ms) or 0.0)
        return None if when > self.horizon else when

    # -------------------------------------------------------------- complete
    def completed(self, index: int, req: Request, now: float) -> bool:
        """Book one completion on the goodput grid (and the brownout
        window); True when it missed the tenant's deadline."""
        priority = self.priorities[index]
        latency = now - req.arrival
        deadline = self.deadline_cycles[index]
        late = deadline is not None and latency > deadline
        if not late:
            self._good[priority].add(now)
        if (
            self.spec.brownout is not None
            and priority == self.priority_levels[-1]
        ):
            self._window_latencies.append(latency)
        return late

    # -------------------------------------------------------------- brownout
    def step_times(self) -> List[float]:
        """When the host calls :meth:`step`: every window boundary, when
        brownout has a class below the top one to shed."""
        if self.spec.brownout is None or len(self.priority_levels) < 2:
            return []
        return [
            min(index * self.window_cycles, self.horizon)
            for index in range(1, self.num_windows + 1)
        ]

    def step(self, window_index: int) -> Optional[str]:
        """One brownout step at a window boundary (windows 1-based):
        ``"shed"`` or ``"restore"`` when the shed level moved."""
        brownout = self.spec.brownout
        assert brownout is not None
        slo = self._ms(brownout.p99_ms) or 1.0
        protected = self.priority_levels[-1]
        samples = self._window_latencies
        if samples:
            breach = percentile(samples, 99) > slo
            recovered = percentile(samples, 99) < brownout.recover_factor * slo
        else:
            # No completions: a breach if the protected class even
            # tried; a window it sat out says nothing, so the level holds.
            breach = self._window_arrivals[protected] > 0
            recovered = False
        ceiling = len(self.priority_levels) - 1  # never shed the top class
        action = None
        if breach and self.shed_level < ceiling:
            action, self.shed_level = "shed", self.shed_level + 1
        elif recovered and self.shed_level > 0:
            action, self.shed_level = "restore", self.shed_level - 1
        if action is not None:
            self.shed = frozenset(self.priority_levels[: self.shed_level])
            self.brownout_steps += 1
        # Stamp the level onto the *next* window's flags (it governs
        # admission from this boundary until the next step).
        if window_index < self.num_windows:
            for level in self.shed:
                self._shed_flags[level][window_index] = 1
        self._window_latencies = []
        for level in self.priority_levels:
            self._window_arrivals[level] = 0
            self._good[level].fold()
        return action

    # ---------------------------------------------------------------- report
    def report(self, tenants: Sequence["TenantStats"]) -> OverloadReport:
        """Reduce the run to an :class:`OverloadReport`.

        ``tenants`` are the host's final fleet-wide stats; each priority
        class's totals are the sums over its member tenants, with
        ``good = completions - late``.
        """
        times = tuple(
            min((index + 1) * self.window_cycles, self.horizon)
            for index in range(self.num_windows)
        )
        classes = []
        for level in self.priority_levels:
            members = [t for t in tenants if t.priority == level]
            totals = {
                key: sum(getattr(t, key) for t in members)
                for key in _CLASS_COUNTERS
            }
            classes.append(PriorityClassStats(
                priority=level,
                tenants=tuple(t.name for t in members),
                good=totals["completions"] - totals["late"],
                **totals,
            ))
        return OverloadReport(
            queue_policy=self.spec.queue_policy,
            window_cycles=self.window_cycles,
            times=times,
            goodput={
                str(level): tuple(counts.totals())
                for level, counts in self._good.items()
            },
            shed={
                str(level): tuple(flags)
                for level, flags in self._shed_flags.items()
            },
            classes=tuple(classes),
            brownout_steps=self.brownout_steps,
        )
