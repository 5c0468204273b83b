"""Epoch-batched fast path for scenario-free traffic simulation.

The event engine (:mod:`repro.sim.engine`) charges ~3 heap events per
request; for plain open-loop runs — no fault scenario, no surge — the
whole simulation is a deterministic function of the arrival times and
the epoch grid, so it can be solved with batched numpy array ops
instead of a callback loop.  This module is that solver, used by
:class:`repro.fleet.cluster.ClusterSimulator` — and so by
:func:`repro.serve.simulator.simulate_traffic`, a one-board fleet run —
when ``engine="fast"`` (or ``"auto"`` without a scenario).

The contract is *bit-for-bit* equality with the event engine, not
statistical agreement: every float in the result is produced by the
same IEEE-754 operations in the same fold order the event loop would
have used.  The three places this bites, and how they are replicated:

* **Heap tie-breaks.**  An arrival at exactly a boundary time may fire
  before or after the boundary depending on *scheduling* order (the
  engine breaks time ties by insertion sequence).  The arrival chain
  schedules arrival ``i`` during arrival ``i-1``'s fire and the
  boundary chain schedules boundary ``k`` during boundary ``k-1``'s
  fire, so the winner follows from comparing those two earlier fire
  times — recursively when *they* tie too.  ``_eligibility`` resolves
  the recursion with a vectorized forward fill over the tie chains.
* **Fold order.**  Occupancy integrals and latency means are fold-left
  float sums in event order.  ``numpy.cumsum`` is a sequential
  fold-left (unlike ``numpy.sum``, which is pairwise), so
  ``cumsum(...)[-1]`` reproduces the event loop's accumulator exactly.
* **Grid times.**  Boundaries live on the exact grid ``k * epoch`` in
  both engines (see the ``schedule_at`` chains), so admission and
  completion timestamps are single multiplications, identical on both
  paths.

CLP busy cycles are integer-valued and far below 2**53, so their float
accumulation is exact in any order and needs no special care.

The fleet solver covers balancers whose routing is a function of the
per-tenant arrival index alone — round-robin (per-tenant counters),
tenant-affinity (a pure hash), and any policy when a tenant has exactly
one eligible replica.  Load-dependent policies over multiple replicas
(least-outstanding, power-of-two, random's shared RNG stream) depend on
the global event interleaving; for those the cluster falls back to the
reference event engine, which is what ``engine="fast"`` documents: a
promise about results, not mechanism.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.arrivals import ArrivalProcess, ConstantRate
from ..serve.simulator import Request

__all__ = [
    "ENGINES",
    "resolve_engine",
    "materialize_arrivals",
    "run_serve_fast",
    "fleet_fast_supported",
    "run_fleet_fast",
]

#: Engine selectors accepted by the simulators.
ENGINES = ("auto", "fast", "event")


def resolve_engine(
    engine: str,
    *,
    has_scenario: bool = False,
    has_overload: bool = False,
    has_detector: bool = False,
) -> str:
    """Pick the concrete engine for a run.

    ``auto`` selects the fast path unless the run needs something only
    the event engine can run: a fault/surge scenario, an active overload
    feature (admission, non-FIFO discipline, retries, brownout,
    deadlines), or an *active* failure detector (probe mode or request
    timeouts) — failure events, retry feedback loops, and probe/timeout
    events genuinely interleave with traffic.  Requesting ``fast``
    together with any of them is one error naming every blocker, rather
    than a silent downgrade.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    blockers = [
        feature
        for needed, feature in (
            (has_scenario, "fault/surge scenarios"),
            (
                has_overload,
                "overload control (admission, queue disciplines, retries, "
                "brownout, deadlines)",
            ),
            (
                has_detector,
                "an active failure detector (probe mode or request timeouts)",
            ),
        )
        if needed
    ]
    if engine == "auto":
        return "event" if blockers else "fast"
    if engine == "fast" and blockers:
        raise ValueError(
            f"engine='fast' cannot run {' and '.join(blockers)}; "
            "use engine='event' (or 'auto')"
        )
    return engine


# --------------------------------------------------------------- arrivals
def materialize_arrivals(
    process: ArrivalProcess,
    seed_key: str,
    limit: Optional[int],
    horizon: float,
) -> np.ndarray:
    """All arrival times one stream would fire, as a float64 array.

    Replicates the event loop's pump exactly: stop at ``limit``
    arrivals, at stream exhaustion, or at the first time beyond the
    horizon.  Constant-rate streams (the common benchmark shape) are
    generated without touching the RNG — their generator ignores it —
    while stochastic processes replay ``random.Random(seed_key)``
    draw-for-draw, which keeps the traffic identical to the event
    engine's streams by construction.
    """
    if isinstance(process, ConstantRate):
        period = 1.0 / process.rate
        count = int(horizon / period) + 2
        times = np.arange(count, dtype=np.float64) * period
        times = times[times <= horizon]
        if limit is not None:
            times = times[:limit]
        return times
    rng = random.Random(seed_key)
    stream: Iterator[float] = process.times(rng)
    out: List[float] = []
    while limit is None or len(out) < limit:
        try:
            when = next(stream)
        except StopIteration:
            break
        if when > horizon:
            break
        out.append(when)
    return np.asarray(out, dtype=np.float64)


# ------------------------------------------------------------------- grid
def _last_boundary(horizon: float, epoch: float) -> int:
    """Largest ``k`` with ``k * epoch <= horizon`` under float rounding."""
    k = int(horizon / epoch)
    while (k + 1) * epoch <= horizon:
        k += 1
    while k > 0 and k * epoch > horizon:
        k -= 1
    return k


def _eligibility(arrivals: np.ndarray, epoch: float) -> np.ndarray:
    """First boundary index that fires after each arrival's event.

    For arrival time ``a`` strictly between boundaries this is simply
    ``ceil(a / epoch)``.  On an exact tie ``a == k * epoch`` the heap
    order decides: the arrival fires first (eligibility ``k``) iff its
    event was *scheduled* before the boundary's — i.e. iff the previous
    arrival fired before boundary ``k-1``, which on a further tie is the
    same question one step back.  Tie chains are resolved by evaluating
    the chain head's base case and forward-filling it down the chain.
    Boundary 0 runs synchronously before any event, so a time-0 arrival
    is never eligible for it.
    """
    n = arrivals.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k0 = np.ceil(arrivals / epoch).astype(np.int64)
    # Guard the division against float error in either direction.
    k0 = np.where((k0 - 1) * epoch >= arrivals, k0 - 1, k0)
    k0 = np.where(k0 * epoch < arrivals, k0 + 1, k0)
    tie = k0 * epoch == arrivals

    prev = np.empty(n, dtype=np.float64)
    prev[1:] = arrivals[:-1]
    prev[0] = -1.0  # sentinel; index 0 uses its own base case below
    t_prev = (k0 - 1) * epoch
    # Chained: the previous arrival sits exactly on boundary k0-1, so
    # this tie resolves the same way that one did.
    chained = tie & (k0 > 0) & (prev == t_prev)
    chained[0] = False
    # Base case: scheduled strictly before the boundary's own schedule
    # point (or at setup, which precedes the whole run).
    fires_first = tie & (k0 > 0) & (prev < t_prev)
    fires_first[0] = bool(tie[0]) and k0[0] > 0
    head = np.maximum.accumulate(
        np.where(~chained, np.arange(n, dtype=np.int64), -1)
    )
    resolved = fires_first[head]
    return np.where(tie, np.where(resolved, k0, k0 + 1), k0)


# ------------------------------------------------------------ FIFO solver
class _StreamResult:
    """One (tenant, replica) sub-stream solved against one epoch grid."""

    __slots__ = (
        "s_adm", "adm_times", "drops", "queue_times",
        "area", "mark", "peak", "last_boundary", "stream_close",
    )

    def __init__(
        self,
        s_adm: np.ndarray,
        adm_times: np.ndarray,
        drops: int,
        queue_times: Sequence[float],
        area: float,
        mark: float,
        peak: int,
        stream_close: int,
    ):
        self.s_adm = s_adm
        self.adm_times = adm_times
        self.drops = drops
        self.queue_times = queue_times
        self.area = area
        self.mark = mark
        self.peak = peak
        #: Boundary index of the last admission (0 when none): with the
        #: stream-close index below, how far a drain must chain.
        self.last_boundary = int(s_adm[-1]) if s_adm.size else 0
        self.stream_close = stream_close


def _solve_stream(
    arrivals: np.ndarray,
    eligibility: np.ndarray,
    epoch: float,
    last_k: int,
    queue_depth: int,
    policy: str,
    drain: bool,
) -> _StreamResult:
    """Solve one FIFO admission queue against one boundary grid.

    ``last_k`` is the last boundary that exists without draining; in
    drain mode the chain extends as far as pending work requires.  The
    vectorized branch handles the no-drop case (one closed-form
    recurrence); any run that would drop falls back to a serial Python
    replay of the exact event semantics, still O(arrivals).
    """
    n = arrivals.size
    stream_close = int(eligibility[-1]) if n else 0
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return _StreamResult(
            np.empty(0, dtype=np.int64), empty, 0, (), 0.0, 0.0, 0, 0
        )

    index = np.arange(n, dtype=np.int64)
    # FIFO with one admission per boundary: s_i = max(s_{i-1}+1, e_i).
    s = index + np.maximum.accumulate(eligibility - index)
    # Queue length each arrival observes just before its push: arrivals
    # admitted strictly before its fire are exactly those with s < e.
    length = index - np.searchsorted(s, eligibility, side="left")
    if int(length.max()) >= queue_depth:
        return _solve_stream_serial(
            arrivals, eligibility, epoch, last_k, queue_depth, policy,
            drain, stream_close,
        )

    cutoff = np.searchsorted(s, last_k, side="right") if not drain else n
    s_adm = s[:cutoff]
    adm_times = arrivals[:cutoff]
    queue_times = arrivals[cutoff:].tolist()

    # Occupancy integral in event order: pushes keyed by eligibility
    # (an arrival fires just before boundary e), pops keyed by their
    # admission boundary, pushes winning boundary-index ties (the
    # arrival fired first — that is what eligibility encodes).
    kind = np.concatenate(
        (np.zeros(n, dtype=np.int64), np.ones(cutoff, dtype=np.int64))
    )
    key = np.concatenate((eligibility, s_adm))
    times = np.concatenate((arrivals, s_adm * epoch))
    delta = np.concatenate(
        (np.ones(n, dtype=np.int64), -np.ones(cutoff, dtype=np.int64))
    )
    order = np.lexsort((kind, key))
    times = times[order]
    running = np.cumsum(delta[order])
    before = running - delta[order]
    prev_times = np.empty_like(times)
    prev_times[1:] = times[:-1]
    prev_times[0] = 0.0
    steps = np.cumsum(before * (times - prev_times))
    area = float(steps[-1])
    mark = float(times[-1])
    peak = int(length.max()) + 1
    return _StreamResult(
        s_adm, adm_times, 0, queue_times, area, mark, peak, stream_close
    )


def _solve_stream_serial(
    arrivals: np.ndarray,
    eligibility: np.ndarray,
    epoch: float,
    last_k: int,
    queue_depth: int,
    policy: str,
    drain: bool,
    stream_close: int,
) -> _StreamResult:
    """Reference replay for streams that drop: exact event semantics.

    Walks arrivals and the boundaries interleaved between them in fire
    order, touching the occupancy integral with plain Python float ops
    exactly where ``TenantState`` would.  Boundaries with an empty
    queue are skipped wholesale (they touch nothing), keeping the loop
    O(arrivals) even over very long horizons.
    """
    queue: deque = deque()
    area = 0.0
    mark = 0.0
    peak = 0
    drops = 0
    s_list: List[int] = []
    adm_list: List[float] = []
    next_k = 1

    def pop_until(limit_k: int) -> None:
        nonlocal area, mark, next_k
        while queue and next_k <= limit_k:
            t_k = next_k * epoch
            area += len(queue) * (t_k - mark)
            mark = t_k
            adm_list.append(queue.popleft())
            s_list.append(next_k)
            next_k += 1

    for i in range(arrivals.size):
        when = float(arrivals[i])
        fires_at = int(eligibility[i])
        # Boundaries before this arrival's fire serve the queue first.
        pop_until(min(fires_at - 1, last_k) if not drain else fires_at - 1)
        if not queue:
            next_k = max(next_k, fires_at)
        area += len(queue) * (when - mark)
        mark = when
        if len(queue) >= queue_depth:
            drops += 1
            if policy == "drop-tail":
                continue
            queue.popleft()  # drop-head: evict the stalest waiter
        queue.append(when)
        if len(queue) > peak:
            peak = len(queue)
    if drain:
        # Draining chains one boundary per remaining waiter until empty.
        pop_until(next_k + len(queue))
    else:
        pop_until(last_k)
    return _StreamResult(
        np.asarray(s_list, dtype=np.int64),
        np.asarray(adm_list, dtype=np.float64),
        drops,
        list(queue),
        area,
        mark,
        peak,
        stream_close,
    )


# ---------------------------------------------------------- state filling
def _fill_state(
    state,
    arrivals: np.ndarray,
    solved: _StreamResult,
    epoch: float,
    drain: bool,
    horizon: float,
) -> Optional[float]:
    """Write one solved sub-stream into a ``TenantState``.

    Returns the last completion time (for the drain elapsed-time
    reduction), or ``None`` when nothing completed.
    """
    depth_cycles = state.depth_epochs * epoch
    finish = solved.s_adm.astype(np.float64) * epoch + depth_cycles
    if drain:
        fired = finish.size
    else:
        fired = int(np.searchsorted(finish, horizon, side="right"))
    latencies = finish[:fired] - solved.adm_times[:fired]

    state.arrivals = int(arrivals.size)
    state.drops = solved.drops
    state.completions = fired
    state.pipeline = int(finish.size) - fired
    state.latencies = latencies.tolist()
    if fired:
        state.first_completion = float(finish[0])
        state.last_completion = float(finish[fired - 1])
    state.queue = deque(Request(float(t)) for t in solved.queue_times)
    state.peak_queue = solved.peak
    state._occupancy_area = solved.area
    state._occupancy_mark = solved.mark
    return float(finish[fired - 1]) if fired else None


def _charge_clps(clp_busy: List[float], state, admissions: int) -> None:
    """Admission-time CLP charges: exact integers, so one multiply."""
    for clp_index, cycles in enumerate(state.clp_cycles):
        clp_busy[clp_index] += admissions * cycles


# ------------------------------------------------------------------ serve
# Unused by the simulators: serve runs solve through ``run_fleet_fast``
# with one replica.  Kept because the per-layer tracer in
# ``perfbench/tracer.py`` patches it by name, and a missing name fails
# every traced benchmark run; delete it together with that patch.
def run_serve_fast(
    states: Sequence,
    clp_busy: List[float],
    epoch: float,
    horizon: float,
    seed: int,
    drain: bool,
) -> float:
    """Solve a single-device run in place; returns the elapsed cycles.

    ``states`` are the run's fresh ``TenantState`` objects in tenant
    order; each is filled with exactly the counters and float
    accumulators the event loop would have left behind, so the caller's
    result assembly is shared between engines.  CLP busy cycles are charged through each state's
    ``clp_cycles`` just as boundary admissions would.
    """
    last_k = _last_boundary(horizon, epoch)
    chain_end = last_k
    last_finish: Optional[float] = None
    for index, state in enumerate(states):
        arrivals = materialize_arrivals(
            state.spec.process,
            f"{seed}/{index}/{state.spec.name}",
            state.spec.limit,
            horizon,
        )
        solved = _solve_stream(
            arrivals,
            _eligibility(arrivals, epoch),
            epoch,
            last_k,
            state.queue_depth,
            state.policy,
            drain,
        )
        finish = _fill_state(state, arrivals, solved, epoch, drain, horizon)
        if finish is not None and (last_finish is None or finish > last_finish):
            last_finish = finish
        _charge_clps(clp_busy, state, int(solved.s_adm.size))
        chain_end = max(chain_end, solved.last_boundary, solved.stream_close)
    if not drain:
        return horizon
    elapsed = max(horizon, chain_end * epoch)
    if last_finish is not None:
        elapsed = max(elapsed, last_finish)
    return elapsed


# ------------------------------------------------------------------ fleet
def fleet_fast_supported(balancer, eligible: Dict[str, Tuple[int, ...]]) -> bool:
    """Can routing be computed from per-tenant arrival indexes alone?

    True for round-robin (per-tenant counters), tenant-affinity (pure
    hash), and any other built-in policy whose routes are forced
    (:func:`~repro.fleet.balancer.routes_fixed`).
    """
    from ..fleet.balancer import (
        RoundRobinBalancer,
        TenantAffinityBalancer,
        routes_fixed,
    )

    if type(balancer) in (RoundRobinBalancer, TenantAffinityBalancer):
        return True
    return routes_fixed(balancer, eligible)


def _static_routes(
    balancer, name: str, targets: Tuple[int, ...], count: int
) -> np.ndarray:
    """Replica index for each of a tenant's ``count`` arrivals."""
    from ..fleet.balancer import RoundRobinBalancer, TenantAffinityBalancer

    if type(balancer) is RoundRobinBalancer:
        # The per-tenant counter advances once per arrival, and a
        # tenant's arrivals fire in index order, so the n-th arrival
        # draws turn n no matter how tenants interleave globally.
        choice = np.asarray(targets, dtype=np.int64)
        return choice[np.arange(count, dtype=np.int64) % len(targets)]
    if type(balancer) is TenantAffinityBalancer:
        import zlib

        digest = zlib.crc32(name.encode("utf-8"))
        return np.full(count, targets[digest % len(targets)], dtype=np.int64)
    raise AssertionError(f"unsupported balancer {balancer.name!r}")


def run_fleet_fast(
    replicas: Sequence,
    tenants: Sequence,
    eligible: Dict[str, Tuple[int, ...]],
    balancer,
    horizon: float,
    seed: int,
    drain: bool,
) -> float:
    """Solve a fleet run in place; returns the elapsed cycles.

    Each (replica, tenant) pair is an independent FIFO once routing is
    fixed, so the fleet reduces to per-replica instances of the serve
    solver — with one cross-cutting wrinkle: heap tie-breaks chain
    through the *tenant's* full arrival stream (arrival ``i`` is always
    scheduled by arrival ``i-1``, wherever that one routed), so
    eligibility is computed on the full stream per epoch grid and only
    then split by route.  A tenant's stream also keeps every replica
    that serves it draining until the stream closes, routed there or
    not, which is what ``stream_close`` carries across.
    """
    last_finish: Optional[float] = None
    chain_ends = [
        _last_boundary(horizon, replica.epoch) for replica in replicas
    ]
    last_ks = list(chain_ends)
    for index, spec in enumerate(tenants):
        arrivals = materialize_arrivals(
            spec.process, f"{seed}/{index}/{spec.name}", spec.limit, horizon
        )
        targets = eligible[spec.name]
        # A lone target takes the whole stream: no routes, no masks.
        routes = (
            None
            if len(targets) == 1
            else _static_routes(balancer, spec.name, targets, arrivals.size)
        )
        # One eligibility pass per distinct epoch among serving replicas.
        by_epoch: Dict[float, np.ndarray] = {}
        for r in targets:
            epoch = replicas[r].epoch
            if epoch not in by_epoch:
                by_epoch[epoch] = _eligibility(arrivals, epoch)
        for r in targets:
            replica = replicas[r]
            state = replica.states[spec.name]
            mask = slice(None) if routes is None else routes == r
            solved = _solve_stream(
                arrivals[mask],
                by_epoch[replica.epoch][mask],
                replica.epoch,
                last_ks[r],
                state.queue_depth,
                state.policy,
                drain,
            )
            finish = _fill_state(
                state, arrivals[mask], solved, replica.epoch, drain, horizon
            )
            if finish is not None and (
                last_finish is None or finish > last_finish
            ):
                last_finish = finish
            _charge_clps(replica.clp_busy, state, int(solved.s_adm.size))
            stream_close = (
                int(by_epoch[replica.epoch][-1]) if arrivals.size else 0
            )
            chain_ends[r] = max(
                chain_ends[r], solved.last_boundary, stream_close
            )
    if not drain:
        return horizon
    elapsed = horizon
    for r, replica in enumerate(replicas):
        t_end = chain_ends[r] * replica.epoch
        if t_end > elapsed:
            elapsed = t_end
    if last_finish is not None and last_finish > elapsed:
        elapsed = last_finish
    return elapsed
