"""Epoch-batched fast path for scenario-free traffic simulation.

The event engine (:mod:`repro.sim.engine`) charges ~3 heap events per
request; for plain open-loop runs — no fault scenario, no surge — the
whole simulation is a deterministic function of the arrival times and
the epoch grid, so it can be solved with batched numpy array ops
instead of a callback loop.  This module is that solver, used by
:class:`repro.fleet.cluster.ClusterSimulator` — and so by
:func:`repro.serve.simulator.simulate_traffic`, a one-board fleet run —
when ``engine="fast"``, or under ``"auto"`` when no scenario, active
overload control, active failure detector or observation needs the
event engine (:func:`resolve_engine`).

The run is numpy from the arrival draw to the latency summary:

* **Arrivals** come whole from :meth:`ArrivalProcess.materialize`
  (Poisson streams draw their uniforms in blocks; see
  :mod:`repro.serve.arrivals`).
* **Queues** are solved in closed form.  FIFO admission with one slot
  per boundary is a running maximum; a queue that fills first solves
  every arrival's queue length with a log-depth prefix scan, which
  decides the drops, and the survivors take the same closed form
  (``_solve_stream``).
* **Latencies** stay float64 arrays through
  :meth:`~repro.serve.metrics.LatencySummary.of`.

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
  ``cumsum(...)[-1]`` reproduces the event loop's accumulator exactly;
  both engines take latency means through the same fold
  (:func:`~repro.serve.metrics.fold_sum`).
* **Grid times.**  Boundaries live on the exact grid ``k * epoch`` in
  both engines (see the ``schedule_at`` chains), so admission and
  completion timestamps are single multiplications, identical on both
  paths.

CLP busy cycles are not accumulated: a board derives them from each
tenant state's admission count (``charged``), which both engines set.

The fleet solver takes each tenant's static split of its stream over
its targets (:meth:`repro.fleet.balancer.Balancer.split`); a run whose
balancer has none runs the event engine (:func:`resolve_engine`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Optional, Sequence

import numpy as np

from ..serve.arrivals import ArrivalProcess
from ..serve.simulator import Request

__all__ = [
    "ENGINES",
    "resolve_engine",
    "materialize_arrivals",
    "run_serve_fast",
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
    has_obs: bool = False,
    static_routes: bool = True,
) -> str:
    """Pick the concrete engine for a run.

    ``auto`` selects the fast path unless the run needs something only
    the event engine can run: a fault/surge scenario, an active overload
    feature (admission, non-FIFO discipline, retries, brownout,
    deadlines), an *active* failure detector (probe mode or request
    timeouts), or observation (telemetry or tracing) — failure events,
    retry feedback loops, and probe/timeout events genuinely interleave
    with traffic, and observation samples the event stream the fast
    solver never builds.  Requesting ``fast`` together with any of them
    is one error naming every blocker, rather than a silent downgrade.
    Routes that are not static (:meth:`repro.fleet.balancer.Balancer.split`)
    run the event engine under ``fast`` too: it promises results, not
    mechanism.
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
            (has_obs, "observation (telemetry or tracing)"),
        )
        if needed
    ]
    if engine == "fast" and blockers:
        raise ValueError(
            f"engine='fast' cannot run {' and '.join(blockers)}; "
            "use engine='event' (or 'auto')"
        )
    if engine == "event" or blockers or not static_routes:
        return "event"
    return "fast"


# --------------------------------------------------------------- arrivals
def materialize_arrivals(
    process: ArrivalProcess,
    seed_key: str,
    limit: Optional[int],
    horizon: float,
) -> np.ndarray:
    """All arrival times one stream would fire, as a float64 array.

    The event loop draws stream ``seed_key`` from a fresh
    ``random.Random(seed_key)``; :meth:`ArrivalProcess.materialize`
    replays that generator exactly, stopping where the event loop's pump
    stops (``limit`` arrivals, exhaustion, or the horizon).
    """
    return process.materialize(random.Random(seed_key), limit, horizon)


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
        queue_times: np.ndarray,
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


def _fifo_admissions(eligibility: np.ndarray) -> np.ndarray:
    """Admission boundary of each queued arrival, one per boundary.

    FIFO with one admission per boundary is ``s_i = max(s_{i-1} + 1,
    e_i)``, whose closed form is ``i + max.accumulate(e - i)``.
    """
    index = np.arange(eligibility.size, dtype=np.int64)
    return index + np.maximum.accumulate(eligibility - index)


def _queue_lengths(steps: np.ndarray, depth: int) -> np.ndarray:
    """Queue length each arrival finds before its push, at capacity ``depth``.

    ``steps[i]`` boundaries fire between arrival ``i-1``'s push and
    arrival ``i``'s, each serving one waiter, so the length after push
    ``i`` is ``L_i = min(depth, max(0, L_{i-1} - steps[i]) + 1)`` from
    ``L_{-1} = 0``: a full queue keeps its length whether it refuses the
    newcomer or evicts its head.  Each step is a clamp map
    ``x -> min(hi, max(lo, x + c))`` (``c = 1 - steps[i]``, ``lo = 1``,
    ``hi = depth``), clamp maps compose to clamp maps, and a
    log2(n)-round prefix scan composes every prefix at once.  Shifts
    compose by addition, so their prefixes are one ``cumsum`` and only
    the bounds go through the scan.
    """
    n = steps.size
    shift = np.cumsum(1 - steps)
    lo = np.ones(n, dtype=np.int64)
    hi = np.full(n, depth, dtype=np.int64)
    span = 1
    while span < n:
        # Entry i covers maps i-span+1..i; apply entry i-span first.
        moved = shift[span:] - shift[:-span]
        lo_next = np.minimum(
            hi[span:], np.maximum(lo[span:], lo[:-span] + moved)
        )
        hi[span:] = np.minimum(
            hi[span:], np.maximum(lo[span:], hi[:-span] + moved)
        )
        lo[span:] = lo_next
        span *= 2
    after = np.minimum(hi, np.maximum(lo, shift))
    before = np.empty_like(after)
    before[0] = 0
    before[1:] = after[:-1]
    return np.maximum(before - steps, 0)


def _solve_stream(
    arrivals: np.ndarray,
    eligibility: np.ndarray,
    epoch: float,
    last_k: int,
    queue_depth: int,
    policy: str,
    drain: bool,
) -> _StreamResult:
    """Solve one bounded FIFO admission queue against one boundary grid.

    ``last_k`` is the last boundary that exists without draining; in
    drain mode the chain extends as far as pending work requires.
    Arrivals never outlive the horizon, so no eligibility exceeds
    ``last_k + 1`` and queue lengths need no cut at ``last_k``.

    Without drops the FIFO closed form gives every admission at once.
    A run that fills its queue first solves the queue lengths with
    :func:`_queue_lengths`: an arrival that finds ``queue_depth``
    waiters is refused under drop-tail, and under drop-head evicts the
    head, which is arrival ``i - queue_depth`` (the queue always holds
    a run of consecutive arrivals there).  Refused and evicted arrivals
    leave the queue without an admission, so the survivors alone go
    through the same closed form.
    """
    n = arrivals.size
    stream_close = int(eligibility[-1]) if n else 0
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return _StreamResult(
            np.empty(0, dtype=np.int64), empty, 0, empty, 0.0, 0.0, 0, 0
        )

    index = np.arange(n, dtype=np.int64)
    s = _fifo_admissions(eligibility)
    # Queue length each arrival observes just before its push: arrivals
    # admitted strictly before its fire are exactly those with s < e.
    served = np.searchsorted(s, eligibility, side="left")
    length = index - served
    push = np.ones(n, dtype=np.int64)
    drops = 0
    queued_times = arrivals
    if int(length.max()) >= queue_depth:
        steps = np.diff(eligibility, prepend=1)
        length = _queue_lengths(steps, queue_depth)
        full = length == queue_depth
        drops = int(np.count_nonzero(full))
        if policy == "drop-tail":
            kept = ~full
        else:
            kept = np.ones(n, dtype=bool)
            kept[np.flatnonzero(full) - queue_depth] = False
        # A full queue keeps its length: the push is a touch, not a +1.
        push[full] = 0
        queued_times = arrivals[kept]
        s = _fifo_admissions(eligibility[kept])
        served = np.searchsorted(s, eligibility, side="left")

    cutoff = s.size if drain else int(np.searchsorted(s, last_k, side="right"))
    s_adm = s[:cutoff]
    adm_times = queued_times[:cutoff]
    queue_times = queued_times[cutoff:]

    # Occupancy integral in event order.  Pushes (keyed by eligibility:
    # an arrival fires just before boundary e) and pops (keyed by their
    # admission boundary) are each already in order; a push wins a key
    # tie, since the arrival fired first — that is what eligibility
    # encodes.  Each event's slot in the merge counts the other kind
    # ahead of it: pop j follows push i iff ``served[i] <= j``.
    slot_push = index + np.minimum(served, cutoff)
    slot_pop = np.arange(cutoff, dtype=np.int64) + np.cumsum(
        np.bincount(served, minlength=cutoff)[:cutoff]
    )
    times = np.empty(n + cutoff, dtype=np.float64)
    delta = np.empty(n + cutoff, dtype=np.int64)
    times[slot_push] = arrivals
    times[slot_pop] = s_adm * epoch
    delta[slot_push] = push
    delta[slot_pop] = -1
    before = np.cumsum(delta) - delta
    prev_times = np.empty_like(times)
    prev_times[0] = 0.0
    prev_times[1:] = times[:-1]
    area = np.cumsum(before * (times - prev_times))
    return _StreamResult(
        s_adm,
        adm_times,
        drops,
        queue_times,
        float(area[-1]),
        float(times[-1]),
        min(queue_depth, int(length.max()) + 1),
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
    state.charged = int(finish.size)
    state.latencies = latencies
    if fired:
        state.first_completion = float(finish[0])
        state.last_completion = float(finish[fired - 1])
    state.queue = deque(map(Request, solved.queue_times.tolist()))
    # The board's load counter, as the event engine would leave it.
    state.board.outstanding += len(state.queue) + state.pipeline
    state.peak_queue = solved.peak
    state._occupancy_area = solved.area
    state._occupancy_mark = solved.mark
    return float(finish[fired - 1]) if fired else None


# ------------------------------------------------------------------ serve
# Unused by the simulators: serve runs solve through ``run_fleet_fast``
# with one replica.  Kept because the per-layer tracer in
# ``perfbench/tracer.py`` patches it by name, and a missing name fails
# every traced benchmark run; delete it together with that patch.
def run_serve_fast(
    states: Sequence,
    epoch: float,
    horizon: float,
    seed: int,
    drain: bool,
) -> float:
    """Solve a single-device run in place; returns the elapsed cycles.

    ``states`` are the run's fresh ``TenantState`` objects in tenant
    order; each is filled with exactly the counters and float
    accumulators the event loop would have left behind, so the caller's
    result assembly is shared between engines.  A state's ``charged``
    count is its admissions, as in the event loop; the board derives
    its CLP busy cycles from it.
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
        chain_end = max(chain_end, solved.last_boundary, solved.stream_close)
    if not drain:
        return horizon
    elapsed = max(horizon, chain_end * epoch)
    if last_finish is not None:
        elapsed = max(elapsed, last_finish)
    return elapsed


# ------------------------------------------------------------------ fleet
def run_fleet_fast(
    replicas: Sequence,
    tenants: Sequence,
    splits: Dict[str, Dict[int, slice]],
    horizon: float,
    seed: int,
    drain: bool,
) -> float:
    """Solve a fleet run in place; returns the elapsed cycles.

    ``splits`` holds each tenant's static split
    (:meth:`~repro.fleet.balancer.Balancer.split`), so each (replica,
    tenant) pair is an independent FIFO and the fleet reduces to
    per-replica instances of the serve solver — with one cross-cutting
    wrinkle: heap tie-breaks chain
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
        shares = splits[spec.name]
        # One eligibility pass per distinct epoch among serving replicas.
        by_epoch: Dict[float, np.ndarray] = {}
        for r in shares:
            epoch = replicas[r].epoch
            if epoch not in by_epoch:
                by_epoch[epoch] = _eligibility(arrivals, epoch)
        for r, share in shares.items():
            replica = replicas[r]
            state = replica.states[spec.name]
            # Contiguous copies: a strided share slows every array pass.
            mine = np.ascontiguousarray(arrivals[share])
            solved = _solve_stream(
                mine,
                np.ascontiguousarray(by_epoch[replica.epoch][share]),
                replica.epoch,
                last_ks[r],
                state.queue_depth,
                state.policy,
                drain,
            )
            finish = _fill_state(
                state, mine, solved, replica.epoch, drain, horizon
            )
            if finish is not None and (
                last_finish is None or finish > last_finish
            ):
                last_finish = finish
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
