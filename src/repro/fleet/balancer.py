"""Pluggable request-routing policies for the cluster simulator.

A balancer sees one arrival at a time and must pick a replica from the
*eligible* set — the replicas whose designs actually serve the arriving
tenant (a heterogeneous fleet can dedicate boards to subsets of the
traffic).  Policies are deliberately stateful objects created fresh per
simulation run: the cluster binds them to the replica list and a
dedicated seeded RNG before the first arrival, so randomized policies
(random, power-of-two-choices) stay deterministic under a fixed fleet
seed without perturbing the tenants' arrival streams.

The classic menu:

* ``round-robin`` — per-tenant rotation; fair to within one request.
* ``least-outstanding`` — join the replica with the fewest queued +
  in-pipeline requests (the greedy full-information policy).
* ``power-of-two`` — sample two eligible replicas, keep the less
  loaded; nearly all of least-outstanding's benefit at O(1) state
  (Mitzenmacher's "power of two choices").
* ``random`` — uniform choice; the baseline power-of-two is measured
  against.
* ``tenant-affinity`` — pin each tenant to one replica by a stable
  hash, trading balance for per-tenant locality (weight reuse).

Each route is O(1) in the run's queue state: a replica's load is one
attribute read of the counter the cluster maintains
(:attr:`ReplicaView.outstanding`), so least-outstanding reads one
counter per eligible replica and power-of-two reads two.  Power-of-two
draws its pair inline with two ``getrandbits`` rejection draws, draw
for draw what ``random.sample(eligible, 2)`` would take, without that
call's per-call ``Sequence`` check.

Routes are *static* when each tenant's arrival index alone decides
them (:meth:`Balancer.split`): round-robin and tenant-affinity over any
targets, every built-in over one.  Static runs are solved in closed form
(:func:`repro.sim.fastpath.run_fleet_fast`); the other policies' routing
*is* the event interleaving, so they run the event engine.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Optional, Sequence

__all__ = [
    "ReplicaView",
    "Balancer",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "PowerOfTwoBalancer",
    "RandomBalancer",
    "TenantAffinityBalancer",
    "BALANCER_NAMES",
    "make_balancer",
]


class ReplicaView:
    """What a balancer may observe about a replica: its current load.

    Structural contract only — the cluster's runtime ``Replica`` objects
    satisfy it by duck typing; custom balancers should depend on nothing
    beyond this attribute.
    """

    #: Requests queued or in the pipeline on this replica: a plain
    #: counter the replica's tenant states keep current as requests
    #: queue, complete, expire, fail over or die with the board, so
    #: reading it costs one attribute load.
    outstanding: int


class Balancer:
    """Routing policy interface; subclasses implement :meth:`route`.

    Policies may be stateful (round-robin counters).  The cluster calls
    :meth:`reset` then :meth:`bind` before each run, so one policy
    object can be reused across simulation windows without leaking
    state; stateful custom balancers should override :meth:`reset` to
    clear per-run state while keeping their configuration.
    """

    #: CLI/registry name, set on each concrete policy.
    name = "abstract"

    def reset(self) -> None:
        """Drop per-run routing state (configuration survives)."""

    def bind(self, replicas: Sequence[ReplicaView], rng: random.Random) -> None:
        """Attach the run's replica list and the policy's private RNG."""
        self._replicas = replicas
        self._rng = rng

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        """Pick a replica index from ``eligible`` for one arrival."""
        raise NotImplementedError

    def split(
        self, tenant: str, targets: Sequence[int]
    ) -> Optional[Dict[int, slice]]:
        """Every target's share of ``tenant``'s arrivals as a slice of
        arrival indexes, matching successive :meth:`route` calls on a
        freshly bound policy; ``None`` when routes depend on load or RNG
        state.  Only the built-in types answer, since a subclass may
        override ``route`` arbitrarily."""
        if type(self) not in _POLICIES:
            return None
        if len(targets) == 1:
            return {targets[0]: slice(None)}
        return self._static_split(tenant, targets)

    def _static_split(
        self, tenant: str, targets: Sequence[int]
    ) -> Optional[Dict[int, slice]]:
        """:meth:`split` over several targets; load-dependent by default."""
        return None


class RoundRobinBalancer(Balancer):
    """Rotate each tenant over its eligible replicas independently."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def reset(self) -> None:
        self._counters.clear()

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        turn = self._counters.get(tenant, 0)
        self._counters[tenant] = turn + 1
        return eligible[turn % len(eligible)]

    def _static_split(
        self, tenant: str, targets: Sequence[int]
    ) -> Dict[int, slice]:
        """Turn ``n`` is the tenant's ``n``-th arrival however tenants
        interleave, so target ``j`` takes every ``len(targets)``-th."""
        return {r: slice(j, None, len(targets)) for j, r in enumerate(targets)}


class LeastOutstandingBalancer(Balancer):
    """Join the shortest queue (queued + in-pipeline); ties to low index."""

    name = "least-outstanding"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        replicas = self._replicas
        return min(
            eligible, key=lambda index: (replicas[index].outstanding, index)
        )


class PowerOfTwoBalancer(Balancer):
    """Sample two distinct eligible replicas, keep the less loaded."""

    name = "power-of-two"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        """Draw two distinct replicas exactly as ``random.sample(eligible,
        2)`` does, then keep the less loaded (ties to the lower index).

        Each index is ``_randbelow``'s rejection draw spelled out: take
        ``getrandbits(m.bit_length())`` until it is below ``m``.
        ``sample`` draws the second index from the ``n - 1`` survivors
        of a pool whose vacancy the last element fills while ``n`` is at
        most 21 (a list is smaller than a set there), and redraws over
        all ``n`` until distinct above that.
        """
        n = len(eligible)
        if n == 1:
            return eligible[0]
        bits = self._rng.getrandbits
        width = n.bit_length()
        j = bits(width)
        while j >= n:
            j = bits(width)
        if n <= 21:
            last = n - 1
            width = last.bit_length()
            i = bits(width)
            while i >= last:
                i = bits(width)
            if i == j:
                i = last
        else:
            i = j
            while i == j:
                i = bits(width)
                while i >= n:
                    i = bits(width)
        first, second = eligible[j], eligible[i]
        replicas = self._replicas
        first_load = replicas[first].outstanding
        second_load = replicas[second].outstanding
        if first_load < second_load or (
            first_load == second_load and first < second
        ):
            return first
        return second


class RandomBalancer(Balancer):
    """Uniform random routing: the no-information baseline."""

    name = "random"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        return self._rng.choice(eligible)


class TenantAffinityBalancer(Balancer):
    """Pin each tenant to one replica by a stable hash of its name.

    Every request of a tenant lands on the same board (maximal weight
    locality, zero rebalancing); the cost is imbalance when tenants'
    rates differ.  The hash is CRC-32 (not Python's salted ``hash``) so
    the pinning is reproducible across processes and machines.
    """

    name = "tenant-affinity"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        digest = zlib.crc32(tenant.encode("utf-8"))
        return eligible[digest % len(eligible)]

    def _static_split(
        self, tenant: str, targets: Sequence[int]
    ) -> Dict[int, slice]:
        """The whole stream to the pinned target, none to the rest."""
        chosen = self.route(tenant, targets, 0.0)
        return {r: slice(None) if r == chosen else slice(0) for r in targets}


_POLICIES = (
    RoundRobinBalancer,
    LeastOutstandingBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    TenantAffinityBalancer,
)

#: Registry of routing policies accepted by ``make_balancer`` and the CLI.
BALANCER_NAMES = tuple(policy.name for policy in _POLICIES)


def make_balancer(name: str) -> Balancer:
    """Build a fresh policy instance from its registry name."""
    key = name.strip().lower()
    for policy in _POLICIES:
        if policy.name == key:
            return policy()
    raise ValueError(
        f"unknown balancer {name!r}; known: {', '.join(BALANCER_NAMES)}"
    )

