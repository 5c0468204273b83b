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
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Sequence

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

    #: Requests queued or in the pipeline on this replica.
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

    def _load(self, index: int) -> int:
        return self._replicas[index].outstanding


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


class LeastOutstandingBalancer(Balancer):
    """Join the shortest queue (queued + in-pipeline); ties to low index."""

    name = "least-outstanding"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        return min(eligible, key=lambda index: (self._load(index), index))


class PowerOfTwoBalancer(Balancer):
    """Sample two distinct eligible replicas, keep the less loaded."""

    name = "power-of-two"

    def route(self, tenant: str, eligible: Sequence[int], now: float) -> int:
        if len(eligible) == 1:
            return eligible[0]
        first, second = self._rng.sample(eligible, 2)
        if (self._load(first), first) <= (self._load(second), second):
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
