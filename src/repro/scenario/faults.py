"""Seeded replica fail/recover injection for the cluster simulator.

A fault spec is a frozen description of *how* replicas fail; at run
start the cluster materializes every spec against the concrete horizon,
replica count, and a dedicated fault RNG substream into a flat list of
:class:`Outage` windows, then drives them as ordinary events inside the
discrete-event loop (down at ``start``, recovery at ``end``).  Keeping
materialization up front has two payoffs: the injected schedule is
reproducible and inspectable (it becomes the run's
:class:`Incident` record), and the fault RNG is consumed in one place —
enabling a scenario can never perturb the arrival-stream draws, which
live on their own substreams (the determinism tests pin this).

Times and durations are expressed as *fractions of the horizon* by
default (``relative=True``), so one named scenario stresses a 10 ms
probe window and a 10 s soak identically; absolute cycle values are for
hand-built schedules.

What failure means for requests is the scenario's ``failure_policy``
(see :data:`FAILURE_POLICIES`): work already in a dead board's pipeline
is always lost with the board, while its *queued* requests are either
``requeue``-d through the balancer to surviving replicas or ``lost``
outright (modelling state that dies with the host).

Binary outages are only half the story: real fleets mostly fail *gray*.
The degraded specs (:class:`DegradedReplica`, :class:`FlakyReplica`,
:class:`LinkDelay`) materialize into :class:`Degradation` windows the
same way outages do — same fault RNG substream, same up-front schedule —
but instead of taking a replica down they slow its epochs, fail a seeded
fraction of its requests, or add router→replica latency.  A gray replica
still answers the oracle health check, which is exactly why detection
(see :mod:`repro.fleet.detector`) becomes interesting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.serialize import from_record, to_record

__all__ = [
    "FAILURE_POLICIES",
    "GRAY_MODES",
    "Outage",
    "Degradation",
    "Incident",
    "FaultSpec",
    "RandomFaults",
    "ScheduledOutage",
    "RackFailure",
    "RollingReboot",
    "RedundancyOutage",
    "DegradedReplica",
    "FlakyReplica",
    "LinkDelay",
    "fault_to_dict",
    "fault_from_dict",
]

#: What happens to a failed replica's queued requests: re-routed through
#: the balancer to healthy replicas, or destroyed with the board.
FAILURE_POLICIES = ("requeue", "lost")

#: The ways a replica degrades without dying.  ``slow`` multiplies epoch
#: time (severity = slowdown factor), ``flaky`` fails dispatched requests
#: (severity = error probability), ``link-delay`` adds router→replica
#: latency (severity = delay in epochs).
GRAY_MODES = ("slow", "flaky", "link-delay")


@dataclass(frozen=True)
class Outage:
    """One materialized down-window of one replica (cycles, absolute)."""

    replica: int
    start: float
    end: float
    cause: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"outage window [{self.start}, {self.end}) is empty or negative"
            )


@dataclass(frozen=True)
class Degradation:
    """One materialized gray window of one replica (cycles, absolute).

    The gray analogue of :class:`Outage`: the replica keeps serving, but
    worse.  ``mode`` is one of :data:`GRAY_MODES` and fixes the meaning
    of ``severity`` — a slowdown factor (``slow``), a per-dispatch error
    probability (``flaky``), or an added latency in epochs
    (``link-delay``).
    """

    replica: int
    start: float
    end: float
    mode: str
    severity: float
    cause: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"degradation window [{self.start}, {self.end}) is empty "
                "or negative"
            )
        if self.mode not in GRAY_MODES:
            raise ValueError(
                f"unknown gray mode {self.mode!r}; known: {GRAY_MODES}"
            )
        if self.severity <= 0:
            raise ValueError("severity must be positive")


@dataclass(frozen=True)
class Incident:
    """One service-affecting window as recorded on a ``FleetResult``.

    ``kind`` is ``"fault"`` for replica outages and ``"surge"`` for
    declared traffic windows (flash-crowd spike, diurnal peak);
    ``target`` names the affected replica label, or ``"fleet"`` for
    traffic-wide incidents.  ``end`` is clipped to the observation
    window, with ``recovered`` recording whether the incident actually
    closed inside it — an unrecovered incident's duration is censored,
    so time-to-recover averages skip it.
    """

    kind: str
    target: str
    start_cycles: float
    end_cycles: float
    recovered: bool

    @property
    def duration_cycles(self) -> float:
        return self.end_cycles - self.start_cycles


class FaultSpec:
    """Base class: a seeded recipe for replica down-windows.

    ``materialize`` receives the run's horizon, replica count, and the
    scenario's dedicated fault RNG, and returns concrete
    :class:`Outage` windows (absolute cycles, clipped to start inside
    the horizon).  Deterministic specs must not touch the RNG, so mixing
    scheduled and random faults keeps the scheduled part bit-stable.
    """

    #: Registry key for (de)serialization; set on each concrete spec.
    kind = "abstract"

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        raise NotImplementedError

    def materialize_gray(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Degradation]:
        """Concrete gray windows; binary fault specs have none."""
        return []


def _check_window(start: float, duration: float, relative: bool) -> None:
    if start < 0 or duration <= 0:
        raise ValueError(
            f"fault window start={start} duration={duration} must be "
            "non-negative / positive"
        )
    if relative and start >= 1.0:
        raise ValueError(
            f"relative fault start {start} must lie inside the horizon [0, 1)"
        )


def _scale(value: float, horizon: float, relative: bool) -> float:
    return value * horizon if relative else value


@dataclass(frozen=True)
class RandomFaults(FaultSpec):
    """Memoryless fail/recover per replica: MTTF/MTTR exponentials.

    Every replica independently alternates up-phases (exponential, mean
    ``mttf``) and down-phases (exponential, mean ``mttr``) — the
    textbook availability model (steady-state availability
    ``mttf / (mttf + mttr)``).  Draws come replica by replica in index
    order from the scenario's fault RNG, so the schedule is a pure
    function of (seed, horizon, replica count).
    """

    kind = "random"

    mttf: float = 0.5
    mttr: float = 0.05
    relative: bool = True

    def __post_init__(self) -> None:
        if self.mttf <= 0 or self.mttr <= 0:
            raise ValueError("mttf and mttr must be positive")

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        mttf = _scale(self.mttf, horizon, self.relative)
        mttr = _scale(self.mttr, horizon, self.relative)
        outages: List[Outage] = []
        for replica in range(num_replicas):
            now = rng.expovariate(1.0 / mttf)
            while now < horizon:
                down = rng.expovariate(1.0 / mttr)
                outages.append(
                    Outage(replica, now, now + down, cause="random")
                )
                now += down + rng.expovariate(1.0 / mttf)
        return outages


@dataclass(frozen=True)
class ScheduledOutage(FaultSpec):
    """One replica down over a fixed window (maintenance, known failure)."""

    kind = "scheduled"

    replica: int = 0
    start: float = 0.4
    duration: float = 0.2
    relative: bool = True

    def __post_init__(self) -> None:
        if self.replica < 0:
            raise ValueError("replica index must be non-negative")
        _check_window(self.start, self.duration, self.relative)

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        if self.replica >= num_replicas:
            return []  # spec written for a bigger fleet; nothing to fail here
        start = _scale(self.start, horizon, self.relative)
        duration = _scale(self.duration, horizon, self.relative)
        if start >= horizon:
            return []
        return [Outage(self.replica, start, start + duration, cause="scheduled")]


@dataclass(frozen=True)
class RackFailure(FaultSpec):
    """Correlated loss: a fixed fraction of the fleet down together.

    Models a rack/PDU/switch failure — the first ``ceil(fraction * N)``
    replicas (one "rack" under the fleet's natural ordering) go down at
    ``start`` and recover together.  The point of the correlation is
    that redundancy planned for independent failures is not enough;
    this is the scenario N+1 capacity questions are asked against.
    """

    kind = "rack"

    fraction: float = 0.5
    start: float = 0.4
    duration: float = 0.25
    relative: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        _check_window(self.start, self.duration, self.relative)

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        members = math.ceil(self.fraction * num_replicas)
        start = _scale(self.start, horizon, self.relative)
        duration = _scale(self.duration, horizon, self.relative)
        if start >= horizon:
            return []
        return [
            Outage(replica, start, start + duration, cause="rack")
            for replica in range(min(members, num_replicas))
        ]


@dataclass(frozen=True)
class RollingReboot(FaultSpec):
    """Staggered one-at-a-time outages: a rolling upgrade across the fleet.

    Replica ``i`` reboots for ``duration`` starting at evenly spaced
    points across ``[window_start, window_end - duration]``, so at most
    one replica is down at a time whenever the window affords the
    spacing — the deploy pattern operators actually use, and the
    scenario that separates "survives one loss" from "survives only
    zero losses".
    """

    kind = "rolling"

    duration: float = 0.08
    window_start: float = 0.1
    window_end: float = 0.9
    relative: bool = True

    def __post_init__(self) -> None:
        _check_window(self.window_start, self.duration, self.relative)
        if not self.window_start < self.window_end <= 1.0 if self.relative else False:
            if self.window_end <= self.window_start:
                raise ValueError("window_end must exceed window_start")

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        duration = _scale(self.duration, horizon, self.relative)
        lo = _scale(self.window_start, horizon, self.relative)
        hi = _scale(self.window_end, horizon, self.relative)
        span = max(hi - lo - duration, 0.0)
        step = span / max(num_replicas - 1, 1)
        outages: List[Outage] = []
        for replica in range(num_replicas):
            start = lo + replica * step
            if start >= horizon:
                continue
            outages.append(
                Outage(replica, start, start + duration, cause="rolling")
            )
        return outages


@dataclass(frozen=True)
class RedundancyOutage(FaultSpec):
    """Force the *last* ``count`` replicas down over one window.

    The capacity planner's N+k probe: killing replicas from the end of
    the index order avoids overlapping a scenario's own rack failure
    (which takes replicas from the front), so the forced loss is always
    *additional* stress — the conservative reading of "plan for k more
    failures on top of the scenario".
    """

    kind = "redundancy"

    count: int = 1
    start: float = 0.35
    duration: float = 0.3
    relative: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be at least 1")
        _check_window(self.start, self.duration, self.relative)

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        start = _scale(self.start, horizon, self.relative)
        duration = _scale(self.duration, horizon, self.relative)
        if start >= horizon:
            return []
        count = min(self.count, num_replicas)
        return [
            Outage(replica, start, start + duration, cause="redundancy")
            for replica in range(num_replicas - count, num_replicas)
        ]


class _GraySpec(FaultSpec):
    """Shared shape for gray specs: a window plus affected members.

    ``replica`` targets one board; setting ``fraction`` instead degrades
    the first ``ceil(fraction * N)`` replicas together (same front-of-
    fleet convention as :class:`RackFailure`, so a storm composes with a
    redundancy outage without overlapping it).  Gray specs produce no
    :class:`Outage` windows — their whole point is that the board stays
    "up".
    """

    #: Gray mode this spec materializes; set on each concrete spec.
    mode = "abstract"

    def materialize(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Outage]:
        return []

    def _members(self, num_replicas: int) -> List[int]:
        fraction = getattr(self, "fraction", None)
        if fraction is None:
            if self.replica >= num_replicas:
                return []
            return [self.replica]
        members = math.ceil(fraction * num_replicas)
        return list(range(min(members, num_replicas)))

    def _windows(
        self, horizon: float, num_replicas: int, severity: float
    ) -> List[Degradation]:
        start = _scale(self.start, horizon, self.relative)
        duration = _scale(self.duration, horizon, self.relative)
        if start >= horizon:
            return []
        return [
            Degradation(
                replica, start, start + duration, mode=self.mode,
                severity=severity, cause=self.kind,
            )
            for replica in self._members(num_replicas)
        ]

    def _check_members(self) -> None:
        fraction = getattr(self, "fraction", None)
        if fraction is None:
            if self.replica < 0:
                raise ValueError("replica index must be non-negative")
        elif not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        _check_window(self.start, self.duration, self.relative)


@dataclass(frozen=True)
class DegradedReplica(_GraySpec):
    """A straggler: the replica's epochs run ``slowdown`` times slower.

    Models thermal throttling, a failing DIMM, a noisy neighbour — the
    board still completes every request, just at ``1/slowdown`` of its
    design throughput and with proportionally stretched latency.  A
    ``fraction`` turns one straggler into a straggler storm.
    """

    kind = "degraded"
    mode = "slow"

    replica: int = 0
    slowdown: float = 4.0
    start: float = 0.3
    duration: float = 0.3
    fraction: Optional[float] = None
    relative: bool = True

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(
                f"slowdown must be >= 1, got {self.slowdown}"
            )
        self._check_members()

    def materialize_gray(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Degradation]:
        return self._windows(horizon, num_replicas, self.slowdown)


@dataclass(frozen=True)
class FlakyReplica(_GraySpec):
    """A flaky board: each dispatched request errors with ``error_rate``.

    The error draw happens per dispatch on the cluster's dedicated
    flaky substream, so enabling flakiness never perturbs arrival or
    balancer draws.  Errored attempts fail over to another replica when
    a detector allows it, otherwise they are lost.
    """

    kind = "flaky"
    mode = "flaky"

    replica: int = 0
    error_rate: float = 0.3
    start: float = 0.2
    duration: float = 0.5
    fraction: Optional[float] = None
    relative: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError(
                f"error_rate must be in (0, 1], got {self.error_rate}"
            )
        self._check_members()

    def materialize_gray(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Degradation]:
        return self._windows(horizon, num_replicas, self.error_rate)


@dataclass(frozen=True)
class LinkDelay(_GraySpec):
    """A slow link: every request to the replica pays ``delay_epochs``.

    Added router→replica latency, expressed in epochs so the same named
    scenario stresses designs with different epoch lengths identically.
    Throughput is untouched — only latency (and hence p99 outlier
    detection and request timeouts) feels it.
    """

    kind = "link-delay"
    mode = "link-delay"

    replica: int = 0
    delay_epochs: float = 2.0
    start: float = 0.2
    duration: float = 0.5
    fraction: Optional[float] = None
    relative: bool = True

    def __post_init__(self) -> None:
        if self.delay_epochs <= 0:
            raise ValueError(
                f"delay_epochs must be positive, got {self.delay_epochs}"
            )
        self._check_members()

    def materialize_gray(
        self, horizon: float, num_replicas: int, rng: random.Random
    ) -> List[Degradation]:
        return self._windows(horizon, num_replicas, self.delay_epochs)


def fault_to_dict(spec: FaultSpec) -> Dict[str, Any]:
    return to_record(spec)


def fault_from_dict(data: Dict[str, Any]) -> FaultSpec:
    return from_record(FaultSpec, data, "fault")
