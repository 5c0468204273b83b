"""Named, seeded, CLI-addressable failure/surge scenarios.

A :class:`ScenarioSpec` bundles everything that turns a clean fleet run
into a drill: fault specs (:mod:`repro.scenario.faults`), an optional
traffic :class:`SurgeShape` applied to every tenant's arrival process,
and the policy for a dead replica's queued requests.  Specs are frozen
and horizon-relative, so ``repro fleet simulate --scenario rack-loss``
means the same stress at any duration, replica count, or seed — the
registry below is the shared vocabulary between the CLI, the capacity
planner, and the resilience tests.

Surge shapes *reshape* a tenant's baseline arrival process into a
time-varying one (:mod:`repro.scenario.surges`), preserving its nominal
``mean_rate`` as the baseline.  A reshaped process is a thinned Poisson
process regardless of the baseline's own shape — a scenario describes
offered load over time, not the fine structure of inter-arrival gaps —
and draws from the same per-tenant RNG substream the baseline would
have used.  Shapes may also *declare* incident windows (a flash crowd's
spike, a diurnal peak) so resilience metrics can score service quality
inside them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import omit_default, to_record
from ..serve.arrivals import ArrivalProcess
from ..serve.overload import (
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadSpec,
    RetryPolicy,
)
from .faults import (
    FAILURE_POLICIES,
    DegradedReplica,
    FaultSpec,
    FlakyReplica,
    LinkDelay,
    RackFailure,
    RandomFaults,
    RedundancyOutage,
    RollingReboot,
)
from .surges import DiurnalArrivals, FlashCrowdArrivals, OnOffArrivals

__all__ = [
    "SurgeShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "ChurnShape",
    "ScenarioSpec",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "get_scenario",
    "describe_scenario",
]


class SurgeShape:
    """Base: a horizon-relative recipe for time-varying offered load."""

    #: Registry key for (de)serialization; set on each concrete shape.
    kind = "abstract"

    def reshape(
        self,
        process: ArrivalProcess,
        horizon: float,
        tenant_index: int,
        num_tenants: int,
    ) -> ArrivalProcess:
        """Return the time-varying process replacing ``process``."""
        raise NotImplementedError

    def windows(self, horizon: float) -> List[Tuple[float, float]]:
        """Declared fleet-wide surge windows (absolute cycles)."""
        return []


@dataclass(frozen=True)
class DiurnalShape(SurgeShape):
    """Sinusoidal day: ``periods`` full cycles across the horizon.

    Declares the top third of each sinusoid (rate at least
    ``amplitude/2`` above baseline) as a surge window, so resilience
    metrics report tail latency *at the daily peak* separately.
    """

    kind = "diurnal"

    amplitude: float = 0.7
    periods: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.periods <= 0:
            raise ValueError("periods must be positive")

    def reshape(
        self,
        process: ArrivalProcess,
        horizon: float,
        tenant_index: int,
        num_tenants: int,
    ) -> ArrivalProcess:
        return DiurnalArrivals(
            rate=process.mean_rate,
            amplitude=self.amplitude,
            period_cycles=horizon / self.periods,
        )

    def windows(self, horizon: float) -> List[Tuple[float, float]]:
        # sin >= 0.5 on [period/12, 5*period/12]: the top third of each day.
        period = horizon / self.periods
        out: List[Tuple[float, float]] = []
        start = period / 12.0
        while start < horizon:
            out.append((start, min(start + period / 3.0, horizon)))
            start += period
        return out


@dataclass(frozen=True)
class FlashCrowdShape(SurgeShape):
    """A ``multiplier``-fold spike over one horizon-relative window."""

    kind = "flash"

    multiplier: float = 4.0
    start: float = 0.4
    duration: float = 0.2

    def __post_init__(self) -> None:
        if self.multiplier <= 1.0:
            raise ValueError(f"multiplier must exceed 1, got {self.multiplier}")
        if not 0.0 <= self.start < 1.0 or self.duration <= 0:
            raise ValueError(
                f"spike start={self.start} duration={self.duration} must fit "
                "the horizon"
            )

    def reshape(
        self,
        process: ArrivalProcess,
        horizon: float,
        tenant_index: int,
        num_tenants: int,
    ) -> ArrivalProcess:
        return FlashCrowdArrivals(
            rate=process.mean_rate,
            multiplier=self.multiplier,
            spike_start_cycles=self.start * horizon,
            spike_cycles=self.duration * horizon,
        )

    def windows(self, horizon: float) -> List[Tuple[float, float]]:
        start = self.start * horizon
        return [(start, min(start + self.duration * horizon, horizon))]


@dataclass(frozen=True)
class ChurnShape(SurgeShape):
    """Tenants join and leave: phase-staggered on/off session gating.

    Tenant ``i`` is active for the first ``duty`` of every period, with
    its phase offset by ``i / num_tenants`` of a period — at any instant
    only a rotating subset of tenants offers load.  No surge windows are
    declared: churn is the steady state, not an incident.
    """

    kind = "churn"

    duty: float = 0.6
    periods: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")
        if self.periods <= 0:
            raise ValueError("periods must be positive")

    def reshape(
        self,
        process: ArrivalProcess,
        horizon: float,
        tenant_index: int,
        num_tenants: int,
    ) -> ArrivalProcess:
        period = horizon / self.periods
        phase = period * (tenant_index / max(num_tenants, 1))
        return OnOffArrivals(
            rate=process.mean_rate,
            duty=self.duty,
            period_cycles=period,
            phase_cycles=phase,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named drill: faults + surge + failure policy, horizon-relative."""

    record_kind = "scenario"
    record_schema = 1
    #: Hand-written scenario records may leave the schema out.
    record_schema_optional = True

    name: str
    description: str = ""
    #: What happens to a dead replica's *queued* requests; in-pipeline
    #: work is always lost with the board.  See ``FAILURE_POLICIES``.
    failure_policy: str = "requeue"
    faults: Tuple[FaultSpec, ...] = ()
    surge: Optional[SurgeShape] = omit_default(None)
    #: Overload-control configuration the drill runs under (client
    #: retries, admission, discipline, brownout).  A run-level
    #: ``overload=`` argument wins over the scenario's.
    overload: Optional[OverloadSpec] = omit_default(None)
    #: How the fleet learns replica health (:mod:`repro.fleet.detector`):
    #: oracle vs probe-based detection, plus request timeouts and
    #: failover budget.  A run-level ``detector=`` argument wins over
    #: the scenario's.
    detector: Optional["DetectorSpec"] = omit_default(None)

    def __post_init__(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )

    @property
    def is_noop(self) -> bool:
        """True when running this scenario must be bit-exact to no scenario."""
        return (
            not self.faults
            and self.surge is None
            and (self.overload is None or not self.overload.active)
            and (self.detector is None or not self.detector.active)
        )

    def with_redundancy(
        self, count: int, *, start: float = 0.35, duration: float = 0.3
    ) -> "ScenarioSpec":
        """This scenario plus ``count`` extra forced replica losses.

        The planner's N+k probe: the last ``count`` replicas are failed
        over one window, deliberately disjoint (by index) from a rack
        failure's victims so the stress is additive.  ``count=0`` is the
        scenario unchanged.
        """
        if count < 0:
            raise ValueError(f"redundancy count must be >= 0, got {count}")
        if count == 0:
            return self
        forced = RedundancyOutage(count=count, start=start, duration=duration)
        return replace(
            self,
            name=f"{self.name}+n{count}",
            faults=self.faults + (forced,),
        )


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a named scenario; raises with the valid names on a miss."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None


# Deferred deliberately: ``repro.fleet.cluster`` imports ``ScenarioSpec``
# and ``get_scenario`` from this module at *its* import time, so pulling
# the (leaf) detector module any earlier would leave the cycle
# unresolvable when ``repro.scenario`` loads first.  By this point every
# name the fleet layer needs from us is bound.
from ..fleet.detector import DetectorSpec  # noqa: E402

SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="steady",
            description=(
                "No faults, stationary traffic — the control every other "
                "scenario is compared against (bit-exact to running with "
                "no scenario at all)."
            ),
        ),
        ScenarioSpec(
            name="diurnal-day",
            description=(
                "One sinusoidal traffic day (amplitude 0.7); the daily "
                "peak third is scored as a surge window."
            ),
            surge=DiurnalShape(amplitude=0.7, periods=1.0),
        ),
        ScenarioSpec(
            name="flash-crowd",
            description=(
                "4x traffic spike over the middle fifth of the run — the "
                "viral-link / retry-storm drill."
            ),
            surge=FlashCrowdShape(multiplier=4.0, start=0.4, duration=0.2),
        ),
        ScenarioSpec(
            name="rolling-reboot",
            description=(
                "Every replica reboots once, staggered so at most one is "
                "down at a time — the rolling-upgrade drill."
            ),
            faults=(RollingReboot(duration=0.08, window_start=0.1, window_end=0.9),),
        ),
        ScenarioSpec(
            name="rack-loss",
            description=(
                "Half the fleet fails together for a quarter of the run — "
                "the correlated-failure drill N+k capacity is planned "
                "against."
            ),
            faults=(RackFailure(fraction=0.5, start=0.4, duration=0.25),),
        ),
        ScenarioSpec(
            name="tenant-churn",
            description=(
                "Tenants join and leave on staggered on/off sessions "
                "(duty 0.6, two rotations) — the load-shifting drill for "
                "balancers and autoscaling."
            ),
            surge=ChurnShape(duty=0.6, periods=2.0),
        ),
        ScenarioSpec(
            name="chaos",
            description=(
                "Independent memoryless fail/recover per replica "
                "(MTTF half the run, MTTR a twentieth) — background "
                "attrition rather than one clean incident."
            ),
            faults=(RandomFaults(mttf=0.5, mttr=0.05),),
        ),
        ScenarioSpec(
            name="retry-storm",
            description=(
                "Half the fleet fails for a transient window while naive "
                "clients retry without bound (fixed short backoff, no "
                "jitter, no admission control) — the metastable-collapse "
                "drill: the retry pool can keep queues pinned long after "
                "the fault clears."
            ),
            faults=(RackFailure(fraction=0.5, start=0.25, duration=0.15),),
            overload=OverloadSpec(
                queue_policy="fifo",
                retry=RetryPolicy(
                    max_attempts=0,
                    backoff="fixed",
                    base_ms=0.05,
                    cap_ms=0.05,
                    jitter="none",
                ),
            ),
        ),
        ScenarioSpec(
            name="brownout-drill",
            description=(
                "Flash crowd under EDF scheduling, deadline admission, "
                "bounded jittered retries, and a brownout controller "
                "shedding the lowest priority classes to hold the top "
                "class's p99 — the graceful-degradation drill."
            ),
            surge=FlashCrowdShape(multiplier=4.0, start=0.3, duration=0.3),
            overload=OverloadSpec(
                queue_policy="edf",
                admission=AdmissionPolicy(deadline_admission=True),
                retry=RetryPolicy(
                    max_attempts=2,
                    base_ms=0.1,
                    cap_ms=1.0,
                    jitter="decorrelated",
                ),
                brownout=BrownoutPolicy(p99_ms=2.0, window_ms=1.0),
                deadline_ms=2.0,
            ),
        ),
        ScenarioSpec(
            name="gray-failure",
            description=(
                "The everything-is-technically-up drill: one straggler, "
                "one flaky board, and one slow link overlap mid-run while "
                "probe-based detection (with request timeouts and bounded "
                "failover) has to notice what the oracle health check "
                "never will."
            ),
            faults=(
                DegradedReplica(replica=0, slowdown=6.0, start=0.25, duration=0.4),
                FlakyReplica(replica=1, error_rate=0.4, start=0.3, duration=0.4),
                LinkDelay(replica=2, delay_epochs=3.0, start=0.35, duration=0.4),
            ),
            detector=DetectorSpec(
                mode="probe",
                request_timeout_ms=2.0,
                max_failovers=2,
            ),
        ),
        ScenarioSpec(
            name="straggler-storm",
            description=(
                "A third of the fleet throttles to 1/8 speed over the "
                "middle of the run — no errors, no downtime, just tail "
                "latency — and only p99 outlier ejection plus request "
                "timeouts keep goodput up."
            ),
            faults=(
                DegradedReplica(
                    fraction=0.34, slowdown=8.0, start=0.3, duration=0.4
                ),
            ),
            detector=DetectorSpec(
                mode="probe",
                outlier_p99_factor=2.0,
                request_timeout_ms=3.0,
                max_failovers=1,
            ),
        ),
        ScenarioSpec(
            name="flaky-replica",
            description=(
                "One board fails half its requests over the middle half "
                "of the run; Envoy-style error-rate ejection has to pull "
                "it from rotation while failover rescues the attempts "
                "already burned."
            ),
            faults=(
                FlakyReplica(replica=0, error_rate=0.5, start=0.25, duration=0.5),
            ),
            detector=DetectorSpec(
                mode="probe",
                outlier_error_rate=0.25,
                request_timeout_ms=4.0,
                max_failovers=2,
            ),
        ),
    )
}

SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(SCENARIOS))


def _params(record: Dict[str, Any]) -> str:
    """``k=v, ...`` over a spec record's parameters, sorted by key."""
    return ", ".join(
        f"{k}={v}" for k, v in sorted(record.items()) if k != "kind"
    )


def describe_scenario(spec: ScenarioSpec) -> str:
    """Multi-line human summary of one scenario (CLI ``describe``)."""
    lines = [f"{spec.name}: {spec.description}"]
    if spec.faults:
        lines.append("  faults:")
        for fault in spec.faults:
            lines.append(f"    - {fault.kind}: {_params(to_record(fault))}")
        lines.append(f"  queued requests on failure: {spec.failure_policy}")
    if spec.surge is not None:
        detail = _params(to_record(spec.surge))
        lines.append(f"  surge: {spec.surge.kind}: {detail}")
    if spec.overload is not None:
        lines.append("  overload:")
        record = to_record(spec.overload)
        lines.append(f"    - discipline: {record.pop('queue_policy')}")
        for key, value in sorted(record.items()):
            detail = _params(value) if isinstance(value, dict) else value
            lines.append(f"    - {key}: {detail}")
    if spec.detector is not None:
        record = to_record(spec.detector)
        lines.append(f"  detector: {record.pop('mode')}")
        for key, value in sorted(record.items()):
            if value is not None:
                lines.append(f"    - {key}: {value}")
    if spec.is_noop:
        lines.append("  (no-op: bit-exact to running without a scenario)")
    return "\n".join(lines)
