"""Failure injection, surge traffic, and resilience metrics.

``repro.fleet`` answers "how many boards serve this load?"; this package
answers the operator's next question — "and what happens when a rack
dies during the daily peak?".  It contributes three pieces that plug
into the existing simulators without forking them:

- :mod:`~repro.scenario.faults` — seeded replica fail/recover schedules
  (random MTTF/MTTR, scheduled outages, correlated rack failures,
  rolling reboots) driven as events inside the cluster's event loop;
- :mod:`~repro.scenario.surges` — non-stationary arrival processes
  (diurnal, flash crowd, ramp, on/off churn) via thinned Poisson
  sampling;
- :mod:`~repro.scenario.resilience` — windowed metrics that score
  service quality *during* incidents separately from calm periods.

:mod:`~repro.scenario.library` names the standard drills
(``rack-loss``, ``flash-crowd``, …) so the CLI, the capacity planner's
``redundancy=N`` probes, and tests all speak the same vocabulary.
"""

from .faults import (
    FAILURE_POLICIES,
    GRAY_MODES,
    Degradation,
    DegradedReplica,
    FaultSpec,
    FlakyReplica,
    Incident,
    LinkDelay,
    Outage,
    RackFailure,
    RandomFaults,
    RedundancyOutage,
    RollingReboot,
    ScheduledOutage,
)
from .library import (
    SCENARIO_NAMES,
    SCENARIOS,
    ChurnShape,
    DiurnalShape,
    FlashCrowdShape,
    ScenarioSpec,
    SurgeShape,
    describe_scenario,
    get_scenario,
)
from .resilience import ResilienceReport, WindowMetrics, compute_resilience
from .surges import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    OnOffArrivals,
    RampArrivals,
    TimeVaryingArrivals,
)

__all__ = [
    "FAILURE_POLICIES",
    "GRAY_MODES",
    "FaultSpec",
    "Incident",
    "Outage",
    "Degradation",
    "RandomFaults",
    "ScheduledOutage",
    "RackFailure",
    "RollingReboot",
    "RedundancyOutage",
    "DegradedReplica",
    "FlakyReplica",
    "LinkDelay",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "ScenarioSpec",
    "SurgeShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "ChurnShape",
    "get_scenario",
    "describe_scenario",
    "ResilienceReport",
    "WindowMetrics",
    "compute_resilience",
    "TimeVaryingArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "RampArrivals",
    "OnOffArrivals",
]
