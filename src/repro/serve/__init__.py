"""Event-driven multi-tenant traffic serving over Multi-CLP designs.

Turns a static :class:`~repro.core.design.MultiCLPDesign` or
:class:`~repro.opt.joint.JointDesign` into a system you can load-test:
seeded arrival processes feed bounded per-tenant queues, an
epoch-pipelined dispatcher models the accelerator's schedule
(Section 4.1/4.3), and the run reduces to per-tenant latency
percentiles, throughput, drops, and CLP utilization.  See
``repro serve --help`` for the CLI entry point.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    ConstantRate,
    PoissonArrivals,
    TraceArrivals,
    make_arrival_process,
)
from .metrics import LatencySummary, ServeResult, TenantStats, percentile
from .overload import (
    BACKOFF_MODES,
    JITTER_MODES,
    QUEUE_POLICIES,
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadReport,
    OverloadSpec,
    PriorityClassStats,
    RetryPolicy,
)
from .simulator import (
    DROP_POLICIES,
    TenantSpec,
    floor_window_cycles,
    pipeline_latency_cycles,
    service_capacity_rps,
    simulate_traffic,
)
from .slo import SLOReport, SLOSpec, TenantVerdict, evaluate_slo

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "make_arrival_process",
    "percentile",
    "LatencySummary",
    "TenantStats",
    "ServeResult",
    "TenantSpec",
    "DROP_POLICIES",
    "QUEUE_POLICIES",
    "BACKOFF_MODES",
    "JITTER_MODES",
    "AdmissionPolicy",
    "RetryPolicy",
    "BrownoutPolicy",
    "OverloadSpec",
    "OverloadReport",
    "PriorityClassStats",
    "simulate_traffic",
    "service_capacity_rps",
    "pipeline_latency_cycles",
    "floor_window_cycles",
    "SLOSpec",
    "SLOReport",
    "TenantVerdict",
    "evaluate_slo",
]
