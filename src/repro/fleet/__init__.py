"""Multi-FPGA cluster simulation: load balancing, planning, autoscaling.

The paper maximizes one FPGA; this package provisions a *service*.  A
fleet is N replicas (:class:`DeviceSpec` — design + part + per-replica
epoch calibration) multiplexed over shared seeded arrival streams by a
pluggable routing policy (:mod:`repro.fleet.balancer`), all inside one
discrete-event engine (:class:`ClusterSimulator`).  On top sit the
operator questions: :func:`plan_capacity` binary-searches the minimum
board count meeting an SLO at a target rate, and :func:`autoscale`
steps a reactive p99/queue-depth controller between traffic windows.

:func:`repro.serve.simulate_traffic` is a single-replica fleet run:
there is one device model and one event loop, so fleet answers inherit
the paper model's calibration by construction.  See ``repro fleet
--help`` for the CLI entry points.
"""

from .balancer import (
    BALANCER_NAMES,
    Balancer,
    ReplicaView,
    LeastOutstandingBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    TenantAffinityBalancer,
    make_balancer,
)
from .cluster import ClusterSimulator, Replica, simulate_fleet
from .detector import (
    DETECTOR_MODES,
    DetectorSpec,
    FailureDetector,
    detector_spec_from_dict,
    detector_spec_to_dict,
)
from .device import CALIBRATION_MODES, DeviceSpec
from .metrics import FleetResult, ReplicaStats
from .planner import (
    AutoscalerPolicy,
    AutoscaleTrace,
    AutoscaleWindow,
    CapacityPlan,
    PlanProbe,
    autoscale,
    plan_capacity,
)

__all__ = [
    "DeviceSpec",
    "CALIBRATION_MODES",
    "Balancer",
    "ReplicaView",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "PowerOfTwoBalancer",
    "RandomBalancer",
    "TenantAffinityBalancer",
    "BALANCER_NAMES",
    "make_balancer",
    "Replica",
    "ClusterSimulator",
    "simulate_fleet",
    "DETECTOR_MODES",
    "DetectorSpec",
    "FailureDetector",
    "detector_spec_to_dict",
    "detector_spec_from_dict",
    "ReplicaStats",
    "FleetResult",
    "PlanProbe",
    "CapacityPlan",
    "plan_capacity",
    "AutoscalerPolicy",
    "AutoscaleWindow",
    "AutoscaleTrace",
    "autoscale",
]
