"""The benchmark's workloads: seeded set-up, the timed job, checked outputs.

Each workload is a pair of functions.  ``setup(seed)`` builds every input
(imports, the cold optimizer call that produces the served design, the
tenant and overlay specs) and returns a state object; ``job(state,
clock)`` is the timed unit of work and returns a :class:`JobResult`
whose ``outputs`` are compared against the recorded reference.  A job
times the part of its work that ``work_s`` covers with ``clock.split()``
(``hostspeed.HostClock``).  Why each
workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analysis import report
from repro.analysis.paper_data import TABLE1_UTILIZATION
from repro.core import serialize
from repro.core.datatypes import DataType
from repro.dse import SweepSpec, runner
from repro.fleet import DetectorSpec, DeviceSpec, simulate_fleet
from repro.fpga.parts import budget_for
from repro.networks import get_network
from repro.obs import ObsSpec
from repro.opt import driver
from repro.opt import memory as opt_memory
from repro.opt.joint import optimize_joint
from repro.scenario import get_scenario
from repro.serve import (
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadSpec,
    PoissonArrivals,
    RetryPolicy,
    TenantSpec,
    pipeline_latency_cycles,
    simulate_traffic,
)

FREQUENCY_MHZ = 100.0
CYCLES_PER_MS = FREQUENCY_MHZ * 1e3
#: Traffic inputs are drawn from one of this many recorded seeds
#: (``--seed`` modulo it), so every run is checked against a reference.
REFERENCE_SEEDS = 32
#: The conservation identity: the first key equals the sum of the rest.
LEDGER = ("arrivals", "completions", "drops", "lost", "rejected",
          "expired", "timed_out", "in_flight")
TABLE1_GRID = dict(
    networks=("alexnet", "vggnet-e", "squeezenet", "googlenet"),
    parts=("485t", "690t"),
    dtypes=("float32", "fixed16"),
    modes=("single", "multi"),
)
QUEUE_DEPTH = 64
#: Overlays added one at a time by the traced run's overlay ladder.
OVERLAYS = ("scenario", "probe", "overload", "obs")


@dataclass
class JobResult:
    """What one run of a job produced."""

    #: Call or design-point name -> digest compared with the reference.
    outputs: Dict[str, Any]
    #: Simulated arrivals, or design points for the sweep.
    items: int
    #: Seconds inside the simulator calls (or the sweep), by the clock.
    work_s: float
    #: The raw simulator results, for per-layer ratios.
    results: List[Any]


# ------------------------------------------------------------ digests
def traffic_digest(result) -> Dict[str, Dict[str, Any]]:
    """Per-tenant request ledger plus p50/p99 latency cycles."""
    digest = {}
    for tenant in result.tenants:
        row = {name: getattr(tenant, name) for name in LEDGER}
        latency = tenant.latency
        row["p50"] = None if latency is None else latency.p50
        row["p99"] = None if latency is None else latency.p99
        digest[tenant.name] = row
    return digest


def _table1_quality(solved) -> Dict[str, float]:
    """Design quality over the Table 1 cells in ``solved``.

    ``solved`` maps (part, dtype, network, mode) to (utilization, epoch
    cycles).  Returns the mean absolute utilization error against the
    paper and the geomean single/multi epoch ratio.
    """
    errors = []
    ratios = []
    for (part, dtype, network, mode), (util, epoch) in solved.items():
        single, multi = TABLE1_UTILIZATION[(part, dtype, network)]
        errors.append(abs(util - (single if mode == "single" else multi)))
        if mode == "multi":
            ratios.append(solved[(part, dtype, network, "single")][1] / epoch)
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return {
        "table1_util_err": sum(errors) / len(errors),
        "multi_clp_speedup": product ** (1.0 / len(ratios)),
    }


def _alexnet_485t_cell(network) -> Dict[tuple, tuple]:
    """Solve the Table 1 cell the traffic workloads' boards come from."""
    budget = budget_for("485t")
    dtype = DataType.from_name("float32")
    solved = {}
    designs = {}
    for mode, solve in (("single", driver.optimize_single_clp),
                        ("multi", driver.optimize_multi_clp)):
        design = solve(network, budget, dtype)
        util = design.metrics(budget).arithmetic_utilization
        solved[("485t", "float32", "alexnet", mode)] = (
            util, design.epoch_cycles)
        designs[mode] = design
    return designs["multi"], solved


def clear_optimizer_caches() -> None:
    """Empty the optimizer's memo tables, as a fresh CLI process has them."""
    opt_memory._STRUCTURE_CACHE.clear()
    opt_memory.tile_candidates.cache_clear()


# ------------------------------------------------------ design-sweep
@dataclass
class SweepState:
    points: list
    quality: Optional[Dict[str, float]] = None


def setup_design_sweep(seed: int) -> SweepState:
    # The grid has no random inputs, so the seed changes nothing.  The
    # point order stays fixed too: peak memory depends on it.
    return SweepState(points=SweepSpec(**TABLE1_GRID).expand())


def job_design_sweep(state: SweepState, clock) -> JobResult:
    clear_optimizer_caches()
    outcome = runner.run_sweep(state.points, workers=1)
    work_s = clock.split()
    outputs = {}
    solved = {}
    for result in outcome.results:
        point = result.point
        name = f"{point.network}/{point.part}/{point.dtype}/{point.mode}"
        outputs[name] = {
            "epoch_cycles": result.metrics["epoch_cycles"],
            "num_clps": result.metrics["num_clps"],
        }
        solved[(point.part, point.dtype, point.network, point.mode)] = (
            result.metrics["arithmetic_utilization"],
            result.metrics["epoch_cycles"],
        )
    state.quality = _table1_quality(solved)
    return JobResult(outputs, len(outcome.results), work_s,
                     list(outcome.results))


# ------------------------------------------------------- traffic runs
@dataclass
class FleetState:
    """One fleet configuration plus the overlays its workload switches on."""

    seed: int
    devices: DeviceSpec
    tenants: List[TenantSpec]
    horizon: float
    balancer: str
    quality: Dict[str, float]
    overlays: Dict[str, Any]
    enabled: tuple
    render: bool
    #: Extra calls made after the fleet run (name -> callable).
    extra: Dict[str, Callable[[], Any]] = dataclasses.field(
        default_factory=dict)


def run_fleet(state: FleetState, enabled=None, engine="auto"):
    """One simulate_fleet call with the named overlays switched on."""
    enabled = state.enabled if enabled is None else enabled
    overlays = state.overlays
    return simulate_fleet(
        state.devices,
        state.tenants,
        state.horizon,
        balancer=state.balancer,
        seed=state.seed,
        queue_depth=QUEUE_DEPTH,
        engine=engine,
        scenario=overlays["scenario"] if "scenario" in enabled else None,
        detector=overlays["probe"] if "probe" in enabled else None,
        overload=overlays["overload"] if "overload" in enabled else None,
        obs=overlays["obs"] if "obs" in enabled else None,
    )


def _overlays(epoch: float, floor: float, scenario: str) -> Dict[str, Any]:
    """Overlay specs whose durations scale with the board's epoch."""
    epoch_ms = epoch / CYCLES_PER_MS
    floor_ms = floor / CYCLES_PER_MS
    return {
        # Faults only: the run-level detector below replaces the
        # library spec's own, whose 2 ms timeout is shorter than an epoch.
        "scenario": dataclasses.replace(get_scenario(scenario),
                                        detector=None),
        "probe": DetectorSpec(mode="probe",
                              request_timeout_ms=floor_ms + 64 * epoch_ms,
                              max_failovers=2),
        "overload": OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(deadline_admission=True),
            retry=RetryPolicy(max_attempts=2, backoff="exponential",
                              base_ms=epoch_ms, cap_ms=16 * epoch_ms,
                              jitter="decorrelated"),
            brownout=BrownoutPolicy(p99_ms=floor_ms + 32 * epoch_ms,
                                    window_ms=40 * epoch_ms),
            deadline_ms=floor_ms + 48 * epoch_ms,
        ),
        "obs": ObsSpec(timeseries=True),
    }


def _alexnet_fleet(seed: int, replicas: int, load: float, epochs: int,
                   balancer: str, enabled: tuple, render: bool) -> FleetState:
    design, solved = _alexnet_485t_cell(get_network("alexnet"))
    device = DeviceSpec(design, part="485t")
    epoch = device.resolve_epoch()
    return FleetState(
        seed=seed % REFERENCE_SEEDS,
        devices=device.replicated(replicas),
        tenants=[TenantSpec("AlexNet",
                            PoissonArrivals(load * replicas / epoch))],
        horizon=epochs * epoch,
        balancer=balancer,
        quality=_table1_quality(solved),
        overlays=_overlays(epoch, pipeline_latency_cycles(design), "chaos"),
        enabled=enabled,
        render=render,
    )


def setup_drill_fleet(seed: int) -> FleetState:
    alexnet = get_network("alexnet")
    # Solved only for the design-quality metrics every workload reports.
    _, solved = _alexnet_485t_cell(alexnet)
    joint = optimize_joint([alexnet, get_network("squeezenet")],
                           budget_for("485t"), DataType.from_name("float32"))
    device = DeviceSpec(joint, part="485t")
    epoch = device.resolve_epoch()
    replicas = 8
    rate = 0.8 * replicas / epoch
    return FleetState(
        seed=seed % REFERENCE_SEEDS,
        devices=device.replicated(replicas),
        tenants=[TenantSpec("AlexNet", PoissonArrivals(rate), priority=1),
                 TenantSpec("SqueezeNet", PoissonArrivals(rate), priority=0)],
        horizon=8000 * epoch,
        balancer="round-robin",
        quality=_table1_quality(solved),
        overlays=_overlays(epoch, pipeline_latency_cycles(joint),
                           "gray-failure"),
        enabled=OVERLAYS,
        render=True,
    )


def setup_wide_fleet(seed: int) -> FleetState:
    return _alexnet_fleet(seed, replicas=256, load=0.8, epochs=480,
                          balancer="power-of-two",
                          enabled=("scenario", "probe"), render=True)


def setup_steady_fleet(seed: int) -> FleetState:
    state = _alexnet_fleet(seed, replicas=64, load=0.8, epochs=38000,
                           balancer="round-robin", enabled=(), render=False)
    device = state.devices.replicated(1)
    epoch = device.resolve_epoch()
    tenants = [TenantSpec("AlexNet", PoissonArrivals(1.2 / epoch))]
    # A saturated single board: its queue fills, so the fast path takes
    # the serial fallback.
    state.extra["serve"] = lambda: simulate_traffic(
        device.design, tenants, 420000 * epoch, seed=state.seed,
        queue_depth=QUEUE_DEPTH, engine="auto")
    return state


def job_fleet(state: FleetState, clock) -> JobResult:
    outputs = {}
    results = []
    work_s = 0.0
    calls = [("fleet", lambda: run_fleet(state))] + list(state.extra.items())
    for name, call in calls:
        result = call()
        work_s += clock.split()
        outputs[name] = traffic_digest(result)
        results.append(result)
    if state.render:
        fleet = results[0]
        text = json.dumps(serialize.fleet_result_to_dict(fleet))
        loaded = serialize.fleet_result_from_dict(json.loads(text))
        report.render_run_report([loaded])
        # The JSON round trip must not change the record.
        outputs["round_trip"] = (
            json.dumps(serialize.fleet_result_to_dict(loaded)) == text)
    items = sum(result.total_arrivals for result in results)
    return JobResult(outputs, items, work_s, results)


WORKLOADS: Dict[str, tuple] = {
    "design-sweep": (setup_design_sweep, job_design_sweep),
    "drill-fleet": (setup_drill_fleet, job_fleet),
    "wide-fleet": (setup_wide_fleet, job_fleet),
    "steady-fleet": (setup_steady_fleet, job_fleet),
}
