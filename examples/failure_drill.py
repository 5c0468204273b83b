#!/usr/bin/env python
"""Failure drills: what a provisioned fleet does when things go wrong.

``fleet_capacity.py`` sizes a fleet for the happy path; this example
asks the operator's follow-up questions.  A capacity number is only
trustworthy if it survives the bad day it will eventually meet:

1. run the planned 4-board AlexNet fleet through every named drill in
   the scenario library (rack loss, flash crowd, rolling reboot, ...)
   and compare tail latency *during* incidents against calm periods;
2. show why the drop budget must fund the drill — in-flight work on a
   dead board is gone no matter how clever the balancer is;
3. capacity-plan the same SLO at N+0 and N+1 redundancy and price the
   insurance (extra boards bought vs requests saved);
4. autoscale through a flash crowd with incident-aware windows, where
   the controller reacts to the spike's own p99 rather than the
   window-wide average that hides it.

Run:  python examples/failure_drill.py
"""

from repro import FLOAT32, budget_for, get_network, optimize_multi_clp
from repro.analysis.report import render_table
from repro.fleet import (
    AutoscalerPolicy,
    DeviceSpec,
    autoscale,
    plan_capacity,
    simulate_fleet,
)
from repro.scenario import SCENARIO_NAMES, get_scenario
from repro.serve import PoissonArrivals, SLOSpec, TenantSpec

FREQ_MHZ = 100.0
CYCLES_PER_SECOND = FREQ_MHZ * 1e6


def main() -> None:
    network = get_network("alexnet")
    design = optimize_multi_clp(network, budget_for("485t"), FLOAT32)
    device = DeviceSpec(design, part="485t")
    capacity = CYCLES_PER_SECOND / device.resolve_epoch()
    print(
        f"485t: {design.num_clps} CLPs, "
        f"{design.throughput(FREQ_MHZ):.1f} img/s/board"
    )
    print()

    # 1. Every drill, same fleet, same seed: incident vs calm tails.
    tenants = [TenantSpec("AlexNet", PoissonArrivals(
        2.0 * capacity / CYCLES_PER_SECOND))]
    rows = []
    for name in SCENARIO_NAMES:
        result = simulate_fleet(
            device.replicated(4),
            tenants,
            duration_cycles=1.2 * CYCLES_PER_SECOND,
            balancer="least-outstanding",
            seed=2017,
            queue_depth=64,
            drain=True,
            scenario=name,
        )
        resilience = result.resilience
        during = resilience.during.p99_cycles
        outside = resilience.outside.p99_cycles
        rows.append(
            (
                name,
                len(result.incidents),
                f"{resilience.availability:.1%}",
                result.total("lost"),
                f"{result.cycles_to_ms(during):.0f}" if during else "-",
                f"{result.cycles_to_ms(outside):.0f}" if outside else "-",
            )
        )
    print(render_table(
        ["scenario", "incidents", "avail", "lost",
         "p99 ms (incident)", "p99 ms (calm)"],
        rows,
        title="4x VX485T at 2x capacity, every drill (seed 2017)",
    ))
    print("in-flight work on a failed board is lost, not dropped -- no")
    print("balancer can route around a request already inside the pipeline")
    print()

    # 2+3. The price of surviving rack-loss: plan N+0 vs N+1.
    # The drill's intrinsic losses mean a 0% drop budget is unattainable;
    # fund it (15%) and let the latency clause bind instead.
    slo = SLOSpec(p99_ms=400.0, max_drop_rate=0.15)
    rate = 1.5 * capacity
    rows = []
    for redundancy in (0, 1):
        # The probe window must dwarf the ~170 ms pipeline, or the rack
        # failure catches every request still in flight.
        plan = plan_capacity(
            device, rate, slo,
            max_replicas=16, seed=7, duration_ms=1500.0,
            scenario="rack-loss", redundancy=redundancy,
        )
        lost = plan.result.total("lost") if plan.result else "-"
        rows.append(
            (
                f"N+{redundancy}",
                plan.scenario,
                plan.replicas if plan.meets else "-",
                lost,
            )
        )
    print(render_table(
        ["plan", "drill", "boards", "requests lost"],
        rows,
        title=f"surviving rack-loss at {rate:.0f} r/s "
        f"(p99<=400ms, shed<=15%)",
    ))
    print()

    # 4. Incident-aware autoscaling through a flash crowd.  Each window
    # replays the drill, so the controller sees the spike's own p99.
    schedule = [1.0 * capacity] * 6
    policy = AutoscalerPolicy(
        min_replicas=2,
        max_replicas=8,
        p99_high_ms=300.0,
        queue_high=8.0,
    )
    trace = autoscale(
        device, schedule, policy,
        window_ms=400.0, initial_replicas=2, seed=7,
        scenario="flash-crowd",
    )
    print(trace.format())


if __name__ == "__main__":
    main()
