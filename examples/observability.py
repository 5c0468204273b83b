#!/usr/bin/env python
"""Observability: watch a run instead of reading its postmortem.

Every other example prints end-of-run aggregates.  This one turns on
the observability layer and looks *inside* a run:

1. replay a failure drill with windowed telemetry and show queue depth,
   healthy replicas, and per-window loss around the incidents — the
   aggregate drop rate says what happened, the time series says when;
2. record the same run's request-lifecycle trace and export it as
   Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
   Perfetto to scrub through queue waits, dispatches, and the
   incident windows);
3. prove the instrumentation is free when it matters: the instrumented
   run's scalars are bit-identical to the bare run's;
4. render the whole thing as a one-page Markdown report — the same
   artifact ``repro report`` builds from any saved run.

Run:  python examples/observability.py
"""

from repro import FLOAT32, budget_for, get_network, optimize_multi_clp
from repro.analysis.report import render_run_report, sparkline
from repro.core.serialize import to_record
from repro.fleet import DeviceSpec, simulate_fleet
from repro.obs import ObsSpec, TraceRecorder
from repro.serve import PoissonArrivals, TenantSpec

FREQ_MHZ = 100.0
CYCLES_PER_SECOND = FREQ_MHZ * 1e6


def main() -> None:
    network = get_network("alexnet")
    design = optimize_multi_clp(network, budget_for("485t"), FLOAT32)
    device = DeviceSpec(design, part="485t")
    epoch = device.resolve_epoch()
    tenants = [TenantSpec("AlexNet", PoissonArrivals(2.5 / epoch))]
    kwargs = dict(
        duration_cycles=80.0 * epoch,
        seed=7,
        scenario="rolling-reboot",
    )
    fleet = device.replicated(3)

    # 1+2. One instrumented run: telemetry windows plus a full trace.
    trace = TraceRecorder()
    observed = simulate_fleet(
        fleet,
        tenants,
        obs=ObsSpec(timeseries=True, windows=20, trace=trace),
        **kwargs,
    )
    timeseries = observed.timeseries
    print(
        f"rolling reboot over 3 boards: {len(observed.incidents)} "
        f"incidents, {observed.total('lost')} requests lost"
    )
    print(f"{len(timeseries.times)} telemetry windows:")
    for name in ("queue_depth/AlexNet", "healthy_replicas", "lost/AlexNet"):
        print(f"  {name:<22} {sparkline(timeseries.get(name))}")
    print()

    trace.write_chrome("observability_trace.json", frequency_mhz=FREQ_MHZ)
    spans = sum(1 for e in trace.events if e["ph"] == "b")
    print(
        f"trace: {len(trace.events)} events ({spans} request spans) "
        "-> observability_trace.json (load in chrome://tracing)"
    )
    print()

    # 3. The bit-neutrality contract: instrumentation observed the run
    # without changing a single scalar of it.
    bare = simulate_fleet(fleet, tenants, **kwargs)
    bare_record = to_record(bare)
    observed_record = to_record(observed)
    observed_record.pop("timeseries")
    assert observed_record == bare_record
    print("bit-neutrality: instrumented scalars == bare scalars")
    print()

    # 4. The one-page report (same renderer as `repro report`).
    report = render_run_report(
        [observed], ["rolling-reboot drill"], title="Observability demo"
    )
    with open("observability_report.md", "w") as handle:
        handle.write(report)
    print("report -> observability_report.md")
    print()
    print(report)


if __name__ == "__main__":
    main()
