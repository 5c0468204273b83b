#!/usr/bin/env python
"""Overload control: breaking a retry storm, step by step.

``failure_drill.py`` shows what a fleet does when boards die; this
example shows what its *clients* do afterwards, and why that matters
more.  A transient capacity loss fills the queues, naive clients time
out and retry, and the retries keep the queues pinned long after the
fault clears — the classic metastable failure.  The walk:

1. run the retry-storm drill (75% rack loss, naive unbounded retries)
   and watch goodput stay collapsed after capacity returns;
2. fix it one control at a time — deadline shedding (EDF), token-bucket
   admission, bounded jittered backoff — and compare post-fault
   goodput retention across the ladder;
3. brownout: a two-priority tenant mix where the controller sheds the
   batch class to keep the interactive class inside its deadline;
4. judge the controlled run against an SLO with the new deadline and
   min-goodput clauses.

Run:  python examples/overload_control.py
"""

from repro import FLOAT32, budget_for, get_network, optimize_multi_clp
from repro.analysis.report import render_table
from repro.fleet import DeviceSpec, simulate_fleet
from repro.scenario import RackFailure, ScenarioSpec
from repro.serve import (
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadSpec,
    PoissonArrivals,
    RetryPolicy,
    SLOSpec,
    TenantSpec,
    evaluate_slo,
    pipeline_latency_cycles,
    simulate_traffic,
)

FREQ_MHZ = 100.0
CYCLES_PER_SECOND = FREQ_MHZ * 1e6
REPLICAS = 2
EPOCHS = 600
FAULT_START, FAULT_END = 0.25, 0.40


def retention(result, horizon):
    """Post-fault goodput rate as a fraction of the pre-fault rate."""
    report = result.overload
    pre = report.goodput_between(0, FAULT_START * horizon)
    pre_rate = pre / (FAULT_START * horizon)
    start = (FAULT_END + 0.1) * horizon
    post = report.goodput_between(start, horizon) / (horizon - start)
    return post / pre_rate if pre_rate > 0 else 0.0


def main() -> None:
    network = get_network("alexnet")
    design = optimize_multi_clp(network, budget_for("485t"), FLOAT32)
    device = DeviceSpec(design, part="485t")
    epoch = device.resolve_epoch()
    epoch_ms = epoch / CYCLES_PER_SECOND * 1e3
    horizon = EPOCHS * epoch
    deadline_ms = (
        pipeline_latency_cycles(design) / CYCLES_PER_SECOND * 1e3
        + 6 * epoch_ms
    )
    storm = ScenarioSpec(
        name="storm",
        faults=(RackFailure(fraction=0.75, start=FAULT_START,
                            duration=FAULT_END - FAULT_START),),
    )
    tenants = [TenantSpec("AlexNet",
                          PoissonArrivals(0.9 * REPLICAS / epoch))]

    # 1 & 2. The storm, then the control ladder rung by rung.  Every
    # rung keeps the naive retry client so the comparison is honest:
    # the question is what each control adds, not whether retries hurt.
    naive_retry = RetryPolicy(max_attempts=0, backoff="fixed",
                              base_ms=0.5 * epoch_ms,
                              cap_ms=0.5 * epoch_ms, jitter="none")
    capped_retry = RetryPolicy(max_attempts=3, backoff="exponential",
                               base_ms=epoch_ms, cap_ms=16 * epoch_ms,
                               jitter="decorrelated")
    bucket = AdmissionPolicy(
        rate_rps=0.95 * REPLICAS * CYCLES_PER_SECOND / epoch, burst=8.0)
    ladder = [
        ("naive (fifo, unbounded retries)",
         OverloadSpec(queue_policy="fifo", retry=naive_retry,
                      deadline_ms=deadline_ms)),
        ("+ EDF deadline shedding",
         OverloadSpec(queue_policy="edf", retry=naive_retry,
                      deadline_ms=deadline_ms)),
        ("+ token-bucket admission",
         OverloadSpec(queue_policy="edf", retry=naive_retry,
                      admission=bucket, deadline_ms=deadline_ms)),
        ("+ capped jittered backoff",
         OverloadSpec(queue_policy="edf", retry=capped_retry,
                      admission=bucket, deadline_ms=deadline_ms)),
    ]
    rows = []
    controlled = None
    for label, spec in ladder:
        result = simulate_fleet(
            device.replicated(REPLICAS), tenants,
            duration_cycles=horizon, seed=0, queue_depth=32,
            scenario=storm, overload=spec,
        )
        controlled = result
        tenant = result.tenants[0]
        rows.append([
            label,
            f"{retention(result, horizon):.2f}",
            f"{tenant.rejected}",
            f"{tenant.expired}",
            f"{tenant.late}",
            f"{tenant.retries}",
        ])
    print("Goodput retention after the fault clears "
          f"(75% rack loss, {REPLICAS}x AlexNet 485T):")
    print(render_table(
        ["configuration", "retention", "rejected", "expired", "late",
         "retries"], rows))
    print()

    # 3. Brownout across priorities: interactive (priority 1) rides
    # through a sustained overload because the controller sheds batch
    # (priority 0) first -- and only batch.
    interactive = get_network("squeezenet")
    batch = get_network("googlenet")
    from repro.opt.joint import optimize_joint

    joint = optimize_joint([interactive, batch],
                           budget_for("485t"), FLOAT32)
    joint_epoch = joint.epoch_cycles
    joint_epoch_ms = joint_epoch / CYCLES_PER_SECOND * 1e3
    # Deadlines and the brownout trigger sit on top of the design's
    # zero-queueing pipeline latency (57 epochs deep here) -- a
    # deadline below it would expire every request on arrival.
    joint_floor_ms = (
        pipeline_latency_cycles(joint) / CYCLES_PER_SECOND * 1e3
    )
    mix = [
        TenantSpec("GoogLeNet",
                   PoissonArrivals(1.1 / joint_epoch), priority=0),
        TenantSpec("SqueezeNet",
                   PoissonArrivals(0.7 / joint_epoch), priority=1),
    ]
    brownout = OverloadSpec(
        queue_policy="edf",
        brownout=BrownoutPolicy(p99_ms=joint_floor_ms + 4 * joint_epoch_ms,
                                window_ms=20 * joint_epoch_ms),
        deadline_ms=joint_floor_ms + 8 * joint_epoch_ms,
    )
    run = simulate_traffic(
        joint, mix, duration_cycles=600 * joint_epoch, seed=2,
        queue_depth=64, overload=brownout,
    )
    report = run.overload
    print(f"Brownout: {report.brownout_steps} controller steps")
    for stats in report.classes:
        share = stats.good / stats.arrivals if stats.arrivals else 0.0
        print(f"  priority {stats.priority} ({', '.join(stats.tenants)}): "
              f"good {share:.0%} of arrivals, "
              f"rejected {stats.rejected}, expired {stats.expired}")
    print()

    # 4. The controlled storm run against an SLO that knows about
    # deadlines and goodput.  The drop budget must fund the storm:
    # admission rejections during the fault are charged against it,
    # which is exactly the trade the control made.
    slo = SLOSpec(p99_ms=deadline_ms, max_drop_rate=0.5,
                  deadline_ms=deadline_ms, min_goodput_rps=30.0)
    verdict = evaluate_slo(controlled, slo)
    print(f"Controlled run vs SLO: {'MEETS' if verdict.meets else 'MISSES'}")
    for tenant in verdict.tenants:
        print(f"  {tenant.name}: goodput {tenant.goodput_rps:.1f} r/s, "
              f"charged drop rate {tenant.charged_rate:.1%}"
              + (f", violations: {'; '.join(tenant.violations)}"
                 if tenant.violations else ""))


if __name__ == "__main__":
    main()
