"""Engine gates: full-scale correctness and speed floors of the simulators.

Each test replays one saturated or drilled workload on the AlexNet 485T
float32 Multi-CLP design: requests are conserved, the fast path equals
the event engine bit for bit and is ≥10× faster, observability is
scalar-neutral and cheap, drills bite, overload control and gray-failure
detection recover goodput, and every engine clears a simulated req/s
floor.  Timings are host wall-clock with generous floors; throughput
over time is ``perfbench/``'s job.  Marked ``slow`` (skipped by the
fast lane).
"""

import dataclasses
import statistics
import time

import pytest

from repro.core.serialize import to_record
from repro.fleet import DetectorSpec, DeviceSpec, plan_capacity, simulate_fleet
from repro.obs import ObsSpec, TraceRecorder
from repro.scenario import DegradedReplica, RackFailure, ScenarioSpec
from repro.serve import (
    AdmissionPolicy,
    ConstantRate,
    OverloadSpec,
    PoissonArrivals,
    RetryPolicy,
    SLOSpec,
    TenantSpec,
    pipeline_latency_cycles,
    simulate_traffic,
)

pytestmark = pytest.mark.slow

FREQUENCY_HZ = 100e6
#: Saturated serve, fleet, scenario and obs runs.
EPOCHS = 2_000
REPLICAS = 4
#: The fast path must beat the event engine by this factor.
SPEEDUP_FLOOR = 10.0
#: Telemetry plus tracing may not quadruple event-loop time.
OBS_OVERHEAD_CEILING = 4.0
#: Alternating timing pairs behind each wall-clock gate's median ratio.
TIMING_PAIRS = 9
#: A failure drill may not double the plain run's time.
SCENARIO_OVERHEAD_CEILING = 2.0
RETENTION_FLOOR = 0.9


@pytest.fixture(scope="module")
def device(alexnet_485t_design):
    return DeviceSpec(alexnet_485t_design, part="485t")


def _timed(fn, runs=1):
    """Best wall-clock seconds over ``runs`` calls, and the last result."""
    best, result = float("inf"), None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _paired_ratio(first, second):
    """Median of ``first() / second()`` over :data:`TIMING_PAIRS`
    pairs, each side a ``() -> seconds`` timing, and the pair ratios
    as text for a failure message.  Pairs alternate which side runs
    first: a slow spell on a shared host then slows both sides of one
    pair instead of one side of the comparison."""
    ratios = []
    for pair in range(TIMING_PAIRS):
        if pair % 2:
            second_s = second()
            first_s = first()
        else:
            first_s = first()
            second_s = second()
        ratios.append(first_s / second_s)
    listed = ", ".join(f"{ratio:.2f}" for ratio in ratios)
    return statistics.median(ratios), f"pair ratios {listed}"


def _saturated_serve(device, **kwargs):
    epoch = device.design.epoch_cycles
    # 2x capacity keeps the queue full: one admission every epoch.
    return simulate_traffic(
        device.design,
        [TenantSpec("AlexNet", ConstantRate(2.0 / epoch))],
        duration_cycles=EPOCHS * epoch,
        queue_depth=10 * EPOCHS,
        drain=True,
        **kwargs,
    )


def _saturated_fleet(device, balancer="power-of-two", **kwargs):
    epoch = device.resolve_epoch()
    # 2x aggregate capacity keeps every replica's queue full.
    return simulate_fleet(
        device.replicated(REPLICAS),
        [TenantSpec("AlexNet", ConstantRate(2.0 * REPLICAS / epoch))],
        duration_cycles=EPOCHS * epoch,
        balancer=balancer,
        queue_depth=10 * EPOCHS * REPLICAS,
        drain=True,
        **kwargs,
    )


def test_serve_event_engine(device):
    # Warm-up, untimed: the first call in a process also pays one-off
    # imports, which are not engine speed.
    _saturated_serve(device, engine="event")
    elapsed, result = _timed(lambda: _saturated_serve(device, engine="event"))

    tenant = result.tenants[0]
    assert tenant.arrivals == tenant.completions + tenant.drops
    assert tenant.completions >= EPOCHS  # saturated: one image per epoch
    requests_per_s = tenant.arrivals / elapsed
    assert requests_per_s > 10_000, (
        f"serve engine too slow: {requests_per_s:,.0f} simulated req/s"
    )


def _check_fast_path(run):
    """``run(engine)``: fast must equal event exactly, and beat it."""
    assert to_record(run("fast")) == to_record(run("event")), (
        "fast engine diverged from the event engine"
    )
    speedup, ratios = _paired_ratio(
        lambda: _timed(lambda: run("event"))[0],
        # Best of three: the fast path is setup-dominated, so one cold
        # numpy call would otherwise masquerade as engine time.
        lambda: _timed(lambda: run("fast"), runs=3)[0],
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast path only {speedup:.1f}x over the event engine "
        f"(floor {SPEEDUP_FLOOR:.0f}x; {ratios})"
    )


def test_serve_fast_engine_matches_event(device):
    _saturated_serve(device, engine="event")  # untimed warm-up
    _check_fast_path(
        lambda engine: _saturated_serve(device, engine=engine),
    )


def test_fleet_event_engine(device):
    elapsed, result = _timed(lambda: _saturated_fleet(device, engine="event"))

    tenant = result.tenants[0]
    assert tenant.arrivals == tenant.completions + tenant.drops
    # Saturated: every replica admits ~one image per epoch.
    assert tenant.completions >= REPLICAS * (EPOCHS - 1)
    assert result.num_replicas == REPLICAS
    requests_per_s = tenant.arrivals / elapsed

    epoch = device.resolve_epoch()
    plan = plan_capacity(
        device,
        2.5 * FREQUENCY_HZ / epoch,
        SLOSpec(max_drop_rate=0.0),
        max_replicas=8,
        duration_ms=EPOCHS * epoch / FREQUENCY_HZ * 1e3 / 4,
        # Shallow queues: a board running at its ceiling must shed load,
        # so the drop-free SLO genuinely needs ~rate/capacity boards.
        queue_depth=4,
    )
    assert plan.meets and plan.replicas >= 3
    assert requests_per_s > 10_000, (
        f"fleet engine too slow: {requests_per_s:,.0f} simulated req/s"
    )


def test_fleet_fast_engine_matches_event(device):
    # Round-robin is the fastest eligible policy: power-of-two on more
    # than one replica is load-dependent and runs the event engine.
    _check_fast_path(
        lambda engine: _saturated_fleet(device, "round-robin", engine=engine),
    )


def test_rack_loss_drill(device):
    def drill():
        return _saturated_fleet(device, scenario="rack-loss")

    def bare():
        return _saturated_fleet(device)

    elapsed, drilled = _timed(drill)
    plain = bare()

    # Conservation through the drill (drained, so nothing in flight).
    tenant = drilled.tenants[0]
    assert tenant.arrivals == tenant.completions + tenant.drops + tenant.lost
    assert tenant.in_flight == 0

    # The drill bites: boards died, work was lost, the report says so.
    assert drilled.scenario == "rack-loss"
    assert tenant.lost > 0
    assert any(i.kind == "fault" for i in drilled.incidents)
    resilience = drilled.resilience
    assert resilience is not None and resilience.availability < 1.0

    # No-op differential: the steady drill IS the plain run.
    steady = _saturated_fleet(device, scenario="steady")
    assert dataclasses.replace(
        steady, scenario=None, incidents=(), resilience=None
    ) == plain

    requests_per_s = tenant.arrivals / elapsed
    assert requests_per_s > 10_000, (
        f"scenario engine too slow: {requests_per_s:,.0f} simulated req/s"
    )
    overhead, ratios = _paired_ratio(
        lambda: _timed(drill)[0], lambda: _timed(bare)[0]
    )
    assert overhead < SCENARIO_OVERHEAD_CEILING, (
        f"failure drill costs {overhead:.2f}x the plain run ({ratios}); "
        "fault events should be cheap against the epoch event chains"
    )


def _scalars(result):
    record = to_record(result)
    record.pop("timeseries", None)
    return record


def test_obs_overhead(device):
    def bare():
        return _saturated_serve(device, engine="event")

    def observed():
        return _saturated_serve(
            device, engine="event",
            obs=ObsSpec(timeseries=True, trace=TraceRecorder()),
        )

    # Untimed first calls double as warm-up.
    plain = bare()
    telem = _saturated_serve(device, engine="event", obs=ObsSpec(timeseries=True))
    assert _scalars(telem) == _scalars(plain), "telemetry changed the run"
    assert _scalars(observed()) == _scalars(plain), "tracing changed the run"
    assert telem.timeseries is not None and len(telem.timeseries.times) > 0

    overhead, ratios = _paired_ratio(
        lambda: _timed(observed)[0], lambda: _timed(bare)[0]
    )
    assert overhead < OBS_OVERHEAD_CEILING, (
        f"observability costs {overhead:.2f}x "
        f"(ceiling {OBS_OVERHEAD_CEILING:.0f}x; {ratios})"
    )


def _retry_amplification(result):
    tenant = result.tenants[0]
    originals = tenant.arrivals - tenant.retries - tenant.hedges
    return tenant.arrivals / originals if originals else 1.0


def test_overload_control(device):
    """A retry storm wedges naive clients; overload control recovers.

    The same drill (75% of a 2-replica fleet down for 15% of the run)
    runs with naive clients (FIFO, unlimited immediate retries, no
    admission) and controlled ones (EDF, token-bucket admission at 95%
    of capacity, 3 capped decorrelated-jitter retries).
    """
    replicas, epochs = 2, 1_000
    fault_start, fault_end = 0.25, 0.40
    epoch = device.resolve_epoch()
    epoch_ms = epoch / FREQUENCY_HZ * 1e3
    horizon = epochs * epoch
    storm = ScenarioSpec(name="storm-bench", faults=(
        RackFailure(fraction=0.75, start=fault_start,
                    duration=fault_end - fault_start),
    ))

    def run(overload):
        result = simulate_fleet(
            device.replicated(replicas),
            [TenantSpec("AlexNet", PoissonArrivals(0.9 * replicas / epoch))],
            duration_cycles=horizon,
            seed=0,
            queue_depth=32,
            scenario=storm,
            overload=overload,
        )
        report = result.overload
        pre_rate = report.goodput_between(0, fault_start * horizon) / (
            fault_start * horizon
        )
        recover_start = (fault_end + 0.1) * horizon
        post_rate = report.goodput_between(recover_start, horizon) / (
            horizon - recover_start
        )
        retention = post_rate / pre_rate if pre_rate > 0 else 0.0
        return result, retention

    # Zero-queueing pipeline latency plus a 6-epoch queueing allowance.
    deadline_ms = (
        pipeline_latency_cycles(device.design) / FREQUENCY_HZ * 1e3
        + 6 * epoch_ms
    )
    naive = OverloadSpec(
        queue_policy="fifo",
        retry=RetryPolicy(max_attempts=0, backoff="fixed",
                          base_ms=0.5 * epoch_ms, cap_ms=0.5 * epoch_ms,
                          jitter="none"),
        deadline_ms=deadline_ms,
    )
    controlled = OverloadSpec(
        queue_policy="edf",
        admission=AdmissionPolicy(
            rate_rps=0.95 * replicas * FREQUENCY_HZ / epoch, burst=8.0),
        retry=RetryPolicy(max_attempts=3, backoff="exponential",
                          base_ms=epoch_ms, cap_ms=16 * epoch_ms,
                          jitter="decorrelated"),
        deadline_ms=deadline_ms,
    )

    elapsed, (controlled_run, controlled_retention) = _timed(
        lambda: run(controlled)
    )
    naive_run, naive_retention = run(naive)

    # Conservation through storms on both configurations.
    for result in (controlled_run, naive_run):
        tenant = result.tenants[0]
        assert tenant.arrivals == (
            tenant.completions + tenant.drops + tenant.lost
            + tenant.rejected + tenant.expired + tenant.in_flight
        )

    assert naive_retention < 0.5, (
        f"naive retries retained {naive_retention:.2f} of pre-fault "
        "goodput; the storm should be metastable"
    )
    assert controlled_retention >= RETENTION_FLOOR, (
        f"overload control retained only {controlled_retention:.2f} of "
        f"pre-fault goodput (floor {RETENTION_FLOOR})"
    )
    naive_amp = _retry_amplification(naive_run)
    controlled_amp = _retry_amplification(controlled_run)
    assert controlled_amp < naive_amp, (
        f"capped backoff amplified load {controlled_amp:.2f}x vs naive "
        f"{naive_amp:.2f}x; bounded retries should retry less"
    )
    requests_per_s = controlled_run.tenants[0].arrivals / elapsed
    assert requests_per_s > 5_000, (
        f"overload engine too slow: {requests_per_s:,.0f} simulated req/s"
    )


def test_gray_failure_detection(device):
    """Probe detection routes around a straggler storm the oracle sees.

    Half of a 4-replica fleet slows 8x for 40% of the run.  Blind
    round-robin keeps feeding the stragglers; the oracle pulls them the
    cycle they slow down; probes, outlier ejection and request timeouts
    must come within 90% of the oracle's goodput, with real lag.
    """
    epochs = 800
    epoch = device.resolve_epoch()
    # Zero-queueing pipeline latency plus a 6-epoch queueing allowance:
    # generous in calm weather, unreachable through an 8x straggler, so
    # ``good_completions`` separates routing around the storm from
    # queueing into it.
    deadline_ms = (
        pipeline_latency_cycles(device.design, device.bytes_per_cycle)
        + 6.0 * epoch
    ) / FREQUENCY_HZ * 1e3
    storm = ScenarioSpec(name="straggler-bench", faults=(
        DegradedReplica(fraction=0.5, slowdown=8.0, start=0.3, duration=0.4),
    ))

    def run(detector):
        # 45% fleet utilization: the storm leaves the surviving half at
        # 90%, so routing around stragglers sustains the load and
        # routing into them does not.
        process = PoissonArrivals(0.45 * REPLICAS / epoch)
        return simulate_fleet(
            device.replicated(REPLICAS),
            [TenantSpec("AlexNet", process, deadline_ms=deadline_ms)],
            duration_cycles=epochs * epoch,
            seed=0,
            queue_depth=10**6,
            scenario=storm,
            detector=detector,
        )

    probe_spec = DetectorSpec(
        mode="probe",
        request_timeout_ms=8.0 * epoch / FREQUENCY_HZ * 1e3,
        max_failovers=2,
    )
    elapsed, probe = _timed(lambda: run(probe_spec))
    oracle = run(DetectorSpec(mode="oracle"))
    blind = run(None)

    for result in (probe, oracle, blind):
        tenant = result.tenants[0]
        assert tenant.arrivals == (
            tenant.completions + tenant.drops + tenant.lost
            + tenant.timed_out + tenant.in_flight
        ), "requests not conserved"
    # Identical arrival substreams: goodput compares like for like.
    assert probe.total_arrivals == oracle.total_arrivals
    assert probe.total_arrivals == blind.total_arrivals

    def goodput(result):
        return sum(t.good_completions for t in result.tenants)

    oracle_goodput = goodput(oracle)
    retention = goodput(probe) / oracle_goodput if oracle_goodput else 0.0
    blind_retention = (
        goodput(blind) / oracle_goodput if oracle_goodput else 0.0
    )
    mttd = probe.resilience.mean_time_to_detect_cycles
    assert mttd is not None and mttd > 0.0, (
        "probe detection never recorded a detection lag; the storm "
        "should be detected late, not instantly"
    )
    assert retention >= RETENTION_FLOOR, (
        f"probe detection retained only {retention:.3f} of oracle "
        f"goodput (floor {RETENTION_FLOOR})"
    )
    assert blind_retention < retention, (
        f"blind routing retained {blind_retention:.3f} vs probe "
        f"{retention:.3f}; detection should beat no detection"
    )
    requests_per_s = probe.tenants[0].arrivals / elapsed
    assert requests_per_s > 1_000, (
        f"gray-failure engine too slow: {requests_per_s:,.0f} "
        "simulated req/s"
    )
