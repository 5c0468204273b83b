"""Serving-engine speed: simulated requests per wall-clock second.

The traffic simulator exists to be swept (``repro dse rank`` replays
every stored design under load), so its own throughput matters.  This
benchmark saturates a real AlexNet 485T design with constant-rate
traffic for a fixed number of epochs and reports how many simulated
requests the event loop processes per second of host time, timing a
warm run (one untimed run first).

Bands: the engine must stay comfortably above 10k simulated requests/s
(each request is ~4 heap events), and a drained run must conserve
requests exactly (arrivals == completions + drops).

Numbers land twice: a human-readable artifact and machine-readable
``BENCH_serve.json`` (req/s, wall time) for the perf trajectory CI
tracks across commits.
"""

import time

from conftest import SMOKE, bench_scale

from repro.core.datatypes import FLOAT32
from repro.core.serialize import serve_result_to_dict
from repro.fpga.parts import budget_for
from repro.networks import alexnet
from repro.opt import optimize_multi_clp
from repro.serve import ConstantRate, TenantSpec, simulate_traffic

EPOCHS = bench_scale(full=2_000, smoke=200)
# The fast engine's advantage is overhead-bound at smoke scale (a few
# hundred arrivals barely amortize the numpy setup); the 10x promise is
# judged at full scale.
SPEEDUP_FLOOR = 4.0 if SMOKE else 10.0


def _run_once(design, engine="event"):
    epoch = design.epoch_cycles
    # 2x capacity keeps the queue full: one admission every epoch.
    process = ConstantRate(2.0 / epoch)
    return simulate_traffic(
        design,
        [TenantSpec("AlexNet", process)],
        duration_cycles=EPOCHS * epoch,
        queue_depth=10 * EPOCHS,
        drain=True,
        engine=engine,
    )


def test_serve_engine_speed(benchmark, record_artifact, record_bench_json):
    design = optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)
    # Warm-up, untimed: the first call in a process also pays one-off
    # imports, which are not engine speed.
    _run_once(design)

    started = time.perf_counter()
    result = benchmark.pedantic(lambda: _run_once(design), rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    tenant = result.tenants[0]
    assert tenant.arrivals == tenant.completions + tenant.drops
    assert tenant.completions >= EPOCHS  # saturated: one image per epoch

    requests_per_s = tenant.arrivals / elapsed
    artifact = "\n".join(
        [
            "serve engine speed (AlexNet 485T float32, saturated)",
            f"  simulated epochs:    {EPOCHS}",
            f"  simulated requests:  {tenant.arrivals}",
            f"  wall-clock:          {elapsed:.3f} s",
            f"  simulated req/s:     {requests_per_s:,.0f}",
            f"  completions:         {tenant.completions}",
        ]
    )
    record_artifact("bench_serve", artifact)
    record_bench_json(
        "serve",
        {
            "simulated_epochs": EPOCHS,
            "simulated_requests": tenant.arrivals,
            "completions": tenant.completions,
            "wall_time_s": elapsed,
            "requests_per_s": requests_per_s,
        },
    )
    assert requests_per_s > 10_000, (
        f"serve engine too slow: {requests_per_s:,.0f} simulated req/s"
    )


def test_serve_fast_engine_speed(record_artifact, record_bench_json):
    """The epoch-batched fast path: bit-exact and an order faster.

    Both engines replay the identical saturated workload; the fast run
    must reproduce the event engine's ServeResult exactly (the whole
    reason it may be the default) and beat it by the mode's speedup
    floor.  The fast time is the best of three runs: the engine's cost
    is setup-dominated at smoke scale and a cold numpy import tax would
    otherwise masquerade as engine time.
    """
    design = optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)
    # Warm-up, untimed: the first call in a process also pays one-off
    # imports, which are not engine speed.
    _run_once(design)

    started = time.perf_counter()
    event_result = _run_once(design, engine="event")
    event_elapsed = time.perf_counter() - started

    fast_elapsed = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        fast_result = _run_once(design, engine="fast")
        fast_elapsed = min(fast_elapsed, time.perf_counter() - started)

    assert serve_result_to_dict(fast_result) == serve_result_to_dict(
        event_result
    ), "fast engine diverged from the event engine"

    tenant = fast_result.tenants[0]
    speedup = event_elapsed / fast_elapsed
    requests_per_s = tenant.arrivals / fast_elapsed
    artifact = "\n".join(
        [
            "serve fast-path speed (AlexNet 485T float32, saturated)",
            f"  simulated epochs:    {EPOCHS}",
            f"  simulated requests:  {tenant.arrivals}",
            f"  event wall-clock:    {event_elapsed:.3f} s",
            f"  fast wall-clock:     {fast_elapsed:.4f} s",
            f"  fast req/s:          {requests_per_s:,.0f}",
            f"  speedup vs event:    {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)",
            "  results bit-exact:   yes",
        ]
    )
    record_artifact("bench_serve_fast", artifact)
    record_bench_json(
        "serve_fast",
        {
            "simulated_epochs": EPOCHS,
            "simulated_requests": tenant.arrivals,
            "wall_time_s": fast_elapsed,
            "event_wall_time_s": event_elapsed,
            "requests_per_s": requests_per_s,
            "speedup_vs_event": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast serve path only {speedup:.1f}x over the event engine "
        f"(floor {SPEEDUP_FLOOR:.0f}x)"
    )
