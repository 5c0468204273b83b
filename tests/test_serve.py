"""Tests for the multi-tenant traffic simulator (repro.serve).

Three layers of assurance:

* unit tests for arrival processes, queues, metrics, and SLO scoring;
* property-based (hypothesis) tests — conservation of requests,
  the pipeline-latency lower bound, determinism under a fixed seed,
  and monotonicity of p99 latency in the arrival rate;
* differential tests tying the serving layer to the analytic model
  (``epoch_cycles``-derived throughput, ``service_capacity_rps``) and
  to the cycle-level system simulator (``calibrate="simulate"``).
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import (
    serve_result_from_dict,
    serve_result_to_dict,
)
from repro.obs import ObsSpec, TraceRecorder
from repro.serve import (
    AdmissionPolicy,
    BrownoutPolicy,
    BurstyArrivals,
    ConstantRate,
    OverloadSpec,
    PoissonArrivals,
    RetryPolicy,
    SLOSpec,
    TenantSpec,
    TraceArrivals,
    evaluate_slo,
    make_arrival_process,
    percentile,
    service_capacity_rps,
    simulate_traffic,
)

#: One compact profile for hypothesis: the engine is exercised hundreds
#: of times per property, so every run must stay in the milliseconds.
FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _serve(design, rate_mult, *, epochs=30, seed=0, process="constant",
           queue_depth=10**7, policy="drop-tail", drain=False):
    """Drive ``design`` at ``rate_mult`` times its epoch capacity."""
    epoch = design.epoch_cycles
    rate = rate_mult / epoch
    proc = make_arrival_process(process, rate, period_cycles=8.0 * epoch)
    return simulate_traffic(
        design,
        [TenantSpec(design.network.name, proc)],
        duration_cycles=epochs * epoch,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
    )


# --------------------------------------------------------------- arrivals
class TestArrivals:
    def test_constant_rate_is_evenly_spaced(self):
        process = ConstantRate(0.25)
        times = []
        stream = process.times(random.Random(0))
        for _ in range(5):
            times.append(next(stream))
        assert times == [0.0, 4.0, 8.0, 12.0, 16.0]

    def test_constant_subset_property(self):
        # A rate-r stream is a subset of a rate-2r stream (monotonicity
        # of p99 in arrival rate leans on this).
        slow = ConstantRate(0.1).times(random.Random(0))
        fast = ConstantRate(0.2).times(random.Random(0))
        slow_times = {next(slow) for _ in range(20)}
        fast_times = {next(fast) for _ in range(40)}
        assert slow_times <= fast_times

    def test_poisson_seeded_reproducible(self):
        process = PoissonArrivals(0.01)
        first = [next(process.times(random.Random(42))) for _ in range(1)]
        again = [next(process.times(random.Random(42))) for _ in range(1)]
        assert first == again

    def test_poisson_mean_rate(self):
        process = PoissonArrivals(0.02)
        stream = process.times(random.Random(7))
        times = [next(stream) for _ in range(4000)]
        observed = len(times) / times[-1]
        assert observed == pytest.approx(0.02, rel=0.1)

    def test_bursty_keeps_average_rate(self):
        process = BurstyArrivals(0.02, burstiness=5.0, period_cycles=2000.0)
        stream = process.times(random.Random(3))
        # A fixed-count sample tends to end mid-burst (length bias), so
        # average over many on/off cycles before checking the mean rate.
        times = [next(stream) for _ in range(30000)]
        observed = len(times) / times[-1]
        assert observed == pytest.approx(0.02, rel=0.15)

    def test_bursty_gaps_are_bimodal(self):
        # On-phase gaps are ~burstiness times shorter than the mean gap;
        # off phases insert much longer silences.
        process = BurstyArrivals(0.01, burstiness=8.0, period_cycles=5000.0)
        stream = process.times(random.Random(11))
        times = [next(stream) for _ in range(2000)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert max(gaps) > 5 * mean_gap

    def test_trace_replay_and_validation(self):
        trace = TraceArrivals([0.0, 5.0, 5.0, 9.0])
        assert list(trace.times(random.Random(0))) == [0.0, 5.0, 5.0, 9.0]
        with pytest.raises(ValueError):
            TraceArrivals([3.0, 1.0])
        with pytest.raises(ValueError):
            TraceArrivals([-1.0, 1.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(0.1, burstiness=1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(0.1, period_cycles=0.0)
        with pytest.raises(ValueError):
            make_arrival_process("weibull", 0.1)


# -------------------------------------------------------------- percentile
class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


# -------------------------------------------------- hypothesis properties
class TestServeProperties:
    @FAST
    @given(
        rate_mult=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32),
        queue_depth=st.integers(min_value=1, max_value=64),
        policy=st.sampled_from(["drop-tail", "drop-head"]),
        process=st.sampled_from(["constant", "poisson", "bursty"]),
    )
    def test_conservation(self, toy_design, rate_mult, seed, queue_depth,
                          policy, process):
        """Every arrival is accounted for: completed, dropped, or in flight."""
        result = _serve(
            toy_design, rate_mult, seed=seed, queue_depth=queue_depth,
            policy=policy, process=process,
        )
        tenant = result.tenants[0]
        assert tenant.arrivals == (
            tenant.completions + tenant.drops + tenant.in_flight
        )

    @FAST
    @given(
        rate_mult=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32),
        process=st.sampled_from(["constant", "poisson", "bursty"]),
    )
    def test_drain_completes_everything(self, toy_design, rate_mult, seed,
                                        process):
        result = _serve(toy_design, rate_mult, seed=seed, process=process,
                        drain=True)
        tenant = result.tenants[0]
        assert tenant.in_flight == 0
        assert tenant.arrivals == tenant.completions + tenant.drops
        assert tenant.drops == 0  # unbounded queue in _serve

    @FAST
    @given(
        rate_mult=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32),
        process=st.sampled_from(["constant", "poisson", "bursty"]),
    )
    def test_latency_at_least_pipeline_depth(self, toy_design, rate_mult,
                                             seed, process):
        """No request beats the epoch pipeline: latency >= depth * epoch."""
        result = _serve(toy_design, rate_mult, seed=seed, process=process)
        tenant = result.tenants[0]
        if tenant.latency is None:
            return
        bound = toy_design.pipeline_depth_images * result.epoch_cycles
        assert tenant.latency.min >= bound - 1e-9

    @FAST
    @given(
        rate_mult=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32),
        queue_depth=st.integers(min_value=1, max_value=64),
        process=st.sampled_from(["constant", "poisson", "bursty"]),
    )
    def test_determinism_under_fixed_seed(self, toy_design, rate_mult, seed,
                                          queue_depth, process):
        first = _serve(toy_design, rate_mult, seed=seed,
                       queue_depth=queue_depth, process=process)
        second = _serve(toy_design, rate_mult, seed=seed,
                        queue_depth=queue_depth, process=process)
        assert first == second

    @FAST
    @given(
        rate_mult=st.floats(min_value=0.02, max_value=3.0),
        factor=st.integers(min_value=2, max_value=4),
        epochs=st.sampled_from([11, 23, 40]),
    )
    def test_p99_monotone_in_arrival_rate(self, toy_design, rate_mult,
                                          factor, epochs):
        """More offered load never improves tail latency.

        Constant-rate streams make this exact: a rate-r stream is a
        subset of the rate-k*r stream, and with FIFO service every
        shared request is delayed at least as much under the higher
        rate.  Drained runs keep the completed populations comparable.
        """
        calm = _serve(toy_design, rate_mult, epochs=epochs, drain=True)
        loaded = _serve(toy_design, rate_mult * factor, epochs=epochs,
                        drain=True)
        calm_t, loaded_t = calm.tenants[0], loaded.tenants[0]
        if calm_t.latency is None or loaded_t.latency is None:
            return
        assert loaded_t.latency.p99 >= calm_t.latency.p99 - 1e-9


# ------------------------------------------------------------ differential
class TestDifferentialAgainstModel:
    def test_saturated_throughput_matches_epoch_rate(self, alexnet_485t_design):
        """Ties serve to opt: steady completion rate == 1 / epoch_cycles.

        Under saturating traffic the dispatcher admits one image per
        epoch boundary, so the measured inter-completion rate must equal
        the analytic model's epoch-derived throughput to float precision.
        """
        design = alexnet_485t_design
        result = _serve(design, 3.0, epochs=60)
        steady = result.tenants[0].steady_rate_per_cycle
        assert steady == pytest.approx(1.0 / design.epoch_cycles, rel=1e-12)

    def test_saturated_throughput_matches_on_toy(self, toy_design):
        result = _serve(toy_design, 2.0, epochs=100)
        steady = result.tenants[0].steady_rate_per_cycle
        assert steady == pytest.approx(1.0 / toy_design.epoch_cycles, rel=1e-12)

    def test_low_rate_serves_every_request(self, toy_design):
        """Below capacity nothing queues for long and nothing drops."""
        result = _serve(toy_design, 0.25, epochs=80, drain=True)
        tenant = result.tenants[0]
        assert tenant.drops == 0
        assert tenant.completions == tenant.arrivals
        # Waiting never exceeds one epoch when the queue stays empty:
        # latency is pipeline depth plus boundary alignment.
        depth = toy_design.pipeline_depth_images
        bound = (depth + 1) * result.epoch_cycles
        assert tenant.latency.max <= bound + 1e-9

    def test_capacity_matches_design_throughput(self, alexnet_485t_design):
        assert service_capacity_rps(
            alexnet_485t_design, 100.0
        ) == pytest.approx(alexnet_485t_design.throughput(100.0), rel=1e-12)

    def test_pipeline_latency_matches_design(self, alexnet_485t_design):
        from repro.serve import pipeline_latency_cycles

        assert pipeline_latency_cycles(
            alexnet_485t_design
        ) == pytest.approx(alexnet_485t_design.latency_cycles())

    def test_calibrated_epoch_matches_system_sim(self, toy_design):
        """Ties serve to sim.system: simulated epoch == analytic epoch."""
        from repro.sim.system import simulate_system

        modeled = _serve(toy_design, 1.0, epochs=10)
        calibrated = simulate_traffic(
            toy_design,
            [TenantSpec("toy", ConstantRate(1.0 / toy_design.epoch_cycles))],
            duration_cycles=10 * toy_design.epoch_cycles,
            calibrate="simulate",
        )
        sim_epoch = simulate_system(toy_design).epoch_cycles
        assert calibrated.epoch_cycles == pytest.approx(sim_epoch)
        assert calibrated.epoch_cycles == pytest.approx(
            modeled.epoch_cycles, rel=1e-12
        )

    def test_bandwidth_cap_stretches_epoch(self, toy_design):
        capped = simulate_traffic(
            toy_design,
            [TenantSpec("toy", ConstantRate(1.0 / toy_design.epoch_cycles))],
            duration_cycles=10 * toy_design.epoch_cycles,
            bytes_per_cycle=0.5,
        )
        assert capped.epoch_cycles == pytest.approx(
            toy_design.epoch_cycles_under_bandwidth(0.5)
        )
        assert capped.epoch_cycles > toy_design.epoch_cycles


# ------------------------------------------------------- engine behaviour
class TestEngineBehaviour:
    def test_bounded_queue_drops_overload(self, toy_design):
        result = _serve(toy_design, 4.0, epochs=40, queue_depth=4)
        tenant = result.tenants[0]
        assert tenant.drops > 0
        assert tenant.peak_queue_depth <= 4

    def test_drop_head_favours_fresh_requests(self, toy_design):
        tail = _serve(toy_design, 4.0, epochs=40, queue_depth=4,
                      policy="drop-tail")
        head = _serve(toy_design, 4.0, epochs=40, queue_depth=4,
                      policy="drop-head")
        # Same offered load, same losses -- but drop-head serves newer
        # requests, so its completed latencies are no worse.
        assert head.tenants[0].drops == tail.tenants[0].drops
        assert head.tenants[0].latency.p50 <= tail.tenants[0].latency.p50

    def test_joint_design_per_tenant_slots(self, joint_design_690t):
        joint = joint_design_690t
        epoch = joint.epoch_cycles
        tenants = [
            TenantSpec("AlexNet", ConstantRate(2.0 / epoch)),
            TenantSpec("SqueezeNet", ConstantRate(2.0 / epoch)),
        ]
        result = simulate_traffic(
            joint, tenants, duration_cycles=50 * epoch, queue_depth=10**6
        )
        # Both tenants progress concurrently: one image each per epoch.
        for tenant in result.tenants:
            assert tenant.steady_rate_per_cycle == pytest.approx(
                1.0 / epoch, rel=1e-12
            )

    def test_joint_tenant_names_validated(self, joint_design_690t):
        epoch = joint_design_690t.epoch_cycles
        with pytest.raises(ValueError):
            simulate_traffic(
                joint_design_690t,
                [TenantSpec("AlexNet", ConstantRate(1.0 / epoch))],
                duration_cycles=10 * epoch,
            )

    def test_clp_utilization_tracks_load(self, toy_design):
        idle = _serve(toy_design, 0.2, epochs=60)
        busy = _serve(toy_design, 3.0, epochs=60)
        assert all(0.0 <= f <= 1.0 for f in idle.clp_busy_fraction)
        for lazy, hard in zip(idle.clp_busy_fraction, busy.clp_busy_fraction):
            assert hard > lazy
        # At saturation the epoch-limiting CLP approaches full duty.
        assert max(busy.clp_busy_fraction) > 0.9

    def test_rejects_bad_arguments(self, toy_design):
        spec = [TenantSpec("toy", ConstantRate(1e-4))]
        with pytest.raises(ValueError):
            simulate_traffic(toy_design, spec, duration_cycles=0)
        with pytest.raises(ValueError):
            simulate_traffic(toy_design, spec, duration_cycles=10, queue_depth=0)
        with pytest.raises(ValueError):
            simulate_traffic(toy_design, spec, duration_cycles=10,
                             policy="tail-drop")
        with pytest.raises(ValueError):
            simulate_traffic(toy_design, spec, duration_cycles=10,
                             calibrate="vibes")

    def test_request_limit_bounds_stream(self, toy_design):
        result = simulate_traffic(
            toy_design,
            [TenantSpec("toy", ConstantRate(1.0), limit=7)],
            duration_cycles=20 * toy_design.epoch_cycles,
            drain=True,
        )
        assert result.tenants[0].arrivals == 7
        assert result.tenants[0].completions == 7


# ------------------------------------------------------------- serialization
class TestSerialization:
    def test_round_trip(self, toy_design):
        result = _serve(toy_design, 1.5, epochs=25, seed=9, process="poisson")
        assert serve_result_from_dict(serve_result_to_dict(result)) == result

    def test_round_trip_without_completions(self, toy_design):
        result = _serve(toy_design, 0.5, epochs=1)
        assert result.tenants[0].latency is None
        assert serve_result_from_dict(serve_result_to_dict(result)) == result

    def test_rejects_unknown_schema(self, toy_design):
        record = serve_result_to_dict(_serve(toy_design, 1.0, epochs=5))
        record["schema"] = 99
        with pytest.raises(ValueError):
            serve_result_from_dict(record)

    def test_format_mentions_tenants_and_capacity(self, toy_design):
        text = _serve(toy_design, 1.0, epochs=20).format()
        assert "toy" in text
        assert "capacity" in text
        assert "CLP utilization" in text

    def test_tenant_lookup(self, toy_design):
        result = _serve(toy_design, 1.0, epochs=5)
        assert result.tenant("toy").name == "toy"
        with pytest.raises(KeyError):
            result.tenant("nope")


# ------------------------------------------------------------ pinned records
#: Golden records of ``serve_result_to_dict`` (timeseries popped) for a
#: fixed matrix of serve runs.  Regenerate them by hand, with a one-off
#: script over ``_pinned_runs``, only when a change is *meant* to alter
#: serve results.
PINNED_PATH = Path(__file__).parent / "data" / "serve_pinned_runs.json"


def _pinned_runs(toy, joint):
    """Case id -> zero-argument serve run, over engines, arrivals, drain,
    drop policies, queue depths, a joint design, overload, and obs."""
    toy_epoch = toy.epoch_cycles
    joint_epoch = joint.epoch_cycles
    joint_names = [network.name for network in joint.networks]
    # One epoch in milliseconds at the default 100 MHz clock.
    toy_ms = toy_epoch / 1e5
    joint_ms = joint_epoch / 1e5

    def toy_run(kind, mult, epochs, tenant=None, **run):
        proc = make_arrival_process(
            kind, mult / toy_epoch, period_cycles=8.0 * toy_epoch
        )
        tenants = [TenantSpec("toy", proc, **(tenant or {}))]
        return lambda: simulate_traffic(
            toy, tenants, duration_cycles=epochs * toy_epoch, **run
        )

    def joint_run(mult, epochs, priorities=(0, 0), **run):
        tenants = [
            TenantSpec(name, PoissonArrivals(mult / joint_epoch), priority=p)
            for name, p in zip(joint_names, priorities)
        ]
        return lambda: simulate_traffic(
            joint, tenants, duration_cycles=epochs * joint_epoch, **run
        )

    cases = {}
    for engine in ("fast", "event"):
        cases.update({
            f"{engine}-constant-cut": toy_run(
                "constant", 0.8, 300, engine=engine, queue_depth=64),
            f"{engine}-poisson-drain-tail": toy_run(
                "poisson", 1.3, 400, engine=engine, seed=3, queue_depth=8,
                drain=True),
            f"{engine}-bursty-cut-head": toy_run(
                "bursty", 1.5, 500, engine=engine, seed=5, queue_depth=4,
                policy="drop-head"),
            f"{engine}-poisson-drain-head": toy_run(
                "poisson", 2.0, 300, engine=engine, seed=7, queue_depth=2,
                policy="drop-head", drain=True),
            f"{engine}-bursty-drain": toy_run(
                "bursty", 0.9, 400, engine=engine, seed=11, queue_depth=16,
                drain=True),
            f"{engine}-joint": joint_run(
                1.1, 300, engine=engine, seed=2, queue_depth=32),
        })
    cases.update({
        "overload-edf-admission-retries": toy_run(
            "poisson", 1.6, 600, tenant={"deadline_ms": 8 * toy_ms},
            seed=13,
            overload=OverloadSpec(
                queue_policy="edf",
                admission=AdmissionPolicy(deadline_admission=True),
                retry=RetryPolicy(max_attempts=3, base_ms=toy_ms),
            )),
        "overload-edf-expired-drain": toy_run(
            "bursty", 1.5, 500, tenant={"deadline_ms": 6 * toy_ms},
            seed=17, drain=True, overload=OverloadSpec(queue_policy="edf")),
        "overload-priority-bucket-hedge-brownout": joint_run(
            1.2, 600, priorities=(1, 0), seed=19, queue_depth=16,
            overload=OverloadSpec(
                queue_policy="priority",
                admission=AdmissionPolicy(
                    rate_rps=1.1e3 / joint_ms, burst=4.0),
                retry=RetryPolicy(
                    max_attempts=2, base_ms=joint_ms,
                    hedge_ms=3 * joint_ms),
                brownout=BrownoutPolicy(
                    p99_ms=6 * joint_ms, window_ms=40 * joint_ms),
                deadline_ms=20 * joint_ms,
            )),
        "overload-fifo-late": toy_run(
            "poisson", 1.2, 500, seed=23,
            overload=OverloadSpec(deadline_ms=5 * toy_ms)),
        "observed": toy_run(
            "poisson", 1.1, 300, seed=29,
            obs=ObsSpec(timeseries=True, trace=TraceRecorder())),
        "observed-overload": toy_run(
            "poisson", 1.4, 300, tenant={"deadline_ms": 6 * toy_ms},
            seed=31, queue_depth=8,
            overload=OverloadSpec(
                queue_policy="priority", retry=RetryPolicy(base_ms=toy_ms)),
            obs=ObsSpec(timeseries=True, trace=TraceRecorder())),
    })
    return cases


def _pinned_record(result):
    record = serve_result_to_dict(result)
    record.pop("timeseries", None)
    return record


def test_pinned_runs_match_records(toy_design, joint_design_690t):
    runs = _pinned_runs(toy_design, joint_design_690t)
    records = {name: _pinned_record(run()) for name, run in runs.items()}
    pinned = json.loads(PINNED_PATH.read_text())
    assert sorted(pinned) == sorted(records)
    for name, record in records.items():
        # Compare through JSON text so float reprs must match exactly.
        assert json.dumps(record, sort_keys=True) == json.dumps(
            pinned[name], sort_keys=True
        ), name


# --------------------------------------------------------------------- SLO
class TestSLO:
    def test_generous_slo_met(self, toy_design):
        result = _serve(toy_design, 0.3, epochs=60)
        report = evaluate_slo(result, SLOSpec(p99_ms=1e6, max_drop_rate=0.0))
        assert report.meets
        assert report.attainment == 1.0

    def test_overload_violates_drop_budget(self, toy_design):
        result = _serve(toy_design, 4.0, epochs=40, queue_depth=2)
        report = evaluate_slo(result, SLOSpec(max_drop_rate=0.0))
        assert not report.meets
        assert report.worst_shed_rate > 0
        assert any("drops" in v for t in report.tenants for v in t.violations)

    def test_tight_latency_violated(self, toy_design):
        result = _serve(toy_design, 1.0, epochs=40)
        # The pipeline alone exceeds one epoch, so demand sub-epoch p99.
        impossible_ms = result.cycles_to_ms(result.epoch_cycles) / 2
        report = evaluate_slo(result, SLOSpec(p99_ms=impossible_ms,
                                              max_drop_rate=1.0))
        assert not report.meets

    def test_no_traffic_trivially_passes(self, toy_design):
        result = simulate_traffic(
            toy_design,
            [TenantSpec("toy", TraceArrivals(()))],
            duration_cycles=5 * toy_design.epoch_cycles,
        )
        report = evaluate_slo(result, SLOSpec(p99_ms=1.0))
        assert report.meets

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(p99_ms=0.0)
        with pytest.raises(ValueError):
            SLOSpec(max_drop_rate=1.5)
        with pytest.raises(ValueError):
            SLOSpec(min_throughput_rps=-1.0)


# ------------------------------------------------------------- dse ranking
class TestRankByTraffic:
    @pytest.fixture(scope="class")
    def sweep_results(self):
        from repro.dse import DesignPoint, run_sweep

        points = [
            DesignPoint(network="alexnet", dsp=800, bram18k=700, single=True),
            DesignPoint(network="alexnet", dsp=2240, bram18k=1648),
        ]
        return run_sweep(points).results

    def test_bigger_budget_ranks_first_under_load(self, sweep_results):
        from repro.dse import rank_by_traffic, traffic_rank_table

        slo = SLOSpec(p99_ms=500.0, max_drop_rate=0.05)
        rankings = rank_by_traffic(
            sweep_results, rate_rps=30.0, slo=slo, duration_ms=400.0
        )
        assert len(rankings) == 2
        assert rankings[0].result.point.dsp == 2240
        table = traffic_rank_table(rankings, rate_rps=30.0, slo=slo)
        assert "SLO ranking" in table
        assert "alexnet" in table

    def test_rankings_are_deterministic(self, sweep_results):
        from repro.dse import rank_by_traffic

        slo = SLOSpec(p99_ms=500.0, max_drop_rate=0.05)
        first = rank_by_traffic(sweep_results, 30.0, slo, duration_ms=200.0)
        second = rank_by_traffic(sweep_results, 30.0, slo, duration_ms=200.0)
        assert [r.serve for r in first] == [r.serve for r in second]


# --------------------------------------------------------------------- CLI
class TestServeCli:
    def test_serve_single_network(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialize import load_serve_result

        path = tmp_path / "default.json"
        assert main([
            "serve", "--network", "alexnet", "--rate", "40",
            "--duration-ms", "200", "--seed", "1", "--save", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out
        assert "p99 ms" in out
        # The CLI floors the window at 3 pipeline latencies, so even a
        # short --duration-ms completes requests and reports percentiles.
        tenant = load_serve_result(str(path)).tenants[0]
        assert tenant.completions > 0
        assert tenant.latency is not None

    def test_serve_joint_comma_separated(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--network", "alexnet,squeezenet", "--part", "VX690T",
            "--dtype", "fixed16", "--rate", "100", "--duration-ms", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out and "SqueezeNet" in out

    def test_serve_save_round_trips(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialize import load_serve_result

        path = tmp_path / "serve.json"
        assert main([
            "serve", "--network", "alexnet", "--rate", "100",
            "--duration-ms", "150", "--drain", "--save", str(path),
        ]) == 0
        result = load_serve_result(str(path))
        assert result.tenants[0].arrivals > 0

    def test_serve_rejects_rate_mismatch(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "serve", "--network", "alexnet", "--rates", "10", "20",
            ])
