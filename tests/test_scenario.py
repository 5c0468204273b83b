"""Tests for failure injection and resilience planning (repro.scenario).

The load-bearing guarantees, in test order:

* fault schedules are pure functions of (spec, horizon, fleet size,
  rng) — deterministic, bounded to the horizon, valid replica indices;
* surge arrival processes are seeded and shape-correct (diurnal mean,
  flash-crowd multiplier, on/off duty gating);
* the scenario library round-trips through JSON and ``with_redundancy``
  composes without mutating the base spec;
* **no-op differential**: running with the ``steady`` scenario is
  bit-exact to running with no scenario at all — fault plumbing on its
  own RNG substream can never perturb a plain simulation;
* **request conservation** (hypothesis): under every fault schedule,
  gray degradation, and failure policy, ``arrivals == completions +
  drops + lost + timed_out + in_flight`` per tenant and in aggregate,
  with each failed-over request counted at most once;
* the N+k planner is monotone: surviving one forced failure never takes
  *fewer* replicas than surviving zero;
* the autoscaler sees in-incident p99 — reproducing the late-scale-up
  miss a window-wide percentile causes on a short flash crowd;
* resilience floats are the same in every process, whatever the
  string-hash seed.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import from_record, to_record
from repro.fleet import (
    AutoscalerPolicy,
    DeviceSpec,
    plan_capacity,
    simulate_fleet,
)
from repro.fleet.metrics import FleetResult, ReplicaStats
from repro.scenario import (
    FAILURE_POLICIES,
    SCENARIO_NAMES,
    SCENARIOS,
    DiurnalArrivals,
    FlashCrowdArrivals,
    Incident,
    OnOffArrivals,
    RackFailure,
    RampArrivals,
    RandomFaults,
    RedundancyOutage,
    ResilienceReport,
    RollingReboot,
    ScenarioSpec,
    ScheduledOutage,
    WindowMetrics,
    compute_resilience,
    describe_scenario,
    get_scenario,
)
from repro.scenario.faults import FaultSpec
from repro.serve import SLOSpec, TenantSpec, make_arrival_process
from repro.serve.metrics import LatencySummary, TenantStats

import random

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 1_000_000.0


def _tenants(design, rate_mult):
    epoch = design.epoch_cycles
    proc = make_arrival_process("poisson", rate_mult / epoch)
    return [TenantSpec(design.network.name, proc)]


def _fleet(design, replicas, rate_mult, *, epochs=60, seed=0,
           balancer="round-robin", queue_depth=10**6, policy="drop-tail",
           drain=False, scenario=None, detector=None):
    return simulate_fleet(
        DeviceSpec(design).replicated(replicas),
        _tenants(design, rate_mult),
        duration_cycles=epochs * design.epoch_cycles,
        balancer=balancer,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
        scenario=scenario,
        detector=detector,
    )


# ------------------------------------------------------------- fault specs
class TestFaultSpecs:
    def test_random_faults_deterministic(self):
        spec = RandomFaults(mttf=0.3, mttr=0.05)
        a = spec.materialize(HORIZON, 4, random.Random("x"))
        b = spec.materialize(HORIZON, 4, random.Random("x"))
        assert a == b and a  # same stream, same schedule, non-empty

    def test_random_faults_bounded(self):
        spec = RandomFaults(mttf=0.2, mttr=0.1)
        for outage in spec.materialize(HORIZON, 3, random.Random(7)):
            # Starts inside the run; recovery may overhang (the cluster
            # clips the recorded incident at the observation window).
            assert 0.0 <= outage.start < HORIZON
            assert outage.start < outage.end
            assert 0 <= outage.replica < 3

    def test_scheduled_outage_skips_missing_replica(self):
        spec = ScheduledOutage(replica=5, start=0.2, duration=0.1)
        assert spec.materialize(HORIZON, 2, random.Random(0)) == []

    def test_rack_failure_takes_first_half(self):
        spec = RackFailure(fraction=0.5, start=0.4, duration=0.2)
        outages = spec.materialize(HORIZON, 4, random.Random(0))
        assert sorted(o.replica for o in outages) == [0, 1]
        assert all(o.start == 0.4 * HORIZON for o in outages)

    def test_rolling_reboot_one_at_a_time(self):
        spec = RollingReboot(duration=0.05, window_start=0.1,
                             window_end=0.9)
        outages = spec.materialize(HORIZON, 6, random.Random(0))
        assert len(outages) == 6
        spans = sorted((o.start, o.end) for o in outages)
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end  # never two down at once

    @pytest.mark.parametrize("window", [
        dict(window_start=0.1, window_end=1.5),
        dict(window_start=0.5, window_end=0.5),
        dict(relative=False, window_start=100.0, window_end=50.0,
             duration=10.0),
    ])
    def test_rolling_reboot_rejects_bad_windows(self, window):
        with pytest.raises(ValueError, match="window_end"):
            RollingReboot(**window)

    def test_rolling_reboot_absolute_window_may_pass_one(self):
        spec = RollingReboot(relative=False, window_start=100.0,
                             window_end=500.0, duration=10.0)
        outages = spec.materialize(1000.0, 3, random.Random(0))
        assert [o.start for o in outages] == [100.0, 295.0, 490.0]

    def test_redundancy_outage_fails_last_replicas(self):
        spec = RedundancyOutage(count=2, start=0.35, duration=0.3)
        outages = spec.materialize(HORIZON, 5, random.Random(0))
        assert sorted(o.replica for o in outages) == [3, 4]

    @pytest.mark.parametrize("spec", [
        RandomFaults(mttf=0.5, mttr=0.05),
        ScheduledOutage(replica=1, start=0.3, duration=0.2),
        RackFailure(fraction=0.25, start=0.5, duration=0.1),
        RollingReboot(duration=0.04),
        RedundancyOutage(count=3, start=0.2, duration=0.5),
    ])
    def test_fault_json_round_trip(self, spec):
        assert from_record(FaultSpec, to_record(spec)) == spec

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RandomFaults(mttf=0.0)
        with pytest.raises(ValueError):
            ScheduledOutage(replica=-1)
        with pytest.raises(ValueError):
            RackFailure(fraction=1.5)
        with pytest.raises(ValueError):
            RedundancyOutage(count=0)


# ------------------------------------------------------------------ surges
class TestSurges:
    def test_diurnal_oscillates_about_mean(self):
        proc = DiurnalArrivals(rate=0.001, amplitude=0.5,
                               period_cycles=1000.0)
        rates = [proc.rate_at(t) for t in range(0, 1000, 10)]
        assert min(rates) < 0.001 < max(rates)
        assert abs(sum(rates) / len(rates) - 0.001) < 1e-4

    def test_flash_crowd_multiplier_inside_spike(self):
        proc = FlashCrowdArrivals(rate=0.001, multiplier=4.0,
                                  spike_start_cycles=100.0,
                                  spike_cycles=50.0)
        assert proc.rate_at(50.0) == pytest.approx(0.001)
        assert proc.rate_at(125.0) == pytest.approx(0.004)
        assert proc.rate_at(200.0) == pytest.approx(0.001)

    def test_ramp_endpoints(self):
        proc = RampArrivals(start_rate=0.001, end_rate=0.003,
                            ramp_cycles=500.0)
        assert proc.rate_at(0.0) == pytest.approx(0.001)
        assert proc.rate_at(500.0) == pytest.approx(0.003)
        assert proc.rate_at(9999.0) == pytest.approx(0.003)

    def test_on_off_duty_gating(self):
        proc = OnOffArrivals(rate=0.001, duty=0.6, period_cycles=100.0)
        assert proc.rate_at(30.0) == pytest.approx(0.001)  # in duty
        assert proc.rate_at(80.0) == 0.0                   # off phase

    def test_times_seeded_and_increasing(self):
        proc = DiurnalArrivals(rate=0.01, period_cycles=1000.0)

        def take(seed, n=50):
            rng = random.Random(seed)
            out = []
            for t in proc.times(rng):
                out.append(t)
                if len(out) == n:
                    return out

        a, b, c = take("s"), take("s"), take("other")
        assert a == b != c
        assert all(x < y for x, y in zip(a, a[1:]))


# ----------------------------------------------------------------- library
class TestScenarioLibrary:
    def test_names_sorted_and_resolvable(self):
        assert list(SCENARIO_NAMES) == sorted(SCENARIOS)
        for name in SCENARIO_NAMES:
            spec = get_scenario(name)
            assert spec.name == name
            assert describe_scenario(spec)  # renders without error

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="rack-loss"):
            get_scenario("no-such-drill")

    def test_steady_is_the_only_noop(self):
        noops = [n for n in SCENARIO_NAMES if get_scenario(n).is_noop]
        assert noops == ["steady"]

    def test_with_redundancy_composes_without_mutation(self):
        base = get_scenario("rack-loss")
        plus = base.with_redundancy(2)
        assert plus.name == "rack-loss+n2"
        assert len(plus.faults) == len(base.faults) + 1
        assert isinstance(plus.faults[-1], RedundancyOutage)
        assert plus.faults[-1].count == 2
        assert get_scenario("rack-loss") == base  # library untouched
        assert base.with_redundancy(0) is base
        with pytest.raises(ValueError):
            base.with_redundancy(-1)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_library_json_round_trip(self, name):
        spec = get_scenario(name)
        assert from_record(ScenarioSpec, to_record(spec)) == spec

    def test_core_serializer_stamps_schema(self):
        record = to_record(get_scenario("flash-crowd"))
        assert record["schema"] == ScenarioSpec.record_schema
        json.dumps(record)  # JSON-clean
        assert from_record(ScenarioSpec, record) == get_scenario("flash-crowd")
        record["schema"] = 99
        with pytest.raises(ValueError):
            from_record(ScenarioSpec, record)


# ---------------------------------------------------- no-op differential
def _strip_scenario(result):
    """Drop the scenario metadata, keeping every simulation output."""
    return dataclasses.replace(
        result, scenario=None, incidents=(), resilience=None
    )


class TestNoopDifferential:
    def test_steady_scenario_is_bit_exact(self, toy_design):
        """The RNG-substream audit, as a regression test.

        Fault injection draws from ``{seed}/scenario/faults`` and the
        health filter only engages when outages exist, so a no-op
        scenario must reproduce a plain run *exactly* — same event
        order, same draws, same floats.
        """
        for balancer in ("round-robin", "random", "least-outstanding"):
            plain = _fleet(toy_design, 3, 2.5, seed=11, balancer=balancer)
            steady = _fleet(toy_design, 3, 2.5, seed=11, balancer=balancer,
                            scenario="steady")
            assert steady.scenario == "steady"
            assert steady.resilience is not None
            assert _strip_scenario(steady) == plain

    def test_fault_draws_do_not_shift_arrivals(self, toy_design):
        """Faults consume their own substream: arrival times (hence
        aggregate arrival counts over a fixed horizon) are identical
        whether or not replicas are dying."""
        plain = _fleet(toy_design, 4, 2.0, seed=3)
        chaos = _fleet(toy_design, 4, 2.0, seed=3, scenario="chaos")
        assert chaos.total_arrivals == plain.total_arrivals

    def test_same_seed_same_scenario_reproduces(self, toy_design):
        a = _fleet(toy_design, 3, 2.0, seed=5, scenario="rack-loss")
        b = _fleet(toy_design, 3, 2.0, seed=5, scenario="rack-loss")
        assert a == b


# -------------------------------------------------- conservation property
FAULTY = [
    "rack-loss", "rolling-reboot", "chaos",
    # Gray drills: stragglers, flaky boards, slow links — these embed
    # probe detectors with request timeouts, so the property also
    # covers the timed_out / failed_over classes.
    "gray-failure", "straggler-storm", "flaky-replica",
]


class TestConservation:
    @FAST
    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(FAULTY),
        policy=st.sampled_from(FAILURE_POLICIES),
        queue_depth=st.sampled_from([2, 8, 10**6]),
        drain=st.booleans(),
    )
    def test_requests_conserved_under_failures(
        self, toy_design, seed, name, policy, queue_depth, drain
    ):
        base = get_scenario(name)
        scenario = dataclasses.replace(base, failure_policy=policy)
        result = _fleet(toy_design, 3, 3.0, seed=seed, scenario=scenario,
                        queue_depth=queue_depth, drain=drain)
        total = {"arrivals": 0, "out": 0}
        for tenant in result.tenants:
            out = (tenant.completions + tenant.drops + tenant.lost
                   + tenant.timed_out + tenant.in_flight)
            assert tenant.arrivals == out, tenant
            # A logical request increments failed_over at most once no
            # matter how many failover hops it takes.
            assert 0 <= tenant.failed_over <= tenant.arrivals
            total["arrivals"] += tenant.arrivals
            total["out"] += out
        assert total["arrivals"] == total["out"]
        if drain:
            assert all(t.in_flight == 0 for t in result.tenants)

    def test_fault_scenarios_actually_lose_requests(self, toy_design):
        """The property above is vacuous if nothing ever dies."""
        result = _fleet(toy_design, 4, 3.0, seed=0, scenario="rack-loss",
                        drain=True)
        assert result.total("lost") > 0
        assert any(i.kind == "fault" for i in result.incidents)


# ------------------------------------------------------------ N+k planner
class TestRedundancyPlanning:
    def _plan(self, design, redundancy, scenario="rack-loss"):
        capacity = 1e8 / design.epoch_cycles  # one board's img/s @100MHz
        slo = SLOSpec(p99_ms=5.0, max_drop_rate=0.25)
        return plan_capacity(
            DeviceSpec(design), 3.0 * capacity, slo,
            max_replicas=32, duration_ms=10.0, seed=0,
            scenario=scenario, redundancy=redundancy,
        )

    def test_redundant_plan_never_smaller(self, toy_design):
        base = self._plan(toy_design, 0)
        plus1 = self._plan(toy_design, 1)
        assert base.meets and plus1.meets
        assert plus1.replicas >= base.replicas
        assert plus1.replicas >= 2  # floor: must outlive the forced failure
        assert plus1.scenario == "rack-loss+n1"
        assert plus1.redundancy == 1
        assert plus1.result is not None
        assert plus1.result.resilience is not None

    def test_redundancy_without_scenario_uses_steady(self, toy_design):
        plan = self._plan(toy_design, 1, scenario=None)
        assert plan.scenario == "steady+n1"
        assert plan.replicas >= 2

    def test_redundancy_validation(self, toy_design):
        with pytest.raises(ValueError):
            self._plan(toy_design, -1)
        slo = SLOSpec(p99_ms=5.0, max_drop_rate=0.25)
        with pytest.raises(ValueError):
            plan_capacity(DeviceSpec(toy_design), 1000.0, slo,
                          max_replicas=2, redundancy=2)


# ----------------------------------------------- incident-aware autoscaler
def _window(p99_cycles, completions=100):
    return WindowMetrics(
        cycles=1e6, completions=completions,
        goodput_per_cycle=completions / 1e6,
        p99_cycles=p99_cycles, p50_cycles=p99_cycles,
    )


def _synthetic_result(window_p99_ms, during_p99_ms):
    """A 100 MHz fleet window: 1 ms == 1e5 cycles."""
    latency = LatencySummary(
        count=100, mean=window_p99_ms * 1e5, p50=window_p99_ms * 1e5,
        p95=window_p99_ms * 1e5, p99=window_p99_ms * 1e5,
        min=1.0, max=window_p99_ms * 1e5,
    )
    tenant = TenantStats(
        name="t", offered_rate_per_cycle=1e-4, arrivals=100,
        completions=100, drops=0, in_flight=0, latency=latency,
        mean_queue_depth=0.0, peak_queue_depth=1,
        steady_rate_per_cycle=1e-4,
    )
    resilience = ResilienceReport(
        availability=1.0, incident_cycles=2e5, lost_requests=0,
        mean_time_to_recover_cycles=None,
        during=_window(during_p99_ms * 1e5, completions=10),
        outside=_window(window_p99_ms * 1e5),
    )
    return FleetResult(
        balancer="round-robin", num_replicas=2, frequency_mhz=100.0,
        horizon_cycles=1e6, elapsed_cycles=1e6, seed=0, queue_depth=64,
        policy="drop-tail", drained=False, tenants=(tenant,),
        replicas=(), scenario="flash-crowd",
        incidents=(Incident("surge", "fleet", 4e5, 6e5, True),),
        resilience=resilience,
    )


class TestIncidentAwareAutoscaler:
    POLICY = AutoscalerPolicy(min_replicas=1, max_replicas=8, step=2,
                              p99_high_ms=100.0, p99_low_ms=None,
                              queue_high=None, queue_low=None)

    def test_scales_up_on_in_window_degradation(self):
        """Window-wide p99 is calm (50 ms); the flash crowd inside it is
        not (300 ms).  The incident-aware controller reacts now."""
        result = _synthetic_result(window_p99_ms=50.0, during_p99_ms=300.0)
        assert self.POLICY.decide(result) > 0

    def test_without_resilience_report_reacts_a_window_late(self):
        """The miss this feature fixes: strip the resilience report and
        the same window reads as healthy — the controller holds."""
        blind = dataclasses.replace(
            _synthetic_result(50.0, 300.0), resilience=None
        )
        assert self.POLICY.decide(blind) == 0

    def test_calm_incident_does_not_trigger(self):
        result = _synthetic_result(window_p99_ms=50.0, during_p99_ms=60.0)
        assert self.POLICY.decide(result) == 0


# ------------------------------------------------------ resilience metrics
class TestResilienceMetrics:
    def test_split_by_incident_windows(self):
        incidents = (Incident("fault", "r0", 100.0, 200.0, True),)
        completions = [(150.0, 10.0), (150.0, 30.0), (500.0, 20.0)]
        report = compute_resilience(
            completions=completions, incidents=incidents,
            horizon_cycles=1000.0, num_replicas=2, lost_requests=3,
        )
        assert report.during.completions == 2
        assert report.outside.completions == 1
        assert report.lost_requests == 3
        assert report.incident_cycles == pytest.approx(100.0)
        # one replica down 100 of 2 * 1000 replica-cycles
        assert report.availability == pytest.approx(1 - 100.0 / 2000.0)
        assert report.mean_time_to_recover_cycles == pytest.approx(100.0)

    def test_no_incidents_means_full_availability(self):
        report = compute_resilience(
            completions=[(10.0, 5.0)], incidents=(),
            horizon_cycles=100.0, num_replicas=3, lost_requests=0,
        )
        assert report.availability == 1.0
        assert report.during.completions == 0
        assert report.during.p99_cycles is None
        assert report.outside.completions == 1

    def test_overlapping_windows_union(self):
        incidents = (
            Incident("fault", "r0", 100.0, 300.0, True),
            Incident("surge", "fleet", 200.0, 400.0, True),
        )
        report = compute_resilience(
            completions=[], incidents=incidents,
            horizon_cycles=1000.0, num_replicas=1, lost_requests=0,
        )
        assert report.incident_cycles == pytest.approx(300.0)  # union

    def test_report_independent_of_hash_seed(self):
        """Per-replica downtime folds in first-incident order, so the
        report's floats do not follow the string hash of target names.

        One huge outage absorbs each 1-cycle outage folded after it
        (2**53 + 1.0 rounds back to 2**53), so every fold order gives a
        different ``availability``; a fold over a set of names differs
        between hash seeds."""
        import repro

        script = (
            "from repro.scenario import Incident, compute_resilience\n"
            "big = float(2 ** 53)\n"
            "incidents = (Incident('fault', 'board-big', 0.0, big, True),)"
            " + tuple(Incident('fault', f'board-{k}', 0.0, 1.0, True)"
            " for k in range(16))\n"
            "print(repr(compute_resilience(completions=[(1.0, 1.0)],"
            " incidents=incidents, horizon_cycles=big + 64.0,"
            " num_replicas=1, lost_requests=0)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        reports = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1", "2", "3")
        }
        assert len(reports) == 1
        # Folded big-first, every 1-cycle outage is absorbed.
        assert "availability=7.105427357601002e-15" in reports.pop()


# ------------------------------------------------------------ serialization
class TestScenarioSerialization:
    def test_fleet_result_round_trip_with_incidents(self, toy_design):
        result = _fleet(toy_design, 3, 2.5, seed=2, scenario="rack-loss",
                        drain=True)
        assert result.incidents  # non-trivial payload
        record = json.loads(json.dumps(to_record(result)))
        assert from_record(FleetResult, record) == result

    def test_pre_scenario_records_still_parse(self, toy_design):
        """Tolerant parsing: records written before this feature have no
        lost/scenario/incidents/resilience keys."""
        plain = _fleet(toy_design, 2, 2.0, seed=1)
        record = to_record(plain)
        for key in ("scenario", "incidents", "resilience"):
            record.pop(key)
        for entry in record["tenants"]:
            entry.pop("lost")
        for replica in record["replicas"]:
            for entry in replica["tenants"]:
                entry.pop("lost")
        assert from_record(FleetResult, record) == plain


# ------------------------------------------------------- resilience rank
class TestResilienceRanking:
    def test_rank_through_a_drill(self, sweep_results):
        from repro.dse import rank_by_resilience, resilience_rank_table

        slo = SLOSpec(p99_ms=2000.0, max_drop_rate=0.25)
        rankings = rank_by_resilience(
            sweep_results, rate_rps=20.0, slo=slo,
            scenario="rack-loss", replicas=4, duration_ms=400.0,
        )
        assert len(rankings) == 2
        for ranking in rankings:
            assert ranking.fleet.scenario == "rack-loss"
            assert ranking.fleet.resilience is not None
        # SLO-meeting designs sort ahead of failing ones.
        meets = [r.report.meets for r in rankings]
        assert meets == sorted(meets, reverse=True)
        table = resilience_rank_table(
            rankings, rate_rps=20.0, slo=slo, scenario="rack-loss"
        )
        assert "rack-loss" in table and "avail" in table

    def test_unknown_scenario_raises(self, sweep_results):
        from repro.dse import rank_by_resilience

        with pytest.raises(KeyError):
            rank_by_resilience(
                sweep_results, rate_rps=20.0,
                slo=SLOSpec(p99_ms=2000.0), scenario="no-such-drill",
            )


# ------------------------------------------------------------------- CLI
class TestScenarioCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_list_names_every_scenario(self, capsys):
        out = self._run(capsys, "scenario", "list")
        for name in SCENARIO_NAMES:
            assert name in out

    def test_list_json_is_machine_readable(self, capsys):
        out = self._run(capsys, "scenario", "list", "--json")
        assert json.loads(out) == list(SCENARIO_NAMES)

    def test_describe_round_trips_through_json(self, capsys):
        out = self._run(capsys, "scenario", "describe", "rack-loss",
                        "--json")
        assert from_record(ScenarioSpec, json.loads(out)) == \
            get_scenario("rack-loss")

    def test_describe_unknown_exits_nonzero(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenario", "describe", "no-such-drill"])

    def test_fleet_simulate_accepts_scenario_flag(self, capsys):
        out = self._run(
            capsys, "fleet", "simulate", "--network", "alexnet",
            "--replicas", "2", "--rate", "100", "--duration-ms", "400",
            "--seed", "1", "--scenario", "rack-loss",
        )
        assert "scenario: rack-loss" in out
        assert "availability" in out
