"""Tests for gray failures, detection, and timeout failover.

The load-bearing guarantees, in test order:

* :class:`DetectorSpec` validates its knobs, knows when it is inert
  (``active``), and round-trips through JSON;
* the :class:`FailureDetector` state machine ejects on probe-failure
  streaks, re-admits after probation, enforces the ejection budget,
  ejects error-rate and p99 outliers, and keeps an honest
  mean-time-to-detect ledger (lags, misses, false positives);
* **bit-exactness**: an inert oracle detector with no gray faults
  reproduces a plain run *exactly*, dict-for-dict, on both engines —
  and the fast path refuses an active detector rather than silently
  diverging;
* gray faults behave: stragglers stretch latency without dying, flaky
  boards lose requests without a detector and fail them over with one,
  and the ``detected_healthy_replicas`` gauge diverges from the oracle
  gauge exactly during detection lag;
* request timeouts convert unbounded waits into ``timed_out`` with
  conservation intact, and a run-level detector overrides the
  scenario's;
* routing runs on a cached view of the routable replicas that equals a
  fresh health filter at every route, and a probe-detected drill stays
  pinned to a record made before the view was cached;
* results carry the detector spec and MTTD through serialization, and
  legacy records (no detector keys) round-trip byte-identically.
"""

import json
import os

import pytest

from repro.core.serialize import fleet_result_from_dict, fleet_result_to_dict
from repro.fleet import DeviceSpec, plan_capacity, simulate_fleet
from repro.fleet.balancer import PowerOfTwoBalancer
from repro.fleet.detector import (
    DetectorSpec,
    FailureDetector,
    detector_spec_from_dict,
    detector_spec_to_dict,
)
from repro.obs import ObsSpec
from repro.scenario import DegradedReplica, FlakyReplica, get_scenario
from repro.serve import SLOSpec, TenantSpec, make_arrival_process
from repro.serve.arrivals import TraceArrivals

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _tenants(design, rate_mult):
    epoch = design.epoch_cycles
    proc = make_arrival_process("poisson", rate_mult / epoch)
    return [TenantSpec(design.network.name, proc)]


def _fleet(design, replicas, rate_mult, *, epochs=60, seed=0,
           queue_depth=10**6, drain=False, scenario=None, detector=None,
           engine="auto", obs=None):
    return simulate_fleet(
        DeviceSpec(design).replicated(replicas),
        _tenants(design, rate_mult),
        duration_cycles=epochs * design.epoch_cycles,
        seed=seed,
        queue_depth=queue_depth,
        drain=drain,
        scenario=scenario,
        detector=detector,
        engine=engine,
        obs=obs,
    )


def _epoch_ms(design, frequency_mhz=100.0):
    return design.epoch_cycles / (frequency_mhz * 1e6) * 1e3


# --------------------------------------------------------------- spec
class TestDetectorSpec:
    def test_defaults_are_inert(self):
        spec = DetectorSpec()
        assert spec.mode == "oracle"
        assert not spec.active

    def test_probe_and_timeout_are_active(self):
        assert DetectorSpec(mode="probe").active
        assert DetectorSpec(request_timeout_ms=1.0).active

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(mode="psychic")
        with pytest.raises(ValueError):
            DetectorSpec(probe_interval_ms=-1.0)
        with pytest.raises(ValueError):
            DetectorSpec(request_timeout_ms=0.0)
        with pytest.raises(ValueError):
            DetectorSpec(outlier_error_rate=0.0)
        with pytest.raises(ValueError):
            DetectorSpec(outlier_p99_factor=1.0)
        with pytest.raises(ValueError):
            DetectorSpec(max_eject_fraction=0.0)
        with pytest.raises(ValueError):
            DetectorSpec(unhealthy_after=0)
        with pytest.raises(ValueError):
            DetectorSpec(max_failovers=-1)

    def test_round_trip(self):
        spec = DetectorSpec(mode="probe", probe_interval_ms=0.5,
                            outlier_error_rate=0.25,
                            request_timeout_ms=2.0, max_failovers=3)
        assert detector_spec_from_dict(detector_spec_to_dict(spec)) == spec

    def test_from_dict_ignores_unknown_keys(self):
        record = detector_spec_to_dict(DetectorSpec(mode="probe"))
        record["future_knob"] = 7
        assert detector_spec_from_dict(record) == DetectorSpec(mode="probe")


# ----------------------------------------------------- state machine
def _detector(num=4, **kwargs):
    spec = DetectorSpec(mode="probe", **kwargs)
    return FailureDetector(spec, num, epoch=10.0, cycles_per_ms=100.0)


class TestFailureDetector:
    def test_probe_streak_ejects(self):
        fd = _detector()
        assert fd.record_probe(0, 40.0, ok=False) is None
        assert fd.record_probe(0, 80.0, ok=False) == "ejected"
        assert not fd.routable(0)
        assert fd.detected_healthy_count() == 3

    def test_single_failure_does_not_eject(self):
        fd = _detector()
        assert fd.record_probe(0, 40.0, ok=False) is None
        assert fd.record_probe(0, 80.0, ok=True) is None
        assert fd.record_probe(0, 120.0, ok=False) is None  # streak reset
        assert fd.routable(0)

    def test_readmission_waits_for_probation(self):
        fd = _detector()
        fd.record_probe(0, 40.0, ok=False)
        fd.record_probe(0, 80.0, ok=False)
        # probation = 2 * probe_interval = 80 cycles from ejection (t=80)
        assert fd.record_probe(0, 120.0, ok=True) is None
        assert fd.record_probe(0, 160.0, ok=True) == "readmitted"
        assert fd.routable(0)

    def test_ejection_budget_always_leaves_survivors(self):
        fd = _detector(num=4)  # max_eject_fraction=0.5 -> at most 2
        for index in (0, 1, 2):
            fd.record_probe(index, 40.0, ok=False)
            fd.record_probe(index, 80.0, ok=False)
        assert fd.detected_healthy_count() == 2
        assert fd.routable(2)  # budget exhausted; third stays in

    def test_error_rate_outlier_ejected(self):
        fd = _detector(outlier_error_rate=0.5, min_requests=5)
        for _ in range(5):
            fd.record_error(1)
            fd.record_success(0, 10.0)
        assert fd.evaluate_outliers(100.0) == [(1, "error-rate")]
        assert not fd.routable(1)

    def test_p99_outlier_ejected(self):
        fd = _detector(outlier_error_rate=None, outlier_p99_factor=2.0,
                       min_requests=1)
        for index in (0, 1, 2):
            for _ in range(5):
                fd.record_success(index, 10.0)
        for _ in range(5):
            fd.record_success(3, 100.0)
        assert fd.evaluate_outliers(100.0) == [(3, "p99-outlier")]

    def test_outlier_window_resets(self):
        fd = _detector(outlier_error_rate=0.5, min_requests=5)
        for _ in range(5):
            fd.record_error(1)
        fd.evaluate_outliers(100.0)
        # Fresh window: old errors must not eject anyone again.
        fd._readmit(1)
        assert fd.evaluate_outliers(200.0) == []

    def test_mttd_ledger(self):
        fd = _detector()
        fd.note_onset(0, 100.0)
        fd.record_probe(0, 120.0, ok=False)
        fd.record_probe(0, 150.0, ok=False)
        assert fd.detection_lags == [50.0]
        assert fd.mean_time_to_detect() == 50.0

    def test_missed_detection_counted(self):
        fd = _detector()
        fd.note_onset(1, 10.0)
        fd.note_clear(1, 20.0)
        assert fd.missed_detections == 1
        assert fd.mean_time_to_detect() is None

    def test_false_positive_counted(self):
        fd = _detector()
        fd.record_probe(2, 40.0, ok=False)
        fd.record_probe(2, 80.0, ok=False)
        assert fd.false_positives == 1

    def test_onset_while_ejected_is_zero_lag(self):
        fd = _detector()
        fd.record_probe(0, 40.0, ok=False)
        fd.record_probe(0, 80.0, ok=False)
        fd.note_onset(0, 90.0)
        assert fd.detection_lags[-1] == 0.0


# ------------------------------------------------------ bit-exactness
class TestBitExactness:
    def test_inert_oracle_detector_is_bit_exact(self, toy_design):
        """An oracle spec with no timeout must change *nothing*."""
        for engine in ("event", "fast"):
            plain = _fleet(toy_design, 3, 2.5, seed=11, engine=engine)
            oracle = _fleet(toy_design, 3, 2.5, seed=11, engine=engine,
                            detector=DetectorSpec(mode="oracle"))
            assert oracle.detector is None  # inert spec leaves no trace
            assert fleet_result_to_dict(oracle) == fleet_result_to_dict(plain)

    def test_fast_engine_refuses_active_detector(self, toy_design):
        with pytest.raises(ValueError, match="detector"):
            _fleet(toy_design, 3, 2.5, engine="fast",
                   detector=DetectorSpec(mode="probe"))

    def test_auto_engine_accepts_active_detector(self, toy_design):
        result = _fleet(toy_design, 3, 2.5, engine="auto",
                        detector=DetectorSpec(mode="probe"))
        assert result.detector is not None
        assert result.detector.mode == "probe"

    def test_gray_runs_reproduce(self, toy_design):
        a = _fleet(toy_design, 4, 2.5, seed=9, scenario="gray-failure")
        b = _fleet(toy_design, 4, 2.5, seed=9, scenario="gray-failure")
        assert fleet_result_to_dict(a) == fleet_result_to_dict(b)


# ------------------------------------------------------ gray behavior
class TestGrayBehavior:
    def test_straggler_stretches_latency(self, toy_design):
        slow = get_scenario("steady").faults + (
            DegradedReplica(replica=0, slowdown=8.0, start=0.1, duration=0.8),
        )
        import dataclasses
        scenario = dataclasses.replace(
            get_scenario("steady"), name="one-straggler", faults=slow
        )
        plain = _fleet(toy_design, 2, 1.5, seed=3, drain=True)
        gray = _fleet(toy_design, 2, 1.5, seed=3, drain=True,
                      scenario=scenario)
        assert any(i.kind == "gray" for i in gray.incidents)
        # Same arrivals (faults draw on their own substream), worse tail.
        assert gray.total_arrivals == plain.total_arrivals
        worst = max(t.latency.p99 for t in gray.tenants if t.latency)
        base = max(t.latency.p99 for t in plain.tenants if t.latency)
        assert worst > base

    def test_flaky_without_detector_loses(self, toy_design):
        import dataclasses
        scenario = dataclasses.replace(
            get_scenario("steady"), name="flaky-bare",
            faults=(FlakyReplica(replica=0, error_rate=0.8,
                                 start=0.05, duration=0.9),),
        )
        result = _fleet(toy_design, 2, 2.0, seed=1, drain=True,
                        scenario=scenario)
        assert result.total_lost > 0
        assert result.total_failed_over == 0  # no detector, no budget

    def test_flaky_with_detector_fails_over(self, toy_design):
        result = _fleet(toy_design, 3, 2.0, seed=1, drain=True,
                        scenario="flaky-replica")
        assert result.total_failed_over > 0
        # Failover rescues attempts a bare flaky board would lose.
        assert any(i.kind == "gray" for i in result.incidents)

    def test_detected_gauge_diverges_during_lag(self, toy_design):
        """Satellite: oracle vs detected health, side by side.

        Gray replicas stay oracle-healthy (that is the point), so the
        ``healthy_replicas`` gauge never moves while probe ejections
        drag ``detected_healthy_replicas`` below it.
        """
        result = _fleet(toy_design, 4, 2.0, seed=5, epochs=80,
                        scenario="gray-failure",
                        obs=ObsSpec(timeseries=True, windows=16))
        ts = result.timeseries
        assert ts is not None
        oracle = [v for v in ts.get("healthy_replicas") if v is not None]
        detected = [
            v for v in ts.get("detected_healthy_replicas") if v is not None
        ]
        assert oracle and detected
        assert max(oracle) == 4.0 and min(oracle) == 4.0  # gray != down
        assert min(detected) < 4.0  # ejections happened
        assert result.resilience is not None
        assert result.resilience.mean_time_to_detect_cycles is not None

    def test_no_detector_means_no_mttd(self, toy_design):
        result = _fleet(toy_design, 3, 2.0, seed=0, scenario="rack-loss")
        assert result.resilience is not None
        assert result.resilience.mean_time_to_detect_cycles is None


# --------------------------------------------------- timeout failover
class TestTimeoutFailover:
    def test_timeouts_convert_waits_and_conserve(self, toy_design):
        epoch_ms = _epoch_ms(toy_design)
        detector = DetectorSpec(request_timeout_ms=3.0 * epoch_ms,
                                max_failovers=1)
        result = _fleet(toy_design, 2, 4.0, seed=2, drain=True,
                        detector=detector)
        assert result.total_timed_out > 0
        for tenant in result.tenants:
            out = (tenant.completions + tenant.drops + tenant.lost
                   + tenant.timed_out + tenant.in_flight)
            assert tenant.arrivals == out
            assert 0 <= tenant.failed_over <= tenant.arrivals
        text = result.format()
        assert "timed-out" in text

    def test_equal_timestamps_keep_separate_failover_budgets(
        self, toy_design
    ):
        """Requests that share an arrival time are still distinct
        requests: each has its own failover budget and attempt clock,
        so a burst at one timestamp fares exactly like the same burst
        spread a hair apart (no sweep falls between the two)."""
        epoch = toy_design.epoch_cycles
        timeout = 1.5 * epoch
        detector = DetectorSpec(
            request_timeout_ms=1.5 * _epoch_ms(toy_design), max_failovers=2
        )
        t0 = 0.25 * timeout + 0.5 * epoch

        def run(times):
            return simulate_fleet(
                DeviceSpec(toy_design).replicated(2),
                [TenantSpec(toy_design.network.name, TraceArrivals(times))],
                duration_cycles=20 * epoch,
                balancer="round-robin",
                queue_depth=10**6,
                drain=True,
                detector=detector,
            ).tenants[0]

        same = run([t0] * 12)
        spread = run([t0 + i * 1e-3 for i in range(12)])
        assert spread.completions == 12
        assert (same.failed_over, same.timed_out, same.completions) == (
            spread.failed_over, spread.timed_out, spread.completions
        )

    def test_plain_format_has_no_timeout_columns(self, toy_design):
        text = _fleet(toy_design, 2, 1.0).format()
        assert "timed-out" not in text
        assert "failed-over" not in text

    def test_run_level_detector_overrides_scenario(self, toy_design):
        """gray-failure ships a probe detector; an explicit oracle spec
        (no timeout) must win and disable timeouts entirely."""
        result = _fleet(toy_design, 4, 2.0, seed=5, scenario="gray-failure",
                        detector=DetectorSpec(mode="oracle"))
        assert result.detector is not None
        assert result.detector.mode == "oracle"
        assert result.total_timed_out == 0

    def test_plan_capacity_accepts_detector(self, toy_design):
        plan = plan_capacity(
            DeviceSpec(toy_design),
            200.0,
            SLOSpec(max_drop_rate=0.5),
            max_replicas=4,
            duration_ms=2.0 * _epoch_ms(toy_design),
            scenario="flaky-replica",
        )
        assert plan.scenario == "flaky-replica"
        assert plan.probes


# ------------------------------------------------------- routing view
class _SpyBalancer(PowerOfTwoBalancer):
    """Power-of-two routing that checks every target set it is handed
    against a brute-force health filter over the replicas."""

    name = "spy"

    def __init__(self, gray_aware):
        self.gray_aware = gray_aware
        self.filtered = 0
        self.failovers = 0

    def route(self, tenant, eligible, now):
        expected = tuple(
            replica.index
            for replica in self._replicas
            if replica.serves(tenant)
            and replica.healthy
            and not (self.gray_aware and replica.degraded)
        )
        if len(expected) < len(self._replicas):
            self.filtered += 1
        if tuple(eligible) != expected:
            # Failover leaves out exactly the replica it is leaving.
            missing = [i for i in expected if i not in eligible]
            assert len(missing) == 1, (eligible, expected)
            assert tuple(eligible) == tuple(
                i for i in expected if i != missing[0]
            )
            self.failovers += 1
        return super().route(tenant, eligible, now)


class TestRoutingView:
    @pytest.mark.parametrize("replicas", [3, 7, 16])
    @pytest.mark.parametrize(
        "scenario, oracle",
        [
            ("chaos", False),
            ("chaos", True),
            ("rack-loss", False),
            ("rack-loss", True),
            ("gray-failure", True),
        ],
    )
    def test_every_route_sees_exactly_the_routable_replicas(
        self, toy_design, replicas, scenario, oracle
    ):
        """Fresh arrivals, evacuation and failover all route on the
        cached view; it must equal a fresh filter at every call."""
        detector = None
        if oracle:
            detector = DetectorSpec(
                request_timeout_ms=3.0 * _epoch_ms(toy_design),
                max_failovers=1,
            )
        spy = _SpyBalancer(gray_aware=oracle)
        result = simulate_fleet(
            DeviceSpec(toy_design).replicated(replicas),
            _tenants(toy_design, 1.2 * replicas),
            duration_cycles=60 * toy_design.epoch_cycles,
            balancer=spy,
            seed=replicas,
            queue_depth=10**6,
            scenario=scenario,
            detector=detector,
        )
        assert spy.filtered > 0
        # With one failover allowed, each failover is one route.
        assert spy.failovers <= result.total_failed_over
        if oracle:
            assert result.total_failed_over > 0

    def test_probe_run_is_pinned(self, toy_design):
        """Power-of-two + chaos + probe detection with timeout failover,
        pinned dict-for-dict to a record made before routing was cached."""
        result = simulate_fleet(
            DeviceSpec(toy_design).replicated(6),
            _tenants(toy_design, 4.5),
            duration_cycles=80 * toy_design.epoch_cycles,
            balancer="power-of-two",
            seed=7,
            queue_depth=10**6,
            drain=True,
            scenario="chaos",
            detector=DetectorSpec(
                mode="probe",
                request_timeout_ms=4.0 * _epoch_ms(toy_design),
                max_failovers=2,
            ),
        )
        path = os.path.join(DATA_DIR, "probe_chaos_power_of_two_run.json")
        with open(path) as handle:
            pinned = json.load(handle)
        assert json.loads(json.dumps(fleet_result_to_dict(result))) == pinned
        assert result.total_failed_over > 0
        assert result.resilience.mean_time_to_detect_cycles is not None

    def test_detector_version_tracks_ejections(self):
        fd = _detector()
        assert fd.version == 0
        fd.record_probe(0, 40.0, ok=False)
        assert fd.version == 0  # one failure is not an ejection
        fd.record_probe(0, 80.0, ok=False)
        assert fd.version == 1
        fd.record_probe(0, 120.0, ok=True)
        fd.record_probe(0, 160.0, ok=True)  # readmitted
        assert fd.version == 2
        assert fd.detected_healthy_count() == 4


# ------------------------------------------------------ serialization
class TestSerialization:
    def test_detector_and_classes_round_trip(self, toy_design):
        result = _fleet(toy_design, 4, 2.5, seed=5, drain=True,
                        scenario="gray-failure")
        record = json.loads(json.dumps(fleet_result_to_dict(result)))
        assert record["detector"]["mode"] == "probe"
        loaded = fleet_result_from_dict(record)
        assert loaded.detector == result.detector
        assert [t.timed_out for t in loaded.tenants] == [
            t.timed_out for t in result.tenants
        ]
        assert [t.failed_over for t in loaded.tenants] == [
            t.failed_over for t in result.tenants
        ]
        assert (loaded.resilience.mean_time_to_detect_cycles
                == result.resilience.mean_time_to_detect_cycles)

    def test_plain_record_has_no_detector_keys(self, toy_design):
        record = fleet_result_to_dict(_fleet(toy_design, 2, 1.0))
        assert "detector" not in record
        for tenant in record["tenants"]:
            assert "timed_out" not in tenant
            assert "failed_over" not in tenant

    @pytest.mark.parametrize(
        "filename", ["sample_fleet_run.json", "sample_overload_run.json"]
    )
    def test_legacy_records_round_trip_byte_identical(self, filename):
        """Satellite: pre-detector records re-serialize unchanged."""
        path = os.path.join(DATA_DIR, filename)
        with open(path) as handle:
            record = json.load(handle)
        rewritten = json.loads(
            json.dumps(fleet_result_to_dict(fleet_result_from_dict(record)))
        )
        assert json.dumps(rewritten, sort_keys=True) == json.dumps(
            record, sort_keys=True
        )
        assert "detector" not in rewritten
        resilience = rewritten.get("resilience")
        if resilience is not None:
            assert "mean_time_to_detect_cycles" not in resilience
