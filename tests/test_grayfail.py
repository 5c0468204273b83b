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
  fresh health filter (or the probe detector's ``routable``) at every
  route, and a probe-detected drill stays pinned to a record made
  before the view was cached;
* the detector's ground-truth ledger (every onset and clear it is fed,
  and the lags, false positives and misses they end in) stays pinned
  on runs that overlap outages, gray windows and ejections;
* each board's load counter equals a fresh sum over its queues and
  pipelines at every route, on every path that changes one, and a
  least-outstanding drill stays pinned to a record made while the load
  was still that sum;
* results carry the detector spec and MTTD through serialization, and
  legacy records (no detector keys) round-trip byte-identically.
"""

import collections
import contextlib
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import from_record, to_record
from repro.fleet import (
    DeviceSpec,
    make_balancer,
    plan_capacity,
    simulate_fleet,
)
from repro.fleet.balancer import LeastOutstandingBalancer, PowerOfTwoBalancer
from repro.fleet.cluster import Replica, _FleetRun
from repro.fleet.detector import DetectorSpec, FailureDetector
from repro.fleet.metrics import FleetResult
from repro.obs import ObsSpec
from repro.scenario import (
    DegradedReplica,
    FlakyReplica,
    RackFailure,
    RandomFaults,
    ScenarioSpec,
    get_scenario,
)
from repro.serve import SLOSpec, TenantSpec, make_arrival_process
from repro.serve.arrivals import TraceArrivals
from repro.serve.overload import OverloadSpec

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
        assert from_record(DetectorSpec, to_record(spec)) == spec

    def test_from_dict_ignores_unknown_keys(self):
        record = to_record(DetectorSpec(mode="probe"))
        record["future_knob"] = 7
        assert from_record(DetectorSpec, record) == DetectorSpec(mode="probe")


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
            assert to_record(oracle) == to_record(plain)

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
        assert to_record(a) == to_record(b)


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
        assert result.total("lost") > 0
        assert result.total("failed_over") == 0  # no detector, no budget

    def test_flaky_with_detector_fails_over(self, toy_design):
        result = _fleet(toy_design, 3, 2.0, seed=1, drain=True,
                        scenario="flaky-replica")
        assert result.total("failed_over") > 0
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


# ------------------------------------------------------- gray cache
_GRAY_MODES = ("slow", "flaky", "link-delay")
_GRAY_SEVERITY = {
    # Flaky severities above 1.0 check the error-rate cap.
    "slow": st.floats(1.0, 16.0),
    "flaky": st.floats(0.01, 2.0),
    "link-delay": st.floats(0.01, 8.0),
}
_gray_begin = st.sampled_from(_GRAY_MODES).flatmap(
    lambda mode: st.tuples(
        st.just("begin"), st.just(mode), _GRAY_SEVERITY[mode]
    )
)
_gray_end = st.tuples(st.just("end"), st.integers(0, 63))


class TestGrayCache:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(st.one_of(_gray_begin, _gray_end), max_size=40))
    def test_cached_service_model_matches_severity_stacks(
        self, toy_design, steps
    ):
        """Overlapping gray windows in any order: after every begin/end
        the replica's cached ``slow_factor``, ``error_rate``,
        ``link_delay_epochs`` and ``degraded`` equal the worst active
        severity per mode (error rate capped at 1.0), computed here
        from a separate model of the open windows."""
        replica = Replica(
            DeviceSpec(toy_design), 0, _tenants(toy_design, 1.0),
            queue_depth=4, policy="drop-tail",
        )
        open_windows = []
        for step in steps:
            if step[0] == "begin":
                _, mode, severity = step
                replica.gray_begin(mode, severity)
                open_windows.append((mode, severity))
            elif open_windows:
                mode, severity = open_windows.pop(step[1] % len(open_windows))
                replica.gray_end(mode, severity)
            stacks = {
                mode: [sev for m, sev in open_windows if m == mode]
                for mode in _GRAY_MODES
            }
            assert replica.slow_factor == (
                max(stacks["slow"]) if stacks["slow"] else 1.0
            )
            assert replica.error_rate == (
                min(1.0, max(stacks["flaky"])) if stacks["flaky"] else 0.0
            )
            assert replica.link_delay_epochs == (
                max(stacks["link-delay"]) if stacks["link-delay"] else 0.0
            )
            assert replica.degraded == bool(open_windows)
            assert replica.healthy


# --------------------------------------------------- timeout failover
class TestTimeoutFailover:
    def test_timeouts_convert_waits_and_conserve(self, toy_design):
        epoch_ms = _epoch_ms(toy_design)
        detector = DetectorSpec(request_timeout_ms=3.0 * epoch_ms,
                                max_failovers=1)
        result = _fleet(toy_design, 2, 4.0, seed=2, drain=True,
                        detector=detector)
        assert result.total("timed_out") > 0
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
        assert result.total("timed_out") == 0

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
def _assert_load_counters(replicas):
    """Each board's ``outstanding`` counter equals a fresh sum over its
    tenant queues and pipelines."""
    for replica in replicas:
        assert replica.outstanding == sum(
            len(state.queue) + state.pipeline
            for state in replica.states.values()
        ), replica.label


class _CounterCheck:
    """Routing mixin: check every board's load counter at every route."""

    routes = 0

    def route(self, tenant, eligible, now):
        _assert_load_counters(self._replicas)
        self.routes += 1
        return super().route(tenant, eligible, now)


class _LeastOutstandingSpy(_CounterCheck, LeastOutstandingBalancer):
    name = "least-outstanding-spy"


class _PowerOfTwoSpy(_CounterCheck, PowerOfTwoBalancer):
    name = "power-of-two-spy"


@contextlib.contextmanager
def _built_detectors():
    """Collect every :class:`FailureDetector` built inside the block."""
    built, init = [], FailureDetector.__init__

    def spy_init(fdet, *args, **kwargs):
        init(fdet, *args, **kwargs)
        built.append(fdet)

    with mock.patch.object(FailureDetector, "__init__", spy_init):
        yield built


class _CountingViews(dict):
    """A routing-view cache that counts how often a view is rebuilt."""

    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def __setitem__(self, name, targets):
        self.counts["rebuilds"] += 1
        super().__setitem__(name, targets)


class _SpyBalancer(_CounterCheck, PowerOfTwoBalancer):
    """Power-of-two routing that checks every target set it is handed
    against a brute-force filter over the replicas (and every board's
    load counter): oracle health, or with ``detectors`` (filled with the
    run's probe detector as it is built) that detector's ``routable``."""

    name = "spy"

    def __init__(self, gray_aware, detectors=None):
        self.gray_aware = gray_aware
        self.detectors = detectors
        self.filtered = 0
        self.failovers = 0

    def _fresh(self, replica):
        if self.detectors is not None:
            (fdet,) = self.detectors
            return fdet.routable(replica.index)
        return replica.healthy and not (self.gray_aware and replica.degraded)

    def route(self, tenant, eligible, now):
        expected = tuple(
            replica.index
            for replica in self._replicas
            if replica.serves(tenant) and self._fresh(replica)
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


def _least_outstanding_drill(design, balancer="least-outstanding"):
    """Four boards, a rack loss, EDF with deadlines, short queues and
    timeout failover: every load change a board's counter follows."""
    epoch_ms = _epoch_ms(design)
    tenant = TenantSpec(
        design.network.name,
        make_arrival_process("poisson", 4.5 / design.epoch_cycles),
        deadline_ms=6.0 * epoch_ms,
    )
    return simulate_fleet(
        DeviceSpec(design).replicated(4),
        [tenant],
        duration_cycles=80 * design.epoch_cycles,
        balancer=balancer,
        seed=3,
        queue_depth=8,
        drain=True,
        scenario="rack-loss",
        overload=OverloadSpec(queue_policy="edf"),
        detector=DetectorSpec(
            request_timeout_ms=3.0 * epoch_ms, max_failovers=2
        ),
    )


class TestLoadCounters:
    """``Replica.outstanding`` is a counter kept by the tenant states;
    each case drives one way a board's load changes (queue, evict, drop,
    admit, complete, expire, fail over, error, die, evacuate) and checks
    the counter against a fresh sum at every route and after the run."""

    @pytest.mark.parametrize("spy", [_LeastOutstandingSpy, _PowerOfTwoSpy])
    @pytest.mark.parametrize(
        "case, booked",
        [
            ("drop-head", "drops"),
            ("drop-tail", "drops"),
            ("rack-requeue", "lost"),
            ("rack-lost", "lost"),
            ("probe-timeout", "failed_over"),
            ("flaky", "failed_over"),
            ("edf-deadlines", "expired"),
        ],
    )
    def test_counter_matches_the_queues_at_every_route(
        self, toy_design, spy, case, booked
    ):
        epoch = toy_design.epoch_cycles
        epoch_ms = _epoch_ms(toy_design)
        balancer = spy()
        if case == "edf-deadlines":
            result = _least_outstanding_drill(toy_design, balancer)
        else:
            kwargs = {
                "drop-head": dict(policy="drop-head", queue_depth=2),
                "drop-tail": dict(queue_depth=2),
                "rack-requeue": dict(scenario="rack-loss", queue_depth=4),
                "rack-lost": dict(
                    scenario=ScenarioSpec(
                        "lost-rack", failure_policy="lost",
                        faults=(RackFailure(fraction=0.5, start=0.4,
                                            duration=0.25),),
                    ),
                ),
                "probe-timeout": dict(
                    scenario="chaos",
                    detector=DetectorSpec(
                        mode="probe", request_timeout_ms=3.0 * epoch_ms,
                        max_failovers=2,
                    ),
                ),
                "flaky": dict(scenario="flaky-replica", queue_depth=6),
            }[case]
            result = simulate_fleet(
                DeviceSpec(toy_design).replicated(4),
                _tenants(toy_design, 4.2),
                duration_cycles=80 * epoch,
                balancer=balancer,
                seed=5,
                drain=True,
                **kwargs,
            )
        assert balancer.routes > 0
        assert sum(getattr(t, booked) for t in result.tenants) > 0
        _assert_load_counters(balancer._replicas)

    def test_fast_path_sets_the_counter(self, toy_design):
        """A fast-path run fills the tenant states directly; the
        counters it leaves agree with them."""
        balancer = make_balancer("round-robin")
        simulate_fleet(
            DeviceSpec(toy_design).replicated(3),
            _tenants(toy_design, 3.6),
            duration_cycles=40 * toy_design.epoch_cycles,
            balancer=balancer,
            engine="fast",
        )
        _assert_load_counters(balancer._replicas)
        assert all(replica.outstanding for replica in balancer._replicas)


class TestRoutingView:
    @pytest.mark.parametrize("replicas", [3, 7, 16])
    @pytest.mark.parametrize(
        "scenario, mode",
        [
            ("chaos", None),
            ("chaos", "oracle"),
            ("chaos", "probe"),
            ("rack-loss", None),
            ("rack-loss", "oracle"),
            ("gray-failure", "oracle"),
            ("gray-failure", "probe"),
        ],
    )
    def test_every_route_sees_exactly_the_routable_replicas(
        self, toy_design, replicas, scenario, mode
    ):
        """Fresh arrivals, evacuation and failover all route on the
        cached view; it must equal a fresh filter at every call."""
        detector = None
        if mode is not None:
            detector = DetectorSpec(
                mode=mode,
                request_timeout_ms=3.0 * _epoch_ms(toy_design),
                max_failovers=1,
            )
        with _built_detectors() as built:
            spy = _SpyBalancer(
                gray_aware=mode == "oracle",
                detectors=built if mode == "probe" else None,
            )
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
        assert spy.failovers <= result.total("failed_over")
        if mode is not None:
            assert result.total("failed_over") > 0

    @pytest.mark.parametrize("scenario", ["chaos", "gray-failure"])
    def test_probe_views_rebuild_only_on_detector_flips(
        self, toy_design, scenario
    ):
        """Under probing ``routable`` reads only ejections, so outages and
        gray windows keep the views: each tenant builds its view once,
        then at most once more per ejection or readmission."""
        counts = collections.Counter()
        routing = _FleetRun._routing
        eject, readmit = FailureDetector._eject, FailureDetector._readmit

        def spy_routing(run, detector):
            routing(run, detector)
            run.views = _CountingViews(counts)

        def spy_eject(fdet, index, now):
            flipped = eject(fdet, index, now)
            counts["flips"] += flipped
            return flipped

        def spy_readmit(fdet, index):
            readmit(fdet, index)
            counts["flips"] += 1

        with mock.patch.object(_FleetRun, "_routing", spy_routing), \
                mock.patch.object(FailureDetector, "_eject", spy_eject), \
                mock.patch.object(FailureDetector, "_readmit", spy_readmit):
            result = _fleet(toy_design, 8, 6.0, epochs=120, seed=3,
                            scenario=scenario,
                            detector=DetectorSpec(mode="probe"))
        assert counts["rebuilds"] <= len(result.tenants) * (1 + counts["flips"])

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
        assert json.loads(json.dumps(to_record(result))) == pinned
        assert result.total("failed_over") > 0
        assert result.resilience.mean_time_to_detect_cycles is not None

    def test_least_outstanding_drill_is_pinned(self, toy_design):
        """Least-outstanding routing through a rack loss, EDF with
        deadlines and timeout failover, pinned dict-for-dict to a record
        made while the load signal was still a sum over the queues."""
        result = _least_outstanding_drill(toy_design)
        path = os.path.join(DATA_DIR, "least_outstanding_drill_run.json")
        with open(path) as handle:
            pinned = json.load(handle)
        assert json.loads(json.dumps(to_record(result))) == pinned
        assert result.total("failed_over") > 0
        tenant = result.tenants[0]
        assert tenant.drops and tenant.lost and tenant.expired
        assert tenant.timed_out and tenant.late

    def test_detector_routability_tracks_ejections(self):
        """The cluster rebuilds its routing views on the detector's
        events, so ``routable`` changes exactly when one comes back."""
        fd = _detector()
        assert fd.record_probe(0, 40.0, ok=False) is None
        assert fd.routable(0)  # one failure is not an ejection
        assert fd.detected_healthy_count() == 4
        assert fd.record_probe(0, 80.0, ok=False) == "ejected"
        assert not fd.routable(0)
        assert fd.detected_healthy_count() == 3
        assert fd.record_probe(0, 120.0, ok=True) is None  # on probation
        assert not fd.routable(0)
        assert fd.record_probe(0, 160.0, ok=True) == "readmitted"
        assert fd.routable(0)
        assert fd.detected_healthy_count() == 4


# ------------------------------------------------------ detector ledger
#: Ground-truth paths the ledger pin must reach (see ``_spied_ledger``).
LEDGER_PATHS = (
    "fail-while-degraded",
    "fail-while-ejected",
    "recover-while-degraded",
    "gray-end-while-gray",
    "gray-end-while-down",
    "error-rate-ejection",
)


def _ledger_runs(design):
    """Case id -> one probe-detected run on six ``design`` boards that
    mixes random outages with straggler and flaky windows on the same
    boards; the last also ejects error-rate outliers."""
    epoch = design.epoch_cycles
    faults = (
        RandomFaults(mttf=0.3, mttr=0.1),
        DegradedReplica(fraction=0.5),
        FlakyReplica(replica=1),
    )
    quiet = dict(outlier_error_rate=None, outlier_p99_factor=None)

    def case(seed, **detector):
        def run():
            return simulate_fleet(
                DeviceSpec(design).replicated(6),
                _tenants(design, 3.0),
                duration_cycles=120 * epoch,
                balancer="power-of-two",
                seed=seed,
                queue_depth=10**6,
                scenario=ScenarioSpec(name="ledger-mix", faults=faults),
                detector=DetectorSpec(mode="probe", **detector),
            )

        return run

    return {
        "probes-seed-0": case(0, **quiet),
        "probes-seed-1": case(1, **quiet),
        "error-rate-seed-2": case(
            2, outlier_error_rate=0.1, outlier_p99_factor=None,
            min_requests=2,
        ),
    }


def _spied_ledger(run):
    """Run ``run()`` with spies on the detector's ground-truth feed.

    Returns the ledger (every ``note_onset``/``note_clear`` call as
    ``[kind, replica, time]`` in call order, then the detector's final
    lags and error counts) and a count of the :data:`LEDGER_PATHS` the
    run's fault handlers took."""
    calls, paths = [], collections.Counter()
    note_onset = FailureDetector.note_onset
    note_clear = FailureDetector.note_clear
    outliers = FailureDetector.evaluate_outliers
    fail, recover = _FleetRun.fail, _FleetRun.recover
    undegrade = _FleetRun.undegrade

    def spy_onset(self, index, now):
        calls.append(["onset", index, now])
        note_onset(self, index, now)

    def spy_clear(self, index, now):
        calls.append(["clear", index, now])
        note_clear(self, index, now)

    def spy_outliers(self, now):
        ejected = outliers(self, now)
        paths["error-rate-ejection"] += len(ejected)
        return ejected

    def spy_fail(self, replica):
        if replica.healthy and replica.degraded:
            paths["fail-while-degraded"] += 1
        if replica.healthy and not self.fdet.routable(replica.index):
            paths["fail-while-ejected"] += 1
        fail(self, replica)

    def spy_recover(self, replica):
        if replica.down_depth == 1 and replica.degraded:
            paths["recover-while-degraded"] += 1
        recover(self, replica)

    def spy_undegrade(self, replica, deg):
        if sum(map(len, replica.gray.values())) > 1:
            paths["gray-end-while-gray"] += 1
        if not replica.healthy:
            paths["gray-end-while-down"] += 1
        undegrade(self, replica, deg)

    with _built_detectors() as detectors, mock.patch.multiple(
        FailureDetector, note_onset=spy_onset, note_clear=spy_clear,
        evaluate_outliers=spy_outliers,
    ), mock.patch.multiple(
        _FleetRun, fail=spy_fail, recover=spy_recover, undegrade=spy_undegrade,
    ):
        run()
    (fdet,) = detectors
    ledger = {
        "calls": calls,
        "detection_lags": fdet.detection_lags,
        "false_positives": fdet.false_positives,
        "missed_detections": fdet.missed_detections,
    }
    return json.loads(json.dumps(ledger)), paths


class TestDetectorLedgerPin:
    """The detector's ground-truth ledger against
    ``detector_ledger_runs.json``: every onset and clear the cluster
    feeds it, in order and with its time, and the lags, false positives
    and misses they end in.  Run results pin MTTD only as a mean.  The
    file is read-only: regenerate it by hand from :func:`_ledger_runs`
    and :func:`_spied_ledger` only for an intended behaviour change."""

    def test_runs_match_pin(self, toy_design):
        path = os.path.join(DATA_DIR, "detector_ledger_runs.json")
        with open(path) as handle:
            pinned = json.load(handle)
        runs = _ledger_runs(toy_design)
        assert sorted(pinned) == sorted(runs)
        totals = collections.Counter()
        for name, run in runs.items():
            ledger, paths = _spied_ledger(run)
            assert ledger == pinned[name], name
            totals.update(paths)
        # Guard against a vacuous pin.
        assert all(totals[path] for path in LEDGER_PATHS), totals
        assert all(pinned[name]["calls"] for name in pinned)


# ------------------------------------------------------ serialization
class TestSerialization:
    def test_detector_and_classes_round_trip(self, toy_design):
        result = _fleet(toy_design, 4, 2.5, seed=5, drain=True,
                        scenario="gray-failure")
        record = json.loads(json.dumps(to_record(result)))
        assert record["detector"]["mode"] == "probe"
        loaded = from_record(FleetResult, record)
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
        record = to_record(_fleet(toy_design, 2, 1.0))
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
            json.dumps(to_record(from_record(FleetResult, record)))
        )
        assert json.dumps(rewritten, sort_keys=True) == json.dumps(
            record, sort_keys=True
        )
        assert "detector" not in rewritten
        resilience = rewritten.get("resilience")
        if resilience is not None:
            assert "mean_time_to_detect_cycles" not in resilience
