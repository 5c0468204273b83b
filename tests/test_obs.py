"""Tests for repro.obs: telemetry, tracing, and bit-neutrality.

Three invariants matter most:

* turning observability on must not change a single scalar of the run
  (sampler events ride the same event loop but are read-only);
* the window grid must be total — every horizon/window combination
  covers [0, horizon] exactly, including truncated tails and
  zero-arrival windows;
* exported Chrome traces must be structurally valid: monotonic
  timestamps, every async span opened before it closes, incident
  duration events properly alternating per track.
"""

import collections
import hashlib
import json
import math
import os

import pytest

from repro.core.serialize import (
    fleet_result_from_dict,
    fleet_result_to_dict,
    serve_result_from_dict,
    serve_result_to_dict,
    timeseries_from_dict,
    timeseries_to_dict,
)
from repro.fleet import DeviceSpec, simulate_fleet
from repro.fleet.detector import DetectorSpec
from repro.obs import (
    DEFAULT_WINDOWS,
    MetricsRecorder,
    ObsSpec,
    TimeSeries,
    TraceRecorder,
)
from repro.obs.telemetry import window_grid
from repro.scenario import (
    DegradedReplica,
    FlakyReplica,
    RackFailure,
    ScenarioSpec,
)
from repro.serve import PoissonArrivals, TenantSpec, simulate_traffic
from repro.serve.overload import AdmissionPolicy, OverloadSpec

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def toy_tenants(toy_design):
    epoch = toy_design.epoch_cycles
    return [TenantSpec("toy", PoissonArrivals(1.0 / epoch))]


def serve_kwargs(toy_design):
    return dict(duration_cycles=30.0 * toy_design.epoch_cycles, seed=11)


# ------------------------------------------------------------------ telemetry


class TestWindowGrid:
    def test_divisible(self):
        assert window_grid(100.0, 25.0) == (25.0, 50.0, 75.0, 100.0)

    def test_truncated_tail(self):
        # Horizon not divisible by the window: the last window is short
        # but still ends exactly at the horizon.
        grid = window_grid(100.0, 30.0)
        assert grid == (30.0, 60.0, 90.0, 100.0)

    def test_window_larger_than_horizon(self):
        assert window_grid(50.0, 80.0) == (50.0,)

    def test_covers_horizon_exactly(self):
        for horizon, window in ((97.0, 10.0), (1.0, 3.0), (64.0, 64.0)):
            grid = window_grid(horizon, window)
            assert grid[-1] == horizon
            assert len(grid) == max(1, math.ceil(horizon / window))


class TestMetricsRecorder:
    def test_gauge_and_count(self):
        rec = MetricsRecorder(100.0, 25.0)
        rec.gauge("depth", 0, 3.0)
        rec.gauge("depth", 3, 7.0)
        rec.count("events", 10.0)
        rec.count("events", 10.0)
        rec.count("events", 90.0)
        ts = rec.finalize()
        # Gauges are honest about unsampled windows (None); counts
        # backfill zeros — a quiet window had zero events, not no data.
        assert ts.get("depth") == (3.0, None, None, 7.0)
        assert ts.get("events") == (2.0, 0.0, 0.0, 1.0)

    def test_zero_activity_windows_emit_zeros(self):
        # A window with no samples still appears as an explicit 0, not a
        # hole — sparklines and sums must see the quiet periods.
        rec = MetricsRecorder(100.0, 10.0)
        rec.count("arrivals", 5.0)
        ts = rec.finalize()
        assert len(ts.get("arrivals")) == 10
        assert ts.get("arrivals")[1:] == (0.0,) * 9

    def test_count_and_cumulative_name_clash_is_an_error(self):
        # Finalize writes both kinds into one series map: a name used
        # for both would silently keep only the cumulative.
        rec = MetricsRecorder(100.0, 25.0)
        rec.count("drops/a", 10.0)
        rec.cumulative("drops/a", 0, 1.0)
        rec.cumulative("lost/a", 0, 1.0)
        with pytest.raises(ValueError, match="drops/a"):
            rec.finalize()

    def test_cumulative_diffs_per_window(self):
        rec = MetricsRecorder(100.0, 25.0)
        for window, total in enumerate((3.0, 3.0, 10.0, 12.0)):
            rec.cumulative("done", window, total)
        ts = rec.finalize()
        assert ts.get("done") == (3.0, 0.0, 7.0, 2.0)

    def test_windowed_allows_none(self):
        rec = MetricsRecorder(100.0, 50.0)
        rec.windowed("p99", 0, None)
        rec.windowed("p99", 1, 42.0)
        ts = rec.finalize()
        assert ts.get("p99") == (None, 42.0)

    def test_window_index_clamps_drain_tail(self):
        rec = MetricsRecorder(100.0, 25.0)
        assert rec.window_index(0.0) == 0
        assert rec.window_index(99.9) == 3
        assert rec.window_index(250.0) == 3  # past-horizon drain tail

    def test_histogram(self):
        rec = MetricsRecorder(100.0, 50.0)
        rec.observe("lat", 5.0, edges=(10.0, 100.0))
        rec.observe("lat", 50.0, edges=(10.0, 100.0))
        rec.observe("lat", 5000.0, edges=(10.0, 100.0))
        ts = rec.finalize()
        hist = ts.histograms["lat"]
        assert hist.counts == (1, 1, 1)

    def test_obs_spec_window_resolution(self):
        spec = ObsSpec(timeseries=True)
        assert spec.resolve_window(600.0) == 600.0 / DEFAULT_WINDOWS
        pinned = ObsSpec(timeseries=True, window_cycles=40.0)
        assert pinned.resolve_window(600.0) == 40.0

    def test_inactive_spec_makes_no_recorder(self):
        assert ObsSpec().make_recorder(100.0) is None
        assert not ObsSpec().active


# -------------------------------------------------------------- bit-neutrality


def scalars(record):
    record = dict(record)
    record.pop("timeseries", None)
    return record


class TestBitNeutrality:
    def test_serve_scalars_unchanged_by_obs(self, toy_design, toy_tenants):
        base = simulate_traffic(
            toy_design, toy_tenants, **serve_kwargs(toy_design)
        )
        obs = simulate_traffic(
            toy_design,
            toy_tenants,
            obs=ObsSpec(timeseries=True, windows=8, trace=TraceRecorder()),
            **serve_kwargs(toy_design),
        )
        assert scalars(serve_result_to_dict(base)) == scalars(
            serve_result_to_dict(obs)
        )
        assert obs.timeseries is not None
        assert base.timeseries is None

    def test_fleet_scalars_unchanged_by_obs(self, toy_design, toy_tenants):
        kwargs = dict(
            duration_cycles=30.0 * toy_design.epoch_cycles,
            seed=5,
            scenario="rolling-reboot",
        )
        devices = DeviceSpec(toy_design).replicated(3)
        base = simulate_fleet(devices, toy_tenants, **kwargs)
        obs = simulate_fleet(
            devices,
            toy_tenants,
            obs=ObsSpec(timeseries=True, windows=8, trace=TraceRecorder()),
            **kwargs,
        )
        assert scalars(fleet_result_to_dict(base)) == scalars(
            fleet_result_to_dict(obs)
        )
        assert obs.timeseries is not None

    def test_fast_and_event_scalars_equal_with_obs(
        self, toy_design, toy_tenants
    ):
        # Observation is an engine blocker, so the fast run is the
        # unobserved one: every scalar of the observed event run must
        # match it.
        fast = simulate_traffic(
            toy_design,
            toy_tenants,
            engine="fast",
            **serve_kwargs(toy_design),
        )
        event = simulate_traffic(
            toy_design,
            toy_tenants,
            engine="event",
            obs=ObsSpec(timeseries=True, windows=8),
            **serve_kwargs(toy_design),
        )
        assert fast.timeseries is None
        assert event.timeseries is not None
        assert scalars(serve_result_to_dict(fast)) == scalars(
            serve_result_to_dict(event)
        )

    def test_auto_engine_prefers_observability(self, toy_design, toy_tenants):
        result = simulate_traffic(
            toy_design,
            toy_tenants,
            engine="auto",
            obs=ObsSpec(timeseries=True, windows=8),
            **serve_kwargs(toy_design),
        )
        assert result.timeseries is not None

    def test_explicit_fast_with_trace_raises(self, toy_design, toy_tenants):
        # A trace, and telemetry alone, are engine blockers like a
        # scenario: one error, not a silently unobserved fast run.
        for obs in (
            ObsSpec(trace=TraceRecorder()),
            ObsSpec(timeseries=True, windows=8),
        ):
            with pytest.raises(
                ValueError, match=r"engine='fast' cannot run observation"
            ):
                simulate_traffic(
                    toy_design,
                    toy_tenants,
                    engine="fast",
                    obs=obs,
                    **serve_kwargs(toy_design),
                )

    def test_timeseries_deterministic(self, toy_design, toy_tenants):
        runs = [
            simulate_traffic(
                toy_design,
                toy_tenants,
                obs=ObsSpec(timeseries=True, windows=8),
                **serve_kwargs(toy_design),
            )
            for _ in range(2)
        ]
        assert runs[0].timeseries == runs[1].timeseries

    def test_arrival_windows_sum_to_totals(self, toy_design, toy_tenants):
        # A plain run, a token bucket far below the offered rate (gate
        # rejections never reach a board) and a one-board rack loss
        # (arrivals with no routable replica) on a short queue.
        obs = ObsSpec(timeseries=True, windows=8)
        rate_rps = 1e8 / toy_design.epoch_cycles / 10
        results = [
            simulate_traffic(
                toy_design, toy_tenants, obs=obs, **serve_kwargs(toy_design)
            ),
            simulate_traffic(
                toy_design, toy_tenants, obs=obs,
                overload=OverloadSpec(
                    admission=AdmissionPolicy(rate_rps=rate_rps, burst=1)
                ),
                **serve_kwargs(toy_design),
            ),
            simulate_fleet(
                DeviceSpec(toy_design), toy_tenants, obs=obs,
                scenario="rack-loss", queue_depth=1,
                **serve_kwargs(toy_design),
            ),
        ]
        assert results[1].tenants[0].rejected > 0
        assert results[2].tenants[0].lost > 0
        assert results[2].tenants[0].drops > 0
        for result in results:
            ts, tenant = result.timeseries, result.tenants[0]
            assert sum(ts.get("arrivals/toy")) == tenant.arrivals
            assert sum(ts.get("drops/toy")) == tenant.drops
            assert sum(ts.get("lost/toy")) == tenant.lost


# -------------------------------------------------------------------- tracing


@pytest.fixture(scope="module")
def fleet_trace(toy_design, toy_tenants):
    trace = TraceRecorder()
    result = simulate_fleet(
        DeviceSpec(toy_design).replicated(3),
        toy_tenants,
        duration_cycles=30.0 * toy_design.epoch_cycles,
        seed=5,
        scenario="rolling-reboot",
        obs=ObsSpec(trace=trace),
    )
    return trace, result


class TestTrace:
    def test_chrome_timestamps_monotonic(self, fleet_trace):
        trace, _ = fleet_trace
        events = trace.to_chrome()["traceEvents"]
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)

    def test_async_spans_open_before_close(self, fleet_trace):
        trace, _ = fleet_trace
        events = trace.to_chrome()["traceEvents"]
        opened = set()
        closes = 0
        for event in events:
            if event["ph"] == "b":
                assert event["id"] not in opened
                opened.add(event["id"])
            elif event["ph"] == "e":
                assert event["id"] in opened
                closes += 1
        # Requests still queued or in-pipeline when a non-drained run
        # hits the horizon legitimately leave their spans open.
        assert 0 < closes <= len(opened)

    def test_incident_spans_nest_per_track(self, fleet_trace):
        trace, result = fleet_trace
        assert result.incidents  # the drill actually fired
        events = trace.to_chrome()["traceEvents"]
        depth: dict = {}
        for event in events:
            if event.get("cat") != "incident":
                continue
            tid = event["tid"]
            if event["ph"] == "B":
                depth[tid] = depth.get(tid, 0) + 1
                assert depth[tid] == 1  # union semantics: no overlap
            elif event["ph"] == "E":
                depth[tid] -= 1
                assert depth[tid] == 0
        assert depth and all(d == 0 for d in depth.values())

    def test_jsonl_export(self, fleet_trace, tmp_path):
        trace, _ = fleet_trace
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert event["ph"] != "M"  # metadata is chrome-only

    def test_closing_a_missing_span_raises(self):
        trace = TraceRecorder()
        trace.open(("toy", 0), 5.0, {"tenant": "toy"})
        trace.to_pipeline(("toy", 0), 6.0)
        with pytest.raises(
            LookupError,
            match=r"no open queue span for tenant 'toy' on replica 0 at cycle 7",
        ):
            trace.close(("toy", 0), 7.0, {"outcome": "expired"})
        with pytest.raises(LookupError, match=r"pipeline span .* replica 1 "):
            trace.close(("toy", 1), 8.0, {"outcome": "errored"}, "pipeline")
        with pytest.raises(LookupError, match=r"queue span .* at cycle 9"):
            trace.to_pipeline(("toy", 0), 9.0)
        trace.close(("toy", 0), 10.0, {"latency_cycles": 5.0}, "pipeline")
        assert [e["ph"] for e in trace.events] == ["b", "e"]

    def test_failover_into_a_full_queue_leaves_no_span_open(self, toy_design):
        """A failover that the target's full queue drops closes its span
        as ``dropped`` and opens none on the target, so a drained run
        closes every span it opened."""
        epoch = toy_design.epoch_cycles
        trace = TraceRecorder()
        result = simulate_fleet(
            DeviceSpec(toy_design).replicated(3),
            [TenantSpec("toy", PoissonArrivals(2.5 / epoch))],
            duration_cycles=60 * epoch, seed=3, queue_depth=2, drain=True,
            scenario=ScenarioSpec(
                "flaky-and-slow",
                faults=(
                    FlakyReplica(
                        replica=0, error_rate=0.5, start=0.2, duration=0.6
                    ),
                    DegradedReplica(
                        replica=1, slowdown=3.0, start=0.2, duration=0.6
                    ),
                ),
            ),
            detector=DetectorSpec(
                mode="probe", request_timeout_ms=2 * epoch / 1e5,
                max_failovers=2,
            ),
            obs=ObsSpec(trace=trace),
        )
        assert sum(t.in_flight for t in result.tenants) == 0
        phases = collections.Counter(e["ph"] for e in trace.events)
        assert phases["b"] == phases["e"]
        dropped = [
            e for e in trace.events
            if e["ph"] == "e"
            and e.get("args", {}).get("outcome") == "dropped"
            and "target" in e["args"]
        ]
        assert dropped  # the run really fails over into full queues

    def test_chrome_file_loads(self, fleet_trace, tmp_path):
        trace, _ = fleet_trace
        path = tmp_path / "trace.json"
        trace.write_chrome(str(path))
        record = json.loads(path.read_text())
        assert record["traceEvents"]
        assert any(e["ph"] == "M" for e in record["traceEvents"])


# -------------------------------------------------------------- serialization


class TestSerialization:
    def test_plain_record_has_no_timeseries_key(self, toy_design, toy_tenants):
        result = simulate_traffic(
            toy_design, toy_tenants, **serve_kwargs(toy_design)
        )
        assert "timeseries" not in serve_result_to_dict(result)

    def test_legacy_fleet_json_round_trips(self):
        # A pre-observability record (no timeseries key) must load and
        # re-serialize unchanged.
        path = os.path.join(DATA_DIR, "sample_fleet_run.json")
        with open(path) as handle:
            record = json.load(handle)
        legacy = dict(record)
        legacy.pop("timeseries", None)
        result = fleet_result_from_dict(legacy)
        assert result.timeseries is None
        rewritten = json.loads(json.dumps(fleet_result_to_dict(result)))
        assert rewritten == legacy

    def test_timeseries_round_trip(self, toy_design, toy_tenants):
        result = simulate_traffic(
            toy_design,
            toy_tenants,
            obs=ObsSpec(timeseries=True, windows=8),
            **serve_kwargs(toy_design),
        )
        record = json.loads(json.dumps(serve_result_to_dict(result)))
        loaded = serve_result_from_dict(record)
        assert loaded.timeseries == result.timeseries

    def test_timeseries_dict_round_trip(self):
        ts = TimeSeries(
            window_cycles=10.0,
            times=(10.0, 20.0),
            series={"q": (1.0, None)},
        )
        assert timeseries_from_dict(timeseries_to_dict(ts)) == ts
        assert timeseries_from_dict(None) is None

    def test_sample_run_loads_with_timeseries(self):
        path = os.path.join(DATA_DIR, "sample_fleet_run.json")
        with open(path) as handle:
            result = fleet_result_from_dict(json.load(handle))
        assert result.timeseries is not None
        assert len(result.timeseries.times) == 16
        assert result.scenario == "rolling-reboot"


# ------------------------------------------------------- observed-path pin

PATHS_PIN_PATH = os.path.join(DATA_DIR, "observed_paths_runs.json")

#: Trace event kinds (:func:`trace_kind`) the pinned runs must reach:
#: the lifecycle paths ``observed_overload_runs.json`` never takes.
PINNED_PATHS = (
    "e request dropped",  # drop-head evicts the oldest waiter
    "e request lost evacuated",
    "e request dropped evacuated",
    "e request errored",
    "i unroutable",
    "i ejected error-rate",
    "i ejected p99-outlier",
)


def trace_kind(event):
    """``ph name`` plus the outcome or reason that tells a path apart;
    closes of evacuated spans (which carry a ``target``) are marked."""
    args = event.get("args", {})
    parts = [event["ph"], event["name"]]
    parts += [str(args[key]) for key in ("outcome", "reason") if key in args]
    if "target" in args and args.get("outcome") != "failed_over":
        parts.append("evacuated")
    return " ".join(parts)


def _path_runs(toy_design):
    """Case id -> ``observe(timeseries, traced)``: one small observed
    run on ``toy_design`` boards, returning its record, the sha256 of
    its Chrome trace and the trace's per-kind event counts (``None``
    for an untraced run)."""
    epoch = toy_design.epoch_cycles
    epoch_ms = epoch / 1e5

    def case(replicas, rate, scenario, **kwargs):
        def observe(timeseries=True, traced=True):
            trace = TraceRecorder() if traced else None
            result = simulate_fleet(
                DeviceSpec(toy_design).replicated(replicas),
                [TenantSpec("toy", PoissonArrivals(rate / epoch))],
                duration_cycles=60 * epoch, seed=3, scenario=scenario,
                obs=ObsSpec(timeseries=timeseries, windows=12, trace=trace),
                **kwargs,
            )
            observed = {"record": fleet_result_to_dict(result)}
            if trace is not None:
                chrome = json.dumps(trace.to_chrome(), sort_keys=True)
                observed["trace_sha256"] = hashlib.sha256(
                    chrome.encode()
                ).hexdigest()
                kinds = collections.Counter(map(trace_kind, trace.events))
                observed["trace_kinds"] = dict(sorted(kinds.items()))
            return observed

        return observe

    return {
        "drop-head-lost-rack": case(
            2, 4.0,
            ScenarioSpec(
                "lost-rack", failure_policy="lost",
                faults=(RackFailure(fraction=0.5, start=0.4, duration=0.25),),
            ),
            queue_depth=3, policy="drop-head",
        ),
        "full-requeue-blackout": case(
            3, 5.0,
            ScenarioSpec(
                "rack-then-blackout",
                faults=(
                    RackFailure(fraction=0.34, start=0.3, duration=0.2),
                    RackFailure(fraction=1.0, start=0.7, duration=0.1),
                ),
            ),
            queue_depth=2,
        ),
        "flaky-slow-outliers": case(
            4, 3.5,
            ScenarioSpec(
                "flaky-and-slow",
                faults=(
                    FlakyReplica(
                        replica=0, error_rate=0.5, start=0.2, duration=0.6
                    ),
                    DegradedReplica(
                        replica=1, slowdown=3.0, start=0.2, duration=0.6
                    ),
                ),
            ),
            detector=DetectorSpec(
                mode="probe", probe_interval_ms=100 * epoch_ms,
                outlier_error_rate=0.25, outlier_p99_factor=1.5,
                ejection_window_ms=10 * epoch_ms, min_requests=3,
                max_failovers=0,
            ),
            queue_depth=4,
        ),
    }


class TestObservedPathsPin:
    """Observed runs against ``observed_paths_runs.json``.

    Compared as JSON text without sorting keys, so the order in which
    series first appear in ``timeseries`` is pinned too.  The file is
    read-only: regenerate it by hand from :func:`_path_runs` only for
    an intended behaviour change.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(PATHS_PIN_PATH) as handle:
            return json.load(handle)

    def test_runs_match_pin(self, toy_design, pinned):
        runs = _path_runs(toy_design)
        assert sorted(pinned) == sorted(runs)
        for name, observe in runs.items():
            assert json.dumps(observe()) == json.dumps(pinned[name]), name

    def test_pin_reaches_every_path(self, pinned):
        """Guard against a vacuous pin."""
        totals = collections.Counter()
        for observed in pinned.values():
            totals.update(observed["trace_kinds"])
        assert all(totals[kind] for kind in PINNED_PATHS), totals

    def test_trace_only_run_traces_the_same(self, toy_design, pinned):
        for name, observe in _path_runs(toy_design).items():
            observed = observe(timeseries=False)
            assert "timeseries" not in observed["record"]
            assert observed["trace_sha256"] == pinned[name]["trace_sha256"]

    def test_timeseries_only_run_records_the_same(self, toy_design, pinned):
        for name, observe in _path_runs(toy_design).items():
            observed = observe(traced=False)
            assert json.dumps(observed["record"]) == json.dumps(
                pinned[name]["record"]
            ), name
