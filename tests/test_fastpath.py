"""Differential and regression tests for the epoch-batched fast path.

The fast engine (:mod:`repro.sim.fastpath`) promises *bit-for-bit* the
same results as the event-driven reference engine, not merely
statistically similar ones.  The tests here hold it to that promise:

* hypothesis differentials run the same seeded workload through both
  engines and compare the fully-serialized results for exact equality —
  across arrival shapes, queue depths, drop policies, drain modes,
  balancers, and heterogeneous fleets;
* arrival materialization replays each stream's generator bit for
  bit, and the queue-length scan matches a plain Python loop;
* engine-selection tests pin the ``auto``/``fast``/``event`` resolution
  rules, including the fast+scenario rejection and the silent event
  fallback for load-dependent balancers;
* regression tests for the accounting bugfixes that rode along with the
  engine: exact boundary grids over >=1e7 cycles, shed-vs-drop
  reporting, single-sort percentiles, and the dead-board busy refund.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import fleet_result_to_dict, serve_result_to_dict
from repro.fleet import BALANCER_NAMES, DeviceSpec, simulate_fleet
from repro.scenario import RedundancyOutage, ScenarioSpec
from repro.serve import (
    BurstyArrivals,
    ConstantRate,
    PoissonArrivals,
    SLOSpec,
    TenantSpec,
    TraceArrivals,
    evaluate_slo,
    make_arrival_process,
    simulate_traffic,
)
from repro.serve.arrivals import _BLOCK
from repro.serve.metrics import LatencySummary
from repro.sim import ENGINES, Simulator, resolve_engine
from repro.sim.fastpath import _queue_lengths, materialize_arrivals

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _serve_both(design, *, rate_mult=1.0, process="poisson", epochs=40,
                seed=0, queue_depth=10**6, policy="drop-tail",
                drain=False, arrivals=None):
    """Run the identical workload on both engines, return both results."""
    epoch = design.epoch_cycles
    if arrivals is None:
        arrivals = make_arrival_process(
            process, rate_mult / epoch, period_cycles=8.0 * epoch
        )
    kwargs = dict(
        duration_cycles=epochs * epoch,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
    )
    tenants = [TenantSpec(design.network.name, arrivals)]
    fast = simulate_traffic(design, tenants, engine="fast", **kwargs)
    event = simulate_traffic(design, tenants, engine="event", **kwargs)
    return fast, event


def _fleet_both(design, *, replicas=2, rate_mult=1.0, balancer="round-robin",
                process="poisson", epochs=40, seed=0, queue_depth=10**6,
                policy="drop-tail", drain=False):
    epoch = design.epoch_cycles
    arrivals = make_arrival_process(
        process, rate_mult / epoch, period_cycles=8.0 * epoch
    )
    tenants = [TenantSpec(design.network.name, arrivals)]
    kwargs = dict(
        duration_cycles=epochs * epoch,
        balancer=balancer,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
    )
    devices = DeviceSpec(design).replicated(replicas)
    fast = simulate_fleet(devices, tenants, engine="fast", **kwargs)
    event = simulate_fleet(devices, tenants, engine="event", **kwargs)
    return fast, event


# ------------------------------------------------- arrival materialization
def _pump(process, seed_key, limit, horizon):
    """The event loop's view of a stream: pull ``times()`` one by one."""
    stream = process.times(random.Random(seed_key))
    out = []
    for when in stream:
        if (limit is not None and len(out) >= limit) or when > horizon:
            break
        out.append(when)
    return out


class TestMaterializeArrivals:
    """Whole-stream materialization equals the one-at-a-time pump."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed_key=st.text(max_size=12),
        rate=st.floats(1e-7, 1.0),
        blocks=st.sampled_from([0.0, 0.4, 2.6]),
        limit=st.sampled_from([None, 0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
    )
    def test_poisson_replays_expovariate(self, seed_key, rate, blocks, limit):
        # ``blocks`` sizes the horizon in expected blocks of arrivals.
        horizon = blocks * _BLOCK / rate
        process = PoissonArrivals(rate)
        fast = materialize_arrivals(process, seed_key, limit, horizon)
        assert fast.dtype == np.float64
        assert fast.tolist() == _pump(process, seed_key, limit, horizon)

    def test_poisson_first_gaps_exact(self):
        """Each stream's first arrivals are bare gaps, so a last-bit
        difference in the logarithm cannot round away as it does once
        the running sum dwarfs the gap."""
        process = PoissonArrivals(0.37)
        for key in range(1000):
            fast = materialize_arrivals(process, str(key), 3, math.inf)
            assert fast.tolist() == _pump(process, str(key), 3, math.inf)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_poisson_horizon_on_a_block_edge(self, blocks):
        """The horizon lands exactly on the last arrival of a block."""
        process = PoissonArrivals(0.01)
        reference = _pump(process, "edge", blocks * _BLOCK, math.inf)
        horizon = reference[-1]
        fast = materialize_arrivals(process, "edge", None, horizon)
        assert fast.size == blocks * _BLOCK
        assert fast.tolist() == _pump(process, "edge", None, horizon)

    @pytest.mark.parametrize("process", [
        ConstantRate(0.003),
        BurstyArrivals(0.002, burstiness=3.0, period_cycles=5_000.0),
        TraceArrivals([0.0, 0.0, 5.0, 7.5, 1e4, 2e4]),
    ], ids=["constant", "bursty", "trace"])
    @pytest.mark.parametrize("limit", [None, 0, 1, 50])
    def test_other_streams_unchanged(self, process, limit):
        for horizon in (0.0, 1.5e4, 3e5):
            fast = materialize_arrivals(process, "other", limit, horizon)
            assert fast.tolist() == _pump(process, "other", limit, horizon)


# ------------------------------------------------------ queue-length scan
def _loop_lengths(steps, depth):
    """Queue length before each push, one arrival at a time."""
    before, after = [], 0
    for served in steps:
        before.append(max(0, after - served))
        after = min(depth, before[-1] + 1)
    return before


@FAST
@given(
    steps=st.lists(st.integers(0, 4), min_size=1, max_size=300),
    depth=st.integers(1, 8),
)
def test_queue_length_scan_matches_loop(steps, depth):
    scanned = _queue_lengths(np.asarray(steps, dtype=np.int64), depth)
    assert scanned.tolist() == _loop_lengths(steps, depth)


# ------------------------------------------------------- serve differential
class TestServeDifferential:
    """Fast engine reproduces the event engine's ServeResult exactly."""

    @FAST
    @given(
        rate_mult=st.floats(0.3, 3.0),
        process=st.sampled_from(["constant", "poisson", "bursty"]),
        queue_depth=st.sampled_from([1, 2, 5, 10**6]),
        policy=st.sampled_from(["drop-tail", "drop-head"]),
        drain=st.booleans(),
        seed=st.integers(0, 2**20),
    )
    def test_bit_exact(self, toy_design, rate_mult, process, queue_depth,
                       policy, drain, seed):
        fast, event = _serve_both(
            toy_design,
            rate_mult=rate_mult,
            process=process,
            queue_depth=queue_depth,
            policy=policy,
            drain=drain,
            seed=seed,
        )
        assert serve_result_to_dict(fast) == serve_result_to_dict(event)

    @FAST
    @given(
        drain=st.booleans(),
        policy=st.sampled_from(["drop-tail", "drop-head"]),
        queue_depth=st.sampled_from([1, 3, 10**6]),
    )
    def test_boundary_exact_ties(self, toy_design, drain, policy,
                                 queue_depth):
        """Arrivals landing exactly on the boundary grid, with duplicates.

        The heap breaks the arrival-vs-boundary tie by insertion order;
        the fast path must reproduce that ordering analytically.
        """
        epoch = toy_design.epoch_cycles
        times = [
            0.0, 0.0, epoch, epoch, epoch,
            2 * epoch, 2.5 * epoch, 4 * epoch, 4 * epoch,
        ]
        fast, event = _serve_both(
            toy_design,
            arrivals=TraceArrivals(times),
            epochs=8,
            queue_depth=queue_depth,
            policy=policy,
            drain=drain,
        )
        assert serve_result_to_dict(fast) == serve_result_to_dict(event)

    def test_joint_design_multi_tenant(self, joint_design_690t):
        epoch = joint_design_690t.epoch_cycles
        tenants = [
            TenantSpec(name, make_arrival_process("poisson", 1.2 / epoch))
            for name in (n.name for n in joint_design_690t.networks)
        ]
        kwargs = dict(duration_cycles=30 * epoch, seed=7, queue_depth=4,
                      drain=True)
        fast = simulate_traffic(joint_design_690t, tenants, engine="fast",
                                **kwargs)
        event = simulate_traffic(joint_design_690t, tenants, engine="event",
                                 **kwargs)
        assert serve_result_to_dict(fast) == serve_result_to_dict(event)

    @FAST
    @given(seed=st.integers(0, 2**20), rate_mult=st.floats(0.5, 4.0))
    def test_drained_conservation(self, toy_design, seed, rate_mult):
        """Fast engine upholds the drain contract on its own terms."""
        fast, _ = _serve_both(
            toy_design,
            rate_mult=rate_mult,
            seed=seed,
            queue_depth=3,
            drain=True,
        )
        for tenant in fast.tenants:
            assert tenant.arrivals == tenant.completions + tenant.drops
            assert tenant.in_flight == 0


# ------------------------------------------------------- fleet differential
class TestFleetDifferential:
    """Fast engine reproduces the event engine's FleetResult exactly."""

    @FAST
    @given(
        replicas=st.integers(1, 3),
        balancer=st.sampled_from(["round-robin", "tenant-affinity"]),
        rate_mult=st.floats(0.5, 4.0),
        drain=st.booleans(),
        seed=st.integers(0, 2**20),
        queue_depth=st.sampled_from([2, 10**6]),
    )
    def test_bit_exact(self, toy_design, replicas, balancer, rate_mult,
                       drain, seed, queue_depth):
        fast, event = _fleet_both(
            toy_design,
            replicas=replicas,
            balancer=balancer,
            rate_mult=rate_mult,
            drain=drain,
            seed=seed,
            queue_depth=queue_depth,
        )
        assert fleet_result_to_dict(fast) == fleet_result_to_dict(event)

    @FAST
    @given(
        replicas=st.sampled_from([1, 3]),
        load=st.floats(1.1, 4.0),
        queue_depth=st.integers(1, 8),
        policy=st.sampled_from(["drop-tail", "drop-head"]),
        drain=st.booleans(),
        seed=st.integers(0, 2**20),
    )
    def test_saturated_queues(self, toy_design, replicas, load, queue_depth,
                              policy, drain, seed):
        """Overloaded round-robin fleets: every queue fills and drops."""
        fast, event = _fleet_both(
            toy_design,
            replicas=replicas,
            rate_mult=load * replicas,
            epochs=60,
            seed=seed,
            queue_depth=queue_depth,
            policy=policy,
            drain=drain,
        )
        assert fleet_result_to_dict(fast) == fleet_result_to_dict(event)

    @pytest.mark.parametrize("balancer", sorted(BALANCER_NAMES))
    def test_single_replica_every_balancer(self, toy_design, balancer):
        """With one replica all policies route identically; all must be

        eligible for the fast path and stay bit-exact.
        """
        fast, event = _fleet_both(
            toy_design, replicas=1, balancer=balancer, rate_mult=2.0,
            drain=True, queue_depth=5,
        )
        assert fleet_result_to_dict(fast) == fleet_result_to_dict(event)

    def test_load_dependent_balancer_falls_back(self, toy_design):
        """least-outstanding on >1 replica is load-dependent: ``fast``

        silently runs the event engine (the flag promises results, not a
        mechanism) and therefore still matches ``event`` exactly.
        """
        fast, event = _fleet_both(
            toy_design, replicas=3, balancer="least-outstanding",
            rate_mult=2.0,
        )
        assert fleet_result_to_dict(fast) == fleet_result_to_dict(event)


# --------------------------------------------------------- engine selection
class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("auto", "fast", "event")

    def test_auto_resolution(self):
        assert resolve_engine("auto") == "fast"
        assert resolve_engine("auto", has_scenario=True) == "event"
        assert resolve_engine("event", has_scenario=True) == "event"

    def test_fast_with_scenario_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("fast", has_scenario=True)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("warp")

    def test_fast_error_names_every_blocker(self):
        with pytest.raises(ValueError) as raised:
            resolve_engine("fast", has_scenario=True, has_detector=True)
        message = str(raised.value)
        assert "scenario" in message and "detector" in message
        assert "overload" not in message

    def test_fleet_fast_with_scenario_rejected(self, toy_design):
        epoch = toy_design.epoch_cycles
        tenants = [TenantSpec("toy", make_arrival_process(
            "constant", 1.0 / epoch))]
        with pytest.raises(ValueError):
            simulate_fleet(
                DeviceSpec(toy_design).replicated(2),
                tenants,
                duration_cycles=10 * epoch,
                scenario="rack-loss",
                engine="fast",
            )

    def test_auto_with_scenario_matches_event(self, toy_design):
        """auto quietly picks the event engine when a scenario is set."""
        epoch = toy_design.epoch_cycles
        tenants = [TenantSpec("toy", make_arrival_process(
            "poisson", 2.0 / epoch))]
        kwargs = dict(duration_cycles=30 * epoch, scenario="rack-loss",
                      seed=3, queue_depth=8)
        devices = DeviceSpec(toy_design).replicated(3)
        auto = simulate_fleet(devices, tenants, engine="auto", **kwargs)
        event = simulate_fleet(devices, tenants, engine="event", **kwargs)
        assert fleet_result_to_dict(auto) == fleet_result_to_dict(event)


# ------------------------------------------- regression: exact boundary grid
class TestBoundaryGridRegression:
    """The boundary chain must stay on the exact ``index * epoch`` grid.

    The old ``schedule_at`` round-tripped absolute times through a delay
    (``now + (time - now)``), which can lose the last bit; over long
    chains the boundary grid drifted off ``k * epoch``, breaking the
    analytically-computed fast path's bit-exactness.
    """

    def test_schedule_at_is_exact(self):
        # 0.2 + (0.9 - 0.2) == 0.8999999999999999 != 0.9 in binary
        # floating point: the delay round trip is observably lossy here.
        sim = Simulator()
        fired = []
        sim.schedule_at(0.2, lambda: sim.schedule_at(
            0.9, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [0.9]

    def test_callback_arguments_ride_in_the_event(self):
        # Arguments are bound at scheduling time; simultaneous events
        # fire in scheduling order whichever call scheduled them.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.schedule_at(1.0, lambda: fired.append("third"))
        sim.schedule_at(0.5, divmod, 7, 2)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_boundary_chain_exact_over_1e7_cycles(self):
        """A serve-style boundary chain spanning >= 1e7 cycles with a

        non-integer epoch must land every boundary exactly on the grid.
        """
        epoch = 12168.3  # not exactly representable: worst case for drift
        steps = 900      # 900 * 12168.3 cycles ~ 1.1e7 >= 1e7
        sim = Simulator()
        fired = []

        def boundary(index):
            def fire():
                fired.append(sim.now)
                if index < steps:
                    sim.schedule_at((index + 1) * epoch, boundary(index + 1))
            return fire

        sim.schedule_at(epoch, boundary(1))
        sim.run()
        assert fired[-1] >= 1e7
        assert fired == [k * epoch for k in range(1, steps + 1)]

    def test_long_serve_run_bit_exact(self, toy_design):
        """>= 1e7 simulated cycles through both engines, drained."""
        epochs = 900  # 900 * 12168 cycles ~ 1.1e7
        assert epochs * toy_design.epoch_cycles >= 1e7
        fast, event = _serve_both(
            toy_design, rate_mult=1.5, process="poisson", epochs=epochs,
            seed=11, queue_depth=16, drain=True,
        )
        assert serve_result_to_dict(fast) == serve_result_to_dict(event)


# --------------------------------------------- regression: shed vs. dropped
class TestShedReportingRegression:
    """Fleet tables and SLO reports must charge fault losses, not hide them.

    ``FleetResult.format`` used to print the bare queue ``drop_rate``
    under a "drop" header: a rack-loss drill could destroy requests on
    dead boards and still report 0.0%.  The column now shows the shed
    rate (drops + lost) and a ``lost`` column appears whenever failures
    destroyed requests.
    """

    @pytest.fixture(scope="class")
    def drill(self, toy_design):
        epoch = toy_design.epoch_cycles
        tenants = [TenantSpec("toy", make_arrival_process(
            "constant", 3.0 / epoch))]
        scenario = ScenarioSpec(
            name="refund-drill",
            faults=(RedundancyOutage(count=1, start=0.2, duration=0.5),),
            failure_policy="lost",
        )
        return simulate_fleet(
            DeviceSpec(toy_design).replicated(2),
            tenants,
            duration_cycles=40 * epoch,
            seed=5,
            queue_depth=10**6,
            scenario=scenario,
        )

    def test_lost_column_appears_with_losses(self, drill):
        assert drill.total_lost > 0
        text = drill.format()
        header = next(line for line in text.splitlines() if "tenant" in line)
        assert "shed" in header
        assert "lost" in header
        assert "drop" not in header

    def test_lost_column_absent_when_fault_free(self, toy_design):
        epoch = toy_design.epoch_cycles
        tenants = [TenantSpec("toy", make_arrival_process(
            "constant", 3.0 / epoch))]
        clean = simulate_fleet(
            DeviceSpec(toy_design).replicated(2),
            tenants,
            duration_cycles=40 * epoch,
            seed=5,
        )
        assert clean.total_lost == 0
        header = next(
            line for line in clean.format().splitlines() if "tenant" in line
        )
        assert "shed" in header
        assert "lost" not in header

    def test_shed_rate_includes_losses(self, drill):
        tenant = drill.tenants[0]
        assert tenant.lost > 0
        assert tenant.shed_rate == pytest.approx(
            (tenant.drops + tenant.lost) / tenant.arrivals
        )
        assert tenant.shed_rate > tenant.drop_rate

    def test_slo_report_worst_shed_rate(self, drill):
        report = evaluate_slo(drill, SLOSpec(max_drop_rate=0.0))
        worst = max(t.shed_rate for t in drill.tenants)
        assert report.worst_shed_rate == worst
        assert report.worst_shed_rate > 0
        # verdicts expose the same value under both names
        for verdict in report.tenants:
            assert verdict.shed_rate == verdict.drop_rate
        assert not report.meets


# ------------------------------------------- regression: percentile summary
class TestLatencySummaryRegression:
    """One shared sort must return the exact nearest-rank elements."""

    def test_unsorted_input(self):
        summary = LatencySummary.of([5.0, 1.0, 3.0, 2.0, 4.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert (summary.p50, summary.p95, summary.p99) == (3.0, 5.0, 5.0)
        assert (summary.min, summary.max) == (1.0, 5.0)

    def test_single_element(self):
        summary = LatencySummary.of([2.5])
        assert (summary.p50, summary.p95, summary.p99) == (2.5, 2.5, 2.5)

    def test_empty(self):
        assert LatencySummary.of([]) is None

    @FAST
    @given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=400),
           st.randoms(use_true_random=False))
    def test_matches_nearest_rank_reference(self, xs, rnd):
        rnd.shuffle(xs)
        summary = LatencySummary.of(xs)
        ordered = sorted(xs)
        n = len(ordered)

        def nearest_rank(q):
            return ordered[max(1, math.ceil(n * q / 100)) - 1]

        assert summary.p50 == nearest_rank(50)
        assert summary.p95 == nearest_rank(95)
        assert summary.p99 == nearest_rank(99)
        # percentiles are actual observations, never interpolations
        assert {summary.p50, summary.p95, summary.p99} <= set(xs)


# ----------------------------------------------- regression: busy refund
class TestFailRefundRegression:
    """A board that dies mid-epoch must refund the in-flight busy charge.

    ``ReplicaState.fail`` used to leave the killed epoch's cycles in
    ``clp_busy``, so a drill could report *higher* utilization than the
    fault-free run of the same workload — work that never finished was
    still billed.  With the refund, a replica that loses a down-window
    can only do less work than its fault-free twin.
    """

    def test_drill_utilization_not_above_fault_free(self, toy_design):
        epoch = toy_design.epoch_cycles
        tenants = [TenantSpec("toy", make_arrival_process(
            "constant", 3.0 / epoch))]
        kwargs = dict(duration_cycles=60 * epoch, seed=2,
                      queue_depth=10**6)
        devices = DeviceSpec(toy_design)  # single replica: no failover
        # Drained fault-free control: admitted == completed, so the
        # per-completed-image CLP cost can be read off its busy counters.
        clean = simulate_fleet(devices, tenants, drain=True, **kwargs)
        drill = simulate_fleet(
            devices,
            tenants,
            scenario=ScenarioSpec(
                name="early-death",
                faults=(RedundancyOutage(
                    count=1, start=0.1, duration=0.9),),
            ),
            **kwargs,
        )
        up, down = clean.replicas[0], drill.replicas[0]
        assert down.completions > 0 and down.tenants[0].lost > 0
        assert down.utilization < up.utilization
        # The identity the refund restores: busy cycles correspond to
        # completed images only — the killed in-flight epochs are not
        # billed.  Without the refund the drill's per-image cost comes
        # out higher than the fault-free per-image cost.
        for busy_down, busy_up in zip(
            down.clp_busy_fraction, up.clp_busy_fraction
        ):
            cost_down = busy_down * drill.elapsed_cycles / down.completions
            cost_up = busy_up * clean.elapsed_cycles / up.completions
            assert cost_down == pytest.approx(cost_up, rel=1e-9)
