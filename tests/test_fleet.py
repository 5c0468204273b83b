"""Tests for the multi-FPGA cluster simulator (repro.fleet).

Four layers of assurance:

* unit tests for device specs, balancer policies, and topology
  validation;
* property-based (hypothesis) tests — request conservation across
  replicas under every policy, the round-robin fairness bound, and
  determinism under a fixed seed;
* a fixed-seed study pinning power-of-two-choices to never lose to
  random routing on p99 (the reason the policy exists);
* differential tests pinning a 1-replica fleet *exactly* to the
  single-device ``repro.serve`` engine (same seed, identical per-tenant
  metrics), plus capacity-planner monotonicity in rate and clock.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import dump, from_record, load, to_record
from repro.fleet import (
    AutoscalerPolicy,
    BALANCER_NAMES,
    ClusterSimulator,
    DeviceSpec,
    FleetResult,
    autoscale,
    make_balancer,
    plan_capacity,
    simulate_fleet,
)
from repro.serve import (
    ConstantRate,
    PoissonArrivals,
    SLOSpec,
    TenantSpec,
    evaluate_slo,
    make_arrival_process,
    simulate_traffic,
)

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tenants(design, rate_mult, process="poisson"):
    epoch = design.epoch_cycles
    proc = make_arrival_process(process, rate_mult / epoch,
                                period_cycles=8.0 * epoch)
    return [TenantSpec(design.network.name, proc)]


def _fleet(design, replicas, rate_mult, *, epochs=60, seed=0,
           balancer="round-robin", process="poisson", queue_depth=10**6,
           policy="drop-tail", drain=False):
    return simulate_fleet(
        DeviceSpec(design).replicated(replicas),
        _tenants(design, rate_mult, process),
        duration_cycles=epochs * design.epoch_cycles,
        balancer=balancer,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
    )


# ----------------------------------------------------------------- devices
class TestDeviceSpec:
    def test_networks_and_epoch(self, toy_design):
        device = DeviceSpec(toy_design, part="485t")
        assert device.networks == ("toy",)
        assert device.resolve_epoch() == toy_design.epoch_cycles

    def test_device_resolves_its_epoch_once(self, toy_design, monkeypatch):
        """Sixteen boards of one simulate-calibrated spec run the system
        simulator once, and the fleet record is what a per-board solve
        gives."""
        from repro.fleet import device as device_module
        from repro.sim import system

        calls = []
        simulate = system.simulate_system

        def spy(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(system, "simulate_system", spy)
        spec = DeviceSpec(toy_design, bytes_per_cycle=2.0, calibrate="simulate")

        def run():
            return json.dumps(to_record(simulate_fleet(
                spec.replicated(16), _tenants(toy_design, 8.0),
                duration_cycles=40 * toy_design.epoch_cycles,
            )))

        record = run()
        assert len(calls) == 1
        # The same run with the epoch solved afresh for every board.
        monkeypatch.setattr(
            DeviceSpec, "resolve_epoch",
            lambda self: device_module.resolve_epoch(
                self.design, self.bytes_per_cycle, self.calibrate
            ),
        )
        assert run() == record
        assert len(calls) == 17

    def test_epoch_resolved_once_per_distinct_spec(self, toy_design, monkeypatch):
        from repro.fleet import device as device_module

        calls = []
        resolve = device_module.resolve_epoch

        def spy(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(device_module, "resolve_epoch", spy)
        specs = [
            DeviceSpec(toy_design, count=2048),
            DeviceSpec(toy_design, count=2048, bytes_per_cycle=4.0),
        ]
        simulate_fleet(
            specs, _tenants(toy_design, 1.0),
            duration_cycles=2 * toy_design.epoch_cycles,
        )
        assert len(calls) == 2

    def test_replicated_keeps_template(self, toy_design):
        device = DeviceSpec(toy_design, part="485t", calibrate="model")
        four = device.replicated(4)
        assert four.count == 4 and four.part == "485t"
        assert device.count == 1  # original untouched

    def test_joint_design_serves_all_members(self, joint_design_690t):
        device = DeviceSpec(joint_design_690t)
        assert set(device.networks) == {"AlexNet", "SqueezeNet"}

    def test_display_label(self, toy_design):
        assert DeviceSpec(toy_design, part="485t").display_label == "toy@485t"
        assert DeviceSpec(toy_design, label="edge").display_label == "edge"

    def test_validation(self, toy_design):
        with pytest.raises(ValueError):
            DeviceSpec(toy_design, count=0)
        with pytest.raises(ValueError):
            DeviceSpec(toy_design, calibrate="wrong")
        with pytest.raises(ValueError):
            DeviceSpec(toy_design, bytes_per_cycle=-1.0)


# --------------------------------------------------------------- balancers
class TestBalancers:
    def test_registry_round_trips_names(self):
        for name in BALANCER_NAMES:
            assert make_balancer(name).name == name
        with pytest.raises(ValueError):
            make_balancer("hash-ring")

    def test_round_robin_rotates_per_tenant(self):
        policy = make_balancer("round-robin")
        policy.bind([], None)
        picks = [policy.route("a", (0, 1, 2), 0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        # An independent tenant starts its own rotation.
        assert policy.route("b", (0, 1, 2), 0.0) == 0

    def test_least_outstanding_prefers_light_replica(self):
        class Fake:
            def __init__(self, outstanding):
                self.outstanding = outstanding

        policy = make_balancer("least-outstanding")
        policy.bind([Fake(5), Fake(1), Fake(5)], None)
        assert policy.route("a", (0, 1, 2), 0.0) == 1
        # Ties break to the lowest index, deterministically.
        policy.bind([Fake(2), Fake(2)], None)
        assert policy.route("a", (0, 1), 0.0) == 0

    def test_tenant_affinity_is_stable(self):
        policy = make_balancer("tenant-affinity")
        policy.bind([], None)
        eligible = (0, 1, 2, 3)
        first = policy.route("AlexNet", eligible, 0.0)
        assert all(
            policy.route("AlexNet", eligible, t) == first for t in range(5)
        )

    def test_power_of_two_single_choice_needs_no_rng(self):
        policy = make_balancer("power-of-two")
        policy.bind([], None)  # no RNG bound: must not be consulted
        assert policy.route("a", (7,), 0.0) == 7

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64),
        routes=st.integers(min_value=1, max_value=6),
    )
    def test_power_of_two_draws_like_random_sample(self, n, seed, routes):
        """The inline draw is ``random.sample(eligible, 2)`` draw for
        draw: the same pair and the same RNG state afterwards.  Equal
        loads keep the lower index of the pair and loads falling with
        the index keep the higher, so the two routes name the pair."""

        class Fake:
            def __init__(self, outstanding):
                self.outstanding = outstanding

        lower = make_balancer("power-of-two")
        lower.bind([Fake(0)] * n, random.Random(seed))
        higher = make_balancer("power-of-two")
        higher.bind([Fake(n - i) for i in range(n)], random.Random(seed))
        reference = random.Random(seed)
        eligible = tuple(range(n))
        for _ in range(routes):
            first, second = reference.sample(eligible, 2)
            assert lower.route("a", eligible, 0.0) == min(first, second)
            assert higher.route("a", eligible, 0.0) == max(first, second)
        assert lower._rng.getstate() == reference.getstate()
        assert higher._rng.getstate() == reference.getstate()

    def test_custom_configured_balancer_instance_survives(self, toy_design):
        # A user policy with constructor configuration must be reused
        # (reset between runs), not blindly re-instantiated.
        from repro.fleet import Balancer

        class Pinned(Balancer):
            name = "pinned"

            def __init__(self, target):
                self.target = target

            def route(self, tenant, eligible, now):
                return self.target

        fleet = simulate_fleet(
            DeviceSpec(toy_design).replicated(3),
            _tenants(toy_design, 1.0),
            duration_cycles=15 * toy_design.epoch_cycles,
            balancer=Pinned(2),
            drain=True,
        )
        assert fleet.balancer == "pinned"
        routed = [replica.arrivals for replica in fleet.replicas]
        assert routed[2] > 0 and routed[0] == routed[1] == 0

    def test_split_of_lone_targets_needs_builtin_policy(self):
        from repro.fleet.balancer import RandomBalancer

        class Subclassed(RandomBalancer):
            pass

        for name in BALANCER_NAMES:
            policy = make_balancer(name)
            assert policy.split("a", (3,)) == {3: slice(None)}
            assert policy.split("b", (0,)) == {0: slice(None)}
        assert make_balancer("random").split("b", (0, 1)) is None
        assert Subclassed().split("a", (3,)) is None

    @FAST
    @given(
        tenant=st.text(max_size=12),
        targets=st.lists(
            st.integers(min_value=0, max_value=63),
            min_size=1, max_size=6, unique=True,
        ).map(tuple),
        arrivals=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_split_assigns_arrivals_as_route_does(
        self, tenant, targets, arrivals, seed
    ):
        """A static split assigns arrival ``n`` to the replica the
        ``n``-th route call of a freshly bound policy picks; policies
        that route on load or shared RNG state over several targets,
        and subclasses of built-ins, have no split."""
        from repro.fleet.balancer import RandomBalancer

        class Fake:
            outstanding = 0

        class Subclassed(RandomBalancer):
            pass

        load_dependent = ("least-outstanding", "power-of-two", "random")
        for name in BALANCER_NAMES:
            split = make_balancer(name).split(tenant, targets)
            if name in load_dependent and len(targets) > 1:
                assert split is None
                continue
            assert split is not None and set(split) == set(targets)
            owner = {}
            for r, share in split.items():
                for n in range(arrivals)[share]:
                    assert n not in owner
                    owner[n] = r
            policy = make_balancer(name)
            policy.bind([Fake()] * 64, random.Random(seed))
            routed = [
                policy.route(tenant, targets, 0.0) for _ in range(arrivals)
            ]
            assert routed == [owner[n] for n in range(arrivals)]
        assert Subclassed().split(tenant, targets) is None

    def test_custom_balancer_routes_every_arrival_on_one_board(
        self, toy_design
    ):
        # Arrivals skip the router only when every route is forced and
        # the policy is built in; user code still sees each arrival.
        from repro.fleet import Balancer

        class Counting(Balancer):
            name = "counting"

            def __init__(self):
                self.calls = 0

            def reset(self):
                self.calls = 0

            def route(self, tenant, eligible, now):
                self.calls += 1
                return eligible[0]

        policy = Counting()
        fleet = simulate_fleet(
            DeviceSpec(toy_design),
            _tenants(toy_design, 1.0),
            duration_cycles=15 * toy_design.epoch_cycles,
            balancer=policy,
            drain=True,
        )
        assert policy.calls == fleet.tenants[0].arrivals > 0

    def test_stateful_instance_resets_between_runs(self, toy_design):
        # One round-robin object reused for two runs must behave like a
        # fresh policy each time (counters cleared by reset()).
        policy = make_balancer("round-robin")
        runs = [
            simulate_fleet(
                DeviceSpec(toy_design).replicated(3),
                _tenants(toy_design, 2.0),
                duration_cycles=15 * toy_design.epoch_cycles,
                balancer=policy,
                seed=5,
                drain=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# ------------------------------------------------------------- differential
class TestSingleReplicaDifferential:
    """``simulate_traffic`` is a one-board fleet run, relabelled.

    What a serve run computes is pinned by ``serve_pinned_runs.json``
    (``tests/test_serve.py``); this checks only the relabelling.
    """

    def test_serve_result_maps_the_one_board_fleet_result(
        self, joint_design_690t
    ):
        from repro.obs import ObsSpec
        from repro.serve import OverloadSpec, ServeResult

        epoch = joint_design_690t.epoch_cycles
        tenants = [
            TenantSpec("AlexNet", PoissonArrivals(0.8 / epoch)),
            TenantSpec("SqueezeNet", ConstantRate(1.2 / epoch)),
        ]
        run = dict(
            duration_cycles=30 * epoch, seed=11, queue_depth=4,
            policy="drop-head", drain=True, obs=ObsSpec(timeseries=True),
            overload=OverloadSpec(queue_policy="edf", deadline_ms=epoch / 1e4),
        )
        serve = simulate_traffic(joint_design_690t, tenants, **run)
        assert serve.timeseries is not None and serve.overload is not None
        assert serve.elapsed_cycles > serve.horizon_cycles
        # With one board every balancer routes the same way.
        for balancer in BALANCER_NAMES:
            fleet = simulate_fleet(
                DeviceSpec(joint_design_690t), tenants, balancer=balancer,
                **run,
            )
            board = fleet.replicas[0]
            from_board = {
                "design_label": "AlexNet + SqueezeNet [fixed16]",
                "num_clps": len(board.clp_busy_fraction),
                "epoch_cycles": board.epoch_cycles,
                "pipeline_depths": board.pipeline_depths,
                "clp_busy_fraction": board.clp_busy_fraction,
            }
            for field in dataclasses.fields(ServeResult):
                name = field.name
                expected = (
                    from_board[name] if name in from_board
                    else getattr(fleet, name)
                )
                assert getattr(serve, name) == expected, (balancer, name)
            # Per tenant on a board vs summed over both tenants.
            assert fleet.capacity_rps == pytest.approx(2 * serve.capacity_rps)


# ----------------------------------------------------------- hypothesis
class TestFleetProperties:
    @FAST
    @given(
        replicas=st.integers(min_value=1, max_value=4),
        rate_mult=st.floats(min_value=0.2, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        queue_depth=st.integers(min_value=1, max_value=64),
        balancer=st.sampled_from(BALANCER_NAMES),
        drain=st.booleans(),
    )
    def test_conservation_across_replicas(
        self, toy_design, replicas, rate_mult, seed, queue_depth, balancer,
        drain,
    ):
        result = _fleet(
            toy_design, replicas, rate_mult, seed=seed, balancer=balancer,
            queue_depth=queue_depth, drain=drain, epochs=25,
        )
        tenant = result.tenants[0]
        # Every arrival was routed to exactly one replica...
        assert tenant.arrivals == sum(r.arrivals for r in result.replicas)
        # ...and is accounted for exactly once, fleet-wide.
        assert tenant.arrivals == (
            tenant.completions + tenant.drops + tenant.in_flight
        )
        if drain:
            assert tenant.in_flight == 0
        assert tenant.completions == sum(
            r.completions for r in result.replicas
        )
        assert tenant.drops == sum(r.drops for r in result.replicas)

    @FAST
    @given(
        replicas=st.integers(min_value=2, max_value=5),
        rate_mult=st.floats(min_value=0.5, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_robin_fairness_bound(
        self, toy_design, replicas, rate_mult, seed
    ):
        result = _fleet(
            toy_design, replicas, rate_mult, seed=seed,
            balancer="round-robin", epochs=25,
        )
        routed = [replica.arrivals for replica in result.replicas]
        # Strict rotation: per-replica routed counts differ by at most 1.
        assert max(routed) - min(routed) <= 1

    @FAST
    @given(
        replicas=st.integers(min_value=1, max_value=3),
        rate_mult=st.floats(min_value=0.5, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        balancer=st.sampled_from(BALANCER_NAMES),
    )
    def test_determinism_under_fixed_seed(
        self, toy_design, replicas, rate_mult, seed, balancer
    ):
        first = _fleet(toy_design, replicas, rate_mult, seed=seed,
                       balancer=balancer, epochs=20)
        second = _fleet(toy_design, replicas, rate_mult, seed=seed,
                        balancer=balancer, epochs=20)
        assert first == second

    def test_power_of_two_never_worse_than_random_on_p99(self, toy_design):
        """The policy's whole selling point, pinned across fixed seeds."""
        for seed in range(8):
            power = _fleet(toy_design, 4, 3.0, seed=seed,
                           balancer="power-of-two", drain=True, epochs=80)
            random_ = _fleet(toy_design, 4, 3.0, seed=seed,
                             balancer="random", drain=True, epochs=80)
            assert (
                power.tenants[0].latency.p99
                <= random_.tenants[0].latency.p99
            )


    @pytest.mark.parametrize("drain", [False, True])
    def test_run_state_freed_without_cycle_collection(self, toy_design, drain):
        """A finished run leaves no cyclic garbage behind: its event
        queue, controller and routing predicate point back at the run
        state, and each tenant state at its board, so ``run`` drops
        them and reference counting frees it, on either engine.
        Otherwise a benchmark's peak RSS depends on when the cycle
        collector happens to run."""
        import gc

        from repro.fleet.cluster import Replica, _FleetRun
        from repro.fleet.detector import DetectorSpec
        from repro.obs import ObsSpec, TraceRecorder
        from repro.serve.overload import OverloadSpec, RetryPolicy

        epoch_ms = toy_design.epoch_cycles / 1e5
        gc.collect()
        gc.disable()
        try:
            simulate_fleet(
                DeviceSpec(toy_design).replicated(3),
                _tenants(toy_design, 3.0),
                duration_cycles=60 * toy_design.epoch_cycles,
                balancer="power-of-two",
                drain=drain,
                scenario="chaos",
                detector=DetectorSpec(
                    mode="probe", request_timeout_ms=4 * epoch_ms
                ),
                overload=OverloadSpec(
                    queue_policy="edf",
                    retry=RetryPolicy(max_attempts=2, base_ms=epoch_ms),
                    deadline_ms=16 * epoch_ms,
                ),
                obs=ObsSpec(timeseries=True, trace=TraceRecorder()),
            )
            simulate_fleet(
                DeviceSpec(toy_design).replicated(3),
                _tenants(toy_design, 3.0),
                duration_cycles=60 * toy_design.epoch_cycles,
                drain=drain,
                engine="fast",
            )
            left = [
                o for o in gc.get_objects()
                if isinstance(o, (_FleetRun, Replica))
            ]
        finally:
            gc.enable()
        assert left == []


# ------------------------------------------------------------ heterogeneous
class TestHeterogeneousFleet:
    def test_dedicated_boards_per_tenant(self, toy_design, toy2_design):
        epoch = toy_design.epoch_cycles
        tenants = [
            TenantSpec("toy", ConstantRate(0.5 / epoch)),
            TenantSpec("toy2", ConstantRate(0.5 / epoch)),
        ]
        result = simulate_fleet(
            [DeviceSpec(toy_design), DeviceSpec(toy2_design)],
            tenants,
            duration_cycles=20 * epoch,
            drain=True,
        )
        assert result.num_replicas == 2
        # Each tenant's traffic lands only on the board that serves it.
        toy_replica, toy2_replica = result.replicas
        assert [t.name for t in toy_replica.tenants] == ["toy"]
        assert [t.name for t in toy2_replica.tenants] == ["toy2"]
        assert result.tenant("toy").arrivals == toy_replica.arrivals
        assert result.tenant("toy2").arrivals == toy2_replica.arrivals
        # Replicas keep their own epoch lengths.
        assert toy_replica.epoch_cycles == toy_design.epoch_cycles
        assert toy2_replica.epoch_cycles == toy2_design.epoch_cycles

    def test_unserved_tenant_rejected(self, toy_design):
        with pytest.raises(ValueError, match="not served"):
            ClusterSimulator(
                DeviceSpec(toy_design),
                [
                    TenantSpec("toy", ConstantRate(1e-4)),
                    TenantSpec("ghost", ConstantRate(1e-4)),
                ],
            )

    def test_streamless_replica_network_rejected(self, toy_design, toy2_design):
        with pytest.raises(ValueError, match="no tenant stream"):
            ClusterSimulator(
                [DeviceSpec(toy_design), DeviceSpec(toy2_design)],
                [TenantSpec("toy", ConstantRate(1e-4))],
            )

    def test_bad_arguments(self, toy_design):
        tenants = [TenantSpec("toy", ConstantRate(1e-4))]
        with pytest.raises(ValueError):
            ClusterSimulator([], tenants)
        with pytest.raises(ValueError):
            ClusterSimulator(DeviceSpec(toy_design), [])
        with pytest.raises(ValueError):
            ClusterSimulator(DeviceSpec(toy_design), tenants, queue_depth=0)
        with pytest.raises(ValueError):
            ClusterSimulator(DeviceSpec(toy_design), tenants, policy="fifo")
        with pytest.raises(ValueError):
            ClusterSimulator(DeviceSpec(toy_design), tenants * 2)
        with pytest.raises(ValueError):
            ClusterSimulator(DeviceSpec(toy_design), tenants).run(0.0)


# ---------------------------------------------------------------- planner
class TestCapacityPlanner:
    #: toy board capacity at 100MHz, in requests/second.
    @pytest.fixture(scope="class")
    def board_capacity(self, toy_design):
        return 1e8 / toy_design.epoch_cycles

    def test_planned_fleet_meets_slo(self, toy_design, board_capacity):
        slo = SLOSpec(p99_ms=2.0, max_drop_rate=0.0)
        plan = plan_capacity(
            DeviceSpec(toy_design), 3.0 * board_capacity, slo,
            duration_ms=10.0, seed=1,
        )
        assert plan.meets and plan.replicas is not None
        # The acceptance criterion: re-scoring the planned fleet passes.
        assert evaluate_slo(plan.result, slo).meets
        assert plan.report.meets
        # And the plan is minimal: one board fewer fails (if probed).
        smaller = [p for p in plan.probes if p.replicas == plan.replicas - 1]
        assert all(not probe.meets for probe in smaller)

    def test_monotone_in_arrival_rate(self, toy_design, board_capacity):
        slo = SLOSpec(p99_ms=2.0, max_drop_rate=0.0)
        planned = [
            plan_capacity(
                DeviceSpec(toy_design), mult * board_capacity, slo,
                duration_ms=10.0, seed=1,
            ).replicas
            for mult in (0.5, 1.5, 3.0, 6.0)
        ]
        assert all(count is not None for count in planned)
        assert planned == sorted(planned)
        assert planned[0] == 1 and planned[-1] > planned[0]

    def test_monotone_in_board_throughput(self, toy_design, board_capacity):
        # A faster clock serves more per board: never needs MORE boards.
        slo = SLOSpec(p99_ms=2.0, max_drop_rate=0.0)
        rate = 3.0 * board_capacity
        slow = plan_capacity(
            DeviceSpec(toy_design), rate, slo,
            duration_ms=10.0, seed=1, frequency_mhz=100.0,
        )
        fast = plan_capacity(
            DeviceSpec(toy_design), rate, slo,
            duration_ms=10.0, seed=1, frequency_mhz=200.0,
        )
        assert slow.meets and fast.meets
        assert fast.replicas <= slow.replicas

    def test_unattainable_slo_reported(self, toy_design, board_capacity):
        # The pipeline floor makes a microsecond p99 impossible at any
        # count; the planner must say so rather than loop or lie.
        plan = plan_capacity(
            DeviceSpec(toy_design), board_capacity,
            SLOSpec(p99_ms=1e-3), max_replicas=4, duration_ms=5.0,
        )
        assert not plan.meets and plan.replicas is None
        assert plan.result is None and plan.report is None
        assert "not met" in plan.format()

    def test_rejects_bad_arguments(self, toy_design):
        with pytest.raises(ValueError):
            plan_capacity(DeviceSpec(toy_design), -1.0, SLOSpec())
        with pytest.raises(ValueError):
            plan_capacity(
                DeviceSpec(toy_design), 10.0, SLOSpec(), max_replicas=0
            )

    def test_rejects_tenant_affinity(self, toy_design):
        # Pinning breaks the monotone-in-replicas premise the bisection
        # rests on (a pinned tenant gains nothing from added boards, and
        # digest % n moves non-monotonically with n): refuse loudly.
        with pytest.raises(ValueError, match="tenant-affinity"):
            plan_capacity(
                DeviceSpec(toy_design), 10.0, SLOSpec(),
                balancer="tenant-affinity",
            )
        with pytest.raises(ValueError, match="tenant-affinity"):
            plan_capacity(
                DeviceSpec(toy_design), 10.0, SLOSpec(),
                balancer=make_balancer("tenant-affinity"),
            )


class TestAutoscaler:
    def test_spike_scales_up_then_down(self, toy_design):
        capacity = 1e8 / toy_design.epoch_cycles
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=8,
            p99_high_ms=1.5, queue_high=4.0,
            p99_low_ms=0.8, queue_low=0.5,
        )
        schedule = [0.5 * capacity] + [3.0 * capacity] * 4 + [0.3 * capacity] * 4
        trace = autoscale(
            DeviceSpec(toy_design), schedule, policy,
            window_ms=5.0, seed=0,
        )
        assert trace.peak_replicas > 1  # the spike forced a scale-up
        assert trace.final_replicas < trace.peak_replicas  # and it recovered
        assert all(
            policy.min_replicas <= w.replicas <= policy.max_replicas
            for w in trace.windows
        )
        assert "autoscaler trace" in trace.format()

    def test_bounds_are_respected_under_permanent_overload(self, toy_design):
        capacity = 1e8 / toy_design.epoch_cycles
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=3, p99_high_ms=0.5
        )
        trace = autoscale(
            DeviceSpec(toy_design), [20.0 * capacity] * 6, policy,
            window_ms=5.0,
        )
        assert trace.peak_replicas == 3
        assert trace.windows[-1].action == 0  # pinned at the cap, not beyond

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy()  # no scale-up clause at all
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_replicas=0, p99_high_ms=1.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_replicas=4, max_replicas=2, p99_high_ms=1.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(p99_high_ms=1.0, step=0)

    def test_schedule_validation(self, toy_design):
        policy = AutoscalerPolicy(p99_high_ms=1.0)
        with pytest.raises(ValueError):
            autoscale(DeviceSpec(toy_design), [], policy)
        with pytest.raises(ValueError):
            autoscale(DeviceSpec(toy_design), [-5.0], policy)
        with pytest.raises(ValueError):
            autoscale(
                DeviceSpec(toy_design), [10.0], policy, initial_replicas=99
            )


# ------------------------------------------------------------ serialization
class TestFleetSerialization:
    @pytest.fixture()
    def result(self, toy_design):
        return _fleet(toy_design, 3, 2.0, balancer="least-outstanding",
                      queue_depth=8, drain=True, epochs=25)

    def test_round_trip(self, result):
        assert from_record(FleetResult, to_record(result)) == result

    def test_json_round_trip_through_text(self, result):
        text = json.dumps(to_record(result))
        assert from_record(FleetResult, json.loads(text)) == result

    def test_rejects_unknown_schema(self, result):
        record = to_record(result)
        record["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            from_record(FleetResult, record)

    def test_dump_load_file(self, result, tmp_path):
        path = tmp_path / "fleet.json"
        dump(result, str(path))
        assert load(FleetResult, str(path)) == result

    def test_format_mentions_fleet_shape(self, result):
        text = result.format()
        assert "fleet of 3 replicas" in text
        assert "least-outstanding" in text
        assert "imbalance" in text

    def test_tenant_lookup(self, result):
        assert result.tenant("toy").name == "toy"
        assert result.replicas[0].tenant("toy").name == "toy"
        with pytest.raises(KeyError):
            result.tenant("ghost")
        with pytest.raises(KeyError):
            result.replicas[0].tenant("ghost")

    def test_capacity_and_totals(self, result, toy_design):
        per_board = 1e8 / toy_design.epoch_cycles
        assert result.capacity_rps == pytest.approx(3 * per_board)
        assert result.tenant_capacity_rps("toy") == result.capacity_rps
        assert result.total_arrivals == result.tenants[0].arrivals
        assert result.total_completions + result.total("drops") == (
            result.total_arrivals
        )


# --------------------------------------------------------- cost-to-serve
class TestCostToServe:
    def test_cheap_sufficient_design_wins(self, sweep_results):
        from repro.dse import cost_to_serve_table, rank_by_cost_to_serve

        # At a light rate both designs meet the SLO with one board, so
        # the provisioning objective flips rank_by_traffic's verdict:
        # the small budget is the cheaper service.
        slo = SLOSpec(p99_ms=2000.0, max_drop_rate=0.05)
        rankings = rank_by_cost_to_serve(
            sweep_results, rate_rps=10.0, slo=slo,
            max_replicas=4, duration_ms=100.0,
        )
        assert len(rankings) == 2
        assert all(r.plan.meets for r in rankings)
        assert rankings[0].result.point.dsp == 800
        assert rankings[0].total_cost < rankings[1].total_cost
        table = cost_to_serve_table(rankings, rate_rps=10.0, slo=slo)
        assert "cost-to-serve" in table and "boards" in table

    def test_synthetic_board_cost_is_dsp_proportional(self, sweep_results):
        from repro.dse.analysis import _board_cost

        costs = {r.point.dsp: _board_cost(r.point) for r in sweep_results}
        assert costs[2240] == pytest.approx(1.0)
        assert costs[800] == pytest.approx(800 / 2240)

    def test_catalog_part_cost_used(self):
        from repro.dse import DesignPoint
        from repro.dse.analysis import _board_cost

        point = DesignPoint.build(network="alexnet", part="690t")
        assert _board_cost(point) == pytest.approx(1.45)


# ------------------------------------------------------------------- CLI
class TestFleetCLI:
    def test_simulate_prints_fleet_table(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "simulate", "--network", "alexnet", "--replicas", "2",
            "--rate", "100", "--duration-ms", "50", "--seed", "1",
            "--balancer", "power-of-two",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2 replicas" in out
        assert "power-of-two" in out

    def test_simulate_save_round_trips(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "fleet.json"
        assert main([
            "fleet", "simulate", "--network", "alexnet", "--replicas", "2",
            "--rate", "60", "--duration-ms", "50", "--save", str(path),
        ]) == 0
        result = load(FleetResult, str(path))
        assert result.num_replicas == 2
        assert "written to" in capsys.readouterr().out

    def test_plan_reports_minimum_fleet(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "plan", "--network", "alexnet", "--rate", "100",
            "--p99-ms", "1000", "--max-replicas", "4",
            "--duration-ms", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "capacity plan" in out
        assert "minimum fleet" in out

    def test_autoscale_prints_trace(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "autoscale", "--network", "alexnet",
            "--rates", "30", "200", "30", "--window-ms", "40",
            "--queue-high", "2", "--queue-low", "0.3",
            "--max-replicas", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "autoscaler trace" in out

    def test_replicas_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="replicas"):
            main([
                "fleet", "simulate", "--network", "alexnet",
                "--replicas", "0",
            ])

    def test_dse_cost_cli(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "sweep.jsonl"
        assert main([
            "dse", "sweep", "--networks", "alexnet", "--budgets", "800:700",
            "--modes", "single", "--store", str(store), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main([
            "dse", "cost", "--store", str(store), "--rate", "10",
            "--p99-ms", "2000", "--max-replicas", "2",
            "--duration-ms", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost-to-serve" in out
