"""Tests for overload control (repro.serve.overload).

The load-bearing guarantees, in test order:

* policy/spec validation and the ``active`` contract — an
  all-defaults :class:`OverloadSpec` is indistinguishable from no spec;
* engine rules: any active overload feature forces the reference event
  engine under ``auto`` and is rejected under ``fast``;
* **no-op differential**: ``overload=OverloadSpec()`` is bit-exact to
  ``overload=None`` on both engines, serve and fleet — the overload
  plumbing on its own can never perturb a plain simulation;
* queue disciplines: EDF sheds expired work at dispatch without
  burning the epoch slot; FIFO serves it late instead (late counted at
  completion, nothing expired);
* admission control: token-bucket and queue-deadline rejections are a
  distinct accounting class, deterministic per seed;
* closed-loop clients: bounded retries and hedging stay conserved and
  reproducible;
* brownout: shedding is strictly bottom-up — a class is never gated
  while a strictly lower-priority class is still admitted, and the top
  class is never gated at all;
* **metastability demo**: unbounded immediate retries with no
  admission control keep fleet goodput pinned below 50% of the
  pre-fault rate long after the fault clears; token-bucket admission
  plus capped jittered backoff recovers to >= 90% on the same seed;
* **request conservation** (hypothesis): ``arrivals == completions +
  drops + lost + rejected + expired + timed_out + in_flight`` per tenant across
  queue policies, admission, retries, deadlines, and fault schedules;
* serialization: overload-free records stay byte-identical to
  pre-overload records (pruned keys), active records round-trip
  through JSON, and the new SLO clauses (de)serialize tolerantly;
* reporting: rejected/expired columns appear only when non-zero, and
  ``repro report`` renders the checked-in overload run;
* **observed pin**: observed fleet runs with every overload feature,
  gray failures or chaos, a probe detector and request timeouts
  reproduce their pinned record (time series included) and Chrome
  trace bit for bit.
"""

import dataclasses
import hashlib
import json
import os
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.report import load_run, render_run_report
from repro.core.clp import CLPConfig
from repro.core.datatypes import FLOAT32
from repro.core.design import MultiCLPDesign
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.core.serialize import from_record, to_record
from repro.fleet import DeviceSpec, simulate_fleet
from repro.fleet.detector import DetectorSpec
from repro.fleet.metrics import FleetResult
from repro.obs import ObsSpec, TraceRecorder
from repro.opt.joint import JointDesign, combine_networks
from repro.scenario import RackFailure, ScenarioSpec, get_scenario
from repro.scenario.library import SCENARIO_NAMES
from repro.serve import SLOSpec, TenantSpec, evaluate_slo, make_arrival_process
from repro.serve.arrivals import PoissonArrivals
from repro.serve.metrics import (
    COUNTERS,
    REPORT_COUNTERS,
    SHED,
    TABLE_COUNTERS,
    ServeResult,
    TenantStats,
)
from repro.serve.overload import (
    BACKOFF_MODES,
    JITTER_MODES,
    QUEUE_POLICIES,
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadController,
    OverloadSpec,
    OverloadTenantState,
    RetryPolicy,
)
from repro.serve.simulator import Request, TenantState, simulate_traffic
from repro.sim.fastpath import resolve_engine

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
OBSERVED_PIN_PATH = os.path.join(DATA_DIR, "observed_overload_runs.json")

FAST = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------- helpers
def _tenants(design, rate_mult, **kwargs):
    epoch = design.epoch_cycles
    proc = make_arrival_process("poisson", rate_mult / epoch)
    return [TenantSpec(design.network.name, proc, **kwargs)]


def _serve(design, rate_mult, *, epochs=60, seed=0, overload=None,
           engine="auto", queue_depth=64, policy="drop-tail", drain=False,
           tenants=None):
    return simulate_traffic(
        design,
        tenants if tenants is not None else _tenants(design, rate_mult),
        duration_cycles=epochs * design.epoch_cycles,
        seed=seed,
        queue_depth=queue_depth,
        policy=policy,
        drain=drain,
        engine=engine,
        overload=overload,
    )


def _fleet(design, replicas, rate_mult, *, epochs=60, seed=0, overload=None,
           engine="auto", queue_depth=64, policy="drop-tail", drain=False,
           scenario=None, balancer="round-robin", detector=None):
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
        engine=engine,
        overload=overload,
        detector=detector,
    )


def _epoch_ms(design, frequency_mhz=100.0):
    return design.epoch_cycles / (frequency_mhz * 1e6) * 1e3


def _assert_conserved(result):
    for tenant in result.tenants:
        shed = sum(getattr(tenant, name) for name in SHED)
        out = tenant.completions + shed + tenant.in_flight
        assert tenant.arrivals == out, tenant
        assert 0 <= tenant.failed_over <= tenant.arrivals


@pytest.fixture(scope="module")
def toy_joint():
    """Two one-layer networks on one accelerator: the brownout rig.

    Priorities are per tenant, so exercising the brownout ladder needs
    two tenants — and serve tenants must match the design's networks.
    """
    hot = Network("hot", [ConvLayer("a", n=3, m=8, r=13, c=13, k=3)])
    cold = Network("cold", [ConvLayer("b", n=8, m=8, r=13, c=13, k=3)])
    combined = combine_networks([hot, cold])
    layers = list(combined)
    return JointDesign(
        design=MultiCLPDesign(
            combined,
            [
                CLPConfig(4, 16, [layers[0]], FLOAT32, [(13, 13)]),
                CLPConfig(8, 16, [layers[1]], FLOAT32, [(13, 13)]),
            ],
            FLOAT32,
        ),
        networks=(hot, cold),
    )


# ------------------------------------------------------------ spec contracts
class TestSpecs:
    def test_constant_tuples(self):
        assert QUEUE_POLICIES == ("fifo", "edf", "priority")
        assert BACKOFF_MODES == ("fixed", "exponential")
        assert JITTER_MODES == ("none", "full", "decorrelated")

    def test_defaults_inactive(self):
        assert not OverloadSpec().active
        assert not AdmissionPolicy().active

    @pytest.mark.parametrize("spec", [
        OverloadSpec(queue_policy="edf"),
        OverloadSpec(queue_policy="priority"),
        OverloadSpec(admission=AdmissionPolicy(rate_rps=100.0)),
        OverloadSpec(admission=AdmissionPolicy(deadline_admission=True)),
        OverloadSpec(retry=RetryPolicy()),
        OverloadSpec(brownout=BrownoutPolicy()),
        OverloadSpec(deadline_ms=1.0),
    ])
    def test_each_feature_activates(self, spec):
        assert spec.active

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadSpec(queue_policy="lifo")
        with pytest.raises(ValueError):
            OverloadSpec(deadline_ms=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(rate_rps=-1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(burst=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff="cubic")
        with pytest.raises(ValueError):
            RetryPolicy(jitter="gaussian")
        with pytest.raises(ValueError):
            RetryPolicy(base_ms=0.0)
        with pytest.raises(ValueError):
            BrownoutPolicy(p99_ms=0.0)
        with pytest.raises(ValueError):
            BrownoutPolicy(recover_factor=1.5)

    def test_retry_cap_defaults_to_32x_base(self):
        assert RetryPolicy(base_ms=0.5).effective_cap_ms == 16.0
        assert RetryPolicy(base_ms=0.5, cap_ms=2.0).effective_cap_ms == 2.0

    def test_tenant_spec_fields(self, toy_design):
        spec = _tenants(toy_design, 1.0, priority=3, deadline_ms=2.5)[0]
        assert spec.priority == 3 and spec.deadline_ms == 2.5


# ------------------------------------------------------------- engine rules
class TestEngineRules:
    def test_auto_resolves_event_under_overload(self):
        assert resolve_engine("auto", has_overload=True) == "event"
        assert resolve_engine("auto", has_obs=True) == "event"
        assert resolve_engine("auto") == "fast"
        assert resolve_engine("event", has_obs=True) == "event"

    def test_fast_with_overload_rejected(self):
        with pytest.raises(ValueError, match="overload"):
            resolve_engine("fast", has_overload=True)

    def test_fast_with_obs_rejected(self):
        with pytest.raises(ValueError, match="observation"):
            resolve_engine("fast", has_obs=True)

    def test_simulate_fast_with_overload_rejected(self, toy_design):
        with pytest.raises(ValueError, match="overload"):
            _serve(toy_design, 1.0, engine="fast",
                   overload=OverloadSpec(queue_policy="edf"))

    def test_tenant_deadline_alone_forces_event(self, toy_design):
        tenants = _tenants(toy_design, 1.0, deadline_ms=5.0)
        with pytest.raises(ValueError, match="overload"):
            _serve(toy_design, 1.0, engine="fast", tenants=tenants)

    def test_fleet_fast_with_overload_rejected(self, toy_design):
        with pytest.raises(ValueError, match="overload"):
            _fleet(toy_design, 2, 1.0, engine="fast",
                   overload=OverloadSpec(retry=RetryPolicy()))


# --------------------------------------------------------- no-op differential
class TestNoopDifferential:
    """All-features-off overload must be bit-exact with no overload."""

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_serve_default_spec_is_noop(self, toy_design, engine):
        plain = _serve(toy_design, 1.5, seed=5, engine=engine)
        wired = _serve(toy_design, 1.5, seed=5, engine="event",
                       overload=OverloadSpec())
        assert to_record(plain) == to_record(wired)

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_fleet_default_spec_is_noop(self, toy_design, engine):
        plain = _fleet(toy_design, 3, 2.0, seed=5, engine=engine,
                       balancer="least-outstanding")
        wired = _fleet(toy_design, 3, 2.0, seed=5, engine="event",
                       balancer="least-outstanding", overload=OverloadSpec())
        assert to_record(plain) == to_record(wired)

    def test_inactive_spec_keeps_fast_path(self, toy_design):
        """engine='auto' + default spec must still take the fast path."""
        result = _serve(toy_design, 1.0, overload=OverloadSpec())
        plain = _serve(toy_design, 1.0, engine="fast")
        assert to_record(result) == to_record(plain)


# ------------------------------------------------------------- disciplines
class TestQueueDisciplines:
    def test_edf_sheds_expired_at_dispatch(self, toy_design):
        deadline = 3 * _epoch_ms(toy_design)
        result = _serve(toy_design, 2.0, epochs=80,
                        overload=OverloadSpec(queue_policy="edf",
                                              deadline_ms=deadline))
        tenant = result.tenants[0]
        assert tenant.expired > 0
        _assert_conserved(result)

    def test_fifo_serves_late_instead_of_shedding(self, toy_design):
        deadline = 3 * _epoch_ms(toy_design)
        result = _serve(toy_design, 2.0, epochs=80,
                        overload=OverloadSpec(queue_policy="fifo",
                                              deadline_ms=deadline))
        tenant = result.tenants[0]
        assert tenant.expired == 0
        assert tenant.late > 0
        assert tenant.good_completions == tenant.completions - tenant.late
        _assert_conserved(result)

    def test_goodput_columns_exclude_late_completions(self, toy_design):
        """Every printed "goodput r/s" counts good completions only, as
        the SLO report does: the serve and fleet tables and the report's
        runs and SLO-attainment sections."""
        overload = OverloadSpec(
            queue_policy="fifo", deadline_ms=3 * _epoch_ms(toy_design)
        )
        serve = _serve(toy_design, 2.0, epochs=80, overload=overload)
        fleet = _fleet(toy_design, 2, 4.0, epochs=80, overload=overload)
        for result in (serve, fleet):
            tenant = result.tenants[0]
            assert tenant.late > 0
            good = result.rate_to_rps(
                tenant.good_completions / result.horizon_cycles
            )
            lines = result.format().splitlines()
            at = next(i for i, line in enumerate(lines) if "goodput r/s" in line)
            header = lines[at]
            row = next(
                line for line in lines[at:] if line.split()[0] == tenant.name
            )
            column = header.index("goodput r/s")
            assert row[column:].split()[0] == f"{good:.1f}"
            report = render_run_report([result], ["run.json"])
            lines = report.splitlines()
            header = next(line for line in lines if "goodput r/s" in line)
            row = next(line for line in lines if "run.json" in line)
            column = header.split("|").index(" goodput r/s ")
            total = sum(
                result.rate_to_rps(t.good_completions / result.horizon_cycles)
                for t in result.tenants
            )
            assert row.split("|")[column].strip() == f"{total:.1f}"
            slo = report[report.index("## SLO attainment"):].splitlines()
            header = next(line for line in slo if "goodput r/s" in line)
            column = header.split("|").index(" goodput r/s ")
            row = next(line for line in slo if f"| {tenant.name} |" in line)
            assert row.split("|")[column].strip() == f"{good:.1f}"

    def test_priority_discipline_runs_conserved(self, toy_design):
        result = _serve(
            toy_design, 2.0, epochs=80, queue_depth=4,
            overload=OverloadSpec(queue_policy="priority",
                                  retry=RetryPolicy(max_attempts=3,
                                                    base_ms=0.01)),
        )
        assert result.tenants[0].retries > 0
        _assert_conserved(result)

    def test_expired_never_counts_as_completion(self, toy_design):
        deadline = 2 * _epoch_ms(toy_design)
        result = _serve(toy_design, 3.0, epochs=60, drain=True,
                        overload=OverloadSpec(queue_policy="edf",
                                              deadline_ms=deadline))
        tenant = result.tenants[0]
        assert tenant.expired > 0
        assert tenant.in_flight == 0  # drained
        _assert_conserved(result)

    def test_requeue_position_per_queue_class(self):
        """A requeued request (evacuated or failed over) joins a plain
        queue at the tail but is re-sorted by a discipline queue: by
        creation order under ``fifo``, by deadline under ``edf``.  The
        benchmark references pin both rules.  ``seq`` is the creation
        order the overload controller stamps."""
        spec = TenantSpec("net", make_arrival_process("poisson", 1.0))
        first = Request(4.0, seq=1)
        requeued = Request(9.0, seq=2)
        last = Request(1.0, seq=3)

        def order(state):
            for req in (first, last):
                assert state.push(req, 10.0) is None
            assert state.requeue(requeued, 10.0) is None
            return [state.queue.popleft() for _ in range(3)]

        plain = TenantState(spec, 1, (1,), 8, "drop-tail")
        assert order(plain) == [first, last, requeued]
        fifo = OverloadTenantState(spec, 1, (1,), 8, "drop-tail")
        assert order(fifo) == [first, requeued, last]
        edf = OverloadTenantState(
            spec, 1, (1,), 8, "drop-tail",
            queue_policy="edf", deadline_cycles=5.0,
        )
        assert order(edf) == [last, first, requeued]


# ---------------------------------------------------------------- admission
class TestAdmission:
    def test_token_bucket_rejects_excess(self, toy_design):
        epoch = toy_design.epoch_cycles
        capacity_rps = 100e6 / epoch
        result = _serve(
            toy_design, 3.0, epochs=80,
            overload=OverloadSpec(
                admission=AdmissionPolicy(rate_rps=0.5 * capacity_rps)),
        )
        tenant = result.tenants[0]
        assert tenant.rejected > 0
        assert tenant.drops == 0 or tenant.rejected > tenant.drops
        _assert_conserved(result)

    def test_deadline_admission_rejects_long_waits(self, toy_design):
        deadline = 2 * _epoch_ms(toy_design)
        result = _serve(
            toy_design, 3.0, epochs=80, queue_depth=10**6,
            overload=OverloadSpec(
                admission=AdmissionPolicy(deadline_admission=True),
                deadline_ms=deadline),
        )
        tenant = result.tenants[0]
        assert tenant.rejected > 0
        assert tenant.expired == 0  # fifo: rejected at the door instead
        _assert_conserved(result)

    def test_rejected_distinct_from_drops(self, toy_design):
        """Admission rejections must not inflate the queue-drop class."""
        epoch = toy_design.epoch_cycles
        result = _serve(
            toy_design, 3.0, epochs=80, queue_depth=10**6,
            overload=OverloadSpec(
                admission=AdmissionPolicy(rate_rps=0.5 * 100e6 / epoch)),
        )
        tenant = result.tenants[0]
        assert tenant.rejected > 0 and tenant.drops == 0

    def test_deterministic_per_seed(self, toy_design):
        spec = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(rate_rps=40000.0),
            retry=RetryPolicy(max_attempts=2, base_ms=0.01),
            deadline_ms=4 * _epoch_ms(toy_design),
        )
        a = _serve(toy_design, 2.0, seed=11, overload=spec)
        b = _serve(toy_design, 2.0, seed=11, overload=spec)
        c = _serve(toy_design, 2.0, seed=12, overload=spec)
        assert to_record(a) == to_record(b)
        assert to_record(a) != to_record(c)


# ------------------------------------------------------------------ retries
class TestRetries:
    def test_bounded_retries(self, toy_design):
        result = _serve(
            toy_design, 3.0, epochs=60, queue_depth=2,
            overload=OverloadSpec(
                retry=RetryPolicy(max_attempts=3, base_ms=0.01,
                                  jitter="none", backoff="fixed")),
        )
        tenant = result.tenants[0]
        assert tenant.retries > 0
        # Each original request spawns at most max_attempts - 1 retries.
        originals = tenant.arrivals - tenant.retries - tenant.hedges
        assert tenant.retries <= 2 * originals
        _assert_conserved(result)

    def test_retry_jitter_modes_run(self, toy_design):
        for jitter in JITTER_MODES:
            result = _serve(
                toy_design, 3.0, epochs=40, queue_depth=2,
                overload=OverloadSpec(
                    retry=RetryPolicy(max_attempts=2, base_ms=0.01,
                                      jitter=jitter)),
            )
            _assert_conserved(result)

    def test_hedging_duplicates_slow_requests(self, toy_design):
        result = _serve(
            toy_design, 1.5, epochs=80,
            overload=OverloadSpec(
                retry=RetryPolicy(max_attempts=1,
                                  hedge_ms=2 * _epoch_ms(toy_design))),
        )
        tenant = result.tenants[0]
        assert tenant.hedges > 0
        _assert_conserved(result)

    def test_retry_counts_surface_in_report(self, toy_design):
        result = _serve(
            toy_design, 3.0, epochs=40, queue_depth=2,
            overload=OverloadSpec(retry=RetryPolicy(max_attempts=2,
                                                    base_ms=0.01)),
        )
        stats = result.overload.class_stats(0)
        assert stats.retries == result.tenants[0].retries > 0

    def test_class_totals_sum_member_tenants(self, toy_joint):
        # Gray failures under an oracle detector and request timeouts
        # leave a tenant with no routable replica at times: its retries
        # and hedges that arrive then never reach a board, yet count.
        epoch, epoch_ms = toy_joint.epoch_cycles, _epoch_ms(toy_joint)
        tenants = [
            TenantSpec(name, make_arrival_process("poisson", 1.0 / epoch),
                       priority=priority)
            for priority, name in enumerate(("cold", "hot"))
        ]
        result = simulate_fleet(
            DeviceSpec(toy_joint).replicated(3), tenants,
            duration_cycles=200 * epoch, seed=0, scenario="gray-failure",
            detector=DetectorSpec(request_timeout_ms=4 * epoch_ms),
            overload=OverloadSpec(
                retry=RetryPolicy(max_attempts=3, hedge_ms=3 * epoch_ms),
                deadline_ms=20 * epoch_ms,
            ),
        )
        _assert_conserved(result)
        assert sum(t.retries for t in result.tenants) > 0
        assert sum(t.hedges for t in result.tenants) > 0
        for entry in result.overload.classes:
            members = [t for t in result.tenants if t.name in entry.tenants]
            for key in ("arrivals", "completions", "rejected", "expired",
                        "late", "retries", "hedges"):
                assert getattr(entry, key) == sum(
                    getattr(t, key) for t in members
                ), (entry.priority, key)
            assert entry.good == entry.completions - entry.late


# ----------------------------------------------------------------- brownout
class TestBrownout:
    def _run(self, toy_joint, seed=2):
        epoch_ms = _epoch_ms(toy_joint)
        epoch = toy_joint.epoch_cycles
        tenants = [
            TenantSpec("cold",
                       make_arrival_process("poisson", 1.2 / epoch),
                       priority=0),
            TenantSpec("hot",
                       make_arrival_process("poisson", 0.8 / epoch),
                       priority=1),
        ]
        spec = OverloadSpec(
            queue_policy="edf",
            brownout=BrownoutPolicy(p99_ms=6 * epoch_ms,
                                    window_ms=20 * epoch_ms),
            deadline_ms=8 * epoch_ms,
        )
        return simulate_traffic(
            toy_joint, tenants, duration_cycles=600 * epoch,
            seed=seed, queue_depth=64, overload=spec,
        )

    def test_sheds_bottom_up_never_top(self, toy_joint):
        """A class is never gated while a strictly lower one is admitted."""
        result = self._run(toy_joint)
        report = result.overload
        levels = sorted(entry.priority for entry in report.classes)
        shed_windows = [
            w for w in range(len(report.times)) if report.shed_priorities(w)
        ]
        assert shed_windows, "brownout never engaged; test is vacuous"
        for window in range(len(report.times)):
            shed = report.shed_priorities(window)
            assert levels[-1] not in shed  # top class is never gated
            for priority in shed:
                lower = [q for q in levels if q < priority]
                assert all(q in shed for q in lower), (window, shed)

    def test_quiet_window_holds_the_level(self, toy_joint):
        """A window with no protected completion and no protected
        arrival says nothing about recovery: the shed level holds
        instead of flapping back."""
        epoch = toy_joint.epoch_cycles
        tenants = [
            TenantSpec(name, PoissonArrivals(1.0 / epoch), priority=priority)
            for name, priority in (("cold", 0), ("hot", 1))
        ]
        controller = OverloadController(
            OverloadSpec(brownout=BrownoutPolicy(p99_ms=1.0, window_ms=1.0)),
            tenants, horizon=4e5, frequency_mhz=100.0, seed=0,
        )
        assert controller.admit(1, Request(0.0), 0.0) is None
        assert controller.step(1) == "shed"  # tried, nothing completed
        assert controller.step(2) is None
        assert controller.shed == frozenset({0})

    def test_protects_high_priority_goodput(self, toy_joint):
        result = self._run(toy_joint)
        report = result.overload
        assert report.brownout_steps > 0
        hot = report.class_stats(1)
        cold = report.class_stats(0)
        assert hot.rejected == 0
        assert cold.rejected > 0
        assert hot.good / hot.arrivals > cold.good / cold.arrivals

    def test_conserved_and_seed_stable(self, toy_joint):
        a = self._run(toy_joint, seed=4)
        b = self._run(toy_joint, seed=4)
        _assert_conserved(a)
        assert to_record(a) == to_record(b)


# ----------------------------------------------------- metastability (demo)
class TestMetastability:
    """The acceptance demo: retry storms make overload self-sustaining.

    A rack failure halves capacity for 15% of the run.  Naive clients
    (unlimited immediate retries, no admission control) wedge the fleet:
    the queue is permanently full of already-expired work, every
    completion is late, and goodput never recovers after the fault
    clears.  Token-bucket admission plus capped jittered backoff serves
    the same traffic on the same seed and recovers completely.
    """

    FAULT_START = 0.25
    FAULT_END = 0.40
    EPOCHS = 400

    def _run(self, design, overload, seed=0):
        epoch = design.epoch_cycles
        horizon = self.EPOCHS * epoch
        scenario = ScenarioSpec(
            name="storm-drill",
            faults=(RackFailure(fraction=0.5, start=self.FAULT_START,
                                duration=self.FAULT_END - self.FAULT_START),),
        )
        tenants = [TenantSpec(design.network.name,
                              make_arrival_process("poisson",
                                                   0.9 * 2 / epoch))]
        result = simulate_fleet(
            DeviceSpec(design).replicated(2), tenants,
            duration_cycles=horizon, seed=seed, queue_depth=32,
            scenario=scenario, overload=overload,
        )
        report = result.overload
        pre = report.goodput_between(0, self.FAULT_START * horizon)
        pre_rate = pre / (self.FAULT_START * horizon)
        recover_start = (self.FAULT_END + 0.1) * horizon
        post = report.goodput_between(recover_start, horizon)
        post_rate = post / (horizon - recover_start)
        return result, post_rate / pre_rate

    def _deadline(self, design):
        return 4 * _epoch_ms(design)

    def test_naive_retries_are_metastable(self, toy_design):
        epoch_ms = _epoch_ms(toy_design)
        naive = OverloadSpec(
            queue_policy="fifo",
            retry=RetryPolicy(max_attempts=0, backoff="fixed",
                              base_ms=0.5 * epoch_ms, cap_ms=0.5 * epoch_ms,
                              jitter="none"),
            deadline_ms=self._deadline(toy_design),
        )
        result, recovery = self._run(toy_design, naive)
        assert recovery < 0.5, (
            f"expected metastable collapse, got {recovery:.2f}"
        )
        assert result.tenants[0].retries > 0
        _assert_conserved(result)

    def test_admission_and_backoff_recover(self, toy_design):
        epoch = toy_design.epoch_cycles
        epoch_ms = _epoch_ms(toy_design)
        fleet_capacity_rps = 2 * 100e6 / epoch
        controlled = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(rate_rps=0.95 * fleet_capacity_rps,
                                      burst=8.0),
            retry=RetryPolicy(max_attempts=3, backoff="exponential",
                              base_ms=epoch_ms, cap_ms=16 * epoch_ms,
                              jitter="decorrelated"),
            deadline_ms=self._deadline(toy_design),
        )
        result, recovery = self._run(toy_design, controlled)
        assert recovery >= 0.9, (
            f"expected recovery with overload control, got {recovery:.2f}"
        )
        _assert_conserved(result)


# ------------------------------------------------- conservation (hypothesis)
class TestConservationProperty:
    @FAST
    @given(
        seed=st.integers(0, 2**32 - 1),
        queue_policy=st.sampled_from(QUEUE_POLICIES),
        admit=st.sampled_from([None, "bucket", "deadline"]),
        retries=st.sampled_from([None, 0, 2]),
        deadline_epochs=st.sampled_from([None, 3]),
        scenario=st.sampled_from([None, "rack-loss", "gray-failure"]),
        drain=st.booleans(),
    )
    def test_requests_conserved(self, toy_design, seed, queue_policy, admit,
                                retries, deadline_epochs, scenario, drain):
        epoch_ms = _epoch_ms(toy_design)
        deadline = (
            None if deadline_epochs is None else deadline_epochs * epoch_ms
        )
        admission = None
        if admit == "bucket":
            admission = AdmissionPolicy(rate_rps=50000.0)
        elif admit == "deadline":
            admission = AdmissionPolicy(deadline_admission=True)
        if admit == "deadline" and deadline is None:
            deadline = 3 * epoch_ms
        retry = (
            None if retries is None
            else RetryPolicy(max_attempts=retries, base_ms=0.01,
                             cap_ms=0.5)
        )
        overload = OverloadSpec(
            queue_policy=queue_policy, admission=admission,
            retry=retry, deadline_ms=deadline,
        )
        result = _fleet(toy_design, 3, 3.0, epochs=40, seed=seed,
                        queue_depth=8, scenario=scenario, drain=drain,
                        overload=overload if overload.active else None)
        _assert_conserved(result)
        total_out = sum(
            t.completions + t.drops + t.lost + t.rejected + t.expired
            + t.timed_out + t.in_flight
            for t in result.tenants
        )
        assert sum(t.arrivals for t in result.tenants) == total_out
        if drain:
            assert all(t.in_flight == 0 for t in result.tenants)


# ------------------------------------------------------------- serialization
class TestSerialization:
    def test_overload_free_record_has_no_new_keys(self, toy_design):
        record = to_record(_serve(toy_design, 1.0))
        assert "overload" not in record
        for tenant in record["tenants"]:
            for key in ("rejected", "expired", "retries", "hedges", "late",
                        "priority"):
                assert key not in tenant

    def test_fleet_overload_free_record_has_no_new_keys(self, toy_design):
        record = to_record(_fleet(toy_design, 2, 1.0))
        assert "overload" not in record
        for tenant in record["tenants"]:
            assert "rejected" not in tenant and "priority" not in tenant
        for replica in record["replicas"]:
            for tenant in replica["tenants"]:
                assert "rejected" not in tenant

    def test_serve_json_round_trip_stable(self, toy_design):
        spec = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(rate_rps=40000.0),
            retry=RetryPolicy(max_attempts=2, base_ms=0.05),
            deadline_ms=3 * _epoch_ms(toy_design),
        )
        result = _serve(toy_design, 2.5, overload=spec)
        assert result.tenants[0].rejected > 0
        first = json.dumps(to_record(result), sort_keys=True)
        loaded = from_record(ServeResult, json.loads(first))
        second = json.dumps(to_record(loaded), sort_keys=True)
        assert first == second
        assert loaded.overload is not None
        assert loaded.overload.queue_policy == "edf"

    def test_fleet_json_round_trip_stable(self, toy_design):
        spec = OverloadSpec(retry=RetryPolicy(max_attempts=2, base_ms=0.01))
        result = _fleet(toy_design, 2, 3.0, queue_depth=2, overload=spec)
        first = json.dumps(to_record(result), sort_keys=True)
        loaded = from_record(FleetResult, json.loads(first))
        second = json.dumps(to_record(loaded), sort_keys=True)
        assert first == second
        assert loaded.total("rejected") == result.total("rejected")

    def test_overload_spec_round_trip(self):
        spec = OverloadSpec(
            queue_policy="priority",
            admission=AdmissionPolicy(rate_rps=1000.0, burst=4.0,
                                      deadline_admission=True),
            retry=RetryPolicy(max_attempts=5, backoff="fixed", base_ms=0.2,
                              cap_ms=1.0, jitter="full", hedge_ms=3.0),
            brownout=BrownoutPolicy(p99_ms=4.0, window_ms=1.0,
                                    recover_factor=0.5),
            deadline_ms=6.0,
        )
        assert from_record(OverloadSpec, to_record(spec)) == spec
        assert from_record(OverloadSpec, to_record(OverloadSpec())) == OverloadSpec()

    def test_slo_spec_round_trip_and_legacy(self):
        legacy = {"p99_ms": 5.0, "max_drop_rate": 0.01,
                  "min_throughput_rps": None}
        assert to_record(from_record(SLOSpec, legacy)) == legacy
        rich = SLOSpec(p99_ms=5.0, deadline_ms=2.0, min_goodput_rps=100.0)
        assert from_record(SLOSpec, to_record(rich)) == rich
        # New clauses absent -> not emitted, keeping old records stable.
        assert "deadline_ms" not in to_record(SLOSpec())

    def test_overload_scenarios_round_trip(self):
        for name in ("retry-storm", "brownout-drill"):
            assert name in SCENARIO_NAMES
            scenario = get_scenario(name)
            assert scenario.overload is not None
            assert scenario.overload.active
            assert not scenario.is_noop
            record = to_record(scenario)
            assert from_record(ScenarioSpec, record) == scenario

    def test_plain_scenario_record_has_no_overload_key(self):
        assert "overload" not in to_record(get_scenario("steady"))


# ---------------------------------------------------------------------- SLO
class TestSLO:
    def test_new_clause_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(deadline_ms=0.0)
        with pytest.raises(ValueError):
            SLOSpec(min_goodput_rps=-1.0)

    def test_deadline_charges_late_completions(self, toy_design):
        deadline = 3 * _epoch_ms(toy_design)
        result = _serve(toy_design, 2.0, epochs=80,
                        overload=OverloadSpec(queue_policy="fifo",
                                              deadline_ms=deadline))
        assert result.tenants[0].late > 0
        lenient = evaluate_slo(result, SLOSpec(max_drop_rate=1.0))
        strict = evaluate_slo(
            result, SLOSpec(max_drop_rate=0.0, deadline_ms=deadline)
        )
        assert lenient.meets
        assert not strict.meets
        assert "drops" in strict.tenants[0].violations[0]

    def test_min_goodput_clause(self, toy_design):
        deadline = 3 * _epoch_ms(toy_design)
        result = _serve(toy_design, 2.0, epochs=80,
                        overload=OverloadSpec(queue_policy="fifo",
                                              deadline_ms=deadline))
        verdict = evaluate_slo(
            result, SLOSpec(max_drop_rate=1.0, min_goodput_rps=10**9)
        )
        assert not verdict.meets
        assert any("goodput" in v for v in verdict.tenants[0].violations)
        assert verdict.tenants[0].goodput_rps < \
            verdict.tenants[0].throughput_rps

    def test_goodput_by_priority(self, toy_design):
        result = _serve(toy_design, 1.0)
        report = evaluate_slo(result, SLOSpec(max_drop_rate=1.0))
        by_priority = dict(report.goodput_by_priority)
        assert set(by_priority) == {0}
        assert by_priority[0] == pytest.approx(report.total_goodput_rps)


# ------------------------------------------------------------------- ledger
class TestLedger:
    """``COUNTERS`` is the one list of a tenant's outcome counters: a
    counter added to ``TenantStats`` without an entry there would drop
    out of fleet aggregates and totals."""

    #: Int fields of ``TenantStats`` that are not outcome counters: the
    #: end-of-run backlog, the queue high-water mark and the class.
    NOT_COUNTERS = {"in_flight", "peak_queue_depth", "priority"}

    def test_counters_are_the_int_outcome_fields(self):
        hints = typing.get_type_hints(TenantStats)
        ints = [
            field.name
            for field in dataclasses.fields(TenantStats)
            if hints[field.name] is int
            and field.name not in self.NOT_COUNTERS
        ]
        assert list(COUNTERS) == ints

    def test_counter_subsets(self):
        assert set(SHED) <= set(COUNTERS)
        assert set(TABLE_COUNTERS) <= set(COUNTERS)
        assert set(REPORT_COUNTERS) <= set(TABLE_COUNTERS)

    @pytest.fixture(scope="class")
    def drill(self, toy_design):
        """Gray failures, oracle timeouts with failover, EDF with
        deadline admission, retries and hedges on three boards."""
        ms = _epoch_ms(toy_design)
        spec = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(deadline_admission=True),
            retry=RetryPolicy(max_attempts=3, hedge_ms=3 * ms),
            deadline_ms=6 * ms,
        )
        return _fleet(
            toy_design, 3, 3.0, epochs=200, queue_depth=8,
            scenario="gray-failure", overload=spec,
            detector=DetectorSpec(request_timeout_ms=4 * ms),
        )

    def test_fleet_totals_sum_the_tenants(self, drill):
        for name in COUNTERS:
            assert drill.total(name) > 0, name
            assert drill.total(name) == sum(
                getattr(t, name) for t in drill.tenants
            ), name
        assert drill.total_arrivals == drill.total("arrivals")
        assert drill.total_completions == drill.total("completions")
        _assert_conserved(drill)

    def test_total_names_a_counter(self, drill):
        with pytest.raises(ValueError, match="unknown counter"):
            drill.total("in_flight")


# ------------------------------------------------------------------ reports
class TestReporting:
    def test_serve_columns_conditional(self, toy_design):
        plain = _serve(toy_design, 1.0).format()
        assert "rejected" not in plain and "expired" not in plain
        spec = OverloadSpec(
            queue_policy="edf",
            admission=AdmissionPolicy(rate_rps=10000.0),
            deadline_ms=3 * _epoch_ms(toy_design),
        )
        loaded = _serve(toy_design, 3.0, overload=spec).format()
        assert "rejected" in loaded

    def test_fleet_overload_line(self, toy_design):
        spec = OverloadSpec(
            admission=AdmissionPolicy(rate_rps=30000.0))
        text = _fleet(toy_design, 2, 3.0, overload=spec).format()
        assert "overload: discipline=fifo" in text
        assert "rejected" in text
        plain = _fleet(toy_design, 2, 1.0).format()
        assert "overload:" not in plain

    def test_sample_overload_run_renders(self):
        path = os.path.join(DATA_DIR, "sample_overload_run.json")
        result = load_run(path)
        assert result.total("rejected") > 0
        assert result.total("expired") > 0
        assert result.overload is not None
        report = render_run_report([result], [path])
        assert "## Overload control" in report
        assert "| rejected | expired |" in report.splitlines()[4]
        assert "edf" in report
        _assert_conserved(result)

    def test_sample_run_report_command(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "report.md"
        path = os.path.join(DATA_DIR, "sample_overload_run.json")
        assert main(["report", path, "--out", str(out)]) == 0
        assert "## Overload control" in out.read_text()


# ---------------------------------------------------------------------- CLI
class TestCLI:
    def _parse(self, argv):
        from repro.cli import build_parser
        return build_parser().parse_args(argv)

    def test_overload_flags_parse(self):
        args = self._parse([
            "serve", "--queue-policy", "edf", "--admission", "1000",
            "--deadline-ms", "2.0", "--retries", "3",
            "--retry-jitter", "decorrelated", "--brownout-p99-ms", "5",
        ])
        from repro.cli import _overload_spec
        spec = _overload_spec(args)
        assert spec is not None and spec.active
        assert spec.queue_policy == "edf"
        assert spec.admission.rate_rps == 1000.0
        assert spec.retry.max_attempts == 3
        assert spec.brownout.p99_ms == 5.0

    def test_defaults_build_no_spec(self):
        from repro.cli import _overload_spec
        args = self._parse(["serve"])
        assert _overload_spec(args) is None

    @pytest.mark.parametrize("argv", [
        ["serve", "--queue-policy", "lifo"],
        ["serve", "--process", "weibull"],
        ["serve", "--policy", "drop-random"],
        ["serve", "--engine", "warp"],
        ["serve", "--retry-jitter", "gaussian"],
        ["fleet", "simulate", "--scenario", "nonexistent-drill"],
    ])
    def test_bad_choices_rejected_at_parse_time(self, argv):
        with pytest.raises(SystemExit):
            self._parse(argv)

    def test_scenario_choices_track_library(self):
        parser = self._parse(["fleet", "simulate",
                              "--scenario", "retry-storm"])
        assert parser.scenario == "retry-storm"


# ------------------------------------------------------------ observed pin
def _observed_runs(toy_joint):
    """Case id -> zero-argument observed run on three ``toy_joint``
    boards: two priority classes at 4 requests per epoch each (above
    the fleet's 3), a token bucket, retries with hedging, brownout,
    request deadlines, a probe detector with request timeouts, and
    either discipline with deadline admission on or off."""
    epoch, epoch_ms = toy_joint.epoch_cycles, _epoch_ms(toy_joint)
    tenants = [
        TenantSpec(network.name, PoissonArrivals(4.0 / epoch), priority=p)
        for network, p in zip(toy_joint.networks, (1, 0))
    ]

    def run(queue_policy, scenario, deadline_admission, drain=False):
        overload = OverloadSpec(
            queue_policy=queue_policy,
            admission=AdmissionPolicy(
                rate_rps=3.5e3 / epoch_ms, burst=4.0,
                deadline_admission=deadline_admission,
            ),
            retry=RetryPolicy(
                max_attempts=3, base_ms=epoch_ms, hedge_ms=2 * epoch_ms
            ),
            brownout=BrownoutPolicy(p99_ms=6 * epoch_ms, window_ms=20 * epoch_ms),
            deadline_ms=3 * epoch_ms,
        )

        def observed():
            trace = TraceRecorder()
            result = simulate_fleet(
                DeviceSpec(toy_joint).replicated(3), tenants,
                duration_cycles=300 * epoch, queue_depth=6, drain=drain,
                scenario=scenario, overload=overload,
                detector=DetectorSpec(
                    mode="probe", request_timeout_ms=4 * epoch_ms
                ),
                obs=ObsSpec(timeseries=True, trace=trace),
            )
            chrome = json.dumps(trace.to_chrome(), sort_keys=True)
            return {
                "record": to_record(result),
                "trace_sha256": hashlib.sha256(chrome.encode()).hexdigest(),
            }

        return observed

    return {
        "edf-admission-gray-failure": run("edf", "gray-failure", True),
        "priority-chaos": run("priority", "chaos", False),
        "edf-admission-drained": run("edf", None, True, drain=True),
    }


class TestObservedPin:
    """Observed overload runs against ``observed_overload_runs.json``.

    The file is read-only: regenerate it by hand from
    :func:`_observed_runs` only for an intended behaviour change.
    """

    def test_runs_match_pin(self, toy_joint):
        runs = {name: run() for name, run in _observed_runs(toy_joint).items()}
        with open(OBSERVED_PIN_PATH) as handle:
            pinned = json.load(handle)
        assert sorted(pinned) == sorted(runs)
        for name, observed in runs.items():
            # Compare through JSON text so float reprs must match exactly.
            assert json.dumps(observed, sort_keys=True) == json.dumps(
                pinned[name], sort_keys=True
            ), name

    def test_pin_exercises_every_overload_path(self):
        """Guard against a vacuous pin: every overload and detector
        outcome the run observes is non-zero in some pinned run."""
        with open(OBSERVED_PIN_PATH) as handle:
            pinned = json.load(handle)
        totals = dict.fromkeys(
            ("rejected/", "retries/", "hedges/", "expired/", "late/",
             "timeouts/", "failovers/", "errors/", "brownout_steps"), 0
        )
        for observed in pinned.values():
            for name, values in observed["record"]["timeseries"]["series"].items():
                for prefix in totals:
                    if name.startswith(prefix):
                        totals[prefix] += sum(v or 0 for v in values)
        assert all(totals.values()), totals
