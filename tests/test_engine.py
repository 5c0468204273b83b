"""Tests for the event engine's FIFO lanes (repro.sim.engine).

Two guarantees:

* **exact order**: a ``Simulator`` whose entries ride on lanes pops the
  same ``(time, seq, callback, args)`` sequence as one that keeps every
  entry on its heap, for random schedules that push out of lane order,
  push from inside callbacks, tie across lanes and the heap, and stop
  at ``run(until=...)``; ``on_event`` and ``events_processed`` agree;
* **records unchanged**: a power-of-two fleet of two board designs (two
  boundary lanes with different epochs) through the ``gray-failure``
  drill, whose slow and link-delayed completions leave the lanes for
  the heap, stays pinned dict-for-dict, drained and cut off, to records
  made before the fleet scheduled onto lanes.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.serialize import to_record
from repro.fleet import DeviceSpec, cluster, simulate_fleet
from repro.fleet.detector import DetectorSpec
from repro.serve import TenantSpec, make_arrival_process
from repro.sim.engine import Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: One push: (delay, lane index or None for the heap), with the pushes
#: its callback makes.  Integer delays make equal times common, and
#: random delays push out of a lane's order.
_push = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
)
_schedule = st.lists(
    st.tuples(_push, st.lists(_push, max_size=3)), min_size=1, max_size=30
)


class _Host:
    """Replays one random schedule on a fresh engine.

    Every push draws the next label, in the order the engine draws its
    sequence numbers, so a label *is* its event's ``seq``.  Lane pushes
    are plain ``schedule``/``schedule_at`` calls with ``lane=``; the
    heap-only host makes the same calls without it.
    """

    def __init__(self, laned):
        self.seen = []
        self.sim = Simulator(on_event=self.seen.append)
        self.lanes = [self.sim.lane() for _ in range(3)] if laned else None
        self.log = []
        self.labels = iter(range(10**6))

    def push(self, delay, lane, children, absolute=False):
        where = {}
        if self.lanes is not None and lane is not None:
            where["lane"] = self.lanes[lane]
        if absolute:
            # The same time through ``schedule_at``.
            self.sim.schedule_at(
                self.sim.now + delay, self.fire, next(self.labels),
                children, **where
            )
        else:
            self.sim.schedule(
                delay, self.fire, next(self.labels), children, **where
            )

    def fire(self, label, children):
        """Log the popped ``(time, seq, callback, args)``, then push
        this event's children from inside the callback."""
        self.log.append((self.sim.now, label, _Host.fire, (label, children)))
        for delay, lane in children:
            self.push(delay, lane, (), absolute=label % 2 == 1)


def _replay(schedule, until, laned):
    """The popped events in order, the times ``on_event`` saw, the
    events processed and the final clock."""
    host = _Host(laned)
    for index, ((delay, lane), children) in enumerate(schedule):
        host.push(delay, lane, children, absolute=index % 3 == 0)
    final = host.sim.run(until=until)
    return host.log, host.seen, host.sim.events_processed, final


class TestLanes:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schedule=_schedule,
        until=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    )
    # A chained lane callback pushes a same-time heap entry, then a
    # same-time entry on its own lane: the heap entry runs first.
    @example(schedule=[((0, 0), [(0, None), (0, 0)]), ((0, 0), [])], until=None)
    def test_lanes_pop_in_heap_order(self, schedule, until):
        laned = _replay(schedule, until, laned=True)
        heap = _replay(schedule, until, laned=False)
        assert laned == heap
        log, seen, processed, _ = laned
        assert [event[0] for event in log] == seen
        assert processed == len(log)

    def test_out_of_order_push_goes_to_the_heap(self):
        sim = Simulator()
        lane = sim.lane()
        log = []
        sim.schedule_at(5.0, log.append, "late", lane=lane)
        sim.schedule_at(3.0, log.append, "early", lane=lane)
        assert len(lane) == 1
        sim.run()
        assert log == ["early", "late"]

    def test_equal_times_keep_scheduling_order(self):
        sim = Simulator()
        first, second = sim.lane(), sim.lane()
        log = []
        sim.schedule_at(2.0, log.append, "a", lane=second)
        sim.schedule_at(2.0, log.append, "b")
        sim.schedule_at(2.0, log.append, "c", lane=first)
        sim.schedule_at(2.0, log.append, "d", lane=second)
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_lane_rejects_the_past(self):
        sim = Simulator()
        lane = sim.lane()
        sim.schedule(4, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None, lane=lane)
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None, lane=lane)


# ------------------------------------------------------------- fleet pin
def _epoch_ms(design, frequency_mhz=100.0):
    return design.epoch_cycles / (frequency_mhz * 1e6) * 1e3


def _mixed_epoch_runs(toy_design, toy2_design):
    """Power-of-two over alternating ``toy``/``toy2`` boards (epochs
    12168 and 6084 cycles) through ``gray-failure`` with probe detection
    and timeout failover: drained, and cut off at the horizon."""
    epoch = toy_design.epoch_cycles
    tenants = [
        TenantSpec(
            design.network.name,
            make_arrival_process("poisson", 2.4 / design.epoch_cycles),
        )
        for design in (toy_design, toy2_design)
    ]
    devices = [DeviceSpec(toy_design), DeviceSpec(toy2_design)] * 3
    return {
        case: simulate_fleet(
            devices,
            tenants,
            duration_cycles=80 * epoch,
            balancer="power-of-two",
            seed=11,
            queue_depth=32,
            drain=drain,
            scenario="gray-failure",
            detector=DetectorSpec(
                mode="probe",
                request_timeout_ms=4.0 * _epoch_ms(toy_design),
                max_failovers=2,
            ),
        )
        for case, drain in (("drained", True), ("cutoff", False))
    }


def _pinned():
    with open(os.path.join(DATA_DIR, "mixed_epoch_gray_run.json")) as handle:
        return json.load(handle)


def _records(runs):
    return {
        case: json.loads(json.dumps(to_record(result)))
        for case, result in runs.items()
    }


class TestMixedEpochPin:
    def test_mixed_epoch_gray_runs_are_pinned(self, toy_design, toy2_design):
        runs = _mixed_epoch_runs(toy_design, toy2_design)
        assert _records(runs) == _pinned()
        for result in runs.values():
            # Two boundary lanes, and the straggler's slow window (board
            # 0 in the library drill) opens inside the run.
            assert {r.epoch_cycles for r in result.replicas} == {
                toy_design.epoch_cycles, toy2_design.epoch_cycles
            }
            straggler = result.replicas[0].label
            assert any(
                incident.kind == "gray"
                and incident.target == straggler
                and incident.duration_cycles > 0
                for incident in result.incidents
            )
        assert runs["drained"].drained and not runs["cutoff"].drained

    @pytest.mark.parametrize("cap", [0, 3, cluster._MAX_LANES])
    def test_lane_cap_bounds_lanes_not_records(
        self, toy_design, toy2_design, monkeypatch, cap
    ):
        """A run opens at most the cap (these runs want six: two epochs,
        two tenants, two ``(epoch, depth)`` pairs); streams past it, or
        all of them with no lanes, take the heap with the same record."""
        opened = []
        lane = Simulator.lane

        def spy(sim):
            opened.append(sim)
            return lane(sim)

        monkeypatch.setattr(cluster, "_MAX_LANES", cap)
        monkeypatch.setattr(Simulator, "lane", spy)
        runs = _mixed_epoch_runs(toy_design, toy2_design)
        assert len(opened) == len(runs) * min(cap, 6)
        assert _records(runs) == _pinned()
