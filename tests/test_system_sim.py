"""Tests for the discrete-event Multi-CLP system simulator.

The canned two-layer ``toy_design`` lives in tests/conftest.py and is
shared with the serving-layer tests (test_serve.py)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.system import SharedChannel, simulate_system


class TestEngine:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append("b"))
        sim.schedule(1, lambda: log.append("a"))
        sim.schedule(9, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 9

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append(1))
        sim.schedule(1, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_until_limit(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: log.append(1))
        sim.schedule(10, lambda: log.append(2))
        sim.run(until=5)
        assert log == [1]
        assert sim.now == 5

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []
        sim.schedule(1, lambda: sim.schedule(1, lambda: log.append("inner")))
        sim.run()
        assert log == ["inner"]
        assert sim.now == 2


class TestSharedChannel:
    def test_single_job_duration(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=4.0)
        done = []
        channel.submit(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(25.0)]

    def test_two_jobs_share_bandwidth(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=4.0)
        done = {}
        channel.submit(100.0, lambda: done.setdefault("a", sim.now))
        channel.submit(100.0, lambda: done.setdefault("b", sim.now))
        sim.run()
        # Equal shares: both finish at 2 * 25 cycles.
        assert done["a"] == pytest.approx(50.0)
        assert done["b"] == pytest.approx(50.0)

    def test_weighted_share(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=4.0)
        done = {}
        channel.submit(100.0, lambda: done.setdefault("heavy", sim.now), 3.0)
        channel.submit(100.0, lambda: done.setdefault("light", sim.now), 1.0)
        sim.run()
        assert done["heavy"] < done["light"]

    def test_unlimited_is_instant(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=None)
        done = []
        channel.submit(1e12, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_late_arrival_slows_first_job(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=4.0)
        done = {}
        channel.submit(100.0, lambda: done.setdefault("first", sim.now))
        sim.schedule(12.5, lambda: channel.submit(
            100.0, lambda: done.setdefault("second", sim.now)))
        sim.run()
        # First job: 50 bytes alone (12.5 cy), then shares; finishes at 37.5.
        assert done["first"] == pytest.approx(37.5)

    def test_bytes_accounting(self):
        sim = Simulator()
        channel = SharedChannel(sim, bytes_per_cycle=2.0)
        channel.submit(10.0, lambda: None)
        channel.submit(6.0, lambda: None)
        sim.run()
        assert channel.bytes_moved == pytest.approx(16.0)
        assert channel.busy_cycles == pytest.approx(8.0)

    def test_rejects_bad_arguments(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SharedChannel(sim, bytes_per_cycle=0)
        channel = SharedChannel(sim, bytes_per_cycle=1.0)
        with pytest.raises(ValueError):
            channel.submit(-1, lambda: None)
        with pytest.raises(ValueError):
            channel.submit(1, lambda: None, weight=0)


class TestSimulateSystem:
    def test_unlimited_matches_analytic_epoch(self, toy_design):
        design = toy_design
        result = simulate_system(design)
        assert result.epoch_cycles == design.epoch_cycles

    def test_all_clps_finish(self, toy_design):
        design = toy_design
        result = simulate_system(design, bytes_per_cycle=2.0)
        assert len(result.clp_finish_cycles) == 2
        assert all(f > 0 for f in result.clp_finish_cycles)

    def test_bandwidth_cap_slows_epoch(self, toy_design):
        design = toy_design
        free = simulate_system(design).epoch_cycles
        capped = simulate_system(design, bytes_per_cycle=0.5).epoch_cycles
        assert capped > free

    def test_sim_close_to_analytic_under_cap(self, toy_design):
        design = toy_design
        for bw in (0.5, 1.0, 4.0, 16.0):
            sim_epoch = simulate_system(design, bytes_per_cycle=bw).epoch_cycles
            analytic = design.epoch_cycles_under_bandwidth(bw)
            assert sim_epoch == pytest.approx(analytic, rel=0.2)

    def test_modelled_bandwidth_is_sufficient(self, toy_design):
        # Provisioning the modelled requirement keeps the simulated epoch
        # within ~10% of the unconstrained epoch.
        design = toy_design
        need = design.required_bandwidth_bytes_per_cycle()
        result = simulate_system(design, bytes_per_cycle=need * 1.1)
        assert result.epoch_cycles <= design.epoch_cycles * 1.1

    def test_channel_statistics(self, toy_design):
        design = toy_design
        result = simulate_system(design, bytes_per_cycle=4.0)
        assert 0 < result.channel_utilization() <= 1.0 + 1e-9
        assert result.bytes_moved == pytest.approx(design.transfer_array[1].sum())

    def test_equal_share_mode(self, toy_design):
        design = toy_design
        result = simulate_system(
            design, bytes_per_cycle=2.0, proportional_shares=False
        )
        assert result.epoch_cycles > 0
