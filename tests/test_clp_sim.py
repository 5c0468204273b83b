"""Tests for the cycle-level CLP simulator."""

import numpy as np
import pytest

from repro.core.bandwidth import _cycles_at, clp_arrays, transfer_words
from repro.core.clp import CLPConfig
from repro.core.datatypes import FLOAT32
from repro.core.layer import ConvLayer
from repro.sim.clp_sim import simulate_clp, tile_sequence


@pytest.fixture
def small_clp():
    layer = ConvLayer("l", n=16, m=32, r=13, c=13, k=3)
    return CLPConfig(4, 16, [layer], FLOAT32, [(13, 13)])


def _model_cycles(clp, bytes_per_cycle):
    """The analytic bandwidth-bound cycles of a lone CLP."""
    rate = np.array([bytes_per_cycle])
    return float(_cycles_at(clp_arrays([clp], clp.dtype), rate)[0])


class TestTileSequence:
    def test_job_count(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        jobs = tile_sequence(layer, 3, 5, 4, 5)
        assert len(jobs) == 3 * 3 * 3 * 3  # rsteps*csteps*msteps*nsteps

    def test_compute_cycles_sum_to_model(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        jobs = tile_sequence(layer, 3, 5, 4, 5)
        from repro.core.cost_model import layer_cycles

        assert sum(j.compute_cycles for j in jobs) == layer_cycles(layer, 3, 5)

    def test_write_words_total_output(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        jobs = tile_sequence(layer, 3, 5, 4, 5)
        assert sum(j.write_words for j in jobs) == layer.output_words

    def test_writes_only_on_last_n_step(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        jobs = tile_sequence(layer, 3, 5, 4, 5)
        nsteps = 3
        for idx, job in enumerate(jobs):
            expect_write = (idx % nsteps) == nsteps - 1
            assert (job.write_words > 0) == expect_write

    def test_load_words_match_transfer_model(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3, s=2)
        jobs = tile_sequence(layer, 3, 5, 4, 5)
        inputs, weights, _ = transfer_words(layer, 5, 4, 5)
        assert sum(j.load_words for j in jobs) == inputs + weights


class TestSimulateClp:
    def test_unlimited_bandwidth_matches_model_exactly(self, small_clp):
        result = simulate_clp(small_clp)
        assert result.total_cycles == small_clp.total_cycles
        assert result.total_stall_cycles == 0

    def test_pipeline_depth_adds_per_tile(self, small_clp):
        base = simulate_clp(small_clp)
        deep = simulate_clp(small_clp, pipeline_depth=10)
        layer = small_clp.layers[0]
        tiles = len(tile_sequence(layer, 4, 16, 13, 13))
        assert deep.total_cycles == base.total_cycles + 10 * tiles

    def test_generous_bandwidth_never_stalls(self, small_clp):
        result = simulate_clp(small_clp, bytes_per_cycle=1e9)
        assert result.total_cycles == pytest.approx(
            small_clp.total_cycles, rel=1e-6
        )

    def test_tight_bandwidth_stalls(self, small_clp):
        result = simulate_clp(small_clp, bytes_per_cycle=0.5)
        assert result.total_cycles > small_clp.total_cycles
        assert result.total_stall_cycles > 0

    def test_transfer_bound_time_matches_volume(self, small_clp):
        bw = 0.25
        result = simulate_clp(small_clp, bytes_per_cycle=bw)
        total_bytes = result.transferred_words * 4
        # Fully serialized transfers lower-bound the run time.
        assert result.total_cycles >= total_bytes / bw - 1e-6

    def test_transferred_words_match_model(self, small_clp):
        result = simulate_clp(small_clp, bytes_per_cycle=1.0)
        assert result.transferred_words == sum(
            transfer_words(small_clp.layers[0], small_clp.tm, 13, 13)
        )

    def test_sim_within_analytic_envelope(self, small_clp):
        # Deep in the transfer- or compute-bound regimes the analytic
        # bound model and the simulator agree within ~10%; near the
        # crossover the closed form is optimistic about write/port
        # contention, so the envelope is wider there (~35%).
        for bw in (0.25, 0.5, 1.0, 2.0, 8.0):
            sim = simulate_clp(small_clp, bytes_per_cycle=bw).total_cycles
            model = _model_cycles(small_clp, bw)
            assert sim == pytest.approx(model, rel=0.35)

    def test_sim_matches_model_away_from_knee(self, small_clp):
        for bw in (0.25, 0.5):  # deeply transfer-bound
            sim = simulate_clp(small_clp, bytes_per_cycle=bw).total_cycles
            model = _model_cycles(small_clp, bw)
            assert sim == pytest.approx(model, rel=0.10)

    def test_multi_layer_back_to_back(self):
        l1 = ConvLayer("a", n=8, m=16, r=9, c=9, k=3)
        l2 = ConvLayer("b", n=16, m=16, r=9, c=9, k=3)
        clp = CLPConfig(4, 8, [l1, l2], FLOAT32, [(9, 9), (9, 9)])
        result = simulate_clp(clp)
        assert result.total_cycles == clp.total_cycles
        assert len(result.layers) == 2
        assert result.layers[0].layer_name == "a"
        assert result.layers[1].start_cycle >= result.layers[0].end_cycle - 1e-9

    def test_rejects_bad_arguments(self, small_clp):
        with pytest.raises(ValueError):
            simulate_clp(small_clp, bytes_per_cycle=0)
        with pytest.raises(ValueError):
            simulate_clp(small_clp, pipeline_depth=-1)
