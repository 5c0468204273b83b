"""Tests for the transfer-volume and bandwidth models."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import (
    LayerTransfer,
    bandwidth_bound_cycles,
    layer_transfer,
    min_bandwidth_for_cycles,
    min_bandwidths_for_cycles,
    transfer_arrays,
)
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer
from repro.fpga.parts import budget_for
from repro.networks import alexnet
from repro.opt import memory, optimize_multi_clp


class TestLayerTransferVolumes:
    def test_single_tile_moves_everything_once(self):
        layer = ConvLayer("l", n=8, m=16, r=10, c=10, k=3)
        t = layer_transfer(layer, tn=8, tm=16, tr=10, tc=10)
        assert t.input_words == layer.input_words
        assert t.weight_words == layer.weight_words
        assert t.output_words == layer.output_words

    def test_m_steps_reload_inputs(self):
        layer = ConvLayer("l", n=8, m=32, r=10, c=10, k=3)
        t = layer_transfer(layer, tn=8, tm=16, tr=10, tc=10)  # msteps=2
        assert t.input_words == 2 * layer.input_words
        assert t.weight_words == layer.weight_words

    def test_spatial_steps_reload_weights(self):
        layer = ConvLayer("l", n=8, m=16, r=10, c=10, k=3)
        t = layer_transfer(layer, tn=8, tm=16, tr=5, tc=5)  # 4 spatial tiles
        assert t.weight_words == 4 * layer.weight_words
        assert t.output_words == layer.output_words

    def test_outputs_written_exactly_once(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3, s=2)
        t = layer_transfer(layer, tn=3, tm=5, tr=4, tc=5)
        assert t.output_words == layer.output_words

    def test_alexnet_conv1_bandwidth_matches_paper_scale(self):
        # Section 6.3/Table 3 cross-check: the 485T Single-CLP moves
        # ~4.9MB per conv1 half in 366k cycles (~1.3 GB/s at 100 MHz).
        layer = alexnet().layer_by_name("conv1a")
        t = layer_transfer(layer, tn=7, tm=64, tr=8, tc=8)
        gbps = t.average_bytes_per_cycle(FLOAT32) * 100e6 / 1e9
        assert gbps == pytest.approx(1.34, abs=0.1)

    def test_total_words(self):
        layer = ConvLayer("l", n=4, m=4, r=6, c=6, k=3)
        t = layer_transfer(layer, 2, 2, 3, 3)
        assert t.total_words == t.input_words + t.weight_words + t.output_words

    def test_byte_conversion(self):
        layer = ConvLayer("l", n=4, m=4, r=6, c=6, k=3)
        t = layer_transfer(layer, 2, 2, 3, 3)
        assert t.total_bytes(FLOAT32) == 2 * t.total_bytes(FIXED16)

    def test_bad_tile_rejected(self):
        layer = ConvLayer("l", n=4, m=4, r=6, c=6, k=3)
        with pytest.raises(ValueError):
            layer_transfer(layer, 2, 2, 7, 3)


class TestBandwidthBoundCycles:
    def _transfers(self):
        layer = ConvLayer("l", n=16, m=32, r=13, c=13, k=3)
        return [layer_transfer(layer, 4, 16, 13, 13)]

    def test_unconstrained_equals_compute(self):
        transfers = self._transfers()
        assert bandwidth_bound_cycles(transfers, FLOAT32, None) == (
            transfers[0].compute_cycles
        )

    def test_generous_bandwidth_adds_only_fill(self):
        transfers = self._transfers()
        cycles = bandwidth_bound_cycles(transfers, FLOAT32, 1e9)
        assert cycles == pytest.approx(transfers[0].compute_cycles, rel=1e-6)

    def test_starved_bandwidth_is_transfer_dominated(self):
        transfers = self._transfers()
        bw = 0.01
        cycles = bandwidth_bound_cycles(transfers, FLOAT32, bw)
        assert cycles >= transfers[0].total_bytes(FLOAT32) / bw

    def test_monotone_in_bandwidth(self):
        transfers = self._transfers()
        values = [
            bandwidth_bound_cycles(transfers, FLOAT32, bw)
            for bw in (0.1, 0.5, 1.0, 5.0, 50.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bandwidth_bound_cycles(self._transfers(), FLOAT32, 0)


class TestMinBandwidth:
    def _transfers(self):
        layer = ConvLayer("l", n=16, m=32, r=13, c=13, k=3)
        return [layer_transfer(layer, 4, 16, 13, 13)]

    def test_found_bandwidth_meets_budget(self):
        transfers = self._transfers()
        budget = transfers[0].compute_cycles * 1.02
        bw = min_bandwidth_for_cycles(transfers, FLOAT32, budget)
        assert bandwidth_bound_cycles(transfers, FLOAT32, bw) <= budget

    def test_tight_budget_needs_more_bandwidth(self):
        transfers = self._transfers()
        compute = transfers[0].compute_cycles
        tight = min_bandwidth_for_cycles(transfers, FLOAT32, compute * 1.01)
        loose = min_bandwidth_for_cycles(transfers, FLOAT32, compute * 2.0)
        assert tight > loose

    def test_impossible_budget_raises(self):
        transfers = self._transfers()
        with pytest.raises(ValueError):
            min_bandwidth_for_cycles(
                transfers, FLOAT32, transfers[0].compute_cycles - 1
            )

    def test_near_optimal(self):
        # The result should sit close to the feasibility boundary.
        transfers = self._transfers()
        budget = transfers[0].compute_cycles * 1.05
        bw = min_bandwidth_for_cycles(transfers, FLOAT32, budget)
        assert bandwidth_bound_cycles(transfers, FLOAT32, bw * 0.98) > budget


# ------------------------------------------------ lockstep-solver oracle
def _scalar_bound_cycles(transfers, dtype, bytes_per_cycle):
    """Oracle: the per-layer loop of the bandwidth-bound cycle model."""
    total = 0.0
    for t in transfers:
        transfer_cycles = t.total_bytes(dtype) / bytes_per_cycle
        fill_cycles = t.first_tile_words * dtype.word_bytes / bytes_per_cycle
        total += max(t.compute_cycles, transfer_cycles) + fill_cycles
    return total


def _scalar_min_bandwidth(transfers, dtype, cycle_budget, tolerance=1e-4):
    """Oracle: one scalar bisection per CLP operating point."""
    compute = sum(t.compute_cycles for t in transfers)
    if compute > cycle_budget:
        raise ValueError(
            f"compute alone needs {compute} cycles, over budget {cycle_budget}"
        )
    total_bytes = sum(t.total_bytes(dtype) for t in transfers)
    if total_bytes == 0:
        return 0.0
    low = total_bytes / cycle_budget / 4
    high = max(
        total_bytes / max(cycle_budget - compute, 1.0),
        max(t.steady_words_per_cycle * dtype.word_bytes for t in transfers) * 2,
        low * 2,
    )
    while _scalar_bound_cycles(transfers, dtype, high) > cycle_budget:
        high *= 2
        if high > 1e9:
            raise RuntimeError("failed to bracket bandwidth requirement")
    while (high - low) / high > tolerance:
        mid = (low + high) / 2
        if _scalar_bound_cycles(transfers, dtype, mid) <= cycle_budget:
            high = mid
        else:
            low = mid
    return high


def _outcome(solve, *args):
    """``solve(*args)``, or the type and text of what it raised."""
    try:
        return solve(*args)
    except (ValueError, RuntimeError) as error:
        return type(error), str(error)


@pytest.fixture
def quiet_numpy():
    """Turn every numpy floating-point warning into an error."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestLockstepSolver:
    layer = ConvLayer("l", n=16, m=32, r=13, c=13, k=3)

    def _transfers(self, tr=13, tc=13):
        return [layer_transfer(self.layer, 4, 16, tr, tc)]

    def test_zero_byte_point_needs_no_bandwidth(self, quiet_numpy):
        idle = LayerTransfer("idle", 100, 0, 0, 0, 0, 0.0)
        assert min_bandwidth_for_cycles([idle], FLOAT32, 150.0) == 0.0
        assert _scalar_min_bandwidth([idle], FLOAT32, 150.0) == 0.0
        assert min_bandwidth_for_cycles([], FLOAT32, 150.0) == 0.0
        assert bandwidth_bound_cycles([], FLOAT32, 2.0) == 0.0
        # A zero-byte row beside a real one leaves the real row's answer.
        real = self._transfers()[0]
        budget = real.compute_cycles * 1.05
        both = min_bandwidths_for_cycles(
            transfer_arrays([[idle], [real]], FLOAT32), budget
        )
        assert both.tolist() == [
            0.0, _scalar_min_bandwidth([real], FLOAT32, budget)
        ]

    def test_compute_over_budget_raises_the_scalar_error(self):
        transfers = self._transfers()
        budget = transfers[0].compute_cycles - 0.5
        expected = _outcome(_scalar_min_bandwidth, transfers, FLOAT32, budget)
        assert expected[0] is ValueError
        assert _outcome(
            min_bandwidth_for_cycles, transfers, FLOAT32, budget
        ) == expected

    def test_bracket_doubling_path(self):
        # A budget a hair above compute: the initial bracket misses, so
        # the upper end doubles several times before bisecting.
        transfers = self._transfers()
        compute = transfers[0].compute_cycles
        budget = compute * (1 + 1e-6)
        first_high = max(
            transfers[0].total_bytes(FLOAT32) / max(budget - compute, 1.0),
            transfers[0].steady_words_per_cycle * 4 * 2,
        )
        assert _scalar_bound_cycles(transfers, FLOAT32, first_high) > budget
        assert min_bandwidth_for_cycles(transfers, FLOAT32, budget) == (
            _scalar_min_bandwidth(transfers, FLOAT32, budget)
        )

    def test_bracket_failure_raises_the_scalar_error(self):
        transfers = self._transfers()
        budget = transfers[0].compute_cycles * (1 + 1e-11)
        expected = _outcome(_scalar_min_bandwidth, transfers, FLOAT32, budget)
        assert expected == (
            RuntimeError, "failed to bracket bandwidth requirement"
        )
        assert _outcome(
            min_bandwidth_for_cycles, transfers, FLOAT32, budget
        ) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        plans=st.lists(
            st.tuples(st.integers(1, 13), st.integers(1, 13)),
            min_size=1, max_size=6,
        ),
        slack=st.one_of(
            st.floats(1e-10, 1e-5), st.floats(1e-5, 3.0), st.just(0.0)
        ),
        dtype=st.sampled_from([FLOAT32, FIXED16]),
    )
    def test_rows_match_lone_bisections(self, plans, slack, dtype):
        """Points of one CLP (same layers, different tiles) solved in
        lockstep equal one scalar bisection each, float for float."""
        layers = [self.layer, ConvLayer("s2", n=3, m=8, r=13, c=13, k=5, s=2)]
        rows = [
            [layer_transfer(layer, 4, 16, tr, tc) for layer in layers]
            for tr, tc in plans
        ]
        budget = sum(t.compute_cycles for t in rows[0]) * (1 + slack)
        expected = [_outcome(_scalar_min_bandwidth, row, dtype, budget)
                    for row in rows]
        errors = [e for e in expected if isinstance(e, tuple)]
        solved = _outcome(
            min_bandwidths_for_cycles, transfer_arrays(rows, dtype), budget
        )
        if errors:
            # The solver raises what the first failing point raises
            # (compute is the same on every point, so that is all or none
            # for the ValueError).
            assert isinstance(solved, tuple) and solved in errors
        else:
            assert solved.tolist() == expected
        for row, want in zip(rows, expected):
            assert _outcome(min_bandwidth_for_cycles, row, dtype, budget) == want

    @settings(max_examples=60, deadline=None)
    @given(
        plans=st.lists(
            st.tuples(st.integers(1, 13), st.integers(1, 13)),
            min_size=0, max_size=4,
        ),
        rate=st.one_of(st.none(), st.floats(1e-3, 1e6)),
    )
    def test_bound_cycles_match_scalar_model(self, plans, rate):
        transfers = [layer_transfer(self.layer, 4, 16, tr, tc) for tr, tc in plans]
        expected = (
            float(sum(t.compute_cycles for t in transfers)) if rate is None
            else _scalar_bound_cycles(transfers, FLOAT32, rate)
        )
        assert bandwidth_bound_cycles(transfers, FLOAT32, rate) == expected


def test_long_rows_add_layers_left_to_right():
    """Forty layers per row: a pairwise (reordered) sum would round
    differently from the scalar model's running sum."""
    layers = [
        ConvLayer(f"l{i}", n=3 + 5 * i, m=7 + 3 * i, r=5 + i % 9, c=4 + i % 7,
                  k=1 + 2 * (i % 3), s=1 + i % 2)
        for i in range(40)
    ]
    rows = [
        [layer_transfer(layer, 4, 16, min(tile, layer.r), min(tile, layer.c))
         for layer in layers]
        for tile in (1, 2, 3)
    ]
    for row in rows:
        for rate in (0.37, 3.1, 29.0):
            assert bandwidth_bound_cycles(row, FLOAT32, rate) == (
                _scalar_bound_cycles(row, FLOAT32, rate)
            )
    budget = sum(t.compute_cycles for t in rows[0]) * 1.03
    solved = min_bandwidths_for_cycles(transfer_arrays(rows, FLOAT32), budget)
    assert solved.tolist() == [
        _scalar_min_bandwidth(row, FLOAT32, budget) for row in rows
    ]


def test_every_alexnet_485t_point_matches_scalar_bisection(monkeypatch):
    """Each point of each ``clp_pareto`` call of the AlexNet 485T float32
    multi-CLP solve gets the scalar bisection's bandwidth exactly."""
    calls = []
    pareto = memory.clp_pareto

    def spy(candidate, dtype, cycle_budget):
        calls.append((candidate, dtype, cycle_budget))
        return pareto(candidate, dtype, cycle_budget)

    monkeypatch.setattr(memory, "clp_pareto", spy)
    optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)
    assert calls
    for candidate, dtype, cycle_budget in calls:
        structure, arrays = memory._structure_for(candidate, dtype)
        solved = min_bandwidths_for_cycles(arrays, cycle_budget).tolist()
        assert solved == [
            _scalar_min_bandwidth(point.transfers, dtype, cycle_budget)
            for point in structure
        ]


def test_ragged_rows_match_lone_bisections(quiet_numpy):
    """Rows of different lengths are padded with zero-word layers, which
    leave every row's bisection float for float unchanged."""
    layer = ConvLayer("l", n=16, m=32, r=13, c=13, k=3)
    other = ConvLayer("s2", n=3, m=8, r=13, c=13, k=5, s=2)
    rows = [
        [layer_transfer(layer, 4, 16, 13, 13)],
        [layer_transfer(other, 4, 16, 5, 7), layer_transfer(layer, 4, 16, 2, 3)],
        [layer_transfer(layer, 4, 16, 1, 1)] * 3,
    ]
    budget = max(sum(t.compute_cycles for t in row) for row in rows) * 1.01
    solved = min_bandwidths_for_cycles(transfer_arrays(rows, FIXED16), budget)
    assert solved.tolist() == [
        _scalar_min_bandwidth(row, FIXED16, budget) for row in rows
    ]


def _scalar_epoch_under_cap(design, cap, slack=0.02):
    """Oracle: the capped-epoch bisection with one scalar bandwidth
    bisection per CLP, stopping at the first CLP that breaks the cap."""
    def feasible(epoch):
        total = 0.0
        for clp in design.clps:
            if clp.total_cycles > epoch:
                return False
            total += _scalar_min_bandwidth(clp.transfers, design.dtype, epoch)
            if total > cap:
                return False
        return True

    low = float(design.epoch_cycles) * (1 + slack)
    if feasible(low):
        return low
    high = low
    while not feasible(high):
        high *= 2
    floor = low
    while (high - floor) / high > 1e-4:
        mid = (floor + high) / 2
        if feasible(mid):
            high = mid
        else:
            floor = mid
    return high


def test_design_bandwidths_match_per_clp_bisections(alexnet_485t_design):
    """A design solves all its CLPs (of different layer counts) in one
    lockstep call and gets what one scalar bisection per CLP gets."""
    design = alexnet_485t_design
    assert len({len(clp.layers) for clp in design.clps}) > 1
    target = design.epoch_cycles * 1.02
    need = design.required_bandwidth_bytes_per_cycle()
    assert need == sum(
        _scalar_min_bandwidth(clp.transfers, design.dtype, target)
        for clp in design.clps
    )
    for cap in (need * 2, need * 0.9, need * 0.3):
        assert design.epoch_cycles_under_bandwidth(cap) == (
            _scalar_epoch_under_cap(design, cap)
        )
