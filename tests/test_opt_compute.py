"""Tests for OptimizeCompute (SegmentSearch)."""

import numpy as np
import pytest

from repro.core.cost_model import layer_cycles
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer
from repro.networks import alexnet, squeezenet
from repro.opt.compute import SegmentSearch
from repro.opt.heuristics import order_by_nm_distance


@pytest.fixture(scope="module")
def alexnet_search():
    ordered = order_by_nm_distance(list(alexnet()))
    return SegmentSearch(ordered, FLOAT32, dsp_budget=2240)


class TestFrontiers:
    def test_full_budget_single_segment_matches_zhang(self, alexnet_search):
        # The whole-network single segment with the full 485T budget must
        # reach the Zhang FPGA'15 optimum of ~2,006k cycles.
        count = len(alexnet_search.layers)
        assert alexnet_search.min_segment_cycles(0, count) == 2005892

    def test_min_dsp_monotone_in_target(self, alexnet_search):
        count = len(alexnet_search.layers)
        tight = alexnet_search.min_dsp_for(0, count, 2005892)
        loose = alexnet_search.min_dsp_for(0, count, 4000000)
        assert tight is not None and loose is not None
        assert loose <= tight

    def test_unreachable_target_returns_none(self, alexnet_search):
        count = len(alexnet_search.layers)
        assert alexnet_search.min_dsp_for(0, count, 100) is None

    def test_single_layer_segment(self, alexnet_search):
        layer = alexnet_search.layers[0]
        best = alexnet_search.min_segment_cycles(0, 1)
        # Must equal the exhaustive minimum over affordable grids.
        exhaustive = min(
            layer_cycles(layer, tn, tm)
            for tn in range(1, 65)
            for tm in range(1, min(512, 448 // tn) + 1)
        )
        assert best == exhaustive


class TestBestGrid:
    def test_finds_zhang_grid(self, alexnet_search):
        count = len(alexnet_search.layers)
        tn, tm, cycles, dsp = alexnet_search.best_grid(0, count, 2240)
        assert (tn, tm) == (7, 64)
        assert cycles == 2005892
        assert dsp == 2240

    def test_respects_cap(self, alexnet_search):
        tn, tm, _, dsp = alexnet_search.best_grid(0, 2, 500)
        assert dsp <= 500
        assert tn * tm * 5 == dsp

    def test_rejects_empty_cap(self, alexnet_search):
        with pytest.raises(ValueError):
            alexnet_search.best_grid(0, 1, 0)


class TestCandidates:
    def test_single_clp_candidate_at_relaxed_target(self, alexnet_search):
        candidates = alexnet_search.candidates(2005892, max_clps=1)
        assert len(candidates) == 1
        cand = candidates[0]
        assert cand.num_clps == 1
        assert cand.epoch_cycles <= 2005892

    def test_tight_target_returns_empty(self, alexnet_search):
        assert alexnet_search.candidates(1000, max_clps=6) == []

    def test_multi_clp_meets_target_single_cannot(self, alexnet_search):
        # AlexNet Multi-CLP reaches ~1.53M cycles on the 485T; a single
        # CLP cannot (its optimum is 2.0M).
        target = 1_560_000
        candidates = alexnet_search.candidates(target, max_clps=6)
        assert candidates, "multi-CLP should reach 1.56M cycles"
        assert all(c.num_clps >= 2 for c in candidates)
        for cand in candidates:
            assert cand.epoch_cycles <= target
            assert cand.total_dsp <= 2240

    def test_candidates_partition_all_layers(self, alexnet_search):
        candidates = alexnet_search.candidates(2_200_000, max_clps=4)
        expected = sorted(l.name for l in alexnet_search.layers)
        for cand in candidates:
            covered = sorted(
                l.name for clp in cand.clps for l in clp.layers
            )
            assert covered == expected

    def test_segments_are_contiguous_in_order(self, alexnet_search):
        candidates = alexnet_search.candidates(1_600_000, max_clps=6)
        order = [l.name for l in alexnet_search.layers]
        for cand in candidates:
            cursor = 0
            for clp in cand.clps:
                names = [l.name for l in clp.layers]
                assert names == order[cursor:cursor + len(names)]
                cursor += len(names)

    def test_rejects_bad_max_clps(self, alexnet_search):
        with pytest.raises(ValueError):
            alexnet_search.candidates(2_000_000, max_clps=0)

    def test_clp_cycle_counts_are_consistent(self, alexnet_search):
        for cand in alexnet_search.candidates(1_600_000, max_clps=6):
            for clp in cand.clps:
                expected = sum(
                    layer_cycles(layer, clp.tn, clp.tm) for layer in clp.layers
                )
                assert clp.cycles == expected


class TestFixedPoint:
    def test_fixed_budget_uses_one_dsp_per_unit(self):
        layers = [ConvLayer("l", n=64, m=64, r=28, c=28, k=3)]
        search = SegmentSearch(layers, FIXED16, dsp_budget=4096)
        tn, tm, _, dsp = search.best_grid(0, 1, 4096)
        assert dsp == tn * tm
        assert tn * tm <= 4096

    def test_tiny_budget_rejected_only_when_no_unit_fits(self):
        layers = [ConvLayer("l", n=4, m=4, r=4, c=4, k=1)]
        with pytest.raises(ValueError):
            SegmentSearch(layers, FLOAT32, dsp_budget=4)  # < 5 per unit
        search = SegmentSearch(layers, FLOAT32, dsp_budget=5)
        assert search.grid_count == 1


# ------------------------------------------- batched-lookup differential
def _frontier_rows(search):
    """Oracle: segment (i, j) -> its non-increasing frontier row (min
    cycles per DSP class), rebuilt from the cumulative cycle table."""
    count = len(search.layers)
    rows = {}
    for i in range(count):
        for j in range(i + 1, count + 1):
            seg = search._cum[j] - search._cum[i]
            per_class = np.minimum.reduceat(seg, search._group_starts)
            rows[(i, j)] = np.minimum.accumulate(per_class)
    return rows


def _per_row_dsp(search, row, target):
    """Oracle: one ``searchsorted`` on the reversed row per segment."""
    count = int(np.searchsorted(row[::-1], target, side="right"))
    return None if count == 0 else int(search.dsp_values[len(row) - count])


def _probe_targets(search, rows):
    """Targets below every entry, on entries, between integers, and at
    or above ``span``, where the lifted bound must be clamped."""
    entries = np.unique(np.concatenate(list(rows.values())))
    picked = entries[:: max(1, len(entries) // 40)].tolist() + [
        int(entries[0]), int(entries[-1])
    ]
    span = search._span
    return sorted(
        {-1.5, 0, 0.5, entries[0] - 1, entries[0] - 0.5}
        | set(picked)
        | {value + 0.5 for value in picked}
        | {value - 0.25 for value in picked}
        | {span - 1, span - 0.5, span, span + 0.5, 3 * span, float("inf")}
    )


@pytest.fixture(scope="module", params=["alexnet-float32", "squeezenet-fixed16"])
def any_search(request):
    if request.param == "alexnet-float32":
        return SegmentSearch(
            order_by_nm_distance(list(alexnet())), FLOAT32, dsp_budget=2240
        )
    return SegmentSearch(list(squeezenet()), FIXED16, dsp_budget=3600)


def test_span_bounds_every_entry(any_search):
    rows = _frontier_rows(any_search)
    assert max(int(row.max()) for row in rows.values()) < any_search._span


def test_batched_lookup_matches_per_row_search(any_search):
    rows = _frontier_rows(any_search)
    for target in _probe_targets(any_search, rows):
        matrix = any_search._segment_dsp_matrix(target)
        for (i, j), row in rows.items():
            expected = _per_row_dsp(any_search, row, target)
            assert matrix[i][j] == expected, (target, i, j)
            assert any_search.min_dsp_for(i, j, target) == expected


def test_min_segment_cycles_matches_row_minimum(any_search):
    for (i, j), row in _frontier_rows(any_search).items():
        assert any_search.min_segment_cycles(i, j) == int(row[-1])


def test_lifted_frontier_refuses_int64_overflow():
    # 13 layers of ~1e16 cycles each on a 1x1 grid: 91 segments lifted by
    # a span of ~1.3e17 would wrap int64.
    layers = [
        ConvLayer(f"huge{i}", n=10_000, m=10_000, r=10_000, c=10_000, k=1)
        for i in range(13)
    ]
    with pytest.raises(OverflowError, match="overflow int64"):
        SegmentSearch(layers, FLOAT32, dsp_budget=50, tn_max=2, tm_max=2)
