"""Tests for OptimizeCompute (SegmentSearch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import layer_cycles
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.fpga.parts import budget_for
from repro.networks import alexnet, get_network, squeezenet
from repro.opt import minimum_possible_cycles, optimize_multi_clp
from repro.opt.compute import SegmentSearch
from repro.opt.driver import DEFAULT_STEP, _first_feasible, _relaxation_targets
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

    def test_relaxed_target_has_candidates(self, alexnet_search):
        assert alexnet_search.candidates(2_200_000, max_clps=6)

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
    def test_googlenet_keeps_over_a_thousand_grids(self):
        # The longest layer list: pruning to non-dominated grids still
        # leaves a real search.
        layers = order_by_nm_distance(list(get_network("googlenet")))
        assert SegmentSearch(layers, FIXED16, dsp_budget=2880).grid_count > 1000

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
            cost = np.inf if expected is None else expected
            assert matrix[i, j] == cost, (target, i, j)
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


# ---------------------------------------------- partition-DP differential
def _scan_candidates(search, cycle_target, max_clps):
    """Oracle: the DP as per-cell scans over nested lists, taking the
    strict-``<`` first minimum over split points."""
    count = len(search.layers)
    seg_dsp = [
        [search.min_dsp_for(i, j, cycle_target) if i < j else None
         for j in range(count + 1)]
        for i in range(count + 1)
    ]
    infinity = float("inf")
    dp = [[infinity] * (count + 1) for _ in range(max_clps + 1)]
    parent = [[-1] * (count + 1) for _ in range(max_clps + 1)]
    dp[0][0] = 0.0
    for k in range(1, max_clps + 1):
        for j in range(1, count + 1):
            for i in range(k - 1, j):
                if dp[k - 1][i] == infinity or seg_dsp[i][j] is None:
                    continue
                total = dp[k - 1][i] + seg_dsp[i][j]
                if total < dp[k][j]:
                    dp[k][j] = total
                    parent[k][j] = i
    results = []
    for k in range(1, max_clps + 1):
        if dp[k][count] <= search.dsp_budget:
            bounds = [count]
            for clps in range(k, 0, -1):
                bounds.append(parent[clps][bounds[-1]])
            results.append(search._assemble(bounds[::-1], cycle_target))
    return sorted(results, key=lambda cand: (cand.total_dsp, cand.num_clps))


@pytest.mark.parametrize("dtype", [FLOAT32, FIXED16], ids=lambda d: d.label)
@pytest.mark.parametrize("part", ["485t", "690t"])
@pytest.mark.parametrize(
    "network", ["alexnet", "vggnet-e", "squeezenet", "googlenet"]
)
def test_candidates_match_scan_dp(network, part, dtype, monkeypatch):
    """At every relaxation target `optimize_multi_clp` visits, single- and
    multi-CLP, the array DP returns the scan's candidates in order.  The
    driver's search is capped at ``max_clps``, so the scan runs on an
    uncapped search over the same layers."""
    seen = []
    candidates = SegmentSearch.candidates
    uncapped = {}

    def spy(search, cycle_target, max_clps=None):
        found = candidates(search, cycle_target, max_clps)
        max_clps = max_clps or search.max_clps
        key = (search.layers, search.dtype, search.dsp_budget)
        if key not in uncapped:
            uncapped[key] = SegmentSearch(*key)
        oracle = uncapped[key]
        seen.append(found == _scan_candidates(oracle, cycle_target, max_clps))
        return found

    monkeypatch.setattr(SegmentSearch, "candidates", spy)
    for max_clps in (1, 6):
        optimize_multi_clp(
            get_network(network), budget_for(part), dtype, max_clps=max_clps
        )
    assert seen and all(seen)


# ---------------------------------------------- grid-pruning differential
class _EveryGridSearch(SegmentSearch):
    """Oracle: the search over every affordable (Tn, Tm) grid up to the
    caps, dominated ones included, in (Tn, Tm) row-major order."""

    def _grids(self, units_budget, tn_max, tm_max):
        tn = np.arange(1, min(tn_max, units_budget) + 1)
        tops = np.minimum(tm_max, units_budget // tn)
        starts = np.repeat(np.cumsum(tops) - tops, tops)
        tn = np.repeat(tn, tops)
        return tn, np.arange(len(tn)) - starts + 1


@st.composite
def grid_problems(draw):
    """A short random layer list, a dtype, a small budget and grid caps."""
    layers = [
        ConvLayer(
            f"l{index}", n=draw(st.integers(1, 48)), m=draw(st.integers(1, 96)),
            r=draw(st.integers(1, 8)), c=draw(st.integers(1, 8)),
            k=draw(st.sampled_from([1, 3])),
        )
        for index in range(draw(st.integers(1, 5)))
    ]
    dtype = draw(st.sampled_from([FLOAT32, FIXED16]))
    return (
        layers, dtype, draw(st.integers(5, 700)),
        draw(st.integers(1, 24)), draw(st.integers(1, 96)),
    )


def _best_grid_or_error(search, i, j, cap):
    try:
        return search.best_grid(i, j, cap)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(grid_problems(), st.data())
def test_non_dominated_grids_search_like_every_grid(problem, data):
    layers, dtype, budget, tn_max, tm_max = problem
    pruned = SegmentSearch(layers, dtype, budget, tn_max, tm_max)
    full = _EveryGridSearch(layers, dtype, budget, tn_max, tm_max)
    assert pruned.grid_count <= full.grid_count
    count = len(layers)
    segments = [(i, j) for i in range(count) for j in range(i + 1, count + 1)]
    for i, j in segments:
        assert pruned.min_segment_cycles(i, j) == full.min_segment_cycles(i, j)

    entries = np.unique(np.concatenate(
        [full._cum[j] - full._cum[i] for i, j in segments]
    )).tolist()
    targets = data.draw(st.lists(
        st.builds(lambda value, shift: value + shift,
                  st.sampled_from(entries), st.sampled_from([-1, -0.5, 0, 0.5])),
        min_size=1, max_size=4,
    ))
    for target in targets:
        for i, j in segments:
            assert pruned.min_dsp_for(i, j, target) == full.min_dsp_for(i, j, target)
        max_clps = data.draw(st.integers(1, 4))
        assert pruned.candidates(target, max_clps) == full.candidates(
            target, max_clps
        ), (target, max_clps)

    for cap in data.draw(st.lists(st.integers(0, budget), min_size=1, max_size=4)):
        for i, j in segments:
            assert _best_grid_or_error(pruned, i, j, cap) == (
                _best_grid_or_error(full, i, j, cap)
            ), (cap, i, j)


# ------------------------------------------------- capped segment frontiers
@pytest.mark.parametrize("max_clps", [1, 2, 3, 4])
def test_capped_search_answers_like_uncapped(any_search, max_clps):
    layers, dtype, budget = any_search.layers, any_search.dtype, any_search.dsp_budget
    capped = SegmentSearch(layers, dtype, budget, max_clps=max_clps)
    count = len(layers)
    whole = any_search.min_segment_cycles(0, count)
    for target in (whole - 1, whole, 1.2 * whole, 2 * whole, 4 * whole, 1e12):
        expected = any_search.candidates(target, max_clps)
        assert capped.candidates(target, max_clps) == expected, target
        # Queries default to the cap the search was built with.
        assert capped.candidates(target) == expected, target
        assert capped.feasible(target) == bool(expected), target


@pytest.mark.parametrize("max_clps, outside", [(1, (0, 1)), (1, (1, 2)), (2, (1, 2))])
def test_out_of_cap_queries_raise_naming_segment_and_cap(max_clps, outside):
    search = SegmentSearch(
        order_by_nm_distance(list(alexnet())), FLOAT32, 2240, max_clps=max_clps
    )
    i, j = outside
    message = rf"layers\[{i}:{j}\] .* max_clps={max_clps}"
    with pytest.raises(ValueError, match=message):
        search.min_dsp_for(i, j, 4_000_000)
    with pytest.raises(ValueError, match=message):
        search.min_segment_cycles(i, j)
    with pytest.raises(ValueError, match=rf"up to {max_clps + 1} CLPs .* "
                                         rf"max_clps={max_clps}"):
        search.candidates(4_000_000, max_clps + 1)


# ------------------------------------------------------ feasibility probe
@settings(max_examples=100, deadline=None)
@given(grid_problems(), st.sampled_from([1, 2, 3, 6]),
       st.sampled_from([DEFAULT_STEP, 0.02, 0.1]))
def test_probe_matches_candidates_and_is_monotone(problem, max_clps, step):
    """Along the driver's targets the probe flips from False to True at
    most once, and says exactly whether ``candidates`` finds a partition."""
    layers, dtype, budget, tn_max, tm_max = problem
    search = SegmentSearch(layers, dtype, budget, tn_max, tm_max, max_clps=max_clps)
    cycles_min = minimum_possible_cycles(Network("probe", layers), budget, dtype)
    targets = _relaxation_targets(step)
    probes = [search.feasible(cycles_min / t, max_clps) for t in targets]
    assert probes == sorted(probes)
    first = probes.index(True) if True in probes else len(probes)
    assert _first_feasible(search, cycles_min, targets) == first
    for index in {0, first - 1, first, len(targets) - 1} & set(range(len(targets))):
        cycle_target = cycles_min / targets[index]
        assert probes[index] == bool(search.candidates(cycle_target, max_clps))


def _linear_first_feasible(search, cycles_min, max_clps, step=DEFAULT_STEP):
    """Oracle: Listing 3's loop stepping every target until ``candidates``
    returns a partition; (index, target), or (count, None) if none does."""
    target, index = 1.0, 0
    while target > 0:
        if search.candidates(cycles_min / target, max_clps):
            return index, target
        index += 1
        target = round(target - step, 10)
    return index, None


@pytest.mark.parametrize("max_clps", [1, 6], ids=["single", "multi"])
@pytest.mark.parametrize("dtype", [FLOAT32, FIXED16], ids=lambda d: d.label)
@pytest.mark.parametrize("part", ["485t", "690t"])
@pytest.mark.parametrize(
    "network", ["alexnet", "vggnet-e", "squeezenet", "googlenet"]
)
def test_bisection_finds_the_linear_loops_first_target(network, part, dtype, max_clps):
    net, budget = get_network(network), budget_for(part)
    layers = order_by_nm_distance(list(net))
    cycles_min = minimum_possible_cycles(net, budget.dsp, dtype)
    index, target = _linear_first_feasible(
        SegmentSearch(layers, dtype, budget.dsp), cycles_min, max_clps
    )
    capped = SegmentSearch(layers, dtype, budget.dsp, max_clps=max_clps)
    targets = _relaxation_targets(DEFAULT_STEP)
    assert _first_feasible(capped, cycles_min, targets) == index
    assert targets[index] == target
