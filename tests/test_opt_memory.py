"""Tests for OptimizeMemory: tile planning and BRAM allocation."""

import pytest

from repro.core.cost_model import bram_count, buffer_spec
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer, input_extent
from repro.fpga.parts import budget_for
from repro.networks import get_network
from repro.opt import memory, optimize_multi_clp
from repro.opt.compute import CLPCandidate, PartitionCandidate
from repro.opt.memory import (
    MAX_CAPS,
    MAX_CURVE_POINTS,
    _CurvePoint,
    _sample,
    clp_pareto,
    optimize_memory,
    system_tradeoff_curve,
    tile_candidates,
)


def make_candidate(tn, tm, layers):
    cycles = sum(
        layer.r * layer.c * -(-layer.n // tn) * -(-layer.m // tm)
        * layer.k * layer.k
        for layer in layers
    )
    return CLPCandidate(
        tn=tn, tm=tm, layers=tuple(layers), cycles=cycles, dsp=tn * tm * 5
    )


@pytest.fixture
def conv2_layer():
    return ConvLayer("conv2a", n=48, m=128, r=27, c=27, k=5)


class TestTileCandidates:
    def test_contains_full_map_tile(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        assert any(tr == 27 and tc == 27 for tr, tc, _ in options)

    def test_all_tiles_within_layer(self, conv2_layer):
        for tr, tc, _ in tile_candidates(conv2_layer, 7, 64):
            assert 1 <= tr <= 27
            assert 1 <= tc <= 27

    def test_no_dominated_options(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        seen = []
        for tr, tc, transfer in options:
            in_w = input_extent(tr, 1, 5) * input_extent(tc, 1, 5)
            out_w = tr * tc
            for p_in, p_out, p_words in seen:
                assert not (
                    p_in <= in_w
                    and p_out <= out_w
                    and p_words <= transfer.total_words
                ), "dominated option retained"
            seen.append((in_w, out_w, transfer.total_words))

    def test_full_tile_minimizes_transfer(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        best = min(options, key=lambda o: o[2].total_words)
        # The whole-map tile removes all weight re-fetching.
        assert (best[0], best[1]) == (27, 27)

    def test_ordered_by_transfer_volume(self, conv2_layer):
        """Options come in non-decreasing ``total_words`` order.

        ``_clp_curve_structure`` relies on this: under a pair of bank caps
        it takes the *first* option that fits, which is the cheapest only
        because of this order (and, on ties, the same one a strict-``<``
        minimum would pick).
        """
        layers = [conv2_layer] + list(get_network("googlenet"))[:12]
        for layer in layers:
            for tn, tm in ((1, 1), (7, 64), (16, 32), (64, 512)):
                words = [t.total_words for _, _, t in tile_candidates(layer, tn, tm)]
                assert words == sorted(words), (layer.name, tn, tm)

    def test_memoized(self, conv2_layer):
        assert tile_candidates(conv2_layer, 7, 64) is tile_candidates(
            conv2_layer, 7, 64
        )


class TestClpPareto:
    def test_curve_is_pareto(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        for earlier, later in zip(curve, curve[1:]):
            assert later.bram > earlier.bram
            assert (
                later.bandwidth_bytes_per_cycle
                < earlier.bandwidth_bytes_per_cycle
            )

    def test_more_bram_never_needs_more_bandwidth(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        bandwidths = [p.bandwidth_bytes_per_cycle for p in curve]
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_tile_plans_match_layer_count(self, conv2_layer):
        other = ConvLayer("conv3a", n=256, m=192, r=13, c=13, k=3)
        candidate = make_candidate(7, 64, [conv2_layer, other])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        assert curve
        for point in curve:
            assert len(point.tile_plans) == 2

    def test_looser_cycle_budget_lowers_bandwidth(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        tight = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.001)
        loose = clp_pareto(candidate, FLOAT32, candidate.cycles * 2.0)
        assert (
            loose[0].bandwidth_bytes_per_cycle
            <= tight[0].bandwidth_bytes_per_cycle
        )


class TestOptimizeMemory:
    def _partition(self, conv2_layer):
        other = ConvLayer("conv3a", n=256, m=192, r=13, c=13, k=3)
        return PartitionCandidate(
            clps=(
                make_candidate(7, 64, [conv2_layer]),
                make_candidate(4, 48, [other]),
            )
        )

    def test_solution_fits_budget(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target
        )
        assert solution is not None
        assert solution.total_bram <= 1648
        assert len(solution.plans) == 2

    def test_infeasible_bram_returns_none(self, conv2_layer):
        partition = self._partition(conv2_layer)
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1,
            cycle_target=partition.epoch_cycles,
        )
        assert solution is None

    def test_bandwidth_budget_respected(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        unconstrained = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target
        )
        bw = unconstrained.total_bandwidth_bytes_per_cycle
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target,
            bandwidth_budget_bytes_per_cycle=bw * 1.5,
        )
        assert solution is not None
        assert solution.total_bandwidth_bytes_per_cycle <= bw * 1.5

    def test_impossible_bandwidth_returns_none(self, conv2_layer):
        partition = self._partition(conv2_layer)
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648,
            cycle_target=partition.epoch_cycles,
            bandwidth_budget_bytes_per_cycle=1e-9,
        )
        assert solution is None

    def test_larger_bram_budget_never_increases_bandwidth(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        small = optimize_memory(
            partition, FLOAT32, bram_budget=700, cycle_target=target
        )
        large = optimize_memory(
            partition, FLOAT32, bram_budget=2000, cycle_target=target
        )
        assert small is not None and large is not None
        assert (
            large.total_bandwidth_bytes_per_cycle
            <= small.total_bandwidth_bytes_per_cycle
        )

    def test_fixed16_uses_less_bram_than_float(self, conv2_layer):
        def solve(dtype):
            cand = make_candidate(8, 64, [conv2_layer])
            partition = PartitionCandidate(clps=(cand,))
            return optimize_memory(
                partition, dtype, bram_budget=4000,
                cycle_target=partition.epoch_cycles,
            )

        fixed = solve(FIXED16)
        flt = solve(FLOAT32)
        assert fixed.total_bram < flt.total_bram


class TestSystemTradeoffCurve:
    def test_curve_shape(self, conv2_layer):
        partition = PartitionCandidate(
            clps=(make_candidate(7, 64, [conv2_layer]),)
        )
        curve = system_tradeoff_curve(
            partition, FLOAT32, partition.epoch_cycles
        )
        assert len(curve) >= 2
        brams = [b for b, _ in curve]
        bws = [w for _, w in curve]
        assert brams == sorted(brams)
        assert bws == sorted(bws, reverse=True)


# ---------------------------------------------------- first-fit differential
def _min_scan_structure(candidate, dtype):
    """Oracle: the per-cap-pair minimum scan over every tile option.

    For each (input-cap, output-cap) pair it rescans all options of every
    layer for the strict-``<`` minimum transfer volume and builds a point
    per pair; ``_clp_curve_structure`` must produce the same frontier.
    """
    per_layer = [
        tile_candidates(layer, candidate.tn, candidate.tm)
        for layer in candidate.layers
    ]

    def in_words(layer, tr, tc):
        return input_extent(tr, layer.s, layer.k) * input_extent(
            tc, layer.s, layer.k
        )

    in_caps = _sample(sorted({
        in_words(layer, tr, tc)
        for layer, options in zip(candidate.layers, per_layer)
        for tr, tc, _ in options
    }), MAX_CAPS)
    out_caps = _sample(sorted(
        {tr * tc for options in per_layer for tr, tc, _ in options}
    ), MAX_CAPS)
    points = []
    for in_cap in in_caps:
        for out_cap in out_caps:
            plans, transfers = [], []
            for layer, options in zip(candidate.layers, per_layer):
                best = None
                for tr, tc, transfer in options:
                    if in_words(layer, tr, tc) > in_cap or tr * tc > out_cap:
                        continue
                    if best is None or transfer.total_words < best[2].total_words:
                        best = (tr, tc, transfer)
                if best is None:
                    break
                plans.append((best[0], best[1]))
                transfers.append(best[2])
            else:
                spec = buffer_spec(candidate.layers, plans)
                points.append(_CurvePoint(
                    bram=bram_count(candidate.tn, candidate.tm, spec, dtype),
                    total_words=sum(t.total_words for t in transfers),
                    tile_plans=tuple(plans),
                    transfers=tuple(transfers),
                ))
    points.sort(key=lambda p: (p.bram, p.total_words))
    pruned, best_words = [], None
    for point in points:
        if best_words is None or point.total_words < best_words:
            pruned.append(point)
            best_words = point.total_words
    return tuple(pruned[:MAX_CURVE_POINTS])


def _structured_candidates(network, part, dtype, monkeypatch):
    """Every (CLP candidate, dtype) the optimizer builds a structure for
    while solving ``network`` on ``part``, single- and multi-CLP."""
    seen = []
    build = memory._clp_curve_structure

    def spy(candidate, dtype):
        seen.append((candidate, dtype))
        return build(candidate, dtype)

    with monkeypatch.context() as patch:
        patch.setattr(memory, "_STRUCTURE_CACHE", {})
        patch.setattr(memory, "_clp_curve_structure", spy)
        for max_clps in (1, 6):
            optimize_multi_clp(
                get_network(network), budget_for(part), dtype, max_clps=max_clps
            )
    return seen


@pytest.mark.parametrize("dtype", [FLOAT32, FIXED16], ids=lambda d: d.label)
@pytest.mark.parametrize("part", ["485t", "690t"])
@pytest.mark.parametrize("network", ["alexnet", "squeezenet", "googlenet"])
def test_first_fit_structure_matches_min_scan(network, part, dtype, monkeypatch):
    seen = _structured_candidates(network, part, dtype, monkeypatch)
    assert seen
    for candidate, dtype in seen:
        assert memory._clp_curve_structure(candidate, dtype) == (
            _min_scan_structure(candidate, dtype)
        ), (candidate.tn, candidate.tm, [l.name for l in candidate.layers])
