"""OptimizeMemory: BRAM partitioning and (Tr, Tc) tile planning (Sec. 4.3).

For each partition candidate from OptimizeCompute, choose every layer's
(Tr, Tc) tile sizes.  Tiles do not change compute cycles (the cycle model
has no Tr/Tc term); they trade on-chip buffer capacity against off-chip
bandwidth: bigger tiles mean fewer weight re-fetches but larger banks.

Per CLP the search builds a Pareto frontier of (BRAM, transfer) points
by sweeping pairs of input/output bank caps.  Each layer's tile options
are listed cheapest-transfer first, so under a pair of caps the layer's
plan is simply the *first* option fitting both banks (first-fit); cap
pairs that pick the same plans share one point.  The frontiers are
merged across CLPs to allocate the BRAM budget, which also yields the
system-level tradeoff curve of Figure 6.  Structures that do not depend
on the cycle target are memoized, mirroring the paper's note that both
optimization steps "use memoization to avoid redundant work".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bandwidth import LayerTransfer, layer_transfer, min_bandwidth_for_cycles
from ..core.cost_model import bram_count, buffer_spec
from ..core.datatypes import DataType
from ..core.layer import ConvLayer, input_extent
from .compute import CLPCandidate, PartitionCandidate

__all__ = [
    "TilePoint",
    "ClpMemoryPlan",
    "MemorySolution",
    "tile_candidates",
    "clp_pareto",
    "optimize_memory",
    "system_tradeoff_curve",
]

#: Cap on Pareto points kept per CLP and per merged curve; keeps the
#: cross-CLP merge polynomial while preserving the curve's shape.
MAX_CURVE_POINTS = 160

#: Cap on the number of input/output bank-size thresholds swept per CLP.
MAX_CAPS = 24


@dataclass(frozen=True)
class TilePoint:
    """One (BRAM, bandwidth) operating point of a CLP."""

    bram: int
    bandwidth_bytes_per_cycle: float
    tile_plans: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ClpMemoryPlan:
    """Chosen operating point for one CLP."""

    candidate: CLPCandidate
    point: TilePoint


@dataclass(frozen=True)
class MemorySolution:
    """A feasible memory allocation for a whole partition candidate."""

    plans: Tuple[ClpMemoryPlan, ...]

    @property
    def total_bram(self) -> int:
        return sum(plan.point.bram for plan in self.plans)

    @property
    def total_bandwidth_bytes_per_cycle(self) -> float:
        return sum(plan.point.bandwidth_bytes_per_cycle for plan in self.plans)


def _tile_sizes(extent: int) -> List[int]:
    """Distinct tile sizes worth considering along one dimension.

    The values ``ceil(extent/i)`` are exactly the tile sizes that change
    the number of tile steps, which transfer volume depends on.
    """
    sizes = {extent}
    for steps in range(1, extent + 1):
        size = ceil(extent / steps)
        sizes.add(size)
        if size == 1:
            break
    return sorted(sizes)


@lru_cache(maxsize=None)
def tile_candidates(
    layer: ConvLayer, tn: int, tm: int
) -> Tuple[Tuple[int, int, LayerTransfer], ...]:
    """Pareto-relevant (Tr, Tc, transfer) tile options for a layer.

    Options dominated in (input-bank words, output-bank words, transfer
    volume) are dropped.  Results are memoized: the optimizer re-queries
    the same (layer, grid) pairs across target-relaxation iterations.
    """
    raw: List[Tuple[int, int, LayerTransfer]] = []
    for tr in _tile_sizes(layer.r):
        for tc in _tile_sizes(layer.c):
            raw.append((tr, tc, layer_transfer(layer, tn, tm, tr, tc)))
    raw.sort(key=lambda opt: opt[2].total_words)
    kept: List[Tuple[int, int, LayerTransfer]] = []
    kept_banks: List[Tuple[int, int]] = []
    for tr, tc, transfer in raw:
        in_words = input_extent(tr, layer.s, layer.k) * input_extent(
            tc, layer.s, layer.k
        )
        out_words = tr * tc
        if any(
            k_in <= in_words and k_out <= out_words
            for k_in, k_out in kept_banks
        ):
            continue  # an earlier (cheaper-transfer) option needs no more BRAM
        kept.append((tr, tc, transfer))
        kept_banks.append((in_words, out_words))
    return tuple(kept)


def _sample(values: List[int], limit: int) -> List[int]:
    if len(values) <= limit:
        return values
    stride = (len(values) - 1) / (limit - 1)
    picked = sorted({values[round(i * stride)] for i in range(limit)})
    return picked


@dataclass(frozen=True)
class _CurvePoint:
    """Target-independent skeleton of a CLP operating point."""

    bram: int
    total_words: int
    tile_plans: Tuple[Tuple[int, int], ...]
    transfers: Tuple[LayerTransfer, ...]


def _clp_curve_structure(
    candidate: CLPCandidate, dtype: DataType
) -> Tuple[_CurvePoint, ...]:
    """The (BRAM, transfer-volume) frontier of one CLP.

    Independent of the cycle target; reused across relaxation steps.
    Each layer's options come cheapest-transfer first, so under a pair
    of bank caps the first option fitting both is the best one.
    """
    # Per layer and option: (input-bank words, output-bank words, plan, transfer).
    per_layer = []
    for layer in candidate.layers:
        s, k = layer.s, layer.k
        options = tile_candidates(layer, candidate.tn, candidate.tm)
        per_layer.append([
            (input_extent(tr, s, k) * input_extent(tc, s, k), tr * tc,
             (tr, tc), transfer)
            for tr, tc, transfer in options
        ])
    in_caps = _sample(
        sorted({fit[0] for options in per_layer for fit in options}), MAX_CAPS
    )
    out_caps = _sample(
        sorted({fit[1] for options in per_layer for fit in options}), MAX_CAPS
    )

    # Plan tuple -> point; cap pairs that pick the same plans share one.
    points: Dict[Tuple[Tuple[int, int], ...], _CurvePoint] = {}
    for in_cap in in_caps:
        for out_cap in out_caps:
            chosen = []
            for options in per_layer:
                fit = next(
                    (fit for fit in options
                     if fit[0] <= in_cap and fit[1] <= out_cap),
                    None,
                )
                if fit is None:
                    break
                chosen.append(fit)
            else:
                plans = tuple(fit[2] for fit in chosen)
                if plans in points:
                    continue
                spec = buffer_spec(candidate.layers, plans)
                points[plans] = _CurvePoint(
                    bram=bram_count(candidate.tn, candidate.tm, spec, dtype),
                    total_words=sum(fit[3].total_words for fit in chosen),
                    tile_plans=plans,
                    transfers=tuple(fit[3] for fit in chosen),
                )
    # Pareto prune on (bram, total transfer volume).
    pruned: List[_CurvePoint] = []
    best_words = None
    for point in sorted(
        points.values(), key=lambda p: (p.bram, p.total_words)
    ):
        if best_words is None or point.total_words < best_words:
            pruned.append(point)
            best_words = point.total_words
    return tuple(pruned[:MAX_CURVE_POINTS])


# The structure cache is keyed by the CLP's identity (grid + layers).
_STRUCTURE_CACHE: dict = {}


def _candidate_key(candidate: CLPCandidate) -> Tuple:
    return (
        candidate.tn,
        candidate.tm,
        tuple(layer.name for layer in candidate.layers),
        tuple(layer.dims for layer in candidate.layers),
    )


def _structure_for(
    candidate: CLPCandidate, dtype: DataType
) -> Tuple[_CurvePoint, ...]:
    key = (_candidate_key(candidate), dtype)
    if key not in _STRUCTURE_CACHE:
        _STRUCTURE_CACHE[key] = _clp_curve_structure(candidate, dtype)
    return _STRUCTURE_CACHE[key]


def clp_pareto(
    candidate: CLPCandidate,
    dtype: DataType,
    cycle_budget: float,
) -> List[TilePoint]:
    """The (BRAM, bandwidth) frontier of one CLP.

    ``cycle_budget`` is the epoch target including the global slack; a
    point's bandwidth is the smallest transfer rate that lets the CLP
    finish its layers within the budget at that point's tile plans.
    """
    structure = _structure_for(candidate, dtype)
    points = [
        TilePoint(
            bram=point.bram,
            bandwidth_bytes_per_cycle=min_bandwidth_for_cycles(
                point.transfers, dtype, cycle_budget
            ),
            tile_plans=point.tile_plans,
        )
        for point in structure
    ]
    # The bandwidth ordering can differ from the volume ordering; prune
    # again on the realised metric.
    points.sort(key=lambda p: (p.bram, p.bandwidth_bytes_per_cycle))
    pruned: List[TilePoint] = []
    best = float("inf")
    for point in points:
        if point.bandwidth_bytes_per_cycle < best - 1e-12:
            pruned.append(point)
            best = point.bandwidth_bytes_per_cycle
    return pruned


def _merge_curves(
    curves: Sequence[List[TilePoint]],
) -> List[Tuple[int, float, Tuple[int, ...]]]:
    """Combine per-CLP curves into a system frontier.

    Returns (total bram, total bandwidth, point index per CLP) tuples,
    Pareto-pruned and size-capped after every merge step.
    """
    merged: List[Tuple[int, float, Tuple[int, ...]]] = [(0, 0.0, ())]
    for curve in curves:
        combined = [
            (
                bram + point.bram,
                bandwidth + point.bandwidth_bytes_per_cycle,
                choice + (idx,),
            )
            for bram, bandwidth, choice in merged
            for idx, point in enumerate(curve)
        ]
        combined.sort(key=lambda item: (item[0], item[1]))
        pruned: List[Tuple[int, float, Tuple[int, ...]]] = []
        best_bw = float("inf")
        for item in combined:
            if item[1] < best_bw - 1e-12:
                pruned.append(item)
                best_bw = item[1]
        if len(pruned) > MAX_CURVE_POINTS:
            stride = len(pruned) / MAX_CURVE_POINTS
            sampled = [pruned[int(i * stride)] for i in range(MAX_CURVE_POINTS)]
            if sampled[-1] is not pruned[-1]:
                sampled.append(pruned[-1])
            pruned = sampled
        merged = pruned
    return merged


def optimize_memory(
    candidate: PartitionCandidate,
    dtype: DataType,
    bram_budget: int,
    cycle_target: float,
    bandwidth_budget_bytes_per_cycle: Optional[float] = None,
    slack: float = 0.02,
) -> Optional[MemorySolution]:
    """Choose tile plans and a BRAM allocation for a partition candidate.

    Returns the minimum-bandwidth solution fitting the BRAM budget (or,
    under a bandwidth budget, the smallest-BRAM solution meeting it); or
    ``None`` if nothing fits.
    """
    cycle_budget = cycle_target * (1 + slack)
    curves = [clp_pareto(clp, dtype, cycle_budget) for clp in candidate.clps]
    if any(not curve for curve in curves):
        return None
    merged = _merge_curves(curves)
    feasible = [item for item in merged if item[0] <= bram_budget]
    if not feasible:
        return None
    if bandwidth_budget_bytes_per_cycle is not None:
        feasible = [
            item
            for item in feasible
            if item[1] <= bandwidth_budget_bytes_per_cycle
        ]
        if not feasible:
            return None
        chosen = feasible[0]  # bram-ascending: smallest BRAM that meets bw
    else:
        chosen = min(feasible, key=lambda item: item[1])
    plans = tuple(
        ClpMemoryPlan(candidate=clp, point=curve[idx])
        for clp, curve, idx in zip(candidate.clps, curves, chosen[2])
    )
    return MemorySolution(plans=plans)


def system_tradeoff_curve(
    candidate: PartitionCandidate,
    dtype: DataType,
    cycle_target: float,
    slack: float = 0.02,
) -> List[Tuple[int, float]]:
    """The Figure 6 curve: (BRAM, bandwidth bytes/cycle) frontier."""
    cycle_budget = cycle_target * (1 + slack)
    curves = [clp_pareto(clp, dtype, cycle_budget) for clp in candidate.clps]
    merged = _merge_curves(curves)
    return [(bram, bandwidth) for bram, bandwidth, _ in merged]
