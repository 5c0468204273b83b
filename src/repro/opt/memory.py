"""OptimizeMemory: BRAM partitioning and (Tr, Tc) tile planning (Sec. 4.3).

For each partition candidate from OptimizeCompute, choose every layer's
(Tr, Tc) tile sizes.  Tiles do not change compute cycles (the cycle model
has no Tr/Tc term); they trade on-chip buffer capacity against off-chip
bandwidth: bigger tiles mean fewer weight re-fetches but larger banks.

Per CLP the search builds a Pareto frontier of (BRAM, transfer) points
by sweeping pairs of input/output bank caps.  Each layer's tile options
(ranked from one array of every (Tr, Tc)'s transfer volume) are listed
cheapest-transfer first, so under a pair of caps the layer's plan is the
*first* option fitting both banks: one ``argmax`` over a boolean (option,
in-cap, out-cap) array finds it for every pair.  The ranking depends on
the grid only through the layer's ``ceil(M/Tm)`` (the input re-fetch
count; bank sizes depend on neither Tn nor Tm), so it is computed once
per such Tm step class and shared by every (Tn, Tm) in it.  Everything
is priced by core's elementwise closed forms, in array passes: the
options' bank and transfer words, every plan's BRAM in one
``bram_count`` call, and the kept points' transfer arrays straight from
their (Tr, Tc) plans.  Pairs that pick the same plans share one point,
and one lockstep bisection prices every point's bandwidth for a cycle
target.  The frontiers are merged across CLPs to allocate the BRAM
budget, which also yields the system-level tradeoff curve of Figure 6.  Structures that do not depend on the cycle target
are memoized, mirroring the paper's note that both optimization steps
"use memoization to avoid redundant work".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bandwidth import min_bandwidths_for_cycles, plan_arrays, transfer_words
from ..core.cost_model import BufferSpec, bank_words, bram_count
from ..core.datatypes import DataType
from ..core.layer import ConvLayer
from .compute import CLPCandidate, PartitionCandidate, step_sizes

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
    """Distinct tile sizes worth considering along one dimension: those
    that change the number of tile steps, which transfer volume depends
    on."""
    return step_sizes([extent], extent).tolist()


@lru_cache(maxsize=None)
def tile_candidates(
    layer: ConvLayer, tn: int, tm: int
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """The layer's Pareto-relevant tile options on a (Tn, Tm) grid,
    cheapest-transfer first: ``(tiles, banks)``, the kept (Tr, Tc) pairs
    and a (3, options) int array of each one's input-bank, output-bank
    and transfer words.  An option needing no less bank space than an
    earlier one is dropped.

    The ranking depends on Tm only through ``ceil(M/Tm)`` and not on Tn,
    so every grid gets the very ranking of its step class, computed once
    in this cache's entry for (layer, 1, the class's smallest Tm).
    Results are memoized (emptying this cache leaves a cold solve): the
    optimizer re-queries the same (layer, grid) pairs across
    target-relaxation iterations.
    """
    class_tm = -(-layer.m // -(-layer.m // tm))
    if (tn, tm) != (1, class_tm):
        return tile_candidates(layer, 1, class_tm)
    rows, cols = _tile_sizes(layer.r), _tile_sizes(layer.c)
    tr, tc = (grid.ravel() for grid in np.meshgrid(rows, cols, indexing="ij"))
    words = sum(transfer_words(layer, tm, tr, tc))
    order = np.argsort(words, kind="stable")
    in_words, out_words = (bank[order] for bank in bank_words(layer, tr, tc))
    # [i, j]: option i needs no bigger banks than option j.  Dropping j
    # for any earlier such i drops the same set as checking kept options
    # only, since a dropped option's dominator also dominates its victims.
    covers = (in_words[:, None] <= in_words) & (out_words[:, None] <= out_words)
    keep = ~np.triu(covers, k=1).any(axis=0)
    kept = order[keep]
    tiles = list(zip(tr[kept].tolist(), tc[kept].tolist()))
    return tiles, np.stack([in_words[keep], out_words[keep], words[kept]])


def _sample(values: List[int], limit: int) -> List[int]:
    if len(values) <= limit:
        return values
    stride = (len(values) - 1) / (limit - 1)
    return sorted({values[round(i * stride)] for i in range(limit)})


@dataclass(frozen=True)
class _CurvePoint:
    """Target-independent skeleton of a CLP operating point."""

    bram: int
    total_words: int
    tile_plans: Tuple[Tuple[int, int], ...]


def _clp_curve_structure(
    candidate: CLPCandidate, dtype: DataType
) -> Tuple[_CurvePoint, ...]:
    """The (BRAM, transfer-volume) frontier of one CLP.

    Independent of the cycle target; reused across relaxation steps.
    Each layer's options come cheapest-transfer first, so under a pair
    of bank caps the first option fitting both (an ``argmax``) is best.
    """
    layers = candidate.layers
    tiles, banks = zip(*(
        tile_candidates(layer, candidate.tn, candidate.tm) for layer in layers
    ))
    in_caps, out_caps = (
        np.array(_sample(sorted(set(np.concatenate(words).tolist())), MAX_CAPS))
        for words in zip(*(bank[:2] for bank in banks))
    )

    # Per layer, the first fitting option under each (in, out) cap pair,
    # flattened row-major; a pair is feasible if every layer fits.  The
    # largest caps fit every option, so some pair always is.
    firsts = []
    feasible = True
    for ins, outs, _ in banks:
        fits = (ins[:, None, None] <= in_caps[:, None]) & (
            outs[:, None, None] <= out_caps)
        firsts.append(fits.argmax(axis=0).ravel())
        feasible = feasible & fits.any(axis=0).ravel()
    # One point per distinct plan (an option index per layer), in the
    # order its first cap pair comes.
    picks = zip(*(first[feasible].tolist() for first in firsts))
    plans = np.array(list(dict.fromkeys(picks)))
    # (3, layers, plans): the words of each plan's chosen options.
    chosen = np.stack([bank[:, col] for bank, col in zip(banks, plans.T)], axis=1)
    in_banks, out_banks = chosen[:2].max(axis=1)
    totals = chosen[2].sum(axis=0)
    weight_bank = max(layer.k * layer.k for layer in layers)
    brams = bram_count(
        candidate.tn, candidate.tm, BufferSpec(in_banks, weight_bank, out_banks), dtype
    )

    # Pareto prune on (bram, total transfer volume): in (bram, words)
    # order, keep points below every earlier point's volume.
    order = np.lexsort((totals, brams))
    ordered = totals[order]
    below = np.r_[True, ordered[1:] < np.minimum.accumulate(ordered)[:-1]]
    kept = order[below][:MAX_CURVE_POINTS]
    return tuple(
        _CurvePoint(
            int(brams[index]),
            int(totals[index]),
            tuple(layer_tiles[o] for layer_tiles, o in zip(tiles, plan)),
        )
        for index, plan in zip(kept.tolist(), plans[kept].tolist())
    )


# The structure cache is keyed by the CLP's identity (grid + layers).
_STRUCTURE_CACHE: dict = {}


def _structure_for(
    candidate: CLPCandidate, dtype: DataType
) -> Tuple[Tuple[_CurvePoint, ...], np.ndarray]:
    """The CLP's frontier and its points' transfer arrays, memoized."""
    key = (candidate.tn, candidate.tm, candidate.layers, dtype)
    if key not in _STRUCTURE_CACHE:
        structure = _clp_curve_structure(candidate, dtype)
        plans = np.array([point.tile_plans for point in structure])
        arrays = plan_arrays(candidate.layers, candidate.tn, candidate.tm, plans, dtype)
        _STRUCTURE_CACHE[key] = structure, arrays
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
    structure, arrays = _structure_for(candidate, dtype)
    bandwidths = min_bandwidths_for_cycles(arrays, cycle_budget).tolist()
    points = [
        TilePoint(point.bram, bandwidth, point.tile_plans)
        for point, bandwidth in zip(structure, bandwidths)
    ]
    # The bandwidth ordering can differ from the volume ordering; prune
    # again on the realised metric.
    return _pareto(points, key=lambda p: (p.bram, p.bandwidth_bytes_per_cycle))


def _pareto(items: list, key) -> list:
    """``items`` in (BRAM, bandwidth) ``key`` order, keeping each one
    whose bandwidth is below every kept one's by more than 1e-12."""
    pruned, best = [], float("inf")
    for item in sorted(items, key=key):
        if key(item)[1] < best - 1e-12:
            pruned.append(item)
            best = key(item)[1]
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
        pruned = _pareto(combined, key=lambda item: item[:2])
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
    bandwidth_cap = bandwidth_budget_bytes_per_cycle
    if bandwidth_cap is not None:
        feasible = [item for item in feasible if item[1] <= bandwidth_cap]
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
