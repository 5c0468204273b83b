"""OptimizeCompute: DSP partitioning and layer assignment (Section 4.3).

Given an ordered layer list, a DSP budget, and a cycle target, find
partitions of the order into contiguous segments — one per CLP — and a
(Tn, Tm) grid per segment such that every CLP finishes its segment
within the target and the total DSP cost fits the budget.

The search is exact within the contiguous-segment restriction:

1. Enumerate all (Tn, Tm) grids up to caps (Tn <= 64, Tm <= 512, the
   practical dot-product widths the paper's designs stay within).
2. For every contiguous segment, precompute a *frontier*: the minimum
   achievable segment cycles as a function of the DSP spent on its CLP
   (non-increasing in DSP).  This is target-independent, so the paper's
   target-relaxation loop re-queries it cheaply (the paper notes both
   steps "use memoization to avoid redundant work").
3. For a given cycle target, the minimum DSP for a segment is a binary
   search on its frontier, and the best partition is a small dynamic
   program over (number of CLPs, prefix of the order).

All frontiers live in one flat array: each row is stored reversed (so
non-decreasing) and lifted by ``row * span``, with ``span`` above every
entry, so the whole array is sorted and one ``searchsorted`` answers a
cycle target for every segment at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cost_model import max_units_for_budget
from ..core.datatypes import DataType
from ..core.layer import ConvLayer

__all__ = ["CLPCandidate", "PartitionCandidate", "SegmentSearch", "TN_MAX", "TM_MAX"]

#: Caps on the compute-grid dimensions considered by the search.  Every
#: design in the paper satisfies Tn <= 32 and Tm <= 256; the caps leave
#: ample headroom while keeping the grid enumeration small.
TN_MAX = 64
TM_MAX = 512

_INFEASIBLE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CLPCandidate:
    """One CLP of a partition candidate: grid size plus assigned layers."""

    tn: int
    tm: int
    layers: Tuple[ConvLayer, ...]
    cycles: int
    dsp: int


@dataclass(frozen=True)
class PartitionCandidate:
    """A full partition: an ordered tuple of CLP candidates."""

    clps: Tuple[CLPCandidate, ...]

    @property
    def num_clps(self) -> int:
        return len(self.clps)

    @property
    def total_dsp(self) -> int:
        return sum(clp.dsp for clp in self.clps)

    @property
    def epoch_cycles(self) -> int:
        return max(clp.cycles for clp in self.clps)


def _layer_cycles_vector(
    layer: ConvLayer, tn: np.ndarray, tm: np.ndarray
) -> np.ndarray:
    """Cycles of ``layer`` on every enumerated (Tn, Tm) grid."""
    n_steps = -(-layer.n // tn)
    m_steps = -(-layer.m // tm)
    per_pos = np.int64(layer.r) * layer.c * layer.k * layer.k
    return per_pos * n_steps.astype(np.int64) * m_steps.astype(np.int64)


class SegmentSearch:
    """Precomputed segment frontiers for one ordered layer list.

    Build once per (ordered layers, datatype, DSP budget); query
    :meth:`candidates` for each cycle target of the relaxation loop.
    """

    def __init__(
        self,
        ordered_layers: Sequence[ConvLayer],
        dtype: DataType,
        dsp_budget: int,
        tn_max: int = TN_MAX,
        tm_max: int = TM_MAX,
    ):
        if not ordered_layers:
            raise ValueError("need at least one layer")
        self.layers: Tuple[ConvLayer, ...] = tuple(ordered_layers)
        self.dtype = dtype
        self.dsp_budget = dsp_budget
        units_budget = max_units_for_budget(dsp_budget, dtype)
        if units_budget < 1:
            raise ValueError(
                f"DSP budget {dsp_budget} cannot afford a single "
                f"{dtype.label} MAC unit"
            )
        self._enumerate_grids(units_budget, tn_max, tm_max)
        self._build_frontiers()

    # ------------------------------------------------------------- building
    def _enumerate_grids(self, units_budget: int, tn_max: int, tm_max: int) -> None:
        tns: List[int] = []
        tms: List[int] = []
        for tn in range(1, min(tn_max, units_budget) + 1):
            top = min(tm_max, units_budget // tn)
            for tm in range(1, top + 1):
                tns.append(tn)
                tms.append(tm)
        self._tn = np.array(tns, dtype=np.int64)
        self._tm = np.array(tms, dtype=np.int64)
        self._units = self._tn * self._tm
        spec = self.dtype.spec
        slices = spec.dsp_per_multiplier + spec.dsp_per_adder
        group = spec.macs_per_dsp_group
        self._dsp = -(-(self._units * slices) // group)
        # Sort grids by DSP cost so frontiers are prefix minima.
        order = np.argsort(self._dsp, kind="stable")
        self._tn = self._tn[order]
        self._tm = self._tm[order]
        self._units = self._units[order]
        self._dsp = self._dsp[order]
        # Group boundaries of equal-DSP runs.
        self.dsp_values, self._group_starts = np.unique(
            self._dsp, return_index=True
        )

    def _build_frontiers(self) -> None:
        count = len(self.layers)
        cum = np.zeros((count + 1, len(self._tn)), dtype=np.int64)
        for i, layer in enumerate(self.layers):
            cum[i + 1] = cum[i] + _layer_cycles_vector(layer, self._tn, self._tm)
        num_segments = count * (count + 1) // 2
        num_classes = len(self.dsp_values)
        # No entry exceeds a grid's whole-order cycles, so lifting row r
        # by r * span keeps rows disjoint and the flat array sorted.
        self._span = int(cum[-1].max()) + 1
        if num_segments * self._span > _INFEASIBLE:
            raise OverflowError("lifted segment frontiers overflow int64")
        frontier = np.empty((num_segments, num_classes), dtype=np.int64)
        self._segment_index: Dict[Tuple[int, int], int] = {}
        row = 0
        for i in range(count):
            for j in range(i + 1, count + 1):
                seg = cum[j] - cum[i]
                per_class = np.minimum.reduceat(seg, self._group_starts)
                np.minimum.accumulate(per_class, out=per_class)
                frontier[row] = per_class[::-1] + row * self._span
                self._segment_index[(i, j)] = row
                row += 1
        self._frontier = frontier.reshape(-1)
        self._cum = cum

    # -------------------------------------------------------------- queries
    def min_segment_cycles(self, i: int, j: int) -> int:
        """Best cycles for layers[i:j] with the whole DSP budget."""
        row = self._segment_index[(i, j)]
        lifted = int(self._frontier[row * len(self.dsp_values)])
        return lifted - row * self._span

    def min_dsp_for(self, i: int, j: int, cycle_target: float) -> Optional[int]:
        """Smallest DSP cost letting layers[i:j] meet ``cycle_target``."""
        row = self._segment_index[(i, j)]
        count = int(self._meeting_counts(row, cycle_target))
        if count == 0:
            return None
        return int(self.dsp_values[-count])

    def _meeting_counts(self, rows, cycle_target: float):
        """How many DSP classes of each frontier row meet ``cycle_target``.

        Cycles are integers, so ``c <= t`` iff ``c <= floor(t)``; clamped
        to [-1, span - 1], the bound stays inside each row's band of the
        lifted array and one search answers every row at once.
        """
        bound = max(-1, floor(min(cycle_target, self._span - 1)))
        found = np.searchsorted(
            self._frontier, rows * self._span + bound, side="right"
        )
        return found - rows * len(self.dsp_values)

    def best_grid(self, i: int, j: int, dsp_cap: int) -> Tuple[int, int, int, int]:
        """(Tn, Tm, cycles, dsp) minimizing cycles for layers[i:j] within
        ``dsp_cap`` DSP slices; ties broken toward fewer DSP slices."""
        mask = self._dsp <= dsp_cap
        if not mask.any():
            raise ValueError(f"no grid fits within {dsp_cap} DSP slices")
        seg = self._cum[j] - self._cum[i]
        cycles = np.where(mask, seg, _INFEASIBLE)
        best_cycles = cycles.min()
        tied = np.flatnonzero(cycles == best_cycles)
        winner = tied[np.argmin(self._dsp[tied])]
        return (
            int(self._tn[winner]),
            int(self._tm[winner]),
            int(best_cycles),
            int(self._dsp[winner]),
        )

    # ------------------------------------------------------------ partition
    def candidates(
        self,
        cycle_target: float,
        max_clps: int,
    ) -> List[PartitionCandidate]:
        """All minimum-DSP partitions meeting ``cycle_target``.

        Returns one candidate per feasible CLP count (1..max_clps), each
        using the fewest DSP slices for that count, cheapest first.  An
        empty list means the target is unreachable within the budget.
        """
        if max_clps < 1:
            raise ValueError(f"max_clps must be >= 1, got {max_clps}")
        count = len(self.layers)
        seg_dsp = self._segment_dsp_matrix(cycle_target)
        infinity = float("inf")
        # dp[k][j]: min DSP covering layers[:j] with exactly k CLPs.
        dp = [[infinity] * (count + 1) for _ in range(max_clps + 1)]
        parent: List[List[int]] = [[-1] * (count + 1) for _ in range(max_clps + 1)]
        dp[0][0] = 0.0
        for k in range(1, max_clps + 1):
            for j in range(1, count + 1):
                best = infinity
                best_i = -1
                for i in range(k - 1, j):
                    if dp[k - 1][i] == infinity:
                        continue
                    cost = seg_dsp[i][j]
                    if cost is None:
                        continue
                    total = dp[k - 1][i] + cost
                    if total < best:
                        best = total
                        best_i = i
                dp[k][j] = best
                parent[k][j] = best_i

        results: List[PartitionCandidate] = []
        for k in range(1, max_clps + 1):
            if dp[k][count] <= self.dsp_budget:
                results.append(
                    self._assemble(parent, k, count, cycle_target)
                )
        results.sort(key=lambda cand: (cand.total_dsp, cand.num_clps))
        return results

    def _segment_dsp_matrix(
        self, cycle_target: float
    ) -> List[List[Optional[int]]]:
        count = len(self.layers)
        matrix: List[List[Optional[int]]] = [
            [None] * (count + 1) for _ in range(count + 1)
        ]
        counts = self._meeting_counts(
            np.arange(len(self._segment_index), dtype=np.int64), cycle_target
        )
        # A count of 0 indexes class 0 here; those rows stay None below.
        costs = self.dsp_values[-counts].tolist()
        counts = counts.tolist()
        for (i, j), row in self._segment_index.items():
            if counts[row]:
                matrix[i][j] = costs[row]
        return matrix

    def _assemble(
        self,
        parent: List[List[int]],
        num_clps: int,
        count: int,
        cycle_target: float,
    ) -> PartitionCandidate:
        # Walk parents to recover segment boundaries.
        bounds = [count]
        j = count
        for k in range(num_clps, 0, -1):
            j = parent[k][j]
            bounds.append(j)
        bounds.reverse()
        clps: List[CLPCandidate] = []
        spent = 0
        for i, j in zip(bounds[:-1], bounds[1:]):
            dsp_needed = self.min_dsp_for(i, j, cycle_target)
            assert dsp_needed is not None
            tn, tm, cycles, dsp = self.best_grid(i, j, dsp_needed)
            clps.append(
                CLPCandidate(
                    tn=tn,
                    tm=tm,
                    layers=self.layers[i:j],
                    cycles=cycles,
                    dsp=dsp,
                )
            )
            spent += dsp
        candidate = PartitionCandidate(clps=tuple(clps))
        return self._rebalance(candidate)

    def _rebalance(self, candidate: PartitionCandidate) -> PartitionCandidate:
        """Spend leftover DSP slices on the *bottleneck* CLPs only.

        The DP allocates each CLP its minimum DSP for the target; any
        leftover budget is used to shorten the epoch (the longest CLP).
        DSP slices that cannot shorten the epoch stay unspent — widening
        a non-critical CLP would not raise throughput and would only
        dilute arithmetic-unit utilization (e.g. AlexNet's first layer
        floors the fixed-point epoch at R*C*K^2 cycles, so the paper's
        fixed-point designs likewise leave slices idle).
        """
        clps = list(candidate.clps)
        bounds: List[Tuple[int, int]] = []
        cursor = 0
        for clp in clps:
            bounds.append((cursor, cursor + len(clp.layers)))
            cursor += len(clp.layers)
        while True:
            epoch = max(clp.cycles for clp in clps)
            leftover = self.dsp_budget - sum(clp.dsp for clp in clps)
            improved = False
            for idx, clp in enumerate(clps):
                if clp.cycles < epoch:
                    continue
                i, j = bounds[idx]
                tn, tm, cycles, dsp = self.best_grid(i, j, clp.dsp + leftover)
                if cycles < clp.cycles:
                    clps[idx] = CLPCandidate(
                        tn=tn, tm=tm, layers=clp.layers, cycles=cycles, dsp=dsp
                    )
                    improved = True
                    break
            if not improved:
                return PartitionCandidate(clps=tuple(clps))

    # ------------------------------------------------------------ reporting
    @property
    def grid_count(self) -> int:
        """Number of enumerated (Tn, Tm) grids."""
        return len(self._tn)
