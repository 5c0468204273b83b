"""OptimizeCompute: DSP partitioning and layer assignment (Section 4.3).

Given an ordered layer list, a DSP budget, and a cycle target, find
partitions of the order into contiguous segments — one per CLP — and a
(Tn, Tm) grid per segment such that every CLP finishes its segment
within the target and the total DSP cost fits the budget.

The search is exact within the contiguous-segment restriction:

1. Enumerate the non-dominated (Tn, Tm) grids up to caps (Tn <= 64,
   Tm <= 512, the practical dot-product widths the paper's designs stay
   within).  Cycles depend on a grid only through each layer's
   ``ceil(N/Tn)`` and ``ceil(M/Tm)``, so only the smallest Tn (Tm) of
   each such step class over the layer list is kept.  Any other grid
   ties a kept, no wider grid on every segment's cycles, costs at least
   as many DSP slices and comes after it in the stable DSP order, so
   dropping it changes no frontier, minimum DSP or tie-break: the
   search stays exact while the grid count falls 2-10x.
2. For every contiguous segment a partition into at most ``max_clps``
   CLPs can use, precompute a *frontier*: the minimum achievable
   segment cycles as a function of the DSP spent on its CLP
   (non-increasing in DSP).  One CLP uses only the whole order, two use
   a prefix and a suffix, three or more any segment; the default cap
   builds every segment.  This is target-independent, so the paper's
   target-relaxation loop re-queries it cheaply (the paper notes both
   steps "use memoization to avoid redundant work").
3. For a given cycle target, the minimum DSP for a segment is a binary
   search on its frontier, and the best partition is a small dynamic
   program over (number of CLPs, prefix of the order): one array step
   per CLP count over the (split, end) matrix of segment costs, with
   the split points walked back only for the partitions returned.
   :meth:`SegmentSearch.feasible` runs the same program without
   assembling partitions, so the driver can bisect for the first
   target that any partition meets.

All frontiers live in one flat array: each row is stored reversed (so
non-decreasing) and lifted by ``row * span``, with ``span`` above every
entry, so the whole array is sorted and one ``searchsorted`` answers a
cycle target for every segment at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.cost_model import dsp_count, layer_cycles, max_units_for_budget
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


def step_sizes(dims: Sequence[int], top: int) -> np.ndarray:
    """Sizes in [1, top], ascending, at which ``ceil(d / size)`` changes
    for some ``d`` in ``dims``: the smallest size of each step class.

    Any other size repeats the step counts of the largest of these below
    it, so it moves no more data and takes no fewer cycles.
    """
    sizes = np.arange(1, top + 1, dtype=np.int64)
    steps = -(-np.array(sorted(set(dims)))[:, None] // sizes)
    return sizes[np.r_[True, (steps[:, 1:] != steps[:, :-1]).any(axis=0)]]


class SegmentSearch:
    """Precomputed segment frontiers for one ordered layer list.

    Build once per (ordered layers, datatype, DSP budget); query
    :meth:`candidates` for each cycle target of the relaxation loop.
    ``max_clps`` caps the CLPs of the partitions it answers for, and so
    the segments it builds frontiers for; ``None`` builds every segment.
    Queries default to the cap, so it is given once.
    """

    def __init__(
        self,
        ordered_layers: Sequence[ConvLayer],
        dtype: DataType,
        dsp_budget: int,
        tn_max: int = TN_MAX,
        tm_max: int = TM_MAX,
        max_clps: Optional[int] = None,
    ):
        if not ordered_layers:
            raise ValueError("need at least one layer")
        if max_clps is not None and max_clps < 1:
            raise ValueError(f"max_clps must be >= 1, got {max_clps}")
        self.layers: Tuple[ConvLayer, ...] = tuple(ordered_layers)
        self.dtype = dtype
        self.dsp_budget = dsp_budget
        self.max_clps = max_clps
        units_budget = max_units_for_budget(dsp_budget, dtype)
        if units_budget < 1:
            raise ValueError(
                f"DSP budget {dsp_budget} cannot afford a single "
                f"{dtype.label} MAC unit"
            )
        self._enumerate_grids(units_budget, tn_max, tm_max)
        self._build_frontiers()

    # ------------------------------------------------------------- building
    def _grids(
        self, units_budget: int, tn_max: int, tm_max: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(Tn, Tm) of every non-dominated affordable grid, in (Tn, Tm)
        row-major order; step 1 of the module docstring says why the
        others can be dropped."""
        tn = step_sizes([layer.n for layer in self.layers], min(tn_max, units_budget))
        tm = step_sizes([layer.m for layer in self.layers], tm_max)
        tops = np.searchsorted(tm, units_budget // tn, side="right")
        starts = np.repeat(np.cumsum(tops) - tops, tops)
        tn = np.repeat(tn, tops)
        return tn, tm[np.arange(len(tn)) - starts]

    def _enumerate_grids(self, units_budget: int, tn_max: int, tm_max: int) -> None:
        self._tn, self._tm = self._grids(units_budget, tn_max, tm_max)
        self._dsp = dsp_count(self._tn, self._tm, self.dtype)
        # Sort grids by DSP cost so frontiers are prefix minima.
        order = np.argsort(self._dsp, kind="stable")
        self._tn = self._tn[order]
        self._tm = self._tm[order]
        self._dsp = self._dsp[order]
        # Group boundaries of equal-DSP runs.
        self.dsp_values, self._group_starts = np.unique(
            self._dsp, return_index=True
        )

    def _usable_segments(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """(i, j) of every segment layers[i:j] a partition into at most
        ``max_clps`` CLPs can use, in row-major order.  Every start i
        keeps a run of ends up to ``count``."""
        seg_i, seg_j = np.triu_indices(count + 1, k=1)
        if self.max_clps == 1:
            usable = (seg_i == 0) & (seg_j == count)
        elif self.max_clps == 2:
            usable = (seg_i == 0) | (seg_j == count)
        else:
            return seg_i, seg_j
        return seg_i[usable], seg_j[usable]

    def _build_frontiers(self) -> None:
        count = len(self.layers)
        cum = np.zeros((count + 1, len(self._tn)), dtype=np.int64)
        for i, layer in enumerate(self.layers):
            cum[i + 1] = cum[i] + layer_cycles(layer, self._tn, self._tm)
        self._seg_i, self._seg_j = self._usable_segments(count)
        num_segments = len(self._seg_i)
        num_classes = len(self.dsp_values)
        # No entry exceeds a grid's whole-order cycles, so lifting row r
        # by r * span keeps rows disjoint and the flat array sorted.
        self._span = int(cum[-1].max()) + 1
        if num_segments * self._span > _INFEASIBLE:
            raise OverflowError("lifted segment frontiers overflow int64")
        # Segment rows in (i, j) row-major order, one block per start
        # layer i (rows j = count-rows+1..count), built in reused
        # buffers: fresh (segments x grids) temporaries ran to MBs and
        # made the sweep's peak memory vary from run to run.
        pairs = zip(self._seg_i.tolist(), self._seg_j.tolist())
        self._segment_index = {pair: row for row, pair in enumerate(pairs)}
        starts, counts = np.unique(self._seg_i, return_counts=True)
        width = int(counts.max())
        frontier = np.empty((num_segments, num_classes), dtype=np.int64)
        seg = np.empty((width, len(self._tn)), dtype=np.int64)
        per_class = np.empty((width, num_classes), dtype=np.int64)
        lifts = np.arange(num_segments, dtype=np.int64)[:, None] * self._span
        start = 0
        for i, rows in zip(starts.tolist(), counts.tolist()):
            block, best = seg[:rows], per_class[:rows]
            np.subtract(cum[count + 1 - rows:], cum[i], out=block)
            np.minimum.reduceat(block, self._group_starts, axis=1, out=best)
            np.minimum.accumulate(best, axis=1, out=best)
            stop = start + rows
            np.add(best[:, ::-1], lifts[start:stop], out=frontier[start:stop])
            start = stop
        self._frontier = frontier.reshape(-1)
        self._cum = cum

    # -------------------------------------------------------------- queries
    def _row(self, i: int, j: int) -> int:
        """The frontier row of layers[i:j]; raises for a segment the
        search built no frontier for."""
        row = self._segment_index.get((i, j))
        if row is None:
            raise ValueError(
                f"no frontier for segment layers[{i}:{j}] of "
                f"{len(self.layers)} layers with max_clps={self.max_clps}"
            )
        return row

    def min_segment_cycles(self, i: int, j: int) -> int:
        """Best cycles for layers[i:j] with the whole DSP budget."""
        row = self._row(i, j)
        lifted = int(self._frontier[row * len(self.dsp_values)])
        return lifted - row * self._span

    def min_dsp_for(self, i: int, j: int, cycle_target: float) -> Optional[int]:
        """Smallest DSP cost letting layers[i:j] meet ``cycle_target``."""
        row = self._row(i, j)
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
        max_clps: Optional[int] = None,
    ) -> List[PartitionCandidate]:
        """All minimum-DSP partitions meeting ``cycle_target``.

        Returns one candidate per feasible CLP count (1..max_clps), each
        using the fewest DSP slices for that count, cheapest first.  An
        empty list means the target is unreachable within the budget.
        ``max_clps`` defaults to the search's cap (one CLP per layer if
        it has none).
        """
        max_clps = self._clp_limit(max_clps)
        seg_dsp = self._segment_dsp_matrix(cycle_target)
        dp = self._partition_dp(seg_dsp, max_clps)
        count = len(self.layers)
        return sorted(
            (
                self._assemble(self._split_points(dp, seg_dsp, k), cycle_target)
                for k in range(1, max_clps + 1)
                if dp[k, count] <= self.dsp_budget
            ),
            key=lambda cand: (cand.total_dsp, cand.num_clps),
        )

    def feasible(self, cycle_target: float, max_clps: Optional[int] = None) -> bool:
        """Whether :meth:`candidates` would return any partition, from
        the DP alone.  Monotone in ``cycle_target``: no segment's minimum
        DSP rises as the target grows, so no DP total does either."""
        seg_dsp = self._segment_dsp_matrix(cycle_target)
        dp = self._partition_dp(seg_dsp, self._clp_limit(max_clps))
        return bool((dp[1:, -1] <= self.dsp_budget).any())

    def _clp_limit(self, max_clps: Optional[int]) -> int:
        if max_clps is None:
            return self.max_clps or len(self.layers)
        if max_clps < 1:
            raise ValueError(f"max_clps must be >= 1, got {max_clps}")
        if self.max_clps is not None and max_clps > self.max_clps:
            raise ValueError(
                f"asked for up to {max_clps} CLPs of a search built for "
                f"max_clps={self.max_clps}"
            )
        return max_clps

    @staticmethod
    def _partition_dp(seg_dsp: np.ndarray, max_clps: int) -> np.ndarray:
        """dp[k, j]: the min DSP covering layers[:j] with exactly k CLPs,
        from ``seg_dsp`` of :meth:`_segment_dsp_matrix`."""
        dp = np.full((max_clps + 1, len(seg_dsp)), np.inf)
        dp[0, 0] = 0.0
        # One array step per k: column j is the min over split points i.
        for k in range(1, max_clps + 1):
            dp[k] = (dp[k - 1][:, None] + seg_dsp).min(axis=0)
        return dp

    def _segment_dsp_matrix(self, cycle_target: float) -> np.ndarray:
        """[i, j]: the min DSP letting layers[i:j] meet ``cycle_target``;
        ``inf`` where no grid does, for i >= j and for segments outside
        the cap."""
        counts = self._meeting_counts(np.arange(len(self._seg_i)), cycle_target)
        matrix = np.full((len(self.layers) + 1,) * 2, np.inf)
        # A count of 0 indexes class 0 here; those segments stay inf.
        matrix[self._seg_i, self._seg_j] = np.where(
            counts > 0, self.dsp_values[-counts], np.inf
        )
        return matrix

    @staticmethod
    def _split_points(
        dp: np.ndarray, seg_dsp: np.ndarray, num_clps: int
    ) -> List[int]:
        """Segment bounds 0 = b0 < ... < b_k = len(layers) of the DP's
        ``num_clps``-CLP optimum, walked back from the end; argmin takes
        the first minimum, as a strict-< scan would."""
        j = len(seg_dsp) - 1
        bounds = [j]
        for k in range(num_clps, 0, -1):
            j = int((dp[k - 1] + seg_dsp[:, j]).argmin())
            bounds.append(j)
        return bounds[::-1]

    def _assemble(self, bounds: List[int], cycle_target: float) -> PartitionCandidate:
        spans = list(zip(bounds[:-1], bounds[1:]))
        clps: List[CLPCandidate] = []
        for i, j in spans:
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
        return self._rebalance(clps, spans)

    def _rebalance(self, clps: List[CLPCandidate], spans: list) -> PartitionCandidate:
        """Spend leftover DSP slices on the *bottleneck* CLPs only.

        The DP allocates each CLP its minimum DSP for the target; any
        leftover budget is used to shorten the epoch (the longest CLP).
        DSP slices that cannot shorten the epoch stay unspent — widening
        a non-critical CLP would not raise throughput and would only
        dilute arithmetic-unit utilization (e.g. AlexNet's first layer
        floors the fixed-point epoch at R*C*K^2 cycles, so the paper's
        fixed-point designs likewise leave slices idle).  ``spans`` are
        the CLPs' (start, end) layer indices.
        """
        while True:
            epoch = max(clp.cycles for clp in clps)
            leftover = self.dsp_budget - sum(clp.dsp for clp in clps)
            improved = False
            for idx, clp in enumerate(clps):
                if clp.cycles < epoch:
                    continue
                i, j = spans[idx]
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
        """Number of (Tn, Tm) grids searched: the non-dominated ones,
        the smallest Tn and Tm of each step class over the layers."""
        return len(self._tn)
