"""OptimizeMultiCLP: the target-relaxation driver (Listing 3).

Starting from the ideal 100%-utilization cycle count, the driver lowers
the performance target in ``step`` decrements until OptimizeCompute can
partition the DSP budget into CLPs meeting it and OptimizeMemory can
find tile plans fitting the BRAM (and, if given, bandwidth) budget.  The
first target with a complete solution is returned — by construction the
highest-throughput design within the budget.

Compute feasibility is monotone along the targets: every segment's
minimum DSP is non-increasing in the cycle target, and so is every
partition DP total.  The driver therefore bisects the target list for
the first target some partition meets (a DP-only probe, no partitions
assembled) and steps Listing 3's loop from there; the targets above it
would have yielded no candidate, so the design and the report are the
same as a loop from 100%.

Constraining the partitioner to a single CLP reproduces the
state-of-the-art baseline of Zhang et al. FPGA'15 (Section 3.1), which
the paper's Section 6 uses for all Single-CLP comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import List, Optional, Tuple

from ..core.clp import CLPConfig
from ..core.cost_model import max_units_for_budget
from ..core.datatypes import DataType
from ..core.design import MultiCLPDesign
from ..core.layer import ConvLayer
from ..core.network import Network
from ..fpga.parts import ResourceBudget
from .compute import PartitionCandidate, SegmentSearch
from .heuristics import get_ordering
from .memory import MemorySolution, optimize_memory

__all__ = [
    "OptimizationError",
    "OptimizerReport",
    "check_settings",
    "optimize_multi_clp",
    "optimize_single_clp",
    "minimum_possible_cycles",
]

DEFAULT_STEP = 0.005
DEFAULT_SLACK = 0.02
DEFAULT_MAX_CLPS = 6


class OptimizationError(RuntimeError):
    """No design meeting the constraints was found."""


def check_settings(step: float, slack: float) -> None:
    """Reject malformed optimizer settings: ``step`` must be in (0, 1)
    and ``slack`` finite and non-negative (NaN fails both)."""
    if not 0 < step < 1:
        raise ValueError(f"step must be in (0, 1), got {step}")
    if not 0 <= slack < inf:
        raise ValueError(f"slack must be finite and >= 0, got {slack}")


@dataclass(frozen=True)
class OptimizerReport:
    """Diagnostics of an optimization run."""

    target: float
    target_cycles: float
    #: Listing 3 targets stepped through, from 100% to ``target``; the
    #: ones above the first compute-feasible target count although the
    #: bisection skips them unevaluated.
    iterations: int
    candidates_evaluated: int
    epoch_cycles: int
    minimum_cycles: int


def minimum_possible_cycles(
    network: Network, dsp_budget: int, dtype: DataType
) -> int:
    """Ideal cycles with every affordable MAC unit busy every cycle.

    The ``MinimumPossibleCycles`` bound of Listing 3: total MACs divided
    by the number of units the DSP budget can buy.
    """
    units = max_units_for_budget(dsp_budget, dtype)
    if units < 1:
        raise OptimizationError(
            f"budget of {dsp_budget} DSP slices affords no {dtype.label} unit"
        )
    return ceil(network.total_macs / units)


def _relaxation_targets(step: float) -> List[float]:
    """Listing 3's targets: 1.0 lowered by ``step`` while positive."""
    targets = []
    target = 1.0
    while target > 0:
        targets.append(target)
        target = round(target - step, 10)
    return targets


def _first_feasible(
    search: SegmentSearch, cycles_min: int, targets: List[float]
) -> int:
    """Index of the first target some partition within the search's CLP
    cap meets, ``len(targets)`` if none; a bisection, as the probe is
    monotone along the targets."""
    lo, hi = 0, len(targets)
    while lo < hi:
        mid = (lo + hi) // 2
        if search.feasible(cycles_min / targets[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pick_ordering(name: str, budget: ResourceBudget) -> str:
    if name != "auto":
        return name
    # Section 4.3: compute-to-data ratio for bandwidth-limited designs,
    # (N, M) distance for compute-bound ones.
    return "compute-to-data" if budget.bandwidth_gbps is not None else "nm-distance"


def _build_design(
    network: Network,
    solution: MemorySolution,
    dtype: DataType,
) -> MultiCLPDesign:
    clps = [
        CLPConfig(
            tn=plan.candidate.tn,
            tm=plan.candidate.tm,
            layers=plan.candidate.layers,
            dtype=dtype,
            tile_plans=plan.point.tile_plans,
        )
        for plan in solution.plans
    ]
    return MultiCLPDesign(network=network, clps=clps, dtype=dtype)


def optimize_multi_clp(
    network: Network,
    budget: ResourceBudget,
    dtype: DataType,
    max_clps: int = DEFAULT_MAX_CLPS,
    ordering: str = "auto",
    step: float = DEFAULT_STEP,
    slack: float = DEFAULT_SLACK,
    return_report: bool = False,
):
    """Find the highest-throughput Multi-CLP design within a budget.

    Parameters mirror Listing 3: ``step`` is the target decrement and the
    loop ends when the target reaches zero without a solution.  With
    ``return_report=True`` a (design, report) tuple is returned.
    """
    check_settings(step, slack)
    ordering_fn = get_ordering(_pick_ordering(ordering, budget))
    ordered_layers: List[ConvLayer] = ordering_fn(list(network))
    search = SegmentSearch(ordered_layers, dtype, budget.dsp, max_clps=max_clps)
    cycles_min = minimum_possible_cycles(network, budget.dsp, dtype)
    bandwidth_cap = budget.bytes_per_cycle()

    targets = _relaxation_targets(step)
    first = _first_feasible(search, cycles_min, targets)
    candidates_seen = 0
    for iterations, target in enumerate(targets[first:], start=first + 1):
        target_cycles = cycles_min / target
        candidates = search.candidates(target_cycles)
        best: Optional[Tuple[MemorySolution, PartitionCandidate]] = None
        for candidate in candidates:
            candidates_seen += 1
            solution = optimize_memory(
                candidate,
                dtype,
                bram_budget=budget.bram18k,
                cycle_target=target_cycles,
                bandwidth_budget_bytes_per_cycle=bandwidth_cap,
                slack=slack,
            )
            if solution is None:
                continue
            if best is None or _solution_rank(solution, candidate) < _solution_rank(
                best[0], best[1]
            ):
                best = (solution, candidate)
        if best is not None:
            design = _build_design(network, best[0], dtype)
            if return_report:
                report = OptimizerReport(
                    target=target,
                    target_cycles=target_cycles,
                    iterations=iterations,
                    candidates_evaluated=candidates_seen,
                    epoch_cycles=design.epoch_cycles,
                    minimum_cycles=cycles_min,
                )
                return design, report
            return design
    raise OptimizationError(
        f"no {dtype.label} design for {network.name} fits "
        f"{budget.dsp} DSP / {budget.bram18k} BRAM"
        + (
            f" / {budget.bandwidth_gbps} GB/s"
            if budget.bandwidth_gbps is not None
            else ""
        )
    )


def _solution_rank(
    solution: MemorySolution, candidate: PartitionCandidate
) -> Tuple[float, int, int]:
    """Preference among same-target solutions: least bandwidth, then
    fewest CLPs, then least BRAM."""
    return (
        solution.total_bandwidth_bytes_per_cycle,
        candidate.num_clps,
        solution.total_bram,
    )


def optimize_single_clp(
    network: Network,
    budget: ResourceBudget,
    dtype: DataType,
    ordering: str = "auto",
    step: float = DEFAULT_STEP,
    slack: float = DEFAULT_SLACK,
    return_report: bool = False,
):
    """The Single-CLP baseline: Multi-CLP optimization capped at one CLP."""
    return optimize_multi_clp(
        network,
        budget,
        dtype,
        max_clps=1,
        ordering=ordering,
        step=step,
        slack=slack,
        return_report=return_report,
    )
