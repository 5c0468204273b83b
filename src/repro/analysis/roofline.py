"""Roofline / computation-to-communication analysis.

The Single-CLP baseline (Zhang et al. FPGA'15) frames accelerator
design as placing a (CTC ratio, computational roof) point under the
platform roofline.  This module recreates that analysis for any design
of this library, which makes the Multi-CLP advantage visible in
roofline terms: partitioning raises the *achieved* computational roof
(utilization) without moving the bandwidth wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.design import MultiCLPDesign
from .report import render_table

__all__ = ["RooflinePoint", "roofline_point", "roofline_table"]


@dataclass(frozen=True)
class RooflinePoint:
    """One design placed under a platform roofline."""

    label: str
    ctc_ops_per_byte: float      # computation-to-communication ratio
    peak_gops: float             # all MAC units busy every cycle
    achieved_gops: float         # at the design's real epoch
    bandwidth_wall_gops: float   # CTC * platform bandwidth
    bandwidth_gbps: float        # platform bandwidth assumed

    @property
    def bound(self) -> str:
        """Which roof limits the design: ``compute`` or ``memory``."""
        return (
            "memory"
            if self.bandwidth_wall_gops < self.achieved_gops * 1.001
            else "compute"
        )

    @property
    def utilization(self) -> float:
        return self.achieved_gops / self.peak_gops


def roofline_point(
    design: MultiCLPDesign,
    frequency_mhz: float,
    bandwidth_gbps: Optional[float] = None,
    label: Optional[str] = None,
) -> RooflinePoint:
    """Place a design under the platform roofline.

    ``bandwidth_gbps`` defaults to the design's own 2%-slack
    requirement, i.e. the platform provisioned exactly as the optimizer
    assumed.
    """
    if bandwidth_gbps is None:
        bandwidth_gbps = design.required_bandwidth_gbps(frequency_mhz)
    total_ops = design.network.total_flops  # 2 ops per MAC
    total_bytes = float(design.transfer_array[1].sum())
    ctc = total_ops / total_bytes
    cycles_per_second = frequency_mhz * 1e6
    peak_gops = design.total_units * 2 * cycles_per_second / 1e9
    achieved_gops = (
        total_ops * cycles_per_second / design.epoch_cycles / 1e9
    )
    return RooflinePoint(
        label=label or f"{design.network.name} {design.num_clps}-CLP",
        ctc_ops_per_byte=ctc,
        peak_gops=peak_gops,
        achieved_gops=achieved_gops,
        bandwidth_wall_gops=ctc * bandwidth_gbps,
        bandwidth_gbps=bandwidth_gbps,
    )


def roofline_table(
    points: List[RooflinePoint], title: str = "Roofline analysis"
) -> str:
    """Side-by-side roofline comparison of several designs."""
    rows = [
        (
            p.label,
            f"{p.ctc_ops_per_byte:.1f}",
            f"{p.peak_gops:.1f}",
            f"{p.achieved_gops:.1f}",
            f"{p.utilization:.1%}",
            f"{p.bandwidth_wall_gops:.1f}",
            p.bound,
        )
        for p in points
    ]
    return render_table(
        ["design", "CTC op/B", "peak Gop/s", "achieved", "util",
         "bw wall Gop/s", "bound"],
        rows,
        title=title,
    )
