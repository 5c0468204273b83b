"""FPGA part catalog and resource budgets.

The paper targets Xilinx Virtex-7 485T and 690T devices and projects to
Virtex UltraScale+ VU9P/VU11P (Figure 7).  A design is optimized against a
*budget*, which Section 6.1 sets to 80% of the device's DSP slices and
BRAM-18Kb blocks: 2,240 DSP / 1,648 BRAM on the 485T and 2,880 DSP /
2,352 BRAM on the 690T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "FpgaPart",
    "ResourceBudget",
    "PART_CATALOG",
    "POWER_CLASSES",
    "get_part",
    "budget_for",
]

#: Words stored by one BRAM-18Kb block when organised 512 x 32 bits.
BRAM18K_WORDS_32BIT = 512

#: Depth below which a double-buffered bank fits a single BRAM (one read
#: port plus one write port already provided by simple dual-port mode).
BRAM18K_SINGLE_BANK_WORDS = 256

#: Banks smaller than this many words are mapped to LUTRAM and do not
#: count against the BRAM budget (Section 4.2).
LUTRAM_CUTOFF_WORDS = 10


@dataclass(frozen=True)
class ResourceBudget:
    """Resources available to the accelerator on a given platform."""

    record_kind = "design"

    dsp: int
    bram18k: int
    bandwidth_gbps: Optional[float] = None  # None = unconstrained
    frequency_mhz: float = 100.0

    def __post_init__(self) -> None:
        if self.dsp <= 0 or self.bram18k <= 0:
            raise ValueError("budget must have positive DSP and BRAM counts")
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth budget must be positive when set")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def cycles_per_second(self) -> float:
        return self.frequency_mhz * 1e6

    def bytes_per_cycle(self) -> Optional[float]:
        """Off-chip bytes transferable per cycle, or None if unconstrained."""
        if self.bandwidth_gbps is None:
            return None
        return self.bandwidth_gbps * 1e9 / self.cycles_per_second

    def with_bandwidth(self, bandwidth_gbps: Optional[float]) -> "ResourceBudget":
        return ResourceBudget(
            dsp=self.dsp,
            bram18k=self.bram18k,
            bandwidth_gbps=bandwidth_gbps,
            frequency_mhz=self.frequency_mhz,
        )

    def with_frequency(self, frequency_mhz: float) -> "ResourceBudget":
        return ResourceBudget(
            dsp=self.dsp,
            bram18k=self.bram18k,
            bandwidth_gbps=self.bandwidth_gbps,
            frequency_mhz=frequency_mhz,
        )


#: Power classes a part can fall into (rough board TDP bands).
POWER_CLASSES = ("low", "mid", "high")


@dataclass(frozen=True)
class FpgaPart:
    """Physical capacities (and deployment cost class) of an FPGA device.

    ``relative_cost`` is a unitless board-price weight normalized to the
    VX485T (= 1.0); ``power_class`` is a coarse TDP band.  Both exist
    for fleet-level cost-to-serve accounting (boards-needed x board
    cost), not for the on-chip optimizer, and both default so existing
    positional constructions keep working.  ``None`` cost means
    "unknown" and falls back to a DSP-proportional estimate.
    """

    name: str
    dsp_slices: int
    bram18k: int
    flip_flops: int
    luts: int
    relative_cost: Optional[float] = None
    power_class: str = "mid"

    def __post_init__(self) -> None:
        if self.relative_cost is not None and self.relative_cost <= 0:
            raise ValueError("relative_cost must be positive when set")
        if self.power_class not in POWER_CLASSES:
            raise ValueError(
                f"unknown power class {self.power_class!r}; "
                f"known: {POWER_CLASSES}"
            )

    @property
    def cost_weight(self) -> float:
        """Board-price weight; DSP-proportional estimate when unset.

        The fallback anchors on the VX485T (2,800 DSP slices = weight
        1.0), so synthetic parts rank sanely next to catalog ones.
        """
        if self.relative_cost is not None:
            return self.relative_cost
        return self.dsp_slices / 2800.0

    def budget(
        self,
        fraction: float = 0.8,
        bandwidth_gbps: Optional[float] = None,
        frequency_mhz: float = 100.0,
    ) -> ResourceBudget:
        """Resource budget at ``fraction`` of capacity (paper uses 80%)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return ResourceBudget(
            dsp=int(self.dsp_slices * fraction),
            bram18k=int(self.bram18k * fraction),
            bandwidth_gbps=bandwidth_gbps,
            frequency_mhz=frequency_mhz,
        )


PART_CATALOG: Dict[str, FpgaPart] = {
    "485t": FpgaPart(
        name="Virtex-7 485T",
        dsp_slices=2800,
        bram18k=2060,
        flip_flops=607200,
        luts=303600,
        relative_cost=1.0,
        power_class="mid",
    ),
    "690t": FpgaPart(
        name="Virtex-7 690T",
        dsp_slices=3600,
        bram18k=2940,
        flip_flops=866400,
        luts=433200,
        relative_cost=1.45,
        power_class="mid",
    ),
    "vu9p": FpgaPart(
        name="Virtex UltraScale+ VU9P",
        dsp_slices=6840,
        bram18k=4320,
        flip_flops=2364480,
        luts=1182240,
        relative_cost=3.1,
        power_class="high",
    ),
    "vu11p": FpgaPart(
        name="Virtex UltraScale+ VU11P",
        dsp_slices=9216,
        bram18k=4032,
        flip_flops=2592000,
        luts=1296000,
        relative_cost=3.7,
        power_class="high",
    ),
}


def get_part(name: str) -> FpgaPart:
    """Look up an FPGA part by short name (e.g. ``"485t"``, ``"690T"``).

    Vendor-style spellings are accepted too: ``VX485T`` and ``XC7VX690T``
    resolve to the same catalog entries as the paper's short names.
    """
    key = name.strip().lower().replace("virtex-7 ", "").replace(" ", "")
    if key not in PART_CATALOG:
        for prefix in ("xc7vx", "xc7v", "xc", "vx"):
            if key.startswith(prefix) and key[len(prefix):] in PART_CATALOG:
                key = key[len(prefix):]
                break
    try:
        return PART_CATALOG[key]
    except KeyError:
        raise ValueError(
            f"unknown FPGA part {name!r}; known: {sorted(PART_CATALOG)}"
        ) from None


def budget_for(
    part_name: str,
    bandwidth_gbps: Optional[float] = None,
    frequency_mhz: float = 100.0,
    fraction: float = 0.8,
) -> ResourceBudget:
    """Convenience wrapper: the paper's 80% budget for a named part."""
    return get_part(part_name).budget(
        fraction=fraction,
        bandwidth_gbps=bandwidth_gbps,
        frequency_mhz=frequency_mhz,
    )
