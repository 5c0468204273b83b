"""Multi-CLP accelerator design container (Section 4.1).

A design is a set of CLPs that partition the convolutional layers of a
CNN.  The CLPs run concurrently on independent images; the *epoch* length
is the slowest CLP's total cycles, and system throughput is one image per
epoch (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fpga.parts import ResourceBudget
from .bandwidth import clp_arrays, min_bandwidths_for_cycles
from .clp import CLPConfig
from .datatypes import DataType
from .network import Network
from .serialize import at, field_value, to_record

__all__ = ["MultiCLPDesign", "DesignMetrics"]


@dataclass(frozen=True)
class DesignMetrics:
    """Headline numbers for a design at a given operating point."""

    epoch_cycles: float
    throughput_images_per_s: float
    arithmetic_utilization: float
    dsp: int
    bram: int
    bandwidth_gbps: Optional[float]
    gflops: float


@dataclass(frozen=True)
class MultiCLPDesign:
    """A complete accelerator: one or more CLPs covering a network."""

    record_kind = "design"
    record_schema = 1

    network: Network
    clps: Tuple[CLPConfig, ...]
    dtype: DataType

    def __init__(
        self, network: Network, clps: Sequence[CLPConfig], dtype: DataType
    ):
        if not clps:
            raise ValueError("a design needs at least one CLP")
        for clp in clps:
            if clp.dtype is not dtype:
                raise ValueError(
                    f"CLP datatype {clp.dtype.label} does not match design "
                    f"datatype {dtype.label}"
                )
        covered = [name for clp in clps for name in clp.layer_names]
        expected = [layer.name for layer in network]
        if sorted(covered) != sorted(expected):
            missing = set(expected) - set(covered)
            extra = set(covered) - set(expected)
            raise ValueError(
                f"layer assignment does not partition {network.name}: "
                f"missing={sorted(missing)}, extra={sorted(extra)}"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "clps", tuple(clps))
        object.__setattr__(self, "dtype", dtype)

    def __getstate__(self) -> Dict[str, Any]:
        # Only the fields: the cached derived numbers stay out of pickles,
        # as of equality and records, and are recomputed on first read.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def encode_record(self) -> Dict[str, Any]:
        """A self-contained record: schema first, CLPs naming the
        network's layers."""
        return {
            "schema": self.record_schema,
            "dtype": self.dtype.label,
            "network": to_record(self.network),
            "clps": [clp.design_record() for clp in self.clps],
            # Redundant summary fields for human diffing; ignored on load.
            "summary": {
                "epoch_cycles": self.epoch_cycles,
                "dsp": self.dsp,
                "bram": self.bram,
                "utilization": self.arithmetic_utilization,
            },
        }

    @classmethod
    def decode_record(cls, data: Dict[str, Any]) -> "MultiCLPDesign":
        network = field_value(data, "network", Network)
        name = field_value(data, "dtype", str)
        with at("dtype"):
            dtype = DataType.from_name(name)
        clps = []
        for index, record in enumerate(field_value(data, "clps", Tuple[dict, ...])):
            with at("clps", index):
                clps.append(CLPConfig.from_design_record(record, network, dtype))
        return cls(network=network, clps=clps, dtype=dtype)

    # ------------------------------------------------------------- structure
    @property
    def num_clps(self) -> int:
        return len(self.clps)

    @property
    def is_single_clp(self) -> bool:
        return len(self.clps) == 1

    def assignment(self) -> Dict[str, int]:
        """Map of layer name to the index of its CLP."""
        return {
            name: index
            for index, clp in enumerate(self.clps)
            for name in clp.layer_names
        }

    # ----------------------------------------------------------- performance
    @cached_property
    def clp_cycles(self) -> Tuple[int, ...]:
        """Each CLP's cycles to run its layers back to back."""
        return tuple(clp.total_cycles for clp in self.clps)

    @cached_property
    def epoch_cycles(self) -> int:
        """Slowest CLP's cycles: the interval between finished images."""
        return max(self.clp_cycles)

    @cached_property
    def transfer_array(self) -> np.ndarray:
        """Read-only (compute cycles, bytes, first-tile bytes, steady
        bytes/cycle) of every layer of each CLP: a (4, CLPs, layers)
        array, zero-padded (see :func:`~repro.core.bandwidth.clp_arrays`)."""
        arrays = clp_arrays(self.clps, self.dtype)
        arrays.flags.writeable = False
        return arrays

    @property
    def total_units(self) -> int:
        return sum(clp.units for clp in self.clps)

    @property
    def arithmetic_utilization(self) -> float:
        """Dynamic arithmetic-unit utilization across the design (Table 1).

        Useful MACs divided by the MAC slots available during one epoch.
        """
        return self.network.total_macs / (self.epoch_cycles * self.total_units)

    def per_clp_utilization(self) -> List[float]:
        epoch = self.epoch_cycles
        return [clp.utilization(epoch) for clp in self.clps]

    def throughput(self, frequency_mhz: float, epoch_cycles: Optional[float] = None) -> float:
        """Images per second at the given clock."""
        epoch = epoch_cycles if epoch_cycles is not None else self.epoch_cycles
        return frequency_mhz * 1e6 / epoch

    @property
    def has_adjacent_assignment(self) -> bool:
        """True when every CLP computes a run of layers *adjacent in the
        network* and the CLPs follow network order.

        Section 4.1: such designs can process several layers of one
        image within a single epoch, shrinking the number of in-flight
        images (and hence latency) to the number of CLPs.
        """
        position = {layer.name: i for i, layer in enumerate(self.network)}
        cursor = 0
        for clp in sorted(
            self.clps, key=lambda c: position[c.layer_names[0]]
        ):
            for name in clp.layer_names:
                if position[name] != cursor:
                    return False
                cursor += 1
        return cursor == len(self.network.layers)

    @property
    def pipeline_depth_images(self) -> int:
        """Independent images in flight.

        With the general (non-adjacent) assignment each layer position
        carries its own image, so depth equals the layer count; with an
        adjacent assignment a CLP advances an image through all its
        layers within one epoch, so depth equals the CLP count
        (Section 4.1).
        """
        if self.has_adjacent_assignment:
            return len(self.clps)
        return len(self.network.layers)

    def latency_cycles(self) -> int:
        """Cycles from an image entering the pipeline to its last layer."""
        return self.pipeline_depth_images * self.epoch_cycles

    # -------------------------------------------------------------- resources
    @property
    def dsp(self) -> int:
        return sum(clp.dsp for clp in self.clps)

    @property
    def bram(self) -> int:
        return sum(clp.bram for clp in self.clps)

    def fits(self, budget: ResourceBudget) -> bool:
        return self.dsp <= budget.dsp and self.bram <= budget.bram18k

    # -------------------------------------------------------------- bandwidth
    def required_bandwidth_bytes_per_cycle(self, slack: float = 0.02) -> float:
        """Total bytes/cycle for all CLPs to stay within ``slack`` of the
        unconstrained epoch (Section 6.3's 2% margin)."""
        return sum(self.clp_bandwidths(self.epoch_cycles * (1 + slack)))

    def clp_bandwidths(self, cycle_budget: float) -> List[float]:
        """Each CLP's smallest bytes/cycle to finish within ``cycle_budget``,
        all CLPs solved in one lockstep bisection."""
        return min_bandwidths_for_cycles(self.transfer_array, cycle_budget).tolist()

    def required_bandwidth_gbps(
        self, frequency_mhz: float, slack: float = 0.02
    ) -> float:
        need = self.required_bandwidth_bytes_per_cycle(slack)
        return need * frequency_mhz * 1e6 / 1e9

    def epoch_cycles_under_bandwidth(
        self, bytes_per_cycle: Optional[float], slack: float = 0.02
    ) -> float:
        """Smallest epoch achievable on a capped memory channel.

        The channel is divided optimally among the CLPs: an epoch ``E``
        is achievable iff the per-CLP minimum bandwidths to finish
        within ``E`` sum to at most the cap, so the answer is found by
        bisection on ``E``.  ``slack`` bounds the result from below at
        ``epoch * (1 + slack)`` only when even that epoch fits the cap
        (matching the paper's 2% operating margin).
        """
        if bytes_per_cycle is None:
            return float(self.epoch_cycles)
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive when set")

        def feasible(epoch: float) -> bool:
            if self.epoch_cycles > epoch:
                return False
            return sum(self.clp_bandwidths(epoch)) <= bytes_per_cycle

        low = float(self.epoch_cycles) * (1 + slack)
        if feasible(low):
            return low
        high = low
        while not feasible(high):
            high *= 2
            if high > low * 1e6:
                raise RuntimeError("failed to bracket bandwidth-bound epoch")
        floor = low
        while (high - floor) / high > 1e-4:
            mid = (floor + high) / 2
            if feasible(mid):
                high = mid
            else:
                floor = mid
        return high

    # ---------------------------------------------------------------- report
    def metrics(
        self,
        budget: ResourceBudget,
        slack: float = 0.02,
    ) -> DesignMetrics:
        """Headline numbers at the budget's frequency and bandwidth cap."""
        cap = budget.bytes_per_cycle()
        epoch = self.epoch_cycles_under_bandwidth(cap, slack)
        throughput = self.throughput(budget.frequency_mhz, epoch)
        bandwidth = self.required_bandwidth_gbps(budget.frequency_mhz, slack)
        if cap is not None:
            bandwidth = min(bandwidth, budget.bandwidth_gbps or 0.0)
        return DesignMetrics(
            epoch_cycles=epoch,
            throughput_images_per_s=throughput,
            arithmetic_utilization=self.network.total_macs
            / (epoch * self.total_units),
            dsp=self.dsp,
            bram=self.bram,
            bandwidth_gbps=bandwidth,
            gflops=self.network.total_flops * throughput / 1e9,
        )

    def describe(self) -> str:
        lines = [
            f"{self.network.name} [{self.dtype.label}] "
            f"{self.num_clps}-CLP design: epoch={self.epoch_cycles} cycles, "
            f"util={self.arithmetic_utilization:.1%}, dsp={self.dsp}, "
            f"bram={self.bram}"
        ]
        lines.extend("  " + clp.describe() for clp in self.clps)
        return "\n".join(lines)
