"""Convolutional Layer Processor (CLP) configuration.

A CLP is described by its compute-grid dimensions (Tn, Tm), the layers
assigned to it, and a (Tr, Tc) tile plan for each layer (Section 4.2).
This module combines the cost models into a single queryable object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .bandwidth import (
    LayerTransfer,
    bandwidth_bound_cycles,
    layer_transfer,
    min_bandwidth_for_cycles,
)
from .cost_model import (
    BufferSpec,
    bram_breakdown,
    bram_count,
    buffer_spec,
    dsp_count,
    layer_cycles,
)
from .datatypes import DataType
from .layer import ConvLayer

__all__ = ["CLPConfig"]


@dataclass(frozen=True)
class CLPConfig:
    """One CLP: compute grid, assigned layers, and per-layer tile plans."""

    tn: int
    tm: int
    layers: Tuple[ConvLayer, ...]
    tile_plans: Tuple[Tuple[int, int], ...]
    dtype: DataType

    def __init__(
        self,
        tn: int,
        tm: int,
        layers: Sequence[ConvLayer],
        dtype: DataType,
        tile_plans: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        if tn <= 0 or tm <= 0:
            raise ValueError(f"Tn and Tm must be positive, got ({tn}, {tm})")
        if not layers:
            raise ValueError("a CLP must compute at least one layer")
        if tile_plans is None:
            # Default: whole-feature-map tiles clamped to the layer size.
            tile_plans = [(layer.r, layer.c) for layer in layers]
        if len(tile_plans) != len(layers):
            raise ValueError(
                f"{len(layers)} layers but {len(tile_plans)} tile plans"
            )
        object.__setattr__(self, "tn", tn)
        object.__setattr__(self, "tm", tm)
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(
            self, "tile_plans", tuple((int(tr), int(tc)) for tr, tc in tile_plans)
        )
        object.__setattr__(self, "dtype", dtype)
        # Validate tile plans eagerly via the buffer model.
        buffer_spec(self.layers, self.tile_plans)

    # ------------------------------------------------------------ identities
    @property
    def layer_names(self) -> Tuple[str, ...]:
        return tuple(layer.name for layer in self.layers)

    def with_tile_plans(
        self, tile_plans: Sequence[Tuple[int, int]]
    ) -> "CLPConfig":
        return CLPConfig(self.tn, self.tm, self.layers, self.dtype, tile_plans)

    def tile_plan_for(self, layer_name: str) -> Tuple[int, int]:
        for layer, plan in zip(self.layers, self.tile_plans):
            if layer.name == layer_name:
                return plan
        raise KeyError(f"CLP does not compute layer {layer_name!r}")

    # --------------------------------------------------------------- compute
    @property
    def units(self) -> int:
        """Parallel multiply-accumulate units in the compute grid."""
        return self.tn * self.tm

    def cycles_for(self, layer: ConvLayer) -> int:
        return layer_cycles(layer, self.tn, self.tm)

    @property
    def total_cycles(self) -> int:
        """Cycles to process all assigned layers back to back."""
        return sum(self.cycles_for(layer) for layer in self.layers)

    @property
    def per_layer_cycles(self) -> Dict[str, int]:
        return {layer.name: self.cycles_for(layer) for layer in self.layers}

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def utilization(self, epoch_cycles: Optional[int] = None) -> float:
        """Dynamic arithmetic-unit utilization of this CLP.

        With ``epoch_cycles`` given, idle time at the end of the epoch
        counts against utilization (Section 4.1).
        """
        cycles = epoch_cycles if epoch_cycles is not None else self.total_cycles
        if cycles < self.total_cycles:
            raise ValueError("epoch shorter than the CLP's own work")
        return self.total_macs / (cycles * self.units)

    # ------------------------------------------------------------- resources
    @property
    def dsp(self) -> int:
        return dsp_count(self.tn, self.tm, self.dtype)

    @property
    def buffers(self) -> BufferSpec:
        return buffer_spec(self.layers, self.tile_plans)

    @property
    def bram(self) -> int:
        return bram_count(self.tn, self.tm, self.buffers, self.dtype)

    @property
    def bram_by_buffer(self) -> Tuple[int, int, int]:
        """(input, weight, output) BRAM usage."""
        return bram_breakdown(self.tn, self.tm, self.buffers, self.dtype)

    # ------------------------------------------------------------- transfers
    @property
    def transfers(self) -> Tuple[LayerTransfer, ...]:
        return tuple(
            layer_transfer(layer, self.tn, self.tm, tr, tc)
            for layer, (tr, tc) in zip(self.layers, self.tile_plans)
        )

    @property
    def total_transfer_words(self) -> int:
        return sum(t.total_words for t in self.transfers)

    def cycles_under_bandwidth(self, bytes_per_cycle: Optional[float]) -> float:
        return bandwidth_bound_cycles(self.transfers, self.dtype, bytes_per_cycle)

    def min_bandwidth_for(self, cycle_budget: float) -> float:
        return min_bandwidth_for_cycles(self.transfers, self.dtype, cycle_budget)

    # ----------------------------------------------------------------- debug
    def describe(self) -> str:
        names = ", ".join(self.layer_names)
        return (
            f"CLP(Tn={self.tn}, Tm={self.tm}, dsp={self.dsp}, "
            f"bram={self.bram}, cycles={self.total_cycles}, layers=[{names}])"
        )
