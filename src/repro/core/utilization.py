"""Arithmetic-unit utilization analysis (Section 3.2).

Quantifies the fraction of multiply-accumulate slots doing useful work
when a (Tn, Tm) CLP computes layers whose (N, M) dimensions mismatch the
grid.  Reproduces the paper's motivating numbers: SqueezeNet on a
(Tn=9, Tm=64) CLP has 33.3% utilization on layer 1, 22.2% on layer 2,
and 76.4% overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .cost_model import layer_cycles
from .layer import ConvLayer
from .network import Network

__all__ = [
    "layer_utilization",
    "clp_utilization",
    "UtilizationReport",
    "utilization_report",
]


def layer_utilization(layer: ConvLayer, tn: int, tm: int) -> float:
    """Fraction of MAC slots doing useful work for one layer.

    Equals ``macs / (cycles * Tn * Tm)``; mismatches show up through the
    ceiling terms of the cycle count (e.g. N=3 on Tn=9 wastes 2/3 of the
    grid on every cycle).
    """
    return layer.macs / (layer_cycles(layer, tn, tm) * tn * tm)


def clp_utilization(layers: Sequence[ConvLayer], tn: int, tm: int) -> float:
    """Work-weighted utilization of a CLP over several layers."""
    if not layers:
        raise ValueError("need at least one layer")
    total_macs = sum(layer.macs for layer in layers)
    total_cycles = sum(layer_cycles(layer, tn, tm) for layer in layers)
    return total_macs / (total_cycles * tn * tm)


@dataclass(frozen=True)
class UtilizationReport:
    """Per-layer and aggregate utilization of a network on one CLP."""

    network_name: str
    tn: int
    tm: int
    per_layer: Tuple[Tuple[str, float], ...]
    overall: float

    def describe(self) -> str:
        lines = [
            f"{self.network_name} on CLP(Tn={self.tn}, Tm={self.tm}): "
            f"overall {self.overall:.1%}"
        ]
        lines.extend(
            f"  {name}: {value:.1%}" for name, value in self.per_layer
        )
        return "\n".join(lines)


def utilization_report(network: Network, tn: int, tm: int) -> UtilizationReport:
    """Utilization of every layer of ``network`` on a (Tn, Tm) CLP."""
    per_layer = tuple(
        (layer.name, layer_utilization(layer, tn, tm)) for layer in network
    )
    return UtilizationReport(
        network_name=network.name,
        tn=tn,
        tm=tm,
        per_layer=per_layer,
        overall=clp_utilization(list(network), tn, tm),
    )
