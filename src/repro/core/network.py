"""CNN container: an ordered collection of convolutional layers.

As in the paper, only convolutional layers are modelled (they dominate
compute); pooling/activation/fully-connected layers are not part of the
accelerator design space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from .layer import ConvLayer

__all__ = ["Network"]


@dataclass(frozen=True)
class Network:
    """An ordered, immutable sequence of convolutional layers."""

    record_kind = "design"

    name: str
    layers: Tuple[ConvLayer, ...]

    def __init__(self, name: str, layers: Sequence[ConvLayer]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "layers", tuple(layers))
        if not self.layers:
            raise ValueError(f"network {name!r} has no layers")
        seen: Dict[str, int] = {}
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(
                    f"network {name!r}: duplicate layer name {layer.name!r}"
                )
            seen[layer.name] = 1

    # ------------------------------------------------------------- container
    def __iter__(self) -> Iterator[ConvLayer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> ConvLayer:
        return self.layers[index]

    def layer_by_name(self, name: str) -> ConvLayer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"network {self.name!r} has no layer {name!r}")

    def index_of(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(f"network {self.name!r} has no layer {name!r}")

    # ------------------------------------------------------------ aggregates
    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(layer.flops for layer in self.layers)

    def describe(self) -> str:
        """Multi-line summary of the network."""
        lines = [
            f"{self.name}: {len(self.layers)} conv layers, "
            f"{self.total_macs / 1e9:.2f} GMACs"
        ]
        lines.extend("  " + layer.describe() for layer in self.layers)
        return "\n".join(lines)
