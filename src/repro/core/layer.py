"""Convolutional layer description.

A convolutional layer is fully described for the purposes of the paper's
models by the six dimensions of Listing 1:

* ``N`` — number of input feature maps,
* ``M`` — number of output feature maps,
* ``R`` × ``C`` — rows and columns of each output feature map,
* ``K`` — filter kernel size (K×K),
* ``S`` — convolution stride.

The input feature maps have spatial size ``((R-1)*S+K) x ((C-1)*S+K)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Tuple

__all__ = ["ConvLayer", "input_extent"]


def input_extent(tile, stride: int, kernel: int):
    """Input pixels needed to produce ``tile`` contiguous outputs.

    This is the ``(T-1)*S+K`` expression used throughout the paper for
    sizing input buffers and transfers.  ``tile`` may be an int array.
    """
    bad = tile <= 0  # a bool for an int, cheaper than any numpy call
    if bad if isinstance(bad, bool) else bad.any():
        raise ValueError(f"tile must be positive, got {tile}")
    return (tile - 1) * stride + kernel


@dataclass(frozen=True)
class ConvLayer:
    """A single convolutional layer (Section 2, Figure 3).

    Instances are immutable and hashable so they can key memoization
    tables inside the optimizer.
    """

    record_kind = "design"

    name: str
    n: int  # input feature maps (N)
    m: int  # output feature maps (M)
    r: int  # output rows (R)
    c: int  # output columns (C)
    k: int  # kernel size (K)
    s: int = 1  # stride (S)

    def __post_init__(self) -> None:
        for attr in ("n", "m", "r", "c", "k", "s"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(
                    f"layer {self.name!r}: {attr.upper()} must be a positive "
                    f"integer, got {value!r}"
                )

    # ----------------------------------------------------------------- sizes
    @property
    def input_rows(self) -> int:
        """Rows of each input feature map: (R-1)*S+K."""
        return input_extent(self.r, self.s, self.k)

    @property
    def input_cols(self) -> int:
        """Columns of each input feature map: (C-1)*S+K."""
        return input_extent(self.c, self.s, self.k)

    @property
    def input_words(self) -> int:
        """Total words of input feature map data."""
        return self.n * self.input_rows * self.input_cols

    @property
    def output_words(self) -> int:
        """Total words of output feature map data."""
        return self.m * self.r * self.c

    @property
    def weight_words(self) -> int:
        """Total words of filter weights: M*N*K*K."""
        return self.m * self.n * self.k * self.k

    @property
    def total_words(self) -> int:
        """All data words touched by this layer once."""
        return self.input_words + self.output_words + self.weight_words

    # ------------------------------------------------------------------ work
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations in the layer: M*N*R*C*K^2."""
        return self.m * self.n * self.r * self.c * self.k * self.k

    @property
    def flops(self) -> int:
        """Floating point operations (two per MAC: multiply and add)."""
        return 2 * self.macs

    @property
    def compute_to_data_ratio(self) -> float:
        """MACs per data word; the bandwidth-limited ordering heuristic."""
        return self.macs / self.total_words

    # ------------------------------------------------------------- utilities
    def with_name(self, name: str) -> "ConvLayer":
        """Return an identical layer under a different name."""
        return replace(self, name=name)

    def split_outputs(self, parts: int) -> Iterator["ConvLayer"]:
        """Split the layer into ``parts`` equal slices along M.

        Mirrors the grouped-convolution a/b halves of AlexNet (Figure 2).
        ``M`` must divide evenly.
        """
        if self.m % parts:
            raise ValueError(
                f"cannot split M={self.m} into {parts} equal parts"
            )
        suffixes = "abcdefgh"
        if parts > len(suffixes):
            raise ValueError(f"at most {len(suffixes)} parts supported")
        for i in range(parts):
            yield replace(self, name=f"{self.name}{suffixes[i]}", m=self.m // parts)

    @property
    def dims(self) -> Tuple[int, int, int, int, int, int]:
        """The (N, M, R, C, K, S) tuple, matching the paper's notation."""
        return (self.n, self.m, self.r, self.c, self.k, self.s)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.name}: N={self.n} M={self.m} R={self.r} C={self.c} "
            f"K={self.k} S={self.s} ({self.macs / 1e6:.1f} MMACs)"
        )
