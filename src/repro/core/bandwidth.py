"""Off-chip data transfer and bandwidth models (Section 4.2).

The tiled loop nest of Listing 2 fetches the input tile and the weight
tile once per ``(r, c, m, n)`` iteration and writes the output tile once
per ``(r, c, m)`` iteration.  Transfers move *actual* data, clamped to
layer boundaries (a CLP with Tn=7 computing a layer with N=3 only fetches
3 input feature maps).  Double buffering overlaps transfer with compute,
so a CLP only stalls when the transfer time of a phase exceeds its
compute time.

Closed forms used below (with ``rsteps = ceil(R/Tr)`` etc.):

* input words  = ``msteps * N * (S*R + rsteps*(K-S)) * (S*C + csteps*(K-S))``
  (the sum of boundary-clamped input extents factorises per dimension),
* weight words = ``rsteps * csteps * N * M * K^2``,
* output words = ``M * R * C``.

These were validated against Table 3: AlexNet 485T Single-CLP moves
~9.8 MB for conv1 in 732k cycles, giving the paper's ~1.4 GB/s at
100 MHz.

The closed forms work elementwise on numpy arrays of tile sizes, and the
minimum-bandwidth bisection solves many operating points in lockstep; the
single-CLP functions are its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .datatypes import DataType
from .layer import ConvLayer, input_extent

__all__ = [
    "LayerTransfer",
    "layer_transfer",
    "bandwidth_bound_cycles",
    "min_bandwidth_for_cycles",
    "min_bandwidths_for_cycles",
    "transfer_arrays",
    "transfer_words",
]


@dataclass(frozen=True)
class LayerTransfer:
    """Data movement of one layer executed on one CLP configuration."""

    layer_name: str
    compute_cycles: int
    input_words: int
    weight_words: int
    output_words: int
    first_tile_words: int  # input + weight words of the very first tile
    steady_words_per_cycle: float  # worst-phase words/cycle to avoid stalls

    @property
    def total_words(self) -> int:
        return self.input_words + self.weight_words + self.output_words

    def total_bytes(self, dtype: DataType) -> int:
        return self.total_words * dtype.word_bytes

    def average_bytes_per_cycle(self, dtype: DataType) -> float:
        """Layer-average transfer rate at full compute speed."""
        return self.total_bytes(dtype) / self.compute_cycles


def _tile_steps(total, tile):
    return -(-total // tile)


def transfer_words(layer: ConvLayer, tm: int, tr, tc):
    """(input, weight, output) words; ``tr``/``tc`` may be int arrays."""
    n, m, r, c, k, s = layer.dims
    rsteps = _tile_steps(r, tr)
    csteps = _tile_steps(c, tc)
    # Sum of input extents across boundary-clamped tiles, per dimension.
    row_extent_sum = s * r + rsteps * (k - s)
    col_extent_sum = s * c + csteps * (k - s)
    input_words = _tile_steps(m, tm) * n * row_extent_sum * col_extent_sum
    weight_words = rsteps * csteps * n * m * k * k
    return input_words, weight_words, m * r * c


def layer_transfer(
    layer: ConvLayer,
    tn: int,
    tm: int,
    tr: int,
    tc: int,
) -> LayerTransfer:
    """Transfer volumes and rates for one layer on a (Tn, Tm) CLP.

    ``tr``/``tc`` are the layer's spatial tile sizes (Section 3.1).
    """
    if not 1 <= tr <= layer.r or not 1 <= tc <= layer.c:
        raise ValueError(
            f"tile ({tr}, {tc}) out of range for layer {layer.name!r}"
        )
    n, m, r, c, k, s = layer.dims
    nsteps = _tile_steps(n, tn)
    input_words, weight_words, output_words = transfer_words(layer, tm, tr, tc)
    compute_cycles = r * c * nsteps * _tile_steps(m, tm) * k * k

    # Each n-phase, the first (ping) tile included, moves a full Tr x Tc
    # spatial tile of Tn input maps and one Tn x Tm weight set -- all
    # clamped to the layer.
    phase_in = min(n, tn) * input_extent(tr, s, k) * input_extent(tc, s, k)
    phase_w = min(n, tn) * min(m, tm) * k * k
    first_tile_words = phase_in + phase_w

    # Steady state: each full n-phase computes K^2*Tr*Tc cycles while the
    # next phase's inputs and weights stream in; output write-back of a
    # finished (r, c, m) group is spread over the following group's
    # nsteps phases.
    phase_cycles = k * k * tr * tc
    phase_out = min(m, tm) * tr * tc / nsteps
    steady_words_per_cycle = (first_tile_words + phase_out) / phase_cycles

    return LayerTransfer(
        layer_name=layer.name,
        compute_cycles=compute_cycles,
        input_words=input_words,
        weight_words=weight_words,
        output_words=output_words,
        first_tile_words=first_tile_words,
        steady_words_per_cycle=steady_words_per_cycle,
    )


def transfer_arrays(
    rows: Sequence[Sequence[LayerTransfer]], dtype: DataType
) -> np.ndarray:
    """(compute cycles, bytes, first-tile bytes, steady bytes/cycle) of
    every layer of each transfer list: a (4, rows, layers) array.

    float64 holds the integers (all below 2**53) exactly.  Zero-word
    layers, which add exactly 0.0, pad rows to one length of at least one.
    """
    word = dtype.word_bytes
    width = max([1, *map(len, rows)])
    pad = LayerTransfer("", 0, 0, 0, 0, 0, 0.0)
    rows = [list(row) + [pad] * (width - len(row)) for row in rows]
    return np.array([
        [[t.compute_cycles for t in row] for row in rows],
        [[t.total_words * word for t in row] for row in rows],
        [[t.first_tile_words * word for t in row] for row in rows],
        [[t.steady_words_per_cycle * word for t in row] for row in rows],
    ], dtype=np.float64)


def _cycles_at(arrays: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Cycles of each row of ``transfer_arrays`` under its own rate.

    With double buffering, each layer completes in the maximum of its
    compute time and its transfer time, plus the initial tile fill that
    cannot be overlapped.  Layers add left to right (a running sum, not
    numpy's pairwise one), as in a scalar loop.
    """
    compute, total_bytes, fill_bytes, _ = arrays
    rates = rates[:, None]
    terms = np.maximum(compute, total_bytes / rates) + fill_bytes / rates
    return np.add.accumulate(terms, axis=1)[:, -1]


def bandwidth_bound_cycles(
    transfers: Sequence[LayerTransfer],
    dtype: DataType,
    bytes_per_cycle: Optional[float],
) -> float:
    """Cycles for a CLP to finish its layers under a bandwidth cap.

    ``bytes_per_cycle=None`` means unconstrained: an infinite rate.
    """
    if bytes_per_cycle is not None and bytes_per_cycle <= 0:
        raise ValueError("bytes_per_cycle must be positive when set")
    rate = np.array([np.inf if bytes_per_cycle is None else bytes_per_cycle])
    return float(_cycles_at(transfer_arrays([transfers], dtype), rate)[0])


def min_bandwidths_for_cycles(
    arrays: np.ndarray, cycle_budget: float, tolerance: float = 1e-4
) -> np.ndarray:
    """Smallest bytes/cycle letting each row of ``transfer_arrays`` finish
    within ``cycle_budget`` (0.0 if it moves no bytes).

    Monotone in the bandwidth, so solved by bisection: all rows bisect in
    lockstep, each stopping where a lone bisection would.  Raises if even
    unconstrained compute exceeds the budget.
    """
    compute_sums = arrays[0].sum(axis=1)
    over = compute_sums > cycle_budget
    if over.any():
        raise ValueError(
            f"compute alone needs {int(compute_sums[over][0])} cycles, "
            f"over budget {cycle_budget}"
        )
    result = np.zeros(len(compute_sums))
    rows = np.flatnonzero(arrays[1].sum(axis=1))
    arrays = arrays[:, rows]
    moved = arrays[1].sum(axis=1)
    # Bracket: high enough that every layer is compute bound with fills
    # absorbed; low = pure serial transfer.
    low = moved / cycle_budget / 4
    high = np.max([
        moved / np.maximum(cycle_budget - compute_sums[rows], 1.0),
        arrays[3].max(axis=1, initial=0.0) * 2,
        low * 2,
    ], axis=0)
    grow = _cycles_at(arrays, high) > cycle_budget
    while grow.any():
        high = np.where(grow, high * 2, high)
        if (high[grow] > 1e9).any():
            raise RuntimeError("failed to bracket bandwidth requirement")
        grow &= _cycles_at(arrays, high) > cycle_budget
    active = (high - low) / high > tolerance
    while active.any():
        mid = (low + high) / 2
        fits = _cycles_at(arrays, mid) <= cycle_budget
        high = np.where(active & fits, mid, high)
        low = np.where(active & ~fits, mid, low)
        active = (high - low) / high > tolerance
    result[rows] = high
    return result


def min_bandwidth_for_cycles(
    transfers: Sequence[LayerTransfer],
    dtype: DataType,
    cycle_budget: float,
    tolerance: float = 1e-4,
) -> float:
    """Smallest bytes/cycle letting one CLP finish within ``cycle_budget``."""
    arrays = transfer_arrays([transfers], dtype)
    return float(min_bandwidths_for_cycles(arrays, cycle_budget, tolerance)[0])
