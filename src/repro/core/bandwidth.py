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

The closed forms work elementwise, on Python ints or on numpy arrays
of tile sizes.  The bandwidth model reads a (compute cycles, bytes,
first-tile bytes, steady bytes/cycle) array with a row per operating
point and a column per layer: :func:`plan_arrays` builds it for many
tile plans of one CLP (the optimizer's curve points), :func:`clp_arrays`
for the CLPs of a finished design.  The minimum-bandwidth bisection
solves all rows in lockstep, each stopping where a lone bisection would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .clp import CLPConfig
from .cost_model import layer_cycles
from .datatypes import DataType
from .layer import ConvLayer, input_extent

__all__ = [
    "clp_arrays",
    "fill_and_steady_words",
    "min_bandwidths_for_cycles",
    "plan_arrays",
    "transfer_words",
]


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


def fill_and_steady_words(layer: ConvLayer, tn: int, tm: int, tr, tc):
    """(first-tile words, steady words/cycle); ``tr``/``tc`` may be int
    arrays."""
    n, m, _, _, k, s = layer.dims
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
    phase_out = min(m, tm) * tr * tc / _tile_steps(n, tn)
    return first_tile_words, (first_tile_words + phase_out) / phase_cycles


def plan_arrays(
    layers: Sequence[ConvLayer], tn: int, tm: int, plans: np.ndarray,
    dtype: DataType,
) -> np.ndarray:
    """The (4, rows, layers) transfer array of tile plans of one (Tn, Tm)
    CLP computing ``layers``: ``plans[i, j]`` is the (Tr, Tc) that row i
    runs layer j at, a (rows, layers, 2) int array.

    Built from the closed forms one layer (column) at a time.  float64
    holds the integers (all below 2**53) exactly.
    """
    word = dtype.word_bytes
    arrays = np.empty((4, *plans.shape[:2]))
    for j, layer in enumerate(layers):
        tr, tc = plans[:, j].T
        fill, steady = fill_and_steady_words(layer, tn, tm, tr, tc)
        arrays[0, :, j] = layer_cycles(layer, tn, tm)
        arrays[1, :, j] = sum(transfer_words(layer, tm, tr, tc)) * word
        arrays[2, :, j] = fill * word
        arrays[3, :, j] = steady * word
    return arrays


def clp_arrays(clps: Sequence[CLPConfig], dtype: DataType) -> np.ndarray:
    """The (4, CLPs, layers) transfer array of CLPs at their own
    ``tile_plans``, priced on Python ints: numpy calls on one-tile arrays
    cost more than the arithmetic.  Zero-word layers, which add exactly
    0.0, pad rows to one length of at least one."""
    word = dtype.word_bytes
    arrays = np.zeros((4, len(clps), max([1, *(len(c.layers) for c in clps)])))
    for i, clp in enumerate(clps):
        for j, (layer, (tr, tc)) in enumerate(zip(clp.layers, clp.tile_plans)):
            fill, steady = fill_and_steady_words(layer, clp.tn, clp.tm, tr, tc)
            arrays[:, i, j] = (
                layer_cycles(layer, clp.tn, clp.tm),
                sum(transfer_words(layer, clp.tm, tr, tc)) * word,
                fill * word,
                steady * word,
            )
    return arrays


def _cycles_at(arrays: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Cycles of each row of a transfer array under its own rate.

    With double buffering, each layer completes in the maximum of its
    compute time and its transfer time, plus the initial tile fill that
    cannot be overlapped.  Layers add left to right (a running sum, not
    numpy's pairwise one), as in a scalar loop.
    """
    compute, total_bytes, fill_bytes, _ = arrays
    rates = rates[:, None]
    terms = np.maximum(compute, total_bytes / rates) + fill_bytes / rates
    return np.add.accumulate(terms, axis=1)[:, -1]


def min_bandwidths_for_cycles(
    arrays: np.ndarray, cycle_budget: float, tolerance: float = 1e-4
) -> np.ndarray:
    """Smallest bytes/cycle letting each row of a transfer array finish
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
