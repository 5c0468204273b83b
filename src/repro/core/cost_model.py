"""Analytical CLP cost and performance models (Section 4.2).

Three models are implemented, all parameterised by the CLP compute-grid
size (Tn, Tm), the per-layer tile sizes (Tr, Tc), and the datatype:

* **cycles** — exact loop-iteration count of the tiled loop nest
  (Listing 2): ``R * C * ceil(N/Tn) * ceil(M/Tm) * K^2``.
* **DSP slices** — ``Tn*Tm`` multiply-accumulate units at the datatype's
  DSP cost (5 for float32: 2/multiplier + 3/adder; 1 for fixed16).
* **BRAM-18Kb blocks** — input/weight/output buffer banking with double
  buffering, the single-BRAM small-bank optimisation, the LUTRAM cutoff,
  and 16-bit word packing.

All formulas were validated against the paper's published numbers: the
cycle model reproduces every row of Table 2, and the BRAM model
reproduces every "model" column entry of Table 6 (e.g. 618 BRAMs for the
485T Single-CLP).

The closed forms work elementwise: grid sizes (Tn, Tm) and buffer bank
words may be int arrays, which is how the optimizer prices every grid or
tile plan in one call.  A scalar call is the one-element case and
returns a Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..fpga.parts import (
    BRAM18K_SINGLE_BANK_WORDS,
    BRAM18K_WORDS_32BIT,
    LUTRAM_CUTOFF_WORDS,
)
from .datatypes import DataType
from .layer import ConvLayer, input_extent

__all__ = [
    "layer_cycles",
    "dsp_count",
    "max_units_for_budget",
    "BufferSpec",
    "bank_words",
    "buffer_spec",
    "bram_count",
    "bram_breakdown",
]


def _check_grid(tn, tm) -> None:
    bad = (tn <= 0) | (tm <= 0)  # a bool for ints, cheaper than numpy calls
    if bad if isinstance(bad, bool) else bad.any():
        raise ValueError(f"Tn and Tm must be positive, got ({tn}, {tm})")


# --------------------------------------------------------------------- cycles
def layer_cycles(layer: ConvLayer, tn, tm):
    """Cycles for one layer on a (Tn, Tm) CLP (Section 4.2).

    ``Cycles = R * C * ceil(N/Tn) * ceil(M/Tm) * K^2``

    The R and C loops contribute exactly R and C iterations because the
    inner tile loops honour the layer boundary (``rloops``/``cloops`` in
    Listing 4); Tr and Tc therefore do not affect the compute cycle count.
    ``tn``/``tm`` may be int arrays.
    """
    _check_grid(tn, tm)
    n_steps = -(-layer.n // tn)
    m_steps = -(-layer.m // tm)
    return layer.r * layer.c * n_steps * m_steps * layer.k * layer.k


# ------------------------------------------------------------------------ DSP
def dsp_count(tn, tm, dtype: DataType):
    """DSP slices for the compute module: Tn*Tm MAC units.

    Exact (integer) even for fractional costs: int8 packs two MACs per
    slice, so ``ceil(units / 2)``.  ``tn``/``tm`` may be int arrays.
    """
    _check_grid(tn, tm)
    spec = dtype.spec
    slices = spec.dsp_per_multiplier + spec.dsp_per_adder
    return -(-(tn * tm * slices) // spec.macs_per_dsp_group)


def max_units_for_budget(dsp_budget: int, dtype: DataType) -> int:
    """Largest Tn*Tm product affordable within a DSP budget."""
    if dsp_budget <= 0:
        raise ValueError(f"DSP budget must be positive, got {dsp_budget}")
    spec = dtype.spec
    slices = spec.dsp_per_multiplier + spec.dsp_per_adder
    return dsp_budget * spec.macs_per_dsp_group // slices


# ----------------------------------------------------------------------- BRAM
@dataclass(frozen=True)
class BufferSpec:
    """Sizing of one CLP's three on-chip buffers, in words per bank.

    ``input_bank_words`` is the paper's ``Bi``: the largest
    ``((Tr-1)S+K) * ((Tc-1)S+K)`` over the CLP's layers.  The weight bank
    holds the largest ``K^2`` filter, and the output bank the largest
    ``Tr*Tc`` tile.  Fields may be int arrays, one entry per tile plan,
    for the elementwise BRAM model.
    """

    input_bank_words: int
    weight_bank_words: int
    output_bank_words: int


def bank_words(layer: ConvLayer, tr, tc):
    """(input, output) bank words a (Tr, Tc) tile of ``layer`` needs;
    ``tr``/``tc`` may be int arrays."""
    s, k = layer.s, layer.k
    return input_extent(tr, s, k) * input_extent(tc, s, k), tr * tc


def buffer_spec(
    layers: Sequence[ConvLayer],
    tile_plans: Sequence[Tuple[int, int]],
) -> BufferSpec:
    """Buffer bank sizes for a CLP computing ``layers`` with given tiles.

    ``tile_plans[i]`` is the (Tr, Tc) pair used for ``layers[i]``.  Each
    buffer is provisioned for its most demanding layer (Section 4.2).
    """
    if len(layers) != len(tile_plans):
        raise ValueError(
            f"{len(layers)} layers but {len(tile_plans)} tile plans"
        )
    if not layers:
        raise ValueError("a CLP must compute at least one layer")
    input_words = 0
    weight_words = 0
    output_words = 0
    for layer, (tr, tc) in zip(layers, tile_plans):
        if not 1 <= tr <= layer.r or not 1 <= tc <= layer.c:
            raise ValueError(
                f"tile ({tr}, {tc}) out of range for layer {layer.name!r} "
                f"with R={layer.r}, C={layer.c}"
            )
        tile_in, tile_out = bank_words(layer, tr, tc)
        input_words = max(input_words, tile_in)
        weight_words = max(weight_words, layer.k * layer.k)
        output_words = max(output_words, tile_out)
    return BufferSpec(
        input_bank_words=input_words,
        weight_bank_words=weight_words,
        output_bank_words=output_words,
    )


def _brams_per_bank(bank_words, needs_two_ports_per_copy: bool):
    """BRAM-18Kb blocks for one double-buffered bank of ``bank_words``
    (an int or an int array).

    Input and weight banks with at most 256 words fit both ping-pong
    copies in a single BRAM (one read port + one write port suffice).
    Output banks accumulate in place, so each copy needs its own read and
    write port and therefore its own BRAM(s).  Banks below the LUTRAM
    cutoff cost no BRAM at all.
    """
    brams = 2 * -(-bank_words // BRAM18K_WORDS_32BIT)
    if not needs_two_ports_per_copy:
        # A bank of at most 256 words spans one block: 2 - 1 BRAMs.
        brams = brams - (bank_words <= BRAM18K_SINGLE_BANK_WORDS)
    return (bank_words >= LUTRAM_CUTOFF_WORDS) * brams


def _bank_count(logical_banks, dtype: DataType):
    """Physical banks after 16-bit pair packing (Section 4.2)."""
    return -(-logical_banks // dtype.words_per_bram_entry)


def bram_breakdown(tn: int, tm: int, spec: BufferSpec, dtype: DataType):
    """(input, weight, output) BRAM usage of a CLP; elementwise over
    array fields of ``spec``.

    * Input buffer: Tn banks of ``input_bank_words``.
    * Weight buffer: Tn*Tm banks of ``weight_bank_words``.
    * Output buffer: Tm banks of ``output_bank_words``; accumulation
      forces at least two BRAMs per double-buffered bank.

    For fixed16, pairs of banks share one 32-bit-wide physical bank.
    """
    input_brams = _bank_count(tn, dtype) * _brams_per_bank(
        spec.input_bank_words, needs_two_ports_per_copy=False
    )
    weight_brams = _bank_count(tn * tm, dtype) * _brams_per_bank(
        spec.weight_bank_words, needs_two_ports_per_copy=False
    )
    output_brams = _bank_count(tm, dtype) * _brams_per_bank(
        spec.output_bank_words, needs_two_ports_per_copy=True
    )
    return input_brams, weight_brams, output_brams


def bram_count(tn: int, tm: int, spec: BufferSpec, dtype: DataType):
    """Total BRAM-18Kb blocks used by a CLP (an array for array fields
    of ``spec``)."""
    return sum(bram_breakdown(tn, tm, spec, dtype))
