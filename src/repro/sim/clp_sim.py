"""Cycle-level simulation of one double-buffered CLP.

Replaces the paper's RTL simulation (Section 6.4).  The simulator walks
the exact tile sequence of Listing 4 — ``(r, c, m, n)`` order with
boundary clamping — and resolves the timing recurrences of the
double-buffered datapath:

* the CLP's memory port executes transfers in program order, so the
  load that follows a group's last tile waits for that group's output
  write (:mod:`repro.sim.system` queues it as soon as its buffer frees,
  ahead of the write: the two agree at unlimited bandwidth, and this
  simulator reads up to 1.74x slower under a cap);
* the input/weight transfer of tile *i* may start once the port is free
  and compute of tile *i-2* has released the ping-pong buffer;
* compute of tile *i* starts when its transfer and the previous compute
  are done (plus a pipeline-fill latency per tile);
* the output write of group *g* is issued after the group's last
  compute and must drain before compute of group *g+2* reuses the
  output buffer.

With unlimited bandwidth and zero pipeline depth the simulated cycle
count equals the analytical model exactly; with a pipeline depth it
differs by ``depth`` cycles per tile, matching the paper's observation
that RTL simulation "only differs from our model by the pipeline depth
of the implementation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.clp import CLPConfig
from ..core.datatypes import DataType
from ..core.layer import ConvLayer

__all__ = ["TileJob", "tile_sequence", "LayerSimResult", "ClpSimResult", "simulate_clp"]


@dataclass(frozen=True)
class TileJob:
    """One (r, c, m, n) iteration of the tiled loop nest."""

    layer_name: str
    load_words: int  # clamped input + weight words for this tile
    compute_cycles: int
    write_words: int  # output words written after this tile (0 unless
    # this is the last n-step of its (r, c, m) group)


def tile_sequence(
    layer: ConvLayer, tn: int, tm: int, tr: int, tc: int
) -> List[TileJob]:
    """The exact tile stream the CLP executes for one layer."""
    n, m, r, c, k, s = layer.dims
    jobs: List[TileJob] = []
    for r0 in range(0, r, tr):
        rloops = min(tr, r - r0)
        rows = (rloops - 1) * s + k
        for c0 in range(0, c, tc):
            cloops = min(tc, c - c0)
            cols = (cloops - 1) * s + k
            for m0 in range(0, m, tm):
                mloops = min(tm, m - m0)
                n_steps = -(-n // tn)
                for step, n0 in enumerate(range(0, n, tn)):
                    nloops = min(tn, n - n0)
                    load = nloops * rows * cols + mloops * nloops * k * k
                    is_last = step == n_steps - 1
                    jobs.append(
                        TileJob(
                            layer_name=layer.name,
                            load_words=load,
                            compute_cycles=k * k * rloops * cloops,
                            write_words=mloops * rloops * cloops if is_last else 0,
                        )
                    )
    return jobs


@dataclass(frozen=True)
class LayerSimResult:
    """Timing of one layer within the CLP's run."""

    layer_name: str
    start_cycle: float
    end_cycle: float
    compute_cycles: int
    stall_cycles: float

    @property
    def elapsed(self) -> float:
        return self.end_cycle - self.start_cycle


@dataclass(frozen=True)
class ClpSimResult:
    """Outcome of simulating a CLP over all its layers."""

    total_cycles: float
    layers: Tuple[LayerSimResult, ...]
    transferred_words: int

    @property
    def total_stall_cycles(self) -> float:
        return sum(layer.stall_cycles for layer in self.layers)


def simulate_clp(
    clp: CLPConfig,
    bytes_per_cycle: Optional[float] = None,
    pipeline_depth: int = 0,
) -> ClpSimResult:
    """Simulate a CLP processing its layers back to back.

    ``bytes_per_cycle`` caps the CLP's memory port (None = unlimited);
    ``pipeline_depth`` adds a fill latency to every tile's compute,
    modelling the implementation's pipelined datapath.
    """
    if bytes_per_cycle is not None and bytes_per_cycle <= 0:
        raise ValueError("bytes_per_cycle must be positive when set")
    if pipeline_depth < 0:
        raise ValueError("pipeline_depth must be non-negative")
    word_bytes = clp.dtype.word_bytes

    def transfer_time(words: int) -> float:
        if bytes_per_cycle is None or words == 0:
            return 0.0
        return words * word_bytes / bytes_per_cycle

    port_free = 0.0
    compute_done: List[float] = []  # per tile, global index
    write_done_by_group: List[float] = []
    results: List[LayerSimResult] = []
    transferred = 0
    tile_index = 0
    group_index = 0
    clock = 0.0

    for layer, (tr, tc) in zip(clp.layers, clp.tile_plans):
        layer_start = clock
        layer_compute = 0
        jobs = tile_sequence(layer, clp.tn, clp.tm, tr, tc)
        for job in jobs:
            # Input/weight load: port free + ping-pong buffer released.
            buffer_ready = (
                compute_done[tile_index - 2] if tile_index >= 2 else 0.0
            )
            load_start = max(port_free, buffer_ready)
            load_end = load_start + transfer_time(job.load_words)
            port_free = load_end
            transferred += job.load_words
            # Compute: own load done + previous compute done.
            prev_compute = compute_done[-1] if compute_done else 0.0
            start = max(load_end, prev_compute)
            # Output ping-pong: reusing the buffer of group g-2 requires
            # that group's write to have drained.
            if job.write_words and group_index >= 2:
                start = max(start, write_done_by_group[group_index - 2])
            end = start + job.compute_cycles + pipeline_depth
            compute_done.append(end)
            layer_compute += job.compute_cycles
            tile_index += 1
            if job.write_words:
                write_start = max(port_free, end)
                write_end = write_start + transfer_time(job.write_words)
                port_free = write_end
                write_done_by_group.append(write_end)
                transferred += job.write_words
                group_index += 1
        clock = compute_done[-1]
        results.append(
            LayerSimResult(
                layer_name=layer.name,
                start_cycle=layer_start,
                end_cycle=clock,
                compute_cycles=layer_compute,
                stall_cycles=(clock - layer_start) - layer_compute,
            )
        )
    # The final group's write must drain before the CLP is done.
    total = max(clock, write_done_by_group[-1] if write_done_by_group else clock)
    return ClpSimResult(
        total_cycles=total,
        layers=tuple(results),
        transferred_words=transferred,
    )
