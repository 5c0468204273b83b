"""Discrete-event simulation of a full Multi-CLP system (Section 4.1).

All CLPs of a design run one epoch concurrently, contending for a shared
off-chip memory channel.  The channel is a processor-sharing server:
active transfers split the total bandwidth equally, which models an AXI
interconnect arbitrating fairly among the CLPs' DataMovers.

Each CLP issues its tile stream through a private port-FIFO with the
same ping-pong buffer constraints as :mod:`repro.sim.clp_sim`, but its
memory port is ordered differently: a load joins the FIFO as soon as its
input buffer frees, ahead of the output write of a group whose last tile
is still computing, while :func:`~repro.sim.clp_sim.simulate_clp` issues
transfers in program order, so there that load waits for the write.  At
unlimited bandwidth the two agree exactly; under a cap ``simulate_clp``
reads slower (1.0004-1.74x a one-CLP, equal-share run of this simulator
over the catalog AlexNet, SqueezeNet and GoogLeNet CLPs at 1-16
B/cycle).  The simulator reports per-CLP finish times (the epoch length
is their maximum) and channel statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.design import MultiCLPDesign
from .clp_sim import TileJob, tile_sequence
from .engine import Simulator

__all__ = ["SharedChannel", "SystemSimResult", "simulate_system"]


class SharedChannel:
    """Processor-sharing memory channel with weighted arbitration.

    Active jobs split ``bytes_per_cycle`` proportionally to their
    weights; rates are recomputed whenever a job arrives or completes.
    Weighted shares model the paper's per-CLP AXI stream ports (NP, WP,
    MP in Section 5), which provision each CLP's bandwidth share.
    ``None`` bandwidth means transfers complete instantaneously.
    """

    def __init__(self, sim: Simulator, bytes_per_cycle: Optional[float]):
        if bytes_per_cycle is not None and bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive when set")
        self._sim = sim
        self._rate = bytes_per_cycle
        self._jobs: List[List] = []  # [remaining_bytes, callback, weight]
        self._last_update = 0.0
        self._plan_version = 0  # invalidates stale completion events
        self.busy_cycles = 0.0
        self.bytes_moved = 0.0

    # ------------------------------------------------------------- internal
    def _advance(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs and self._rate is not None:
            total_weight = sum(job[2] for job in self._jobs)
            for job in self._jobs:
                job[0] -= self._rate * job[2] / total_weight * elapsed
            self.busy_cycles += elapsed
        self._last_update = now

    def _schedule_next_completion(self) -> None:
        if not self._jobs or self._rate is None:
            return
        total_weight = sum(job[2] for job in self._jobs)
        delay = min(
            max(job[0], 0.0) / (self._rate * job[2] / total_weight)
            for job in self._jobs
        )
        self._plan_version += 1
        token = self._plan_version
        self._sim.schedule(delay, lambda: self._complete(token))

    def _complete(self, token: int) -> None:
        if token != self._plan_version:
            return  # superseded by a later submit/completion re-plan
        if not self._jobs:
            return
        self._advance()
        # Floating-point residue can leave the due job with a few
        # stray bytes; the job this event targeted is finished by
        # construction, so always retire at least the smallest one.
        threshold = max(1e-9, min(job[0] for job in self._jobs))
        finished = [job for job in self._jobs if job[0] <= threshold]
        self._jobs = [job for job in self._jobs if job[0] > threshold]
        for job in finished:
            job[1]()
        self._schedule_next_completion()

    # --------------------------------------------------------------- public
    def submit(
        self, nbytes: float, callback: Callable[[], None], weight: float = 1.0
    ) -> None:
        """Transfer ``nbytes``; ``callback`` fires on completion."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.bytes_moved += nbytes
        if self._rate is None or nbytes == 0:
            self._sim.schedule(0.0, callback)
            return
        self._advance()
        self._jobs.append([float(nbytes), callback, float(weight)])
        # Rates changed: re-plan the next completion (stale events are
        # ignored via the version token).
        self._schedule_next_completion()


class _ClpAgent:
    """State machine driving one CLP's tile stream through the channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: SharedChannel,
        jobs: List[TileJob],
        word_bytes: int,
        pipeline_depth: int,
        weight: float = 1.0,
    ):
        self._sim = sim
        self._channel = channel
        self._jobs = jobs
        self._word_bytes = word_bytes
        self._depth = pipeline_depth
        self._weight = weight
        self._load_done: Dict[int, float] = {}
        self._compute_done: Dict[int, float] = {}
        self._write_done: Dict[int, float] = {}
        self._groups = [i for i, job in enumerate(jobs) if job.write_words]
        self._port_queue: List[Tuple[str, int]] = []  # (kind, tile index)
        self._port_busy = False
        self._next_load = 0
        self._next_compute = 0
        self._outstanding_writes = 0
        self.finish_time: Optional[float] = None
        self.stall_cycles = 0.0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self._try_issue_load()

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    # ----------------------------------------------------------------- port
    def _enqueue(self, kind: str, index: int) -> None:
        self._port_queue.append((kind, index))
        self._pump_port()

    def _pump_port(self) -> None:
        if self._port_busy or not self._port_queue:
            return
        kind, index = self._port_queue.pop(0)
        job = self._jobs[index]
        words = job.load_words if kind == "load" else job.write_words
        self._port_busy = True

        def finished(kind=kind, index=index) -> None:
            self._port_busy = False
            if kind == "load":
                self._load_done[index] = self._sim.now
                self._try_start_compute()
            else:
                self._write_done[index] = self._sim.now
                self._outstanding_writes -= 1
                self._try_start_compute()
                self._check_finished()
            self._try_issue_load()
            self._pump_port()

        self._channel.submit(words * self._word_bytes, finished, self._weight)

    # ---------------------------------------------------------------- loads
    def _try_issue_load(self) -> None:
        while self._next_load < len(self._jobs):
            index = self._next_load
            # Ping-pong input buffer: tile i's load needs compute i-2 done.
            if index >= 2 and (index - 2) not in self._compute_done:
                return
            self._next_load += 1
            self._enqueue("load", index)

    # -------------------------------------------------------------- compute
    def _group_of(self, index: int) -> int:
        # Group number of the write-bearing tile `index`.
        return self._groups.index(index)

    def _try_start_compute(self) -> None:
        index = self._next_compute
        if index >= len(self._jobs):
            return
        if index not in self._load_done:
            return
        if index > 0 and (index - 1) not in self._compute_done:
            return
        job = self._jobs[index]
        if job.write_words:
            group = self._group_of(index)
            if group >= 2:
                blocker = self._groups[group - 2]
                if blocker not in self._write_done:
                    return
        ready = max(
            self._load_done[index],
            self._compute_done.get(index - 1, 0.0),
        )
        self.stall_cycles += self._sim.now - ready if self._sim.now > ready else 0.0
        self._next_compute += 1

        def computed(index=index, job=job) -> None:
            self._compute_done[index] = self._sim.now
            if job.write_words:
                self._outstanding_writes += 1
                self._enqueue("write", index)
            self._try_issue_load()
            self._try_start_compute()
            self._check_finished()

        self._sim.schedule(job.compute_cycles + self._depth, computed)

    def _check_finished(self) -> None:
        if (
            self.finish_time is None
            and self._next_compute == len(self._jobs)
            and len(self._compute_done) == len(self._jobs)
            and self._outstanding_writes == 0
            and not self._port_queue
            and not self._port_busy
        ):
            self.finish_time = self._sim.now


@dataclass(frozen=True)
class SystemSimResult:
    """Outcome of one simulated epoch of a Multi-CLP design."""

    epoch_cycles: float
    clp_finish_cycles: Tuple[float, ...]
    channel_busy_cycles: float
    bytes_moved: float

    def channel_utilization(self) -> float:
        return self.channel_busy_cycles / self.epoch_cycles


def simulate_system(
    design: MultiCLPDesign,
    bytes_per_cycle: Optional[float] = None,
    pipeline_depth: int = 0,
    proportional_shares: bool = True,
) -> SystemSimResult:
    """Simulate one epoch of ``design`` on a shared memory channel.

    With ``proportional_shares`` (default), each CLP's transfers are
    weighted by its modelled bandwidth need, emulating the per-CLP AXI
    port provisioning of Section 5; otherwise arbitration is equal-share.
    """
    sim = Simulator()
    channel = SharedChannel(sim, bytes_per_cycle)
    if proportional_shares and bytes_per_cycle is not None:
        target = design.epoch_cycles * 1.02
        weights = [max(need, 1e-6) for need in design.clp_bandwidths(target)]
    else:
        weights = [1.0] * len(design.clps)
    agents: List[_ClpAgent] = []
    for clp, weight in zip(design.clps, weights):
        jobs: List[TileJob] = []
        for layer, (tr, tc) in zip(clp.layers, clp.tile_plans):
            jobs.extend(tile_sequence(layer, clp.tn, clp.tm, tr, tc))
        agents.append(
            _ClpAgent(
                sim,
                channel,
                jobs,
                word_bytes=design.dtype.word_bytes,
                pipeline_depth=pipeline_depth,
                weight=weight,
            )
        )
    for agent in agents:
        agent.start()
    sim.run()
    unfinished = [i for i, agent in enumerate(agents) if not agent.done]
    if unfinished:
        raise RuntimeError(f"CLPs {unfinished} deadlocked in simulation")
    finishes = tuple(agent.finish_time for agent in agents)
    return SystemSimResult(
        epoch_cycles=max(finishes),
        clp_finish_cycles=finishes,
        channel_busy_cycles=channel.busy_cycles,
        bytes_moved=channel.bytes_moved,
    )
