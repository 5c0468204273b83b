"""Sweep execution: fan design points out across worker processes.

The runner is cache-first: points already present in the store are
served from it, and only the missing ones are dispatched — serially for
tiny batches or single-core boxes, otherwise on a
``ProcessPoolExecutor`` running :func:`repro.opt.worker.
evaluate_point_payload` (a plain top-level function, picklable by
reference).  ``executor.map`` preserves submission order, so results
come back in the expansion order of the spec regardless of which worker
finished first — sweeps are deterministic by construction.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.serialize import to_record
from ..networks import get_network
from ..opt.worker import evaluate_point_payload
from .point import DesignPoint, SweepResult
from .spec import SweepSpec
from .store import ResultStore

__all__ = ["SweepRunner", "SweepOutcome", "run_sweep"]


@dataclass(frozen=True)
class SweepOutcome:
    """Everything a sweep produced, in deterministic point order."""

    results: Tuple[SweepResult, ...]
    computed: int
    cached: int
    workers: int
    #: Wall-clock seconds for the whole run() call, and the sum of the
    #: workers' per-point solve times.  solve_s > wall_s means the pool
    #: parallelism paid off; a large wall/solve gap on a cached sweep is
    #: store-load overhead.  Both default to 0.0 so pre-profiling
    #: constructors (and tests) stay valid.
    wall_s: float = 0.0
    solve_s: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def infeasible(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def ok_results(self) -> List[SweepResult]:
        return [r for r in self.results if r.ok]

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def format(self) -> str:
        line = (
            f"{self.total} points: {self.computed} computed, "
            f"{self.cached} cached ({self.cache_hit_rate:.0%} hits), "
            f"{self.infeasible} infeasible, {self.workers} worker(s)"
        )
        if self.wall_s > 0:
            line += f"; {self.wall_s:.2f}s wall, {self.solve_s:.2f}s solving"
        return line


class SweepRunner:
    """Executes sweeps against a result store with a process pool.

    ``workers=None`` picks the CPU count; ``workers=1`` (or a one-point
    batch) runs in-process, which keeps tracebacks simple and avoids
    pool startup cost where parallelism cannot pay for itself.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
    ):
        self.store = store if store is not None else ResultStore()
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    def run(
        self,
        spec: Union[SweepSpec, Sequence[DesignPoint]],
        progress: Optional[Callable[[SweepResult], None]] = None,
    ) -> SweepOutcome:
        """Solve every point of ``spec`` not already in the store."""
        started = time.perf_counter()
        points = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
        missing: List[DesignPoint] = []
        queued = set()
        cached = 0  # occurrences served by the pre-existing store
        for point in points:
            key = point.key()
            if key in self.store:
                cached += 1
            elif key not in queued:
                queued.add(key)
                missing.append(point)

        # One serialized network per name, shared by all its points.
        networks: Dict[str, Dict[str, Any]] = {}
        for point in missing:
            if point.network not in networks:
                networks[point.network] = to_record(get_network(point.network))
        payloads = [
            {"point": p.to_dict(), "network": networks[p.network]}
            for p in missing
        ]

        workers = self.workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(payloads) or 1))
        if workers == 1:
            records = map(evaluate_point_payload, payloads)
            self._collect(records, progress)
        else:
            chunksize = max(1, len(payloads) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = pool.map(
                    evaluate_point_payload, payloads, chunksize=chunksize
                )
                self._collect(records, progress)

        results = []
        for point in points:
            result = self.store.get(point.key())
            assert result is not None  # every point was cached or computed
            results.append(result)
        solve_s = sum(self.store.get(p.key()).elapsed_s for p in missing)
        return SweepOutcome(
            results=tuple(results),
            computed=len(missing),
            cached=cached,
            workers=workers,
            wall_s=time.perf_counter() - started,
            solve_s=solve_s,
        )

    def _collect(
        self,
        records: Any,
        progress: Optional[Callable[[SweepResult], None]],
    ) -> None:
        for record in records:
            result = SweepResult.from_dict(record)
            self.store.put(result)
            if progress is not None:
                progress(result)


def run_sweep(
    spec: Union[SweepSpec, Sequence[DesignPoint]],
    store: Union[ResultStore, str, None] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[SweepResult], None]] = None,
) -> SweepOutcome:
    """One-call sweep: expand, solve what's missing, return everything.

    ``store`` may be a :class:`ResultStore`, a path to one, or ``None``
    for a memory-only run.
    """
    if not isinstance(store, (ResultStore, type(None))):
        store = ResultStore(store)
    return SweepRunner(store=store, workers=workers).run(spec, progress=progress)
