"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of each layer
with wrappers that record a span (start, end, enclosing span) per call,
then restores the originals.  Nothing under ``src/`` is edited.  A span
of a layer already open on the stack counts as a call but not again as
busy time, so recursion and same-layer nesting are not double counted.
A layer's self time is its busy time minus the spans nested in it.

The hottest calls are counted in a separate pass with no spans
installed (:meth:`Tracer.install_counters`), because even a bare counter
costs as much as the call itself and would swamp its caller's self
time: ``FailureDetector.routable`` (called per candidate replica per
request), ``Simulator.schedule``/``schedule_at``, and arrival draws.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis import report
from repro.core import serialize
from repro.dse import runner
from repro.fleet import balancer, cluster, detector
from repro.obs import telemetry
from repro.opt import compute, driver, joint, worker
from repro.scenario import faults, library
from repro.serve import arrivals, overload
from repro.sim import engine, fastpath


def _subclasses(base: type) -> List[type]:
    found = [base]
    for sub in base.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")]


class Tracer:
    """Span and count recorder installed by patching layer entry points."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrappers
    def span(self, layer: str, fn: Callable, count: Optional[str] = None,
             enclosing: Optional[str] = None) -> Callable:
        """Wrap ``fn`` so each call records a ``layer`` span.

        With ``enclosing``, busy time spent inside an open span of that
        layer is also summed under ``"<layer>@<enclosing>"``.
        """
        stack, depth = self._stack, self._depth
        busy, self_s, calls = self.busy, self.self_s, self.calls
        inside = f"{layer}@{enclosing}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[layer] += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                depth[layer] -= 1
                calls[layer] += 1
                if count is not None:
                    calls[count] += 1
                self_s[layer] += duration - frame[1]
                if not depth[layer]:
                    busy[layer] += duration
                    if enclosing is not None and depth[enclosing]:
                        busy[inside] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is counted under ``name``, untimed."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_all(self, owners: Iterable[type], attrs: Iterable[str],
                   make: Callable[[Callable], Callable]) -> None:
        for owner in owners:
            for attr in attrs:
                if attr in vars(owner):
                    self._patch(owner, attr, make)

    # ------------------------------------------------------------- install
    def install(self) -> None:
        """Patch every traced entry point; undo with :meth:`uninstall`."""
        span = self.span
        for module in (driver, worker, joint):
            self._patch(module, "optimize_multi_clp",
                        lambda fn: span("opt", fn, enclosing="dse"))
        self._patch(compute.SegmentSearch, "__init__",
                    lambda fn: span("opt.search_build", fn))
        self._patch(compute.SegmentSearch, "candidates",
                    lambda fn: span("opt.candidates", fn))
        self._patch(driver, "optimize_memory", self._memory)
        self._patch(runner, "run_sweep", self._sweep)

        self._patch(engine.Simulator, "run", self._engine_run)
        self._patch(cluster.ClusterSimulator, "run",
                    lambda fn: span("fleet.cluster", fn))
        self._patch_all(_subclasses(balancer.Balancer), ("route",),
                        lambda fn: span("fleet.balancer", fn))
        self._patch(detector.FailureDetector, "record_probe",
                    lambda fn: span("fleet.detector", fn,
                                    count="fleet.detector.probes"))
        self._patch_all(
            [detector.FailureDetector],
            [name for name in _public_methods(detector.FailureDetector)
             if name not in ("routable", "record_probe")],
            lambda fn: span("fleet.detector", fn))
        for cls in (overload.OverloadController, overload.OverloadTenantState):
            self._patch_all([cls], _public_methods(cls),
                            lambda fn: span("serve.overload", fn))
        for cls in (telemetry.MetricsRecorder, telemetry.TenantGroupSampler,
                    telemetry.BusySampler):
            self._patch_all([cls], _public_methods(cls),
                            lambda fn: span("obs", fn))
        self._patch_all(_subclasses(faults.FaultSpec),
                        ("materialize", "materialize_gray"),
                        lambda fn: span("scenario.materialize", fn))
        self._patch_all(_subclasses(library.SurgeShape), ("reshape",),
                        lambda fn: span("scenario.materialize", fn))
        self._patch(cluster, "compute_resilience",
                    lambda fn: span("scenario.resilience", fn))
        self._patch(fastpath, "materialize_arrivals",
                    lambda fn: span("sim.fastpath.materialize", fn))
        self._patch(fastpath, "run_fleet_fast",
                    lambda fn: span("sim.fastpath.fleet", fn,
                                    enclosing="fleet.cluster"))
        self._patch(fastpath, "run_serve_fast",
                    lambda fn: span("sim.fastpath.serve", fn))
        self._patch_all(_subclasses(arrivals.ArrivalProcess), ("times",),
                        self._timed_draws)
        for name in ("fleet_result_to_dict", "fleet_result_from_dict"):
            self._patch(serialize, name,
                        lambda fn: span("core.serialize", fn))
        self._patch(report, "render_run_report",
                    lambda fn: span("analysis.report", fn))

    def install_counters(self) -> None:
        """Count the hottest calls, untimed; run with spans uninstalled."""
        for name in ("schedule", "schedule_at"):
            self._patch(engine.Simulator, name,
                        lambda fn: self.counter("sim.engine.scheduled", fn))
        self._patch(detector.FailureDetector, "routable",
                    lambda fn: self.counter("fleet.detector.routable", fn))
        self._patch_all(_subclasses(arrivals.ArrivalProcess), ("times",),
                        self._counted_draws)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------- special wrappers
    def _memory(self, fn: Callable) -> Callable:
        def optimize_memory(*args, **kwargs):
            solution = fn(*args, **kwargs)
            if solution is not None:
                self.calls["opt.memory.feasible"] += 1
            return solution

        return self.span("opt.memory", optimize_memory)

    def _sweep(self, fn: Callable) -> Callable:
        def run_sweep(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            self.calls["dse.points"] += outcome.total
            return outcome

        return self.span("dse", run_sweep)

    def _engine_run(self, fn: Callable) -> Callable:
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self.calls["sim.engine.events"] += (
                    sim.events_processed - before)

        return self.span("sim.engine", run, enclosing="fleet.cluster")

    def _timed_draws(self, fn: Callable) -> Callable:
        busy, stack = self.busy, self._stack

        @functools.wraps(fn)
        def times(process, rng):
            # Cheaper than a span per draw; draws never nest.
            stream = iter(fn(process, rng))
            while True:
                started = perf_counter()
                try:
                    when = next(stream)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - started
                    busy["serve.arrivals"] += duration
                    if stack:
                        stack[-1][1] += duration
                yield when

        return times

    def _counted_draws(self, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def times(process, rng):
            for when in fn(process, rng):
                calls["serve.arrivals.draws"] += 1
                yield when

        return times

    # ------------------------------------------------------------- metrics
    def metrics(self, results: List[Any]) -> Dict[str, float]:
        """Per-layer metrics, given the traced job's simulator results."""
        busy, calls = self.busy, self.calls
        memory_calls = calls["opt.memory"]
        events = calls["sim.engine.events"]
        gated = [tenant for result in results
                 if getattr(result, "overload", None) is not None
                 for tenant in result.tenants]
        gate_arrivals = sum(tenant.arrivals for tenant in gated)
        admitted = gate_arrivals - sum(tenant.rejected for tenant in gated)
        return {
            "opt.calls": calls["opt"],
            "opt.busy_s": busy["opt"],
            "opt.search_build_s": busy["opt.search_build"],
            "opt.candidates_calls": calls["opt.candidates"],
            "opt.candidates_s": busy["opt.candidates"],
            "opt.memory_calls": memory_calls,
            "opt.memory_s": busy["opt.memory"],
            "opt.memory_feasible_ratio": (
                calls["opt.memory.feasible"] / memory_calls
                if memory_calls else 0.0),
            "dse.points": calls["dse.points"],
            "dse.overhead_s": busy["dse"] - busy["opt@dse"],
            "sim.engine.events": events,
            "sim.engine.scheduled": calls["sim.engine.scheduled"],
            "sim.engine.busy_s": busy["sim.engine"],
            "sim.engine.self_s": self.self_s["sim.engine"],
            "sim.engine.us_per_event": (
                busy["sim.engine"] * 1e6 / events if events else 0.0),
            "fleet.balancer.routes": calls["fleet.balancer"],
            "fleet.balancer.busy_s": busy["fleet.balancer"],
            "fleet.detector.routable_calls": calls["fleet.detector.routable"],
            "fleet.detector.probes": calls["fleet.detector.probes"],
            "fleet.detector.busy_s": busy["fleet.detector"],
            "serve.overload.calls": calls["serve.overload"],
            "serve.overload.busy_s": busy["serve.overload"],
            "serve.overload.admit_ratio": (
                admitted / gate_arrivals if gate_arrivals else 0.0),
            "serve.overload.retries": sum(tenant.retries for tenant in gated),
            "obs.calls": calls["obs"],
            "obs.busy_s": busy["obs"],
            "scenario.materialize_s": busy["scenario.materialize"],
            "scenario.resilience_s": busy["scenario.resilience"],
            "sim.fastpath.materialize_s": busy["sim.fastpath.materialize"],
            "sim.fastpath.fleet_s": busy["sim.fastpath.fleet"],
            "sim.fastpath.serve_s": busy["sim.fastpath.serve"],
            "serve.arrivals.draws": calls["serve.arrivals.draws"],
            "serve.arrivals.busy_s": busy["serve.arrivals"],
            "fleet.cluster.run_s": busy["fleet.cluster"],
            "fleet.cluster.outside_loop_s": (
                busy["fleet.cluster"]
                - busy["sim.engine@fleet.cluster"]
                - busy["sim.fastpath.fleet@fleet.cluster"]),
            "core.serialize.busy_s": busy["core.serialize"],
            "analysis.report.busy_s": busy["analysis.report"],
        }
