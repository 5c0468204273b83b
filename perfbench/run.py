"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload drill-fleet --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` set-up is timed in fresh interpreters, one after
another, each importing the program and building the inputs; then the
job repeats while another repetition should still end within
``--seconds`` of the start (it runs at least once), and the end-to-end
metrics of ``BENCHMARK.json`` are printed (medians over the
repetitions).  Timings are in reference seconds (``hostspeed.py``).
With ``--trace 1`` the job runs once untraced, once with spans and once
with the hottest calls counted, then the overlay ladder runs, and the
per-layer metrics are printed instead.
Every job's outputs are checked against ``perfbench/reference``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_PASS_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import check
    import workloads
    return check, workloads


def _setup_sample(args) -> float:
    """Reference seconds from spawning an interpreter to its inputs being ready."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", repr(time.monotonic())]
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=120, check=True)
    return float(child.stdout.splitlines()[-1])


def _setup_only(args) -> int:
    """Time this interpreter's set-up; print it in reference seconds.

    Interpreter start and the benchmark's own imports are scaled by the
    calibration that follows them; the program's imports and the inputs
    are timed by the clock.
    """
    boot_s = time.monotonic() - args.setup_only
    clock = HostClock()
    boot_s *= REFERENCE_PASS_S / clock.pass_s
    clock.start()
    _, workloads = _import_program()
    workloads.WORKLOADS[args.workload][0](args.seed)
    print(boot_s + clock.stop())
    return 0


class Ledger:
    """Attempted and failed items over every checked job."""

    def __init__(self, check, reference):
        self.check = check
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, job, state, clock):
        """Run and check one job; returns (its seconds, result or None)."""
        clock.start()
        try:
            result = job(state, clock)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        seconds = clock.stop()
        if result is None:
            self.attempted += len(self.reference)
            self.failed += len(self.reference)
            return seconds, None
        attempted, problems = self.check.check_outputs(result.outputs,
                                                       self.reference)
        self.attempted += attempted
        self.failed += len(problems)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return seconds, result


def _measure(args, setup, job, ledger):
    deadline = time.perf_counter() + args.seconds
    clock = HostClock()
    setup_s = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    state = setup(args.seed)
    job_s, rates = [], []
    while True:
        began = time.perf_counter()
        seconds, result = ledger.run(job, state, clock)
        job_s.append(seconds)
        if result is not None:
            rates.append(result.items / result.work_s)
        now = time.perf_counter()
        # Stop unless one more repetition as long as this one ends in time.
        if now + (now - began) > deadline:
            break
    quality = state.quality or {}
    return {
        "setup_s": statistics.median(setup_s),
        "job_s": statistics.median(job_s),
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
        "table1_util_err": quality.get("table1_util_err", 0.0),
        "multi_clp_speedup": quality.get("multi_clp_speedup", 0.0),
    }


def _traced(args, check, workloads, setup, job, ledger):
    from tracer import Tracer

    tracer = Tracer()
    clock = HostClock(calibrated=False)
    tracer.install()
    state = setup(args.seed)
    tracer.uninstall()
    untraced_s, _ = ledger.run(job, state, clock)
    tracer.install()
    traced_s, result = ledger.run(job, state, clock)
    tracer.uninstall()
    tracer.install_counters()
    ledger.run(job, state, clock)
    tracer.uninstall()
    metrics = tracer.metrics(result.results if result else [])
    metrics["trace.job_s"] = traced_s
    metrics["trace.untraced_job_s"] = untraced_s

    # The overlay ladder: the same seed with overlays added one at a
    # time to a bare event-engine run.
    rungs = {"bare": ()}
    for overlay in workloads.OVERLAYS:
        rungs[overlay] = rungs[list(rungs)[-1]] + (overlay,)
    for name, enabled in rungs.items():
        us_per_req = 0.0
        if getattr(state, "enabled", ()):
            started = time.perf_counter()
            rung = workloads.run_fleet(state, enabled, engine="event")
            elapsed = time.perf_counter() - started
            offered = sum(tenant.arrivals - tenant.retries - tenant.hedges
                          for tenant in rung.tenants)
            us_per_req = elapsed * 1e6 / offered
            errors = check.conservation_errors(
                workloads.traffic_digest(rung))
            ledger.attempted += 1
            ledger.failed += bool(errors)
        metrics[f"overlay.{name}.us_per_req"] = us_per_req
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only is not None:
        return _setup_only(args)

    check, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    setup, job = workloads.WORKLOADS[args.workload]

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    ledger = Ledger(check, check.load_reference(args.workload, args.seed))
    if args.trace:
        values = _traced(args, check, workloads, setup, job, ledger)
        wanted = spec["per_layer"]
    else:
        values = _measure(args, setup, job, ledger)
        wanted = spec["end_to_end"]
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
