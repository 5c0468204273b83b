"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's job once per reference seed (once in all for the
design sweep, whose outputs do not depend on the seed) and writes
``perfbench/reference/<workload>.json``.  Re-record only when a change
is meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402


def record(workload: str) -> None:
    setup, job = workloads.WORKLOADS[workload]
    seeds = [0] if workload == "design-sweep" else range(
        workloads.REFERENCE_SEEDS)
    reference = {}
    for seed in seeds:
        outputs = job(setup(seed), HostClock(calibrated=False)).outputs
        for name, digest in outputs.items():
            errors = check.conservation_errors(digest)
            if errors:
                raise SystemExit(f"{workload} seed {seed} {name}: {errors}")
        reference[check.reference_key(workload, seed)] = outputs
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    path = check.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
