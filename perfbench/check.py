"""Output checks: recorded references and the request-conservation identity.

A reference file ``perfbench/reference/<workload>.json`` maps each
output name to the digest the workload produced when the reference was
recorded (``python3 perfbench/record.py``).  Traffic digests depend on
the seed, so traffic references are stored per seed; design points do
not, so the sweep's reference has a single entry, ``"any"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import LEDGER, REFERENCE_SEEDS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_key(workload: str, seed: int) -> str:
    return "any" if workload == "design-sweep" else str(seed % REFERENCE_SEEDS)


def load_reference(workload: str, seed: int) -> Dict[str, Any]:
    """The recorded outputs for this workload and seed."""
    with open(reference_path(workload)) as handle:
        return json.load(handle)[reference_key(workload, seed)]


def conservation_errors(digest: Any) -> List[str]:
    """Tenants of a traffic digest whose ledger does not balance."""
    errors = []
    if not isinstance(digest, dict):
        return errors
    for tenant, row in digest.items():
        if isinstance(row, dict) and LEDGER[0] in row:
            accounted = sum(row[name] for name in LEDGER[1:])
            if row[LEDGER[0]] != accounted:
                errors.append(
                    f"{tenant}: arrivals {row[LEDGER[0]]} != {accounted} "
                    "accounted")
    return errors


def check_outputs(outputs: Dict[str, Any],
                  reference: Dict[str, Any]) -> Tuple[int, List[str]]:
    """Compare one job's outputs with the reference.

    Every output name is one attempted item (a simulator call, a design
    point, or the JSON round trip).  Returns the number attempted
    and one problem line per failed item.
    """
    # A JSON round trip makes the outputs comparable with the file.
    outputs = json.loads(json.dumps(outputs))
    names = sorted(reference.keys() | outputs.keys())
    problems = []
    for name in names:
        if name not in outputs or name not in reference:
            problems.append(f"{name}: only one of output and reference has it")
            continue
        errors = conservation_errors(outputs[name])
        if outputs[name] != reference[name]:
            errors.append(f"differs from reference: {outputs[name]!r}")
        if errors:
            problems.append(f"{name}: " + "; ".join(errors))
    return len(names), problems
