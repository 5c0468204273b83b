"""Tests of the benchmark's output checker.

    python3 -m pytest perfbench/test_check.py -q
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402

REFERENCE = check.load_reference("drill-fleet", 0)


def _failures(outputs):
    attempted, problems = check.check_outputs(outputs, REFERENCE)
    assert attempted == len(REFERENCE)
    return problems


def test_reference_outputs_pass():
    assert _failures(copy.deepcopy(REFERENCE)) == []


def test_completion_moved_to_drops_is_a_failure():
    outputs = copy.deepcopy(REFERENCE)
    row = outputs["fleet"]["AlexNet"]
    row["completions"] -= 1
    row["drops"] += 1
    # The ledger still balances; only the reference catches the move.
    assert check.conservation_errors(outputs["fleet"]) == []
    problems = _failures(outputs)
    assert len(problems) == 1
    assert problems[0].startswith("fleet: differs from reference")


def test_unbalanced_ledger_is_a_failure():
    outputs = copy.deepcopy(REFERENCE)
    outputs["fleet"]["SqueezeNet"]["completions"] -= 1
    assert check.conservation_errors(outputs["fleet"]) == [
        f"SqueezeNet: arrivals {outputs['fleet']['SqueezeNet']['arrivals']}"
        f" != {outputs['fleet']['SqueezeNet']['arrivals'] - 1} accounted"
    ]
    assert len(_failures(outputs)) == 1


def test_missing_and_unexpected_outputs_are_failures():
    outputs = copy.deepcopy(REFERENCE)
    outputs["extra"] = outputs.pop("fleet")
    attempted, problems = check.check_outputs(outputs, REFERENCE)
    assert attempted == len(REFERENCE) + 1
    assert len(problems) == 2


def test_other_seeds_share_a_reference_modulo_the_recorded_count():
    seeds = check.REFERENCE_SEEDS
    assert check.reference_key("wide-fleet", seeds + 3) == "3"
    assert check.reference_key("design-sweep", 7) == "any"
