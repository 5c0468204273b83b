"""Shared helpers for the paper-table benchmarks.

Every ``bench_*`` module regenerates one table or figure of the paper,
asserts the reproduction bands (who wins, by roughly what factor), and
writes the formatted artifact to ``benchmarks/results/`` so the numbers
quoted in README.md can be re-derived at any time.  Engine speed and
correctness gates live in ``tests/test_engine_gates.py``; throughput
over time is measured by ``perfbench/``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_artifact(results_dir):
    """Write a named artifact and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record
