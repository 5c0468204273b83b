"""Pure, picklable worker entry point for design-space exploration.

``evaluate_point_payload`` is the function a ``ProcessPoolExecutor``
ships to worker processes: a plain top-level callable (picklable by
reference) that maps one JSON-ready payload to one JSON-ready result.
The payload carries the serialized network alongside the design point,
so the worker depends only on ``core``/``fpga``/``opt`` — no network-zoo
lookup, and custom networks sweep exactly like built-in ones.

Infeasible points are a normal outcome of a sweep, not a crash:
``OptimizationError`` and ``ValueError`` (no design fits / the budget
cannot afford a single unit) are captured in the result record so one
bad point never kills a thousand-point run.  Anything else — TypeError,
ZeroDivisionError, a genuine optimizer bug — propagates and fails the
sweep loudly rather than being cached as a bogus "infeasible" record.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ..core.datatypes import DataType
from ..core.network import Network
from ..core.serialize import from_record
from ..fpga.parts import ResourceBudget
from .driver import OptimizationError, optimize_multi_clp

__all__ = ["evaluate_point_payload", "RESULT_SCHEMA_VERSION"]

#: Version tag written into every result record for forward evolution.
RESULT_SCHEMA_VERSION = 1


def evaluate_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Solve one design point; never raises for infeasible points.

    ``payload`` has two keys: ``point`` (a ``DesignPoint`` record, see
    :mod:`repro.dse.point`) and ``network`` (a serialized network).  The
    returned record is self-contained and JSON-serializable.
    """
    point = payload["point"]
    network = from_record(Network, payload["network"])
    budget = from_record(ResourceBudget, point["budget"])
    dtype = DataType.from_name(point["dtype"])
    max_clps = 1 if point["single"] else int(point["max_clps"])

    started = time.perf_counter()
    try:
        design, report = optimize_multi_clp(
            network,
            budget,
            dtype,
            max_clps=max_clps,
            ordering=point["ordering"],
            step=float(point["step"]),
            slack=float(point["slack"]),
            return_report=True,
        )
    except (OptimizationError, ValueError) as exc:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "point": point,
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "elapsed_s": round(time.perf_counter() - started, 6),
        }

    # metrics() accounts for the bandwidth cap (if any): the epoch is the
    # bandwidth-bound one, so capped points report achievable throughput,
    # not the compute-only upper bound.
    slack = float(point["slack"])
    metrics = design.metrics(budget, slack)
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "point": point,
        "ok": True,
        "metrics": {
            "epoch_cycles": metrics.epoch_cycles,
            "throughput_images_per_s": metrics.throughput_images_per_s,
            "arithmetic_utilization": metrics.arithmetic_utilization,
            "dsp": design.dsp,
            "bram": design.bram,
            "num_clps": design.num_clps,
            "required_bandwidth_gbps": design.required_bandwidth_gbps(
                budget.frequency_mhz, slack
            ),
            "gflops": metrics.gflops,
        },
        "optimizer": {
            "target": report.target,
            "iterations": report.iterations,
            "candidates_evaluated": report.candidates_evaluated,
        },
        "clps": [clp.design_record() for clp in design.clps],
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
