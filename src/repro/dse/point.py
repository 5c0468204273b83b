"""Design points and sweep results: the records a sweep is made of.

A :class:`DesignPoint` pins every input of one optimizer run — network,
resolved resource budget, datatype, and optimizer settings — as a
frozen, hashable value object.  Its :meth:`DesignPoint.key` is a SHA-256
digest of the canonical JSON record, so the same point hashes to the
same key in every process and on every machine; that key is what makes
the on-disk result store resumable and incremental.

A :class:`SweepResult` wraps the worker's output for one point: either
the solved design's headline metrics (plus enough CLP detail to rebuild
the full :class:`~repro.core.design.MultiCLPDesign`) or the captured
optimization error for an infeasible point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.clp import CLPConfig
from ..core.datatypes import DataType
from ..core.design import MultiCLPDesign
from ..core.network import Network
from ..core.serialize import from_record, malformed, to_record
from ..fpga.parts import ResourceBudget, budget_for
from ..opt.driver import (
    DEFAULT_MAX_CLPS, DEFAULT_SLACK, DEFAULT_STEP, check_settings,
)
from ..opt.heuristics import get_ordering
from ..opt.worker import RESULT_SCHEMA_VERSION

__all__ = [
    "DesignPoint",
    "SweepResult",
    "canonical_json",
    "point_key",
    "METRIC_NAMES",
]

#: Short metric names accepted by :meth:`SweepResult.metric` (and hence
#: by the Pareto/grouping helpers in :mod:`repro.dse.analysis`).
METRIC_NAMES = (
    "throughput", "utilization", "dsp", "bram", "bandwidth",
    "epoch_cycles", "num_clps", "gflops",
)


def canonical_json(record: Dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def point_key(record: Dict[str, Any]) -> str:
    """Stable hash of a point record (process- and machine-independent)."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DesignPoint:
    """One fully-specified optimizer scenario in a sweep.

    The budget is stored *resolved* (DSP/BRAM counts, not an FPGA part
    name), so a point means the same thing even if the part catalog or
    budget fraction changes later; ``part`` is kept as a human label.
    """

    network: str
    dsp: int
    bram18k: int
    dtype: str = "float32"
    part: Optional[str] = None
    bandwidth_gbps: Optional[float] = None
    frequency_mhz: float = 100.0
    single: bool = False
    max_clps: int = DEFAULT_MAX_CLPS
    ordering: str = "auto"
    step: float = DEFAULT_STEP
    slack: float = DEFAULT_SLACK

    def __post_init__(self) -> None:
        # Canonicalize numeric types: the key is a hash of the JSON record,
        # and json renders 170 and 170.0 differently — an int-typed
        # frequency must hash identically to its float round-trip.
        object.__setattr__(self, "dsp", int(self.dsp))
        object.__setattr__(self, "bram18k", int(self.bram18k))
        object.__setattr__(self, "max_clps", int(self.max_clps))
        object.__setattr__(self, "frequency_mhz", float(self.frequency_mhz))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "slack", float(self.slack))
        object.__setattr__(self, "single", bool(self.single))
        if self.single:
            # A single-CLP run ignores the cap; canonicalize so the same
            # scenario hashes to one store key whatever cap it came with.
            object.__setattr__(self, "max_clps", 1)
        if self.bandwidth_gbps is not None:
            object.__setattr__(
                self, "bandwidth_gbps", float(self.bandwidth_gbps)
            )
        if self.dsp <= 0 or self.bram18k <= 0:
            raise ValueError("design point needs positive DSP and BRAM budgets")
        if self.max_clps < 1:
            raise ValueError("max_clps must be at least 1")
        check_settings(self.step, self.slack)
        DataType.from_name(self.dtype)  # validate early, not in the worker
        if self.ordering != "auto":
            get_ordering(self.ordering)  # unknown ordering fails here, loudly

    @classmethod
    def build(
        cls,
        network: str,
        part: Optional[str] = None,
        dsp: Optional[int] = None,
        bram18k: Optional[int] = None,
        fraction: float = 0.8,
        **kwargs: Any,
    ) -> "DesignPoint":
        """Make a point from either a catalog part or a synthetic budget.

        Exactly one of ``part`` or the ``dsp``/``bram18k`` pair must be
        given; a part is resolved through the paper's budget fraction.
        """
        if part is not None:
            if dsp is not None or bram18k is not None:
                raise ValueError("give either part or dsp/bram18k, not both")
            budget = budget_for(part, fraction=fraction)
            dsp, bram18k = budget.dsp, budget.bram18k
        elif dsp is None or bram18k is None:
            raise ValueError("a synthetic budget needs both dsp and bram18k")
        return cls(network=network, part=part, dsp=dsp, bram18k=bram18k, **kwargs)

    @property
    def budget_label(self) -> str:
        """Human-readable budget: the part name or the raw counts."""
        if self.part is not None:
            return self.part
        return f"{self.dsp}dsp/{self.bram18k}bram"

    @property
    def mode(self) -> str:
        return "single" if self.single else "multi"

    def budget(self) -> ResourceBudget:
        return ResourceBudget(
            dsp=self.dsp,
            bram18k=self.bram18k,
            bandwidth_gbps=self.bandwidth_gbps,
            frequency_mhz=self.frequency_mhz,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network,
            "part": self.part,
            "budget": to_record(self.budget()),
            "dtype": self.dtype,
            "single": self.single,
            "max_clps": self.max_clps,
            "ordering": self.ordering,
            "step": self.step,
            "slack": self.slack,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "DesignPoint":
        budget = from_record(ResourceBudget, record["budget"])
        return cls(
            network=record["network"],
            part=record.get("part"),
            dsp=budget.dsp,
            bram18k=budget.bram18k,
            dtype=record["dtype"],
            bandwidth_gbps=budget.bandwidth_gbps,
            frequency_mhz=budget.frequency_mhz,
            single=bool(record["single"]),
            max_clps=int(record["max_clps"]),
            ordering=record["ordering"],
            step=float(record["step"]),
            slack=float(record["slack"]),
        )

    def key(self) -> str:
        """Stable identity of this point in a result store."""
        return point_key(self.to_dict())


@dataclass(frozen=True)
class SweepResult:
    """The outcome of solving one design point."""

    point: DesignPoint
    ok: bool
    metrics: Optional[Dict[str, Any]] = None
    optimizer: Optional[Dict[str, Any]] = None
    clps: Tuple[Dict[str, Any], ...] = ()
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    elapsed_s: float = 0.0

    def metric(self, name: str) -> Optional[float]:
        """Metric lookup by short name (used by Pareto/grouping helpers)."""
        if not self.ok or self.metrics is None:
            return None
        aliases = {
            "throughput": "throughput_images_per_s",
            "utilization": "arithmetic_utilization",
            "bandwidth": "required_bandwidth_gbps",
        }
        return self.metrics.get(aliases.get(name, name))

    def design(self, network: Network) -> MultiCLPDesign:
        """Rebuild the full design against the point's network."""
        if not self.ok:
            raise ValueError(
                f"point {self.point.key()[:12]} has no design: "
                f"{self.error_type}: {self.error_message}"
            )
        dtype = DataType.from_name(self.point.dtype)
        with malformed(MultiCLPDesign.record_kind):
            clps = [
                CLPConfig.from_design_record(record, network, dtype)
                for record in self.clps
            ]
        return MultiCLPDesign(network=network, clps=clps, dtype=dtype)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "schema": RESULT_SCHEMA_VERSION,
            "key": self.point.key(),
            "point": self.point.to_dict(),
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }
        if self.ok:
            record["metrics"] = self.metrics
            record["optimizer"] = self.optimizer
            record["clps"] = list(self.clps)
        else:
            record["error"] = {
                "type": self.error_type,
                "message": self.error_message,
            }
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "SweepResult":
        schema = record.get("schema", RESULT_SCHEMA_VERSION)
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported sweep-result schema {schema!r}; "
                f"expected {RESULT_SCHEMA_VERSION}"
            )
        point = DesignPoint.from_dict(record["point"])
        if record["ok"]:
            return cls(
                point=point,
                ok=True,
                metrics=record["metrics"],
                optimizer=record.get("optimizer"),
                clps=tuple(record.get("clps", ())),
                elapsed_s=float(record.get("elapsed_s", 0.0)),
            )
        error = record.get("error", {})
        return cls(
            point=point,
            ok=False,
            error_type=error.get("type"),
            error_message=error.get("message"),
            elapsed_s=float(record.get("elapsed_s", 0.0)),
        )
