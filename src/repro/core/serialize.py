"""JSON (de)serialization of networks, CLPs, and designs.

Optimization runs are cheap but not free; a deployment flow wants to
pin the chosen accelerator configuration in version control and reload
it for HLS generation, simulation, or scheduling without re-searching.
The format is plain JSON with a schema version for forward evolution.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .clp import CLPConfig
from .datatypes import DataType
from .design import MultiCLPDesign
from .layer import ConvLayer
from .network import Network

__all__ = [
    "layer_to_dict",
    "layer_from_dict",
    "network_to_dict",
    "network_from_dict",
    "clp_to_dict",
    "clp_from_dict",
    "budget_to_dict",
    "budget_from_dict",
    "design_to_dict",
    "design_from_dict",
    "dump_design",
    "load_design",
    "serve_result_to_dict",
    "serve_result_from_dict",
    "dump_serve_result",
    "load_serve_result",
    "fleet_result_to_dict",
    "fleet_result_from_dict",
    "dump_fleet_result",
    "load_fleet_result",
    "timeseries_to_dict",
    "timeseries_from_dict",
    "scenario_spec_to_dict",
    "scenario_spec_from_dict",
    "slo_spec_to_dict",
    "slo_spec_from_dict",
    "SCHEMA_VERSION",
    "SERVE_SCHEMA_VERSION",
    "FLEET_SCHEMA_VERSION",
    "SCENARIO_SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

SERVE_SCHEMA_VERSION = 1

FLEET_SCHEMA_VERSION = 1

SCENARIO_SCHEMA_VERSION = 1


def layer_to_dict(layer: ConvLayer) -> Dict[str, Any]:
    return {
        "name": layer.name,
        "n": layer.n,
        "m": layer.m,
        "r": layer.r,
        "c": layer.c,
        "k": layer.k,
        "s": layer.s,
    }


def layer_from_dict(data: Dict[str, Any]) -> ConvLayer:
    try:
        return ConvLayer(
            name=data["name"],
            n=int(data["n"]),
            m=int(data["m"]),
            r=int(data["r"]),
            c=int(data["c"]),
            k=int(data["k"]),
            s=int(data["s"]),
        )
    except KeyError as missing:
        raise ValueError(f"layer record missing field {missing}") from None


def network_to_dict(network: Network) -> Dict[str, Any]:
    return {
        "name": network.name,
        "layers": [layer_to_dict(layer) for layer in network],
    }


def network_from_dict(data: Dict[str, Any]) -> Network:
    return Network(
        data["name"], [layer_from_dict(entry) for entry in data["layers"]]
    )


def clp_to_dict(clp: CLPConfig) -> Dict[str, Any]:
    """A JSON-ready CLP record; layers are referenced by name."""
    return {
        "tn": clp.tn,
        "tm": clp.tm,
        "layers": list(clp.layer_names),
        "tile_plans": [list(plan) for plan in clp.tile_plans],
    }


def clp_from_dict(
    record: Dict[str, Any], network: Network, dtype: DataType
) -> CLPConfig:
    """Rebuild a CLP from its record, resolving layer names in ``network``."""
    layers = [network.layer_by_name(name) for name in record["layers"]]
    return CLPConfig(
        tn=int(record["tn"]),
        tm=int(record["tm"]),
        layers=layers,
        dtype=dtype,
        tile_plans=[tuple(plan) for plan in record["tile_plans"]],
    )


def budget_to_dict(budget: "ResourceBudget") -> Dict[str, Any]:
    return {
        "dsp": budget.dsp,
        "bram18k": budget.bram18k,
        "bandwidth_gbps": budget.bandwidth_gbps,
        "frequency_mhz": budget.frequency_mhz,
    }


def budget_from_dict(data: Dict[str, Any]) -> "ResourceBudget":
    from ..fpga.parts import ResourceBudget

    return ResourceBudget(
        dsp=int(data["dsp"]),
        bram18k=int(data["bram18k"]),
        bandwidth_gbps=(
            None if data.get("bandwidth_gbps") is None
            else float(data["bandwidth_gbps"])
        ),
        frequency_mhz=float(data.get("frequency_mhz", 100.0)),
    )


def design_to_dict(design: MultiCLPDesign) -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a design."""
    return {
        "schema": SCHEMA_VERSION,
        "dtype": design.dtype.label,
        "network": network_to_dict(design.network),
        "clps": [clp_to_dict(clp) for clp in design.clps],
        # Redundant summary fields for human diffing; ignored on load.
        "summary": {
            "epoch_cycles": design.epoch_cycles,
            "dsp": design.dsp,
            "bram": design.bram,
            "utilization": design.arithmetic_utilization,
        },
    }


def design_from_dict(data: Dict[str, Any]) -> MultiCLPDesign:
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported design schema {schema!r}; expected {SCHEMA_VERSION}"
        )
    network = network_from_dict(data["network"])
    dtype = DataType.from_name(data["dtype"])
    clps: List[CLPConfig] = [
        clp_from_dict(record, network, dtype) for record in data["clps"]
    ]
    return MultiCLPDesign(network=network, clps=clps, dtype=dtype)


def serve_result_to_dict(result: "ServeResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a traffic simulation.

    Load-test results are evidence: pinning them next to the design they
    exercised lets a deployment diff serving behaviour across optimizer
    or model changes the same way it diffs designs.
    """
    from dataclasses import asdict

    record = asdict(result)
    # Unobserved runs must serialize byte-identically to pre-obs
    # records, so the optional telemetry key is dropped when empty.
    if record.get("timeseries") is None:
        record.pop("timeseries", None)
    _prune_overload_keys(record)
    record["schema"] = SERVE_SCHEMA_VERSION
    return record


#: TenantStats fields introduced by overload control (and, later, by
#: the failure detector's timeout/failover classes).  Every one is zero
#: for a run with none of those features active, and every loader
#: defaults an absent key to zero — so dropping zero-valued keys keeps
#: plain records byte-identical to pre-overload records without losing
#: information.
_OVERLOAD_TENANT_KEYS = (
    "rejected", "expired", "retries", "hedges", "late", "priority",
    "timed_out", "failed_over",
)


def _prune_overload_keys(record: Dict[str, Any]) -> None:
    """Strip overload-era keys that carry no information, in place.

    Applies the same contract as the optional ``timeseries`` key to the
    overload additions: a record written from an overload-free run must
    be byte-identical to one written before overload control existed.
    Mutates ``record`` (a serve- or fleet-result dict from ``asdict``).
    """
    if record.get("overload") is None:
        record.pop("overload", None)
    for tenant in record.get("tenants", ()):
        for key in _OVERLOAD_TENANT_KEYS:
            if tenant.get(key) == 0:
                tenant.pop(key, None)
    for replica in record.get("replicas", ()):
        for tenant in replica.get("tenants", ()):
            for key in _OVERLOAD_TENANT_KEYS:
                if tenant.get(key) == 0:
                    tenant.pop(key, None)


def _tenant_stats_from_dict(entry: Dict[str, Any]) -> "TenantStats":
    """Rebuild one per-tenant record (shared by serve and fleet loaders)."""
    from ..serve.metrics import LatencySummary, TenantStats

    latency = entry.get("latency")
    return TenantStats(
        name=entry["name"],
        offered_rate_per_cycle=float(entry["offered_rate_per_cycle"]),
        arrivals=int(entry["arrivals"]),
        completions=int(entry["completions"]),
        drops=int(entry["drops"]),
        in_flight=int(entry["in_flight"]),
        latency=None if latency is None else LatencySummary(**latency),
        mean_queue_depth=float(entry["mean_queue_depth"]),
        peak_queue_depth=int(entry["peak_queue_depth"]),
        steady_rate_per_cycle=(
            None
            if entry.get("steady_rate_per_cycle") is None
            else float(entry["steady_rate_per_cycle"])
        ),
        # Absent in pre-scenario records: those runs could not lose
        # requests to failures, so 0 is the true historical value.
        lost=int(entry.get("lost", 0)),
        # Absent in pre-overload records (and in overload-free records,
        # which prune zero-valued keys); 0 is the true historical value.
        rejected=int(entry.get("rejected", 0)),
        expired=int(entry.get("expired", 0)),
        retries=int(entry.get("retries", 0)),
        hedges=int(entry.get("hedges", 0)),
        late=int(entry.get("late", 0)),
        priority=int(entry.get("priority", 0)),
        timed_out=int(entry.get("timed_out", 0)),
        failed_over=int(entry.get("failed_over", 0)),
    )


def timeseries_to_dict(timeseries: "TimeSeries") -> Dict[str, Any]:
    """JSON-ready record of run telemetry (standalone; results embed
    the same shape via ``asdict``)."""
    from dataclasses import asdict

    return asdict(timeseries)


def timeseries_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["TimeSeries"]:
    """Rebuild telemetry from a result record; tolerant of absence.

    Pre-obs run records have no ``timeseries`` key at all — callers pass
    ``data.get("timeseries")`` and get ``None`` back, the historical
    truth for unobserved runs.
    """
    if data is None:
        return None
    from ..obs.telemetry import HistogramSummary, TimeSeries

    series = {
        name: tuple(
            None if value is None else float(value) for value in values
        )
        for name, values in data["series"].items()
    }
    histograms = {
        name: HistogramSummary(
            edges=tuple(float(edge) for edge in entry["edges"]),
            counts=tuple(int(count) for count in entry["counts"]),
        )
        for name, entry in data.get("histograms", {}).items()
    }
    return TimeSeries(
        window_cycles=float(data["window_cycles"]),
        times=tuple(float(t) for t in data["times"]),
        series=series,
        histograms=histograms,
    )


def _malformed(kind: str, exc: Exception) -> ValueError:
    """One clear error for a run record that lacks a key or has a bad value.

    Names the record kind and, for a missing key, the key, so ``repro
    report`` says which record failed instead of printing a bare key.
    """
    if isinstance(exc, KeyError):
        return ValueError(
            f"malformed {kind} run record: missing key {exc.args[0]!r}"
        )
    return ValueError(f"malformed {kind} run record: {exc}")


def serve_result_from_dict(data: Dict[str, Any]) -> "ServeResult":
    from ..serve.metrics import ServeResult

    schema = data.get("schema")
    if schema != SERVE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported serve-result schema {schema!r}; "
            f"expected {SERVE_SCHEMA_VERSION}"
        )
    try:
        tenants = [_tenant_stats_from_dict(entry) for entry in data["tenants"]]
        return ServeResult(
            design_label=data["design_label"],
            num_clps=int(data["num_clps"]),
            epoch_cycles=float(data["epoch_cycles"]),
            pipeline_depths=tuple(int(d) for d in data["pipeline_depths"]),
            frequency_mhz=float(data["frequency_mhz"]),
            horizon_cycles=float(data["horizon_cycles"]),
            elapsed_cycles=float(data["elapsed_cycles"]),
            seed=int(data["seed"]),
            queue_depth=int(data["queue_depth"]),
            policy=data["policy"],
            drained=bool(data["drained"]),
            tenants=tuple(tenants),
            clp_busy_fraction=tuple(
                float(f) for f in data["clp_busy_fraction"]
            ),
            timeseries=timeseries_from_dict(data.get("timeseries")),
            overload=_overload_from_dict(data.get("overload")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed("serve", exc) from exc


def _overload_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["OverloadReport"]:
    if data is None:
        return None
    from ..serve.overload import overload_report_from_dict

    return overload_report_from_dict(data)


def fleet_result_to_dict(result: "FleetResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a fleet simulation.

    Same rationale as serve results: a capacity decision ("4 boards of
    this design meet the SLO") is evidence worth pinning next to the
    design and traffic assumptions it was derived from.
    """
    from dataclasses import asdict

    record = asdict(result)
    # Same contract as serve records: no telemetry key unless observed.
    if record.get("timeseries") is None:
        record.pop("timeseries", None)
    _prune_overload_keys(record)
    # Detector-era keys follow the same discipline: absent unless the
    # run actually carried a detector / measured a detection lag, so
    # legacy records re-serialize byte-identically.
    if record.get("detector") is None:
        record.pop("detector", None)
    resilience = record.get("resilience")
    if (
        resilience is not None
        and resilience.get("mean_time_to_detect_cycles") is None
    ):
        resilience.pop("mean_time_to_detect_cycles", None)
    record["schema"] = FLEET_SCHEMA_VERSION
    return record


def fleet_result_from_dict(data: Dict[str, Any]) -> "FleetResult":
    from ..fleet.metrics import FleetResult, ReplicaStats

    schema = data.get("schema")
    if schema != FLEET_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported fleet-result schema {schema!r}; "
            f"expected {FLEET_SCHEMA_VERSION}"
        )
    try:
        replicas = [
            ReplicaStats(
                label=entry["label"],
                part=entry.get("part"),
                epoch_cycles=float(entry["epoch_cycles"]),
                pipeline_depths=tuple(
                    int(d) for d in entry["pipeline_depths"]
                ),
                tenants=tuple(
                    _tenant_stats_from_dict(t) for t in entry["tenants"]
                ),
                clp_busy_fraction=tuple(
                    float(f) for f in entry["clp_busy_fraction"]
                ),
            )
            for entry in data["replicas"]
        ]
        return FleetResult(
            balancer=data["balancer"],
            num_replicas=int(data["num_replicas"]),
            frequency_mhz=float(data["frequency_mhz"]),
            horizon_cycles=float(data["horizon_cycles"]),
            elapsed_cycles=float(data["elapsed_cycles"]),
            seed=int(data["seed"]),
            queue_depth=int(data["queue_depth"]),
            policy=data["policy"],
            drained=bool(data["drained"]),
            tenants=tuple(
                _tenant_stats_from_dict(entry) for entry in data["tenants"]
            ),
            replicas=tuple(replicas),
            scenario=data.get("scenario"),
            incidents=tuple(
                _incident_from_dict(entry)
                for entry in data.get("incidents", ())
            ),
            resilience=_resilience_from_dict(data.get("resilience")),
            timeseries=timeseries_from_dict(data.get("timeseries")),
            overload=_overload_from_dict(data.get("overload")),
            detector=_detector_from_dict(data.get("detector")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed("fleet", exc) from exc


def _detector_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["DetectorSpec"]:
    if data is None:
        return None
    from ..fleet.detector import detector_spec_from_dict

    return detector_spec_from_dict(data)


def _incident_from_dict(entry: Dict[str, Any]) -> "Incident":
    from ..scenario.faults import Incident

    return Incident(
        kind=entry["kind"],
        target=entry["target"],
        start_cycles=float(entry["start_cycles"]),
        end_cycles=float(entry["end_cycles"]),
        recovered=bool(entry["recovered"]),
    )


def _resilience_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["ResilienceReport"]:
    if data is None:
        return None
    from ..scenario.resilience import ResilienceReport, WindowMetrics

    def window(entry: Dict[str, Any]) -> WindowMetrics:
        return WindowMetrics(
            cycles=float(entry["cycles"]),
            completions=int(entry["completions"]),
            goodput_per_cycle=float(entry["goodput_per_cycle"]),
            p99_cycles=(
                None if entry.get("p99_cycles") is None
                else float(entry["p99_cycles"])
            ),
            p50_cycles=(
                None if entry.get("p50_cycles") is None
                else float(entry["p50_cycles"])
            ),
        )

    ttr = data.get("mean_time_to_recover_cycles")
    ttd = data.get("mean_time_to_detect_cycles")
    return ResilienceReport(
        availability=float(data["availability"]),
        incident_cycles=float(data["incident_cycles"]),
        lost_requests=int(data["lost_requests"]),
        mean_time_to_recover_cycles=None if ttr is None else float(ttr),
        during=window(data["during"]),
        outside=window(data["outside"]),
        mean_time_to_detect_cycles=None if ttd is None else float(ttd),
    )


def scenario_spec_to_dict(spec: "ScenarioSpec") -> Dict[str, Any]:
    """JSON-ready record of a scenario spec (faults, surge, policy)."""
    from ..scenario.library import scenario_to_dict

    record = scenario_to_dict(spec)
    record["schema"] = SCENARIO_SCHEMA_VERSION
    return record


def scenario_spec_from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
    """Rebuild a scenario spec written by :func:`scenario_spec_to_dict`."""
    from ..scenario.library import scenario_from_dict

    schema = data.get("schema", SCENARIO_SCHEMA_VERSION)
    if schema != SCENARIO_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported scenario schema {schema!r}; "
            f"expected {SCENARIO_SCHEMA_VERSION}"
        )
    return scenario_from_dict(data)


def slo_spec_to_dict(slo: "SLOSpec") -> Dict[str, Any]:
    """JSON-ready record of an SLO contract.

    The overload-era clauses (``deadline_ms``, ``min_goodput_rps``) are
    emitted only when set, so a spec using none of them serializes to
    exactly the record a pre-overload writer would have produced — and
    a legacy record round-trips byte-identically.
    """
    record: Dict[str, Any] = {
        "p99_ms": slo.p99_ms,
        "max_drop_rate": slo.max_drop_rate,
        "min_throughput_rps": slo.min_throughput_rps,
    }
    if slo.deadline_ms is not None:
        record["deadline_ms"] = slo.deadline_ms
    if slo.min_goodput_rps is not None:
        record["min_goodput_rps"] = slo.min_goodput_rps
    return record


def slo_spec_from_dict(data: Dict[str, Any]) -> "SLOSpec":
    """Rebuild an SLO spec; tolerant of records missing newer clauses."""
    from ..serve.slo import SLOSpec

    def opt(key: str) -> Optional[float]:
        value = data.get(key)
        return None if value is None else float(value)

    return SLOSpec(
        p99_ms=opt("p99_ms"),
        max_drop_rate=float(data.get("max_drop_rate", 0.0)),
        min_throughput_rps=opt("min_throughput_rps"),
        deadline_ms=opt("deadline_ms"),
        min_goodput_rps=opt("min_goodput_rps"),
    )


def dump_fleet_result(result: "FleetResult", path: str) -> None:
    """Write a fleet-simulation result to a JSON file."""
    with open(path, "w") as handle:
        json.dump(fleet_result_to_dict(result), handle, indent=2)
        handle.write("\n")


def load_fleet_result(path: str) -> "FleetResult":
    """Load a result written by :func:`dump_fleet_result`."""
    with open(path) as handle:
        return fleet_result_from_dict(json.load(handle))


def dump_serve_result(result: "ServeResult", path: str) -> None:
    """Write a traffic-simulation result to a JSON file."""
    with open(path, "w") as handle:
        json.dump(serve_result_to_dict(result), handle, indent=2)
        handle.write("\n")


def load_serve_result(path: str) -> "ServeResult":
    """Load a result written by :func:`dump_serve_result`."""
    with open(path) as handle:
        return serve_result_from_dict(json.load(handle))


def dump_design(design: MultiCLPDesign, path: str) -> None:
    """Write a design to a JSON file."""
    with open(path, "w") as handle:
        json.dump(design_to_dict(design), handle, indent=2)
        handle.write("\n")


def load_design(path: str) -> MultiCLPDesign:
    """Load a design from a JSON file written by :func:`dump_design`."""
    with open(path) as handle:
        return design_from_dict(json.load(handle))
