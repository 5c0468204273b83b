"""JSON (de)serialization of designs, run records, and specs.

Optimization runs are cheap but not free; a deployment flow wants to
pin the chosen accelerator configuration in version control and reload
it for HLS generation, simulation, or scheduling without re-searching.
The format is plain JSON with a schema version for forward evolution.

Designs (layer, network, CLP, budget, design) have hand-written
loaders, because CLP records refer to the network's layers by name.
Every other record — serve and fleet results with everything they
embed, scenario, fault, surge, overload, detector and SLO specs — goes
through one codec driven by the dataclass fields and their type hints
(:func:`to_record` / :func:`from_record`).  The codec's contract:

1. A field declared with :func:`omit_default` is left out of the record
   when it equals its default, so a record written by a run that never
   used a later feature is byte-identical to one written before it.
2. An absent key loads as the field's default (``None`` for an
   ``Optional`` field without one).
3. Unknown keys are ignored (forward compatibility).
4. A missing required key or a mistyped value raises
   ``ValueError("malformed <kind> record: ...")`` naming the key.
"""

from __future__ import annotations

import json
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, field, fields, is_dataclass
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

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
    "omit_default",
    "to_record",
    "from_record",
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

T = TypeVar("T")


class _MalformedRecord(ValueError):
    """The one error a bad record raises; a ``ValueError`` for callers."""


# ------------------------------------------------------------------ designs
@contextmanager
def _design_record() -> Iterator[None]:
    """Turn a design loader's bare lookup/conversion error into a
    ``malformed design record`` error naming the missing key."""
    try:
        yield
    except _MalformedRecord:
        raise
    except KeyError as exc:
        raise _MalformedRecord(
            f"malformed design record: missing key {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise _MalformedRecord(f"malformed design record: {exc}") from None


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
    with _design_record():
        return ConvLayer(
            name=data["name"],
            n=int(data["n"]),
            m=int(data["m"]),
            r=int(data["r"]),
            c=int(data["c"]),
            k=int(data["k"]),
            s=int(data["s"]),
        )


def network_to_dict(network: Network) -> Dict[str, Any]:
    return {
        "name": network.name,
        "layers": [layer_to_dict(layer) for layer in network],
    }


def network_from_dict(data: Dict[str, Any]) -> Network:
    with _design_record():
        return Network(
            data["name"],
            [layer_from_dict(entry) for entry in data["layers"]],
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
    with _design_record():
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

    with _design_record():
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
    _check_schema(data, SCHEMA_VERSION, "design")
    with _design_record():
        network = network_from_dict(data["network"])
        dtype = DataType.from_name(data["dtype"])
        clps: List[CLPConfig] = [
            clp_from_dict(record, network, dtype) for record in data["clps"]
        ]
        return MultiCLPDesign(network=network, clps=clps, dtype=dtype)


# ------------------------------------------------------------- record codec
_OMIT = "omit_default"


def omit_default(default: Any) -> Any:
    """A dataclass field that records leave out while it equals ``default``."""
    return field(default=default, metadata={_OMIT: True})


class _Bad(Exception):
    """A decoding failure; ``path`` collects the keys, innermost first."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail
        self.path: List[Union[str, int]] = []


def _expect(value: Any, name: str, *types: type) -> Any:
    if type(value) in types:
        return value
    got = f"{type(value).__name__} {reprlib.repr(value)}"
    raise _Bad(f"expected {name}, got {got}")


def _scalar(name: str, *types: type) -> Callable[[Any], Any]:
    def decode(value: Any) -> Any:
        return value if type(value) in types else _expect(value, name, *types)

    return decode


#: The JSON types each scalar hint accepts.  Values load unchanged (an
#: int fits a float field), so a loaded record re-dumps byte for byte.
_JSON_TYPES = {int: (int,), float: (float, int), str: (str,), bool: (bool,)}

_Encode = Optional[Callable[[Any], Any]]
_Decode = Callable[[Any], Any]


def _sequence(decode: _Decode) -> _Decode:
    def load(value: Any) -> Tuple[Any, ...]:
        items = []
        for index, item in enumerate(_expect(value, "a list", list, tuple)):
            try:
                items.append(decode(item))
            except _Bad as exc:
                exc.path.append(index)
                raise
        return tuple(items)

    return load


def _mapping(decode: _Decode) -> _Decode:
    def load(value: Any) -> Dict[str, Any]:
        items = {}
        for key, item in _expect(value, "an object", dict).items():
            try:
                items[key] = decode(item)
            except _Bad as exc:
                exc.path.append(key)
                raise
        return items

    return load


def _codec(hint: Any) -> Tuple[_Encode, _Decode]:
    """``(encode, decode)`` for one field type; ``encode`` is ``None``
    where the value is already JSON-ready."""
    if hint in _JSON_TYPES:
        return None, _scalar(hint.__name__, *_JSON_TYPES[hint])
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        if inner in _JSON_TYPES:
            name = f"{inner.__name__} or null"
            return None, _scalar(name, *_JSON_TYPES[inner], type(None))
        encode, decode = _codec(inner)
        return (
            None if encode is None
            else lambda value: None if value is None else encode(value),
            lambda value: None if value is None else decode(value),
        )
    if origin is tuple:  # Tuple[X, ...]
        encode, decode = _codec(args[0])
        return (
            list if encode is None
            else lambda value: [encode(item) for item in value],
            _sequence(decode),
        )
    if origin is dict:  # Dict[str, X]
        encode, decode = _codec(args[1])
        return (
            dict if encode is None
            else lambda value: {k: encode(v) for k, v in value.items()},
            _mapping(decode),
        )
    if isinstance(hint, type) and (is_dataclass(hint) or hasattr(hint, "kind")):
        schema = _schema(hint)
        return schema.encode, schema.decode
    return None, lambda value: value


_REQUIRED = object()
_DEFAULT = object()


class _Record:
    """The codec of one record dataclass, resolved once per class.

    A dataclass with a string ``kind`` class attribute (a fault or a
    surge shape) writes it as a leading ``kind`` key.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        hints = get_type_hints(cls, localns=_forward_refs())
        self.tag = getattr(cls, "kind", None)
        self.writes: List[Tuple[str, _Encode, bool, Any]] = []
        self.reads: List[Tuple[str, _Decode, Any]] = []
        for spec in fields(cls):
            encode, decode = _codec(hints[spec.name])
            if spec.default is not MISSING or spec.default_factory is not MISSING:
                absent = _DEFAULT
            else:  # ``Optional`` loads as None, anything else is required
                optional = type(None) in get_args(hints[spec.name])
                absent = None if optional else _REQUIRED
            self.writes.append(
                (spec.name, encode, spec.metadata.get(_OMIT, False), spec.default)
            )
            self.reads.append((spec.name, decode, absent))

    def encode(self, value: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {} if self.tag is None else {"kind": self.tag}
        for name, encode, omit, default in self.writes:
            item = getattr(value, name)
            if omit and item == default:
                continue
            record[name] = item if encode is None else encode(item)
        return record

    def decode(self, data: Any) -> Any:
        _expect(data, "an object", dict)
        kwargs = {}
        for name, decode, absent in self.reads:
            if name in data:
                try:
                    kwargs[name] = decode(data[name])
                except _Bad as exc:
                    exc.path.append(name)
                    raise
            elif absent is _REQUIRED:
                raise _Bad(f"missing key {name!r}")
            elif absent is None:
                kwargs[name] = None
        try:
            return self.cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise _Bad(str(exc)) from None


class _Tagged:
    """The codec of a kind-tagged base class: dispatch on ``kind``."""

    def __init__(self, base: type) -> None:
        self.kinds = {sub.kind: _schema(sub) for sub in _concrete(base)}

    def encode(self, value: Any) -> Dict[str, Any]:
        return _schema(type(value)).encode(value)

    def decode(self, data: Any) -> Any:
        if "kind" not in _expect(data, "an object", dict):
            raise _Bad("missing key 'kind'")
        schema = self.kinds.get(data["kind"])
        if schema is None:
            known = ", ".join(self.kinds)
            raise _Bad(f"unknown kind {data['kind']!r}; known: {known}")
        return schema.decode(data)


def _concrete(base: type) -> Iterator[type]:
    """``base``'s dataclass subclasses that set their own ``kind``."""
    for sub in base.__subclasses__():
        if is_dataclass(sub) and "kind" in vars(sub):
            yield sub
        yield from _concrete(sub)


_SCHEMAS: Dict[type, Union[_Record, _Tagged]] = {}


def _schema(cls: type) -> Union[_Record, _Tagged]:
    schema = _SCHEMAS.get(cls)
    if schema is None:
        schema = _Record(cls) if is_dataclass(cls) else _Tagged(cls)
        _SCHEMAS[cls] = schema
    return schema


@lru_cache(maxsize=None)
def _forward_refs() -> Dict[str, type]:
    """Record types that result modules import only for type checking."""
    from ..fleet.detector import DetectorSpec
    from ..obs.telemetry import TimeSeries
    from ..serve.overload import OverloadReport

    return {
        "DetectorSpec": DetectorSpec,
        "OverloadReport": OverloadReport,
        "TimeSeries": TimeSeries,
    }


def to_record(value: Any) -> Dict[str, Any]:
    """The JSON-ready record of a record dataclass (see module docs)."""
    return _schema(type(value)).encode(value)


def from_record(cls: Type[T], data: Any, kind: str) -> T:
    """Rebuild a ``cls`` from its record; ``kind`` names it in errors."""
    try:
        return _schema(cls).decode(data)
    except _Bad as exc:
        where = "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}"
            for step in reversed(exc.path)
        ).lstrip(".")
        at = f" at {where}" if where else ""
        raise _MalformedRecord(
            f"malformed {kind} record: {exc.detail}{at}"
        ) from None


def _check_schema(
    data: Any, expected: int, label: str, default: Optional[int] = None
) -> None:
    schema = data.get("schema", default) if isinstance(data, dict) else None
    if schema != expected:
        raise ValueError(
            f"unsupported {label} schema {schema!r}; expected {expected}"
        )


# --------------------------------------------------------- run records
def serve_result_to_dict(result: "ServeResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a traffic simulation.

    Load-test results are evidence: pinning them next to the design they
    exercised lets a deployment diff serving behaviour across optimizer
    or model changes the same way it diffs designs.
    """
    record = to_record(result)
    record["schema"] = SERVE_SCHEMA_VERSION
    return record


def serve_result_from_dict(data: Dict[str, Any]) -> "ServeResult":
    from ..serve.metrics import ServeResult

    _check_schema(data, SERVE_SCHEMA_VERSION, "serve-result")
    return from_record(ServeResult, data, "serve run")


def fleet_result_to_dict(result: "FleetResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a fleet simulation.

    Same rationale as serve results: a capacity decision ("4 boards of
    this design meet the SLO") is evidence worth pinning next to the
    design and traffic assumptions it was derived from.
    """
    record = to_record(result)
    record["schema"] = FLEET_SCHEMA_VERSION
    return record


def fleet_result_from_dict(data: Dict[str, Any]) -> "FleetResult":
    from ..fleet.metrics import FleetResult

    _check_schema(data, FLEET_SCHEMA_VERSION, "fleet-result")
    return from_record(FleetResult, data, "fleet run")


def timeseries_to_dict(timeseries: "TimeSeries") -> Dict[str, Any]:
    """JSON-ready record of run telemetry (results embed the same shape)."""
    return to_record(timeseries)


def timeseries_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["TimeSeries"]:
    """Rebuild telemetry; ``None`` (an unobserved run) stays ``None``."""
    from ..obs.telemetry import TimeSeries

    return None if data is None else from_record(TimeSeries, data, "telemetry")


def scenario_spec_to_dict(spec: "ScenarioSpec") -> Dict[str, Any]:
    """JSON-ready record of a scenario spec (faults, surge, policy)."""
    record = to_record(spec)
    record["schema"] = SCENARIO_SCHEMA_VERSION
    return record


def scenario_spec_from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
    """Rebuild a scenario spec written by :func:`scenario_spec_to_dict`."""
    from ..scenario.library import ScenarioSpec

    _check_schema(data, SCENARIO_SCHEMA_VERSION, "scenario",
                  default=SCENARIO_SCHEMA_VERSION)
    return from_record(ScenarioSpec, data, "scenario")


def slo_spec_to_dict(slo: "SLOSpec") -> Dict[str, Any]:
    """JSON-ready record of an SLO contract."""
    return to_record(slo)


def slo_spec_from_dict(data: Dict[str, Any]) -> "SLOSpec":
    """Rebuild an SLO spec; tolerant of records missing newer clauses."""
    from ..serve.slo import SLOSpec

    return from_record(SLOSpec, data, "SLO spec")


def _dump(record: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def _load(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def dump_fleet_result(result: "FleetResult", path: str) -> None:
    """Write a fleet-simulation result to a JSON file."""
    _dump(fleet_result_to_dict(result), path)


def load_fleet_result(path: str) -> "FleetResult":
    """Load a result written by :func:`dump_fleet_result`."""
    return fleet_result_from_dict(_load(path))


def dump_serve_result(result: "ServeResult", path: str) -> None:
    """Write a traffic-simulation result to a JSON file."""
    _dump(serve_result_to_dict(result), path)


def load_serve_result(path: str) -> "ServeResult":
    """Load a result written by :func:`dump_serve_result`."""
    return serve_result_from_dict(_load(path))


def dump_design(design: MultiCLPDesign, path: str) -> None:
    """Write a design to a JSON file."""
    _dump(design_to_dict(design), path)


def load_design(path: str) -> MultiCLPDesign:
    """Load a design from a JSON file written by :func:`dump_design`."""
    return design_from_dict(_load(path))
