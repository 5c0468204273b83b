"""JSON (de)serialization of designs, run records, and specs.

Optimization runs are cheap but not free; a deployment flow wants to
pin the chosen accelerator configuration in version control and reload
it for HLS generation, simulation, or scheduling without re-searching.
The format is plain JSON with a schema version for forward evolution.

Every record — designs and their networks, layers and budgets; serve
and fleet results with everything they embed; scenario, fault, surge,
overload, detector and SLO specs — is written by :func:`to_record` and
read by :func:`from_record`; :func:`dump` and :func:`load` do the same
through a file.  Each record class names itself once, as class
attributes: ``record_kind`` is the word its errors use, and
``record_schema`` (where a record carries one) the ``schema`` key that
:func:`from_record` checks.  A record without that key is rejected
unless its class sets ``record_schema_optional``.

Most records are walks over the dataclass fields and their type hints,
and :func:`to_record` writes their ``schema`` key last.  A class whose
record is shaped otherwise defines ``encode_record``/``decode_record``
next to itself and writes its own ``schema`` key: a design writes it
first, then its CLPs (layers by name, dtype from the design) and a
summary block.  A bare lookup or conversion error in a hook is reported
as a malformed record, through :func:`malformed` where a caller rebuilds
part of a record with its own context.  The field walk's contract:

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

__all__ = [
    "omit_default",
    "to_record",
    "from_record",
    "dump",
    "load",
    "malformed",
    "fleet_result_to_dict",
    "fleet_result_from_dict",
]

T = TypeVar("T")


class _MalformedRecord(ValueError):
    """The one error a bad record raises; a ``ValueError`` for callers."""


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


@contextmanager
def malformed(kind: str) -> Iterator[None]:
    """Report a bare lookup or conversion error while a hook or a caller
    rebuilds (part of) a record as ``malformed <kind> record``."""
    try:
        yield
    except _MalformedRecord:
        raise
    except KeyError as exc:
        raise _MalformedRecord(
            f"malformed {kind} record: missing key {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise _MalformedRecord(f"malformed {kind} record: {exc}") from None


class _Hooked:
    """The codec of a class with its own ``encode_record`` and
    ``decode_record``."""

    def __init__(self, cls: type) -> None:
        self.cls = cls

    def encode(self, value: Any) -> Dict[str, Any]:
        return value.encode_record()

    def decode(self, data: Any) -> Any:
        with malformed(self.cls.record_kind):
            return self.cls.decode_record(data)


def _concrete(base: type) -> Iterator[type]:
    """``base``'s dataclass subclasses that set their own ``kind``."""
    for sub in base.__subclasses__():
        if is_dataclass(sub) and "kind" in vars(sub):
            yield sub
        yield from _concrete(sub)


_SCHEMAS: Dict[type, Union[_Record, _Tagged, _Hooked]] = {}


def _schema(cls: type) -> Union[_Record, _Tagged, _Hooked]:
    schema = _SCHEMAS.get(cls)
    if schema is None:
        if hasattr(cls, "decode_record"):
            schema = _Hooked(cls)
        elif is_dataclass(cls):
            schema = _Record(cls)
        else:
            schema = _Tagged(cls)
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
    """The JSON-ready record of a record object (see module docs)."""
    cls = type(value)
    codec = _schema(cls)
    record = codec.encode(value)
    schema = getattr(cls, "record_schema", None)
    if schema is not None and not isinstance(codec, _Hooked):
        record["schema"] = schema
    return record


def from_record(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` from its record; errors name ``cls.record_kind``."""
    try:
        _expect(data, "an object", dict)
        expected = getattr(cls, "record_schema", None)
        if expected is not None:
            optional = getattr(cls, "record_schema_optional", False)
            schema = data.get("schema", expected if optional else None)
            if schema != expected:
                raise ValueError(
                    f"unsupported {cls.record_kind} schema {schema!r}; "
                    f"expected {expected}"
                )
        return _schema(cls).decode(data)
    except _Bad as exc:
        where = "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}"
            for step in reversed(exc.path)
        ).lstrip(".")
        at = f" at {where}" if where else ""
        raise _MalformedRecord(
            f"malformed {cls.record_kind} record: {exc.detail}{at}"
        ) from None


def dump(value: Any, path: str) -> None:
    """Write ``value``'s record to a JSON file."""
    with open(path, "w") as handle:
        json.dump(to_record(value), handle, indent=2)
        handle.write("\n")


def load(cls: Type[T], path: str) -> T:
    """Load a ``cls`` from a JSON file written by :func:`dump`."""
    with open(path) as handle:
        return from_record(cls, json.load(handle))


# perfbench's tracer patches these two by name and its fleet workloads
# call them; everything else uses to_record / from_record directly.
def fleet_result_to_dict(result: "FleetResult") -> Dict[str, Any]:
    return to_record(result)


def fleet_result_from_dict(data: Any) -> "FleetResult":
    from ..fleet.metrics import FleetResult

    return from_record(FleetResult, data)
