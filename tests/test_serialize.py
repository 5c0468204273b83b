"""Tests for design/network/run-record JSON serialization."""

import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clp import CLPConfig
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.design import MultiCLPDesign
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.core.serialize import (
    SCHEMA_VERSION,
    design_from_dict,
    design_to_dict,
    dump_design,
    dump_fleet_result,
    fleet_result_from_dict,
    layer_from_dict,
    layer_to_dict,
    load_design,
    load_fleet_result,
    network_from_dict,
    network_to_dict,
    scenario_spec_from_dict,
    scenario_spec_to_dict,
    serve_result_from_dict,
    slo_spec_from_dict,
    slo_spec_to_dict,
)
from repro.fleet.detector import (
    DetectorSpec,
    detector_spec_from_dict,
    detector_spec_to_dict,
)
from repro.networks import alexnet
from repro.scenario.faults import (
    DegradedReplica,
    FlakyReplica,
    LinkDelay,
    RackFailure,
    RandomFaults,
    RedundancyOutage,
    RollingReboot,
    ScheduledOutage,
    fault_from_dict,
    fault_to_dict,
)
from repro.scenario.library import (
    ChurnShape,
    DiurnalShape,
    FlashCrowdShape,
    ScenarioSpec,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.serve.overload import (
    AdmissionPolicy,
    BrownoutPolicy,
    OverloadSpec,
    RetryPolicy,
    overload_spec_from_dict,
    overload_spec_to_dict,
)
from repro.serve.slo import SLOSpec


@pytest.fixture
def design():
    layers = [
        ConvLayer("a", n=16, m=32, r=13, c=13, k=3),
        ConvLayer("b", n=32, m=64, r=13, c=13, k=3),
    ]
    net = Network("toy", layers)
    clps = [
        CLPConfig(4, 16, [layers[0]], FLOAT32, [(13, 13)]),
        CLPConfig(8, 16, [layers[1]], FLOAT32, [(7, 13)]),
    ]
    return MultiCLPDesign(net, clps, FLOAT32)


class TestLayerRoundTrip:
    def test_round_trip(self):
        layer = ConvLayer("x", n=3, m=48, r=55, c=55, k=11, s=4)
        assert layer_from_dict(layer_to_dict(layer)) == layer

    def test_missing_field(self):
        with pytest.raises(ValueError):
            layer_from_dict({"name": "x", "n": 1})

    def test_network_without_name_names_the_key(self):
        with pytest.raises(ValueError, match="malformed design record.*'name'"):
            network_from_dict({"layers": []})


class TestNetworkRoundTrip:
    def test_round_trip(self):
        net = alexnet()
        restored = network_from_dict(network_to_dict(net))
        assert restored.name == net.name
        assert restored.layers == net.layers

    def test_json_serializable(self):
        json.dumps(network_to_dict(alexnet()))


class TestDesignRoundTrip:
    def test_round_trip_preserves_everything(self, design):
        restored = design_from_dict(design_to_dict(design))
        assert restored.dtype is design.dtype
        assert restored.epoch_cycles == design.epoch_cycles
        assert restored.dsp == design.dsp
        assert restored.bram == design.bram
        assert [c.tile_plans for c in restored.clps] == [
            c.tile_plans for c in design.clps
        ]

    def test_summary_fields_present(self, design):
        record = design_to_dict(design)
        assert record["schema"] == SCHEMA_VERSION
        assert record["summary"]["epoch_cycles"] == design.epoch_cycles

    def test_wrong_schema_rejected(self, design):
        record = design_to_dict(design)
        record["schema"] = 99
        with pytest.raises(ValueError):
            design_from_dict(record)

    def test_fixed16_round_trip(self):
        layer = ConvLayer("a", n=8, m=8, r=8, c=8, k=3)
        net = Network("n", [layer])
        design = MultiCLPDesign(
            net, [CLPConfig(2, 4, [layer], FIXED16)], FIXED16
        )
        restored = design_from_dict(design_to_dict(design))
        assert restored.dtype is FIXED16

    def test_file_round_trip(self, design, tmp_path):
        path = tmp_path / "design.json"
        dump_design(design, str(path))
        restored = load_design(str(path))
        assert restored.epoch_cycles == design.epoch_cycles
        # The file should be human-readable JSON.
        parsed = json.loads(path.read_text())
        assert parsed["network"]["name"] == "toy"

    def test_optimized_design_round_trip(self):
        from repro.analysis.tables import design_for

        design = design_for("alexnet", "485t", "float32", single=False)
        restored = design_from_dict(design_to_dict(design))
        assert restored.epoch_cycles == design.epoch_cycles
        assert restored.arithmetic_utilization == pytest.approx(
            design.arithmetic_utilization
        )


# ----------------------------------------------------------- run records
DATA_DIR = pathlib.Path(__file__).parent / "data"


def _fleet_record():
    return json.loads((DATA_DIR / "sample_fleet_run.json").read_text())


def _serve_record():
    runs = json.loads((DATA_DIR / "serve_pinned_runs.json").read_text())
    return runs["event-joint"]


_RECORDS = {
    "fleet": (_fleet_record, fleet_result_from_dict),
    "serve": (_serve_record, serve_result_from_dict),
}

#: Every top-level key of both records, plus one nested tenant key.
_DELETIONS = [
    (kind, (key,)) for kind, (make, _) in _RECORDS.items() for key in make()
] + [
    ("fleet", ("tenants", 0, "arrivals")),
    ("serve", ("tenants", 0, "arrivals")),
]


# ------------------------------------------------------- spec and design records
_OVERLOAD = OverloadSpec(
    queue_policy="edf",
    admission=AdmissionPolicy(rate_rps=500.0, burst=4.0),
    retry=RetryPolicy(max_attempts=2, cap_ms=1.0, hedge_ms=2.0),
    brownout=BrownoutPolicy(p99_ms=4.0),
    deadline_ms=6.0,
)
_DETECTOR = DetectorSpec(mode="probe", probe_interval_ms=0.5,
                         request_timeout_ms=2.0, max_failovers=2)


def _design_record():
    layers = [
        ConvLayer("a", n=16, m=32, r=13, c=13, k=3),
        ConvLayer("b", n=32, m=64, r=13, c=13, k=3),
    ]
    clps = [
        CLPConfig(4, 16, [layers[0]], FLOAT32, [(13, 13)]),
        CLPConfig(8, 16, [layers[1]], FLOAT32, [(7, 13)]),
    ]
    return design_to_dict(MultiCLPDesign(Network("toy", layers), clps, FLOAT32))


def _scenario_record():
    return scenario_spec_to_dict(ScenarioSpec(
        name="drill",
        description="one fault, one surge",
        faults=(DegradedReplica(fraction=0.5),),
        surge=FlashCrowdShape(),
        overload=_OVERLOAD,
        detector=_DETECTOR,
    ))


#: kind -> (fresh record, loader, the word its errors name it by).
_SPEC_RECORDS = {
    "design": (_design_record, design_from_dict, "design"),
    "scenario": (_scenario_record, scenario_spec_from_dict, "scenario"),
    "overload": (lambda: overload_spec_to_dict(_OVERLOAD),
                 overload_spec_from_dict, "overload spec"),
    "detector": (lambda: detector_spec_to_dict(_DETECTOR),
                 detector_spec_from_dict, "detector spec"),
    "slo": (lambda: slo_spec_to_dict(
        SLOSpec(p99_ms=5.0, deadline_ms=2.0, min_goodput_rps=100.0)),
        slo_spec_from_dict, "SLO spec"),
}


def _paths(node, prefix=()):
    """Every key path into ``node``, following the first list entry."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list) and node:
        yield prefix + (0,)
        yield from _paths(node[0], prefix + (0,))


_SPEC_CASES = [
    (kind, path) for kind, (make, _, _) in _SPEC_RECORDS.items()
    for path in _paths(make())
]
_SPEC_DELETIONS = [c for c in _SPEC_CASES if isinstance(c[1][-1], str)]


def _ids(cases):
    return [f"{kind}-{'.'.join(map(str, path))}" for kind, path in cases]


def _failure_named(exc, word):
    """A loader error must name the record kind."""
    return re.search(
        f"malformed {word} record|unsupported {word} schema", str(exc)
    )


class TestMalformedRunRecords:
    @pytest.mark.parametrize(
        "kind, path",
        _DELETIONS,
        ids=[f"{kind}-{'.'.join(map(str, p))}" for kind, p in _DELETIONS],
    )
    def test_missing_key_loads_or_names_the_key(self, kind, path):
        make, load = _RECORDS[kind]
        record = make()
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        # Optional keys load; required ones fail with a ValueError that
        # names the key.  A bare KeyError or TypeError fails the test.
        try:
            load(record)
        except ValueError as exc:
            assert path[-1] in str(exc)

    @pytest.mark.parametrize("arrivals", ["many", None])
    @pytest.mark.parametrize("kind", sorted(_RECORDS))
    def test_mistyped_count_names_the_record_kind(self, kind, arrivals):
        make, load = _RECORDS[kind]
        record = make()
        record["tenants"][0]["arrivals"] = arrivals
        with pytest.raises(ValueError, match=f"malformed {kind} run record"):
            load(record)

    @pytest.mark.parametrize(
        "kind, path", _SPEC_DELETIONS, ids=_ids(_SPEC_DELETIONS)
    )
    def test_missing_key_loads_or_names_kind_and_key(self, kind, path):
        make, load, word = _SPEC_RECORDS[kind]
        record = make()
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        try:
            load(record)
        except ValueError as exc:
            assert _failure_named(exc, word), exc
            assert path[-1] in str(exc), exc

    @pytest.mark.parametrize("kind, path", _SPEC_CASES, ids=_ids(_SPEC_CASES))
    def test_mistyped_value_loads_or_names_kind(self, kind, path):
        make, load, word = _SPEC_RECORDS[kind]
        record = make()
        parent = record
        for step in path[:-1]:
            parent = parent[step]
        # A string where the record holds anything else, and a number
        # where it holds a string.
        parent[path[-1]] = 7 if isinstance(parent[path[-1]], str) else "x"
        try:
            load(record)
        except ValueError as exc:
            assert _failure_named(exc, word), exc
        else:
            # Only the hand-written design loader may accept a mistyped
            # value (a layer name, the ignored summary); the codec's
            # kinds check every field against its type.
            assert kind == "design", f"{kind} record loaded a mistyped value"

    @pytest.mark.parametrize("record", [
        {"retry": {"bogus": 1}},
        {"admission": {"rate_rps": 10.0, "future_knob": True}},
    ])
    def test_unknown_keys_load(self, record):
        assert overload_spec_from_dict(record).active

    def test_unknown_fault_kind_names_the_kind(self):
        with pytest.raises(ValueError, match="malformed fault record.*'nope'"):
            fault_from_dict({"kind": "nope"})


# ------------------------------------------------------------ byte-exact pins
@pytest.mark.parametrize(
    "name", ["sample_fleet_run.json", "sample_overload_run.json"]
)
def test_dump_reproduces_pinned_record_byte_for_byte(name, tmp_path):
    """Key order, omitted keys and float reprs of a pinned record must
    survive a load and a dump unchanged."""
    pinned = DATA_DIR / name
    out = tmp_path / name
    dump_fleet_result(load_fleet_result(str(pinned)), str(out))
    assert out.read_text() == pinned.read_text()


# ---------------------------------------------------- round-trip property
_unit = st.floats(0.05, 0.95)
_factor = st.floats(1.5, 16.0)
_index = st.integers(0, 7)
_flag = st.booleans()
_members = st.none() | _unit
_window = {"start": _unit, "duration": _unit, "relative": _flag}

_FAULTS = st.one_of(
    st.builds(RandomFaults, mttf=_unit, mttr=_unit, relative=_flag),
    st.builds(ScheduledOutage, replica=_index, **_window),
    st.builds(RackFailure, fraction=_unit, **_window),
    st.builds(RollingReboot, duration=_unit, window_start=st.floats(0, 0.4),
              window_end=st.floats(0.5, 1.0), relative=_flag),
    st.builds(RedundancyOutage, count=st.integers(1, 4), **_window),
    st.builds(DegradedReplica, replica=_index, slowdown=_factor,
              fraction=_members, **_window),
    st.builds(FlakyReplica, replica=_index, error_rate=_unit,
              fraction=_members, **_window),
    st.builds(LinkDelay, replica=_index, delay_epochs=_factor,
              fraction=_members, **_window),
)
_SURGES = st.one_of(
    st.builds(DiurnalShape, amplitude=_unit, periods=_factor),
    st.builds(FlashCrowdShape, multiplier=_factor, start=_unit,
              duration=_unit),
    st.builds(ChurnShape, duty=_unit, periods=_factor),
)
_OVERLOADS = st.builds(
    OverloadSpec,
    queue_policy=st.sampled_from(["fifo", "edf", "priority"]),
    admission=st.none() | st.builds(
        AdmissionPolicy, rate_rps=st.none() | _factor, burst=_factor,
        deadline_admission=_flag),
    retry=st.none() | st.builds(
        RetryPolicy, max_attempts=st.integers(0, 5),
        backoff=st.sampled_from(["fixed", "exponential"]), base_ms=_unit,
        cap_ms=st.none() | _factor,
        jitter=st.sampled_from(["none", "full", "decorrelated"]),
        hedge_ms=st.none() | _factor),
    brownout=st.none() | st.builds(
        BrownoutPolicy, p99_ms=_factor, window_ms=_factor,
        recover_factor=_unit),
    deadline_ms=st.none() | _factor,
)
_DETECTORS = st.builds(
    DetectorSpec,
    mode=st.sampled_from(["oracle", "probe"]),
    probe_interval_ms=st.none() | _factor,
    probe_timeout_ms=st.none() | _factor,
    unhealthy_after=st.integers(1, 4),
    healthy_after=st.integers(1, 4),
    outlier_error_rate=st.none() | _unit,
    outlier_p99_factor=st.none() | _factor,
    ejection_window_ms=st.none() | _factor,
    probation_ms=st.none() | _factor,
    min_requests=st.integers(1, 9),
    max_eject_fraction=_unit,
    request_timeout_ms=st.none() | _factor,
    max_failovers=st.integers(0, 3),
)
_SLOS = st.builds(
    SLOSpec,
    p99_ms=st.none() | _factor,
    max_drop_rate=_unit,
    min_throughput_rps=st.none() | _factor,
    deadline_ms=st.none() | _factor,
    min_goodput_rps=st.none() | _factor,
)
_SPECS = st.one_of(
    _FAULTS.map(lambda x: (x, fault_to_dict, fault_from_dict)),
    _SURGES.map(lambda x: (
        ScenarioSpec(name="surge", surge=x), scenario_to_dict,
        scenario_from_dict)),
    _OVERLOADS.map(lambda x: (x, overload_spec_to_dict,
                              overload_spec_from_dict)),
    _DETECTORS.map(lambda x: (x, detector_spec_to_dict,
                              detector_spec_from_dict)),
    _SLOS.map(lambda x: (x, slo_spec_to_dict, slo_spec_from_dict)),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_SPECS)
def test_spec_records_round_trip(case):
    spec, to_dict, from_dict = case
    record = to_dict(spec)
    loaded = from_dict(json.loads(json.dumps(record)))
    assert loaded == spec
    assert json.dumps(to_dict(loaded)) == json.dumps(record)
