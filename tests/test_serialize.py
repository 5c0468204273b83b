"""Tests for design/network/run-record JSON serialization."""

import json
import pathlib

import pytest

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
    fleet_result_from_dict,
    layer_from_dict,
    layer_to_dict,
    load_design,
    network_from_dict,
    network_to_dict,
    serve_result_from_dict,
)
from repro.networks import alexnet


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
