"""Tests for the design-level bandwidth allocation semantics, and for
the derived numbers a design computes once."""

import pickle

import numpy as np
import pytest

from repro.core import design as design_module
from repro.core.bandwidth import _cycles_at, min_bandwidths_for_cycles
from repro.core.clp import CLPConfig
from repro.core.datatypes import FLOAT32
from repro.core.design import MultiCLPDesign
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.core.serialize import dump, from_record, to_record
from repro.dse import DesignPoint
from repro.networks import alexnet
from repro.opt.worker import evaluate_point_payload


@pytest.fixture
def design():
    l1 = ConvLayer("a", n=16, m=32, r=13, c=13, k=3)
    l2 = ConvLayer("b", n=32, m=32, r=13, c=13, k=3)
    net = Network("toy", [l1, l2])
    clps = [
        CLPConfig(4, 16, [l1], FLOAT32, [(13, 13)]),
        CLPConfig(8, 16, [l2], FLOAT32, [(13, 13)]),
    ]
    return MultiCLPDesign(net, clps, FLOAT32)


class TestEpochUnderBandwidth:
    def test_unlimited_is_identity(self, design):
        assert design.epoch_cycles_under_bandwidth(None) == design.epoch_cycles

    def test_generous_cap_hits_slack_floor(self, design):
        need = design.required_bandwidth_bytes_per_cycle()
        epoch = design.epoch_cycles_under_bandwidth(need * 2)
        assert epoch == pytest.approx(design.epoch_cycles * 1.02, rel=1e-6)

    def test_requirement_is_consistent(self, design):
        # At exactly the modelled requirement, the epoch stays within
        # the 2% slack (the requirement is defined by that property).
        need = design.required_bandwidth_bytes_per_cycle()
        epoch = design.epoch_cycles_under_bandwidth(need * 1.0001)
        assert epoch <= design.epoch_cycles * 1.02 * 1.001

    def test_monotone_in_cap(self, design):
        caps = [0.25, 0.5, 1.0, 2.0, 8.0, 64.0]
        epochs = [design.epoch_cycles_under_bandwidth(c) for c in caps]
        assert epochs == sorted(epochs, reverse=True)

    def test_starved_cap_scales_inversely(self, design):
        slow = design.epoch_cycles_under_bandwidth(0.25)
        slower = design.epoch_cycles_under_bandwidth(0.125)
        assert slower == pytest.approx(2 * slow, rel=0.1)

    def test_rejects_nonpositive(self, design):
        with pytest.raises(ValueError):
            design.epoch_cycles_under_bandwidth(0.0)

    def test_optimal_split_beats_equal_split(self, design):
        # The bisection allocates the channel optimally: no CLP-uniform
        # split can produce a shorter epoch.
        cap = 1.0
        optimal = design.epoch_cycles_under_bandwidth(cap)
        shares = np.full(design.num_clps, cap / design.num_clps)
        equal = _cycles_at(design.transfer_array, shares).max()
        assert optimal <= equal * 1.001


class TestRequiredBandwidth:
    def test_sum_of_clp_needs(self, design):
        target = design.epoch_cycles * 1.02
        # One lone bisection per CLP, each on its own row of the array.
        expected = sum(
            min_bandwidths_for_cycles(design.transfer_array[:, [i]], target)[0]
            for i in range(design.num_clps)
        )
        assert design.required_bandwidth_bytes_per_cycle() == pytest.approx(
            expected
        )

    def test_gbps_conversion(self, design):
        per_cycle = design.required_bandwidth_bytes_per_cycle()
        assert design.required_bandwidth_gbps(100.0) == pytest.approx(
            per_cycle * 100e6 / 1e9
        )

    def test_looser_slack_needs_less(self, design):
        tight = design.required_bandwidth_bytes_per_cycle(slack=0.01)
        loose = design.required_bandwidth_bytes_per_cycle(slack=0.20)
        assert loose <= tight


# ------------------------------------------------------ derived numbers
_DERIVED = ("clp_cycles", "epoch_cycles", "transfer_array")


def _read_everything(design):
    """Read every cached value and every method that uses them."""
    design.transfer_array
    design.clp_bandwidths(design.epoch_cycles * 1.5)
    design.required_bandwidth_gbps(100.0)
    design.epoch_cycles_under_bandwidth(0.5)


class TestDerivedNumbers:
    def test_cached_once_and_read_only(self, alexnet_485t_design):
        fresh = from_record(MultiCLPDesign, to_record(alexnet_485t_design))
        assert "transfer_array" not in vars(fresh)
        arrays = fresh.transfer_array
        assert fresh.transfer_array is arrays
        assert arrays.shape == (
            4, fresh.num_clps, max(len(clp.layers) for clp in fresh.clps)
        )
        assert not arrays.flags.writeable
        with pytest.raises(ValueError):
            arrays[0, 0, 0] = 1.0
        assert fresh.clp_cycles == tuple(clp.total_cycles for clp in fresh.clps)
        assert fresh.epoch_cycles == max(fresh.clp_cycles)

    def test_records_ignore_cached_values(self, alexnet_485t_design, tmp_path):
        fresh = from_record(MultiCLPDesign, to_record(alexnet_485t_design))
        assert fresh == alexnet_485t_design
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        dump(fresh, str(before))
        text = repr(fresh)
        _read_everything(fresh)
        assert all(name in vars(fresh) for name in _DERIVED)
        dump(fresh, str(after))
        assert after.read_text() == before.read_text()
        assert repr(fresh) == text
        assert from_record(MultiCLPDesign, to_record(fresh)) == fresh

    def test_pickles_carry_only_the_fields(self, design):
        cold = pickle.dumps(design)
        _read_everything(design)
        assert pickle.dumps(design) == cold
        copy = pickle.loads(cold)
        assert copy == design and hash(copy) == hash(design)
        assert not set(_DERIVED) & set(vars(copy))
        assert copy.transfer_array.tolist() == design.transfer_array.tolist()

    def test_a_solved_point_builds_its_array_once(self, monkeypatch):
        """The sweep worker's design builds its transfer array once,
        however many bandwidth-bound epoch probes follow."""
        builds = []

        def spy(clps, dtype):
            builds.append(len(clps))
            return clp_arrays(clps, dtype)

        clp_arrays = design_module.clp_arrays
        monkeypatch.setattr(design_module, "clp_arrays", spy)
        point = DesignPoint.build("alexnet", part="485t", bandwidth_gbps=1.0)
        payload = {"point": point.to_dict(), "network": to_record(alexnet())}
        probes = []
        feasible = design_module.min_bandwidths_for_cycles

        def probe(arrays, cycle_budget):
            probes.append(cycle_budget)
            return feasible(arrays, cycle_budget)

        monkeypatch.setattr(design_module, "min_bandwidths_for_cycles", probe)
        record = evaluate_point_payload(payload)
        assert record["ok"]
        assert len(probes) > 3
        assert len(builds) == 1 and builds[0] == record["metrics"]["num_clps"]
