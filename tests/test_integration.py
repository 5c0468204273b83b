"""End-to-end integration: optimize -> serialize -> simulate -> lower.

Walks the full pipeline for a matrix of scenarios, checking the pieces
agree with each other (not just each in isolation): the serialized
design reloads bit-identically, the discrete-event simulator reproduces
the analytic epoch, the schedule covers every layer exactly once per
steady-state epoch, and the HLS manifest describes the same design.
"""

import pytest

from repro.core.datatypes import DataType
from repro.core.design import MultiCLPDesign
from repro.core.schedule import build_schedule
from repro.core.serialize import from_record, to_record
from repro.fpga.parts import budget_for
from repro.hls import generate_system, implement_design, template_parameters
from repro.networks import get_network
from repro.opt import optimize_multi_clp
from repro.sim import simulate_system

pytestmark = pytest.mark.slow  # optimizer end-to-end matrix

SCENARIOS = [
    ("alexnet", "485t", "float32"),
    ("alexnet", "690t", "fixed16"),
    ("squeezenet", "485t", "fixed16"),
    ("vggnet-e", "690t", "float32"),
    ("googlenet", "485t", "float32"),
]


@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda s: "-".join(s))
def pipeline(request):
    network_name, part, dtype_name = request.param
    network = get_network(network_name)
    dtype = DataType.from_name(dtype_name)
    budget = budget_for(part)
    design = optimize_multi_clp(network, budget, dtype)
    return network, budget, design


class TestFullPipeline:
    def test_design_fits_budget(self, pipeline):
        _, budget, design = pipeline
        assert design.fits(budget)

    def test_serialization_round_trip(self, pipeline):
        _, _, design = pipeline
        restored = from_record(MultiCLPDesign, to_record(design))
        assert restored.epoch_cycles == design.epoch_cycles
        assert restored.dsp == design.dsp
        assert restored.bram == design.bram
        assert restored.assignment() == design.assignment()

    def test_simulation_confirms_epoch(self, pipeline):
        _, _, design = pipeline
        result = simulate_system(design)
        assert result.epoch_cycles == design.epoch_cycles

    def test_schedule_covers_network_each_steady_epoch(self, pipeline):
        network, _, design = pipeline
        # Layer-pipelined mode reaches steady state after one epoch per
        # layer position, regardless of adjacency.
        depth = len(network.layers)
        schedule = build_schedule(design, epochs=depth + 1)
        steady = schedule.entries_for_epoch(depth)
        assert sorted(e.layer_name for e in steady) == sorted(
            layer.name for layer in network
        )

    def test_hls_manifest_matches_design(self, pipeline):
        _, _, design = pipeline
        manifest = generate_system(design)
        for index, clp in enumerate(design.clps):
            params = template_parameters(clp)
            assert f"clp{index}: Tn={params.tn} Tm={params.tm}" in manifest

    def test_virtual_toolflow_consistent(self, pipeline):
        _, _, design = pipeline
        impl = implement_design(design)
        assert impl.dsp_model == design.dsp
        assert impl.bram_model == design.bram
        assert impl.dsp_impl > impl.dsp_model
        assert impl.power_watts > 0

    def test_utilization_identity(self, pipeline):
        network, _, design = pipeline
        assert design.arithmetic_utilization == pytest.approx(
            network.total_macs / (design.epoch_cycles * design.total_units)
        )

    def test_epoch_equals_bottleneck(self, pipeline):
        _, _, design = pipeline
        assert design.epoch_cycles == max(
            clp.total_cycles for clp in design.clps
        )
