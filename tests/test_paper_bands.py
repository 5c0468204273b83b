"""The paper's reproduction bands: who wins, and by roughly what factor.

Each test regenerates one table, figure, ablation or extension of
Section 6 through the analysis, optimizer or simulator functions and
holds it to a band around the published number
(``repro.analysis.paper_data``).  Exact pins of the optimizer's output
live in ``test_paper_regression.py`` and ``test_table1_designs.py``, and
``test_analysis.py`` holds the table and figure checks it already made;
nothing here repeats them.  ``repro table1`` ... ``table9``, ``fig6``,
``fig7`` and ``validate`` print the same tables.

A band that fails is a finding about the reproduction: report it, and do
not loosen it.
"""

import pytest

from repro.analysis import paper_data
from repro.analysis.figures import figure6, figure7
from repro.analysis.tables import (
    design_for,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.core.datatypes import FIXED16, FLOAT32, INT8
from repro.fpga.parts import budget_for
from repro.networks import alexnet, googlenet
from repro.opt import (
    latency_throughput_frontier,
    optimize_multi_clp,
    optimize_single_clp,
)
from repro.sim import simulate_clp, simulate_system, tile_sequence


def _speedup(rows, part):
    return rows[f"{part} M-CLP"].throughput / rows[f"{part} S-CLP"].throughput


# ------------------------------------------------------------------ tables
def test_table1_bands():
    """Single-CLP within 4 points of the paper, Multi-CLP always better
    and at least the paper's minus 2 points (our search may find
    slightly better designs, never meaningfully worse)."""
    rows = table1().rows
    for row in rows:
        case = f"{row.network}/{row.fpga}/{row.dtype}"
        assert row.multi_util > row.single_util, case
        assert abs(row.single_util - row.paper_single) < 0.04, case
        assert row.multi_util >= row.paper_multi - 0.02, case
    # The fixed-point (most units) AlexNet cases show the largest
    # Single-CLP collapse.
    for row in rows:
        if row.network == "alexnet" and row.dtype == "fixed16":
            assert row.single_util < 0.35
            assert row.multi_util > 0.90


def test_table3_bandwidth_and_speedup_bands():
    """AlexNet float at 100 MHz: bandwidth within 25% of the paper (its
    operating point sits elsewhere on the same BRAM/bandwidth frontier),
    and the paper's 1.31x / 1.54x Multi-over-Single speedups."""
    result = table3()
    rows = {row.scenario: row for row in result.rows}
    for row in result.rows:
        assert row.bandwidth_gbps == pytest.approx(
            row.paper.bandwidth_gbps, rel=0.25
        ), row.scenario
    assert rows["485t M-CLP"].throughput > rows["485t S-CLP"].throughput
    assert 1.25 <= _speedup(rows, "485t") <= 1.45
    assert 1.40 <= _speedup(rows, "690t") <= 1.65


@pytest.mark.parametrize(
    "scenario", ["485t_single", "690t_single", "485t_multi", "690t_multi"]
)
def test_table4_bands(scenario):
    """SqueezeNet fixed16: Single-CLP epochs within 1% of the paper's
    (349k / 331k cycles), Multi-CLP epochs match or beat its (185k /
    145k) with at most six CLPs, as the paper limits them."""
    result = table4(scenario)
    if scenario.endswith("single"):
        assert result.overall_cycles_k == pytest.approx(
            result.paper_overall_cycles_k, rel=0.01
        )
        assert len(result.rows) == 1
    else:
        assert result.overall_cycles_k <= result.paper_overall_cycles_k
        assert 2 <= len(result.rows) <= 6


def test_table5_bands():
    """SqueezeNet fixed16 at 170 MHz: DSP within 3%, throughput within
    5%, bandwidth in the paper's 15-30 GB/s regime, and the 1.91x /
    2.33x Multi-over-Single speedups within a band."""
    result = table5()
    rows = {row.scenario: row for row in result.rows}
    for row in result.rows:
        assert row.dsp == pytest.approx(row.paper.dsp, rel=0.03), row.scenario
        assert row.throughput == pytest.approx(row.paper.throughput, rel=0.05)
        assert 10.0 <= row.bandwidth_gbps <= 32.0, row.scenario
    assert 1.8 <= _speedup(rows, "485t") <= 2.1
    assert 2.2 <= _speedup(rows, "690t") <= 2.5


@pytest.mark.parametrize("scenario", ["485t_single", "485t_multi", "690t_multi"])
def test_table6_bands(scenario):
    """AlexNet float: the implementation exceeds the model on every CLP,
    with DSP overheads in the paper's 45-120 range; the Single-CLP's
    implementation lands within 3% (DSP) and 10% (BRAM) of the paper."""
    result = table6(scenario)
    impl = result.implementation
    for clp in impl.clps:
        assert clp.dsp_impl > clp.dsp_model
        assert clp.bram_impl >= clp.bram_model
        assert 45 <= clp.dsp_overhead <= 120
    if scenario == "485t_single":
        paper = result.paper_rows[0]
        assert impl.clps[0].dsp_impl == pytest.approx(paper.dsp_impl, rel=0.03)
        assert impl.clps[0].bram_impl == pytest.approx(paper.bram_impl, rel=0.10)


def test_table7_bands():
    """SqueezeNet fixed16 690T: the implementation exceeds the model per
    CLP, fixed-point BRAM inflation lands in the paper's ~1.3-2.1x range,
    and total DSPs stay within 25% of the paper's (another partition,
    the same scale)."""
    result = table7()
    impl = result.implementation
    for clp in impl.clps:
        assert clp.dsp_impl > clp.dsp_model
        if clp.bram_model > 0:
            assert 1.2 <= clp.bram_impl / clp.bram_model <= 2.2
    paper_total_dsp = sum(p.dsp_impl for p in result.paper_rows)
    assert impl.dsp_impl == pytest.approx(paper_total_dsp, rel=0.25)


def test_table8_bands():
    """AlexNet float full-FPGA estimates within 5% (DSP), 15% (FF, LUT)
    and 20% (power) of the paper's Vivado numbers for all three designs
    (calibrated on the Single-CLP; the Multi-CLP rows validate the
    per-CLP terms)."""
    result = table8()
    for scenario, impl, paper in zip(
        result.scenarios, result.implementations, result.paper_rows
    ):
        assert paper is not None
        assert impl.dsp_impl == pytest.approx(paper.dsp, rel=0.05), scenario
        assert impl.flip_flops == pytest.approx(paper.flip_flops, rel=0.15)
        assert impl.luts == pytest.approx(paper.luts, rel=0.15)
        assert impl.power_watts == pytest.approx(paper.power_watts, rel=0.20)


def test_table9_bands():
    """SqueezeNet fixed16 full-FPGA estimates: DSP within 10%, power
    within 25%, FF and LUT within 35% (our partition differs from the
    paper's, so per-design logic varies more than for AlexNet)."""
    result = table9()
    impl = result.implementations[0]
    paper = result.paper_rows[0]
    assert paper is not None
    assert impl.dsp_impl == pytest.approx(paper.dsp, rel=0.10)
    assert impl.flip_flops == pytest.approx(paper.flip_flops, rel=0.35)
    assert impl.luts == pytest.approx(paper.luts, rel=0.35)
    assert impl.power_watts == pytest.approx(paper.power_watts, rel=0.25)


def test_headline_speedups():
    """The abstract's Multi-over-Single claims: AlexNet fixed16's 3.8x is
    a utilization ratio (23.7% -> 90.6%); the others are throughput."""

    def ratios(network, part, dtype):
        single = design_for(network, part, dtype, single=True)
        multi = design_for(network, part, dtype, single=False)
        return (
            single.epoch_cycles / multi.epoch_cycles,
            multi.arithmetic_utilization / single.arithmetic_utilization,
        )

    assert ratios("alexnet", "690t", "fixed16")[1] >= 3.3  # paper: 3.8x
    assert ratios("squeezenet", "690t", "fixed16")[0] >= 1.8  # paper: 2.2x
    assert ratios("googlenet", "690t", "fixed16")[0] >= 1.8  # paper: 2.0x
    assert 1.0 <= ratios("vggnet-e", "485t", "float32")[0] <= 1.1  # 1.01x


# ----------------------------------------------------------------- figures
def test_figure6_bands():
    """The paper's named operating points are reachable: at each point's
    BRAM budget our frontier needs a bandwidth within 2x of the paper's
    (the knees fall in the same region)."""
    by_part = {curve.label: curve for curve in figure6()}
    checks = {
        "A (485t iso-bandwidth)": "Multi-CLP, 485t",
        "C (690t iso-bandwidth)": "Multi-CLP, 690t",
    }
    for name, label in checks.items():
        bram, paper_bw = paper_data.FIGURE6_POINTS[name]
        ours = by_part[label].bandwidth_at(bram)
        assert ours is not None, name
        assert ours == pytest.approx(paper_bw, rel=1.0), name
    # The 690T (faster design, more CLPs) needs more bandwidth than the
    # 485T at comparable buffer sizes, as in the paper's figure.
    bram_485 = by_part["Multi-CLP, 485t"].points[-1][0]
    bw_485 = by_part["Multi-CLP, 485t"].bandwidth_at(bram_485)
    bw_690 = by_part["Multi-CLP, 690t"].bandwidth_at(bram_485)
    if bw_690 is not None:
        assert bw_690 >= bw_485 * 0.8


def test_figure7_bands():
    """Multi-CLP never loses to Single-CLP and its advantage grows with
    the DSP budget: ~1.2-1.5x near 2,240 DSPs, over 2.2x by 9,216
    (paper: 1.3x -> 3.3x); Multi-CLP throughput rises with the budget."""
    points = figure7(
        dsp_sweep=(500, 1000, 2240, 2880, 4500, 6840, 9216, 10000)
    ).points
    for point in points:
        assert point.single_throughput is not None
        assert point.multi_throughput is not None
        assert point.multi_throughput >= point.single_throughput * 0.999
    by_dsp = {point.dsp: point for point in points}
    small = by_dsp[2240].speedup
    large = by_dsp[9216].speedup
    assert small is not None and large is not None
    assert 1.15 <= small <= 1.6  # paper: ~1.3x at 2,240
    assert large >= 2.2  # paper: ~3.3x at 9,600
    assert large > small
    multi = [point.multi_throughput for point in points]
    assert all(b >= a * 0.999 for a, b in zip(multi, multi[1:]))


# --------------------------------------------------------------- ablations
def test_ordering_ablation():
    """Section 4.3's layer-ordering heuristic on GoogLeNet fixed16 (57
    layers, the hardest case): a similarity order matches or beats
    natural order, and every order stays within 15% of the best."""
    network, budget = googlenet(), budget_for("690t")
    epochs = {
        ordering: optimize_multi_clp(
            network, budget, FIXED16, ordering=ordering
        ).epoch_cycles
        for ordering in ("natural", "compute-to-data", "nm-distance")
    }
    best = min(epochs.values())
    similarity_best = min(epochs["nm-distance"], epochs["compute-to-data"])
    assert similarity_best <= epochs["natural"] * 1.001
    for cycles in epochs.values():
        assert cycles <= best * 1.15


def test_clp_count_ablation():
    """Most of the Multi-CLP win arrives by a few CLPs (AlexNet fixed16
    690T, the highest-variance case): the epoch never grows with the
    cap, 2 CLPs recover half of the gain and 3 CLPs 95% of it."""
    network, budget = alexnet(), budget_for("690t")
    epochs = [
        optimize_multi_clp(network, budget, FIXED16, max_clps=count).epoch_cycles
        for count in (1, 2, 3, 4, 6, 8)
    ]
    assert all(b <= a for a, b in zip(epochs, epochs[1:]))
    single = epochs[0]
    gain_full = single - min(epochs)
    assert gain_full > 0
    assert single - epochs[1] >= 0.5 * gain_full
    assert single - epochs[2] >= 0.95 * gain_full


def test_latency_ablation():
    """Section 4.1's adjacent assignment: far lower latency than the
    free design (one image per layer in flight), never a shorter epoch,
    and a shorter epoch for every extra CLP allowed."""
    budget = budget_for("485t")
    free = optimize_multi_clp(alexnet(), budget, FLOAT32)
    frontier = latency_throughput_frontier(alexnet(), budget, FLOAT32, max_clps=6)
    free_latency = free.pipeline_depth_images * free.epoch_cycles
    latencies = [latency for _, latency, _ in frontier]
    epochs = [epoch for _, _, epoch in frontier]
    assert all(latency < free_latency for latency in latencies)
    assert all(epoch >= free.epoch_cycles for epoch in epochs)
    assert epochs == sorted(epochs, reverse=True)


@pytest.mark.slow
def test_bandwidth_ablation():
    """Section 4.3 lets transfers block some CLPs.  Under successively
    tighter budgets the AlexNet float 485T design respects the budget,
    slows monotonically, matches the unconstrained design at 2 GB/s
    (the paper's designs need ~1.4-1.5 GB/s) and is over 1.2x slower at
    0.5 GB/s."""
    network = alexnet()
    unconstrained = optimize_multi_clp(network, budget_for("485t"), FLOAT32)
    sweep = []
    for gbps in (2.0, 1.5, 1.0, 0.75, 0.5):
        budget = budget_for("485t", bandwidth_gbps=gbps)
        design = optimize_multi_clp(network, budget, FLOAT32)
        epoch = design.epoch_cycles_under_bandwidth(budget.bytes_per_cycle())
        sweep.append((gbps, design, epoch))
    epochs = [epoch for _, _, epoch in sweep]
    for _, design, epoch in sweep:
        assert epoch >= design.epoch_cycles * 0.999
    assert all(b >= a * 0.999 for a, b in zip(epochs, epochs[1:]))
    assert epochs[0] <= unconstrained.epoch_cycles * 1.03
    assert sweep[0][1].required_bandwidth_gbps(100.0) <= sweep[0][0] + 1e-6
    assert epochs[-1] >= unconstrained.epoch_cycles * 1.2


# --------------------------------------------------------------- extension
def test_int8_scaling_extension():
    """Section 6.2's trend one step past fixed16 (AlexNet 690T): Single-CLP
    utilization falls float32 -> fixed16 -> int8 while Multi-CLP stays
    above 85%, so the utilization ratio grows (over 6x at int8).  The
    epoch speedup saturates at conv1's R*C*K^2 floor, but stays >= 1.5x.
    ``test_int8.py`` checks the fixed16 -> int8 step and int8's 85%."""
    budget = budget_for("690t")
    network = alexnet()
    singles, multis = [], []
    for dtype in (FLOAT32, FIXED16, INT8):
        singles.append(optimize_single_clp(network, budget, dtype))
        multis.append(optimize_multi_clp(network, budget, dtype))
    single_util = [design.arithmetic_utilization for design in singles]
    multi_util = [design.arithmetic_utilization for design in multis]
    assert single_util[0] > single_util[1]
    assert multi_util[0] > 0.85 and multi_util[1] > 0.85
    ratios = [m / s for m, s in zip(multi_util, single_util)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 6.0
    for single, multi in zip(singles, multis):
        assert single.epoch_cycles / multi.epoch_cycles >= 1.5


# -------------------------------------------------------- model validation
def test_model_validation():
    """Section 6.4: on AlexNet 485T Multi-CLP the cycle-level CLP
    simulator equals the analytic model at unlimited bandwidth and adds
    exactly the pipeline depth per tile, and the system simulation at
    1.2x the modelled bandwidth stays within 5% of the modelled epoch."""
    design = design_for("alexnet", "485t", "float32", single=False)
    for clp in design.clps:
        tiles = sum(
            len(tile_sequence(layer, clp.tn, clp.tm, tr, tc))
            for layer, (tr, tc) in zip(clp.layers, clp.tile_plans)
        )
        assert simulate_clp(clp).total_cycles == clp.total_cycles
        deep = simulate_clp(clp, pipeline_depth=12)
        assert deep.total_cycles == clp.total_cycles + 12 * tiles
    need = design.required_bandwidth_bytes_per_cycle()
    capped = simulate_system(design, bytes_per_cycle=need * 1.2)
    assert capped.epoch_cycles <= design.epoch_cycles * 1.05
