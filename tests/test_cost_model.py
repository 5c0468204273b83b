"""Cost-model tests, pinned to the paper's published numbers.

The cycle model must reproduce every row of Table 2 and the BRAM model
every "model" column of Table 6 — these are exact, not approximate.
"""

from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    BufferSpec,
    bram_breakdown,
    bram_count,
    buffer_spec,
    dsp_count,
    layer_cycles,
    max_units_for_budget,
)
from repro.core.datatypes import FIXED16, FLOAT32, INT8
from repro.core.layer import ConvLayer
from repro.fpga.parts import (
    BRAM18K_SINGLE_BANK_WORDS,
    BRAM18K_WORDS_32BIT,
    LUTRAM_CUTOFF_WORDS,
)
from repro.networks import alexnet, squeezenet


@pytest.fixture(scope="module")
def anet():
    return alexnet()


def cycles_for_pair(net, stage, tn, tm):
    a = net.layer_by_name(f"conv{stage}a")
    b = net.layer_by_name(f"conv{stage}b")
    return layer_cycles(a, tn, tm) + layer_cycles(b, tn, tm)


class TestCyclesTable2SingleCLP:
    """Table 2(a): AlexNet 485T Single-CLP, Tn=7, Tm=64."""

    @pytest.mark.parametrize(
        "stage,expected_k",
        [(1, 732), (2, 510), (3, 338), (4, 256), (5, 170)],
    )
    def test_485t_per_stage(self, anet, stage, expected_k):
        cycles = cycles_for_pair(anet, stage, tn=7, tm=64)
        assert round(cycles / 1000) == expected_k

    def test_485t_overall(self, anet):
        total = sum(cycles_for_pair(anet, s, 7, 64) for s in range(1, 6))
        assert round(total / 1000) == 2006


class TestCyclesTable2SingleCLP690T:
    """Table 2(b): AlexNet 690T Single-CLP, Tn=9, Tm=64."""

    @pytest.mark.parametrize(
        "stage,expected_k",
        [(1, 732), (2, 437), (3, 265), (4, 201), (5, 134)],
    )
    def test_690t_per_stage(self, anet, stage, expected_k):
        cycles = cycles_for_pair(anet, stage, tn=9, tm=64)
        assert round(cycles / 1000) == expected_k

    def test_690t_overall(self, anet):
        total = sum(cycles_for_pair(anet, s, 9, 64) for s in range(1, 6))
        assert round(total / 1000) == 1769


class TestCyclesTable2MultiCLP:
    """Table 2(c)/(d): the published Multi-CLP configurations."""

    def test_485t_clp0(self, anet):
        # Tn=2, Tm=64 computing conv5a/b then conv4a/b.
        assert round(cycles_for_pair(anet, 5, 2, 64) / 1000) == 584
        assert round(cycles_for_pair(anet, 4, 2, 64) / 1000) == 876

    def test_485t_clp1(self, anet):
        assert round(cycles_for_pair(anet, 3, 1, 96) / 1000) == 1558

    def test_485t_clp2(self, anet):
        assert round(cycles_for_pair(anet, 1, 3, 24) / 1000) == 1464

    def test_485t_clp3(self, anet):
        assert round(cycles_for_pair(anet, 2, 8, 19) / 1000) == 1531

    def test_690t_clps(self, anet):
        # Table 2(d): six CLPs, epoch 1,168k cycles.
        assert round(cycles_for_pair(anet, 5, 1, 64) / 1000) == 1168
        assert round(cycles_for_pair(anet, 4, 1, 96) / 1000) == 1168
        assert round(cycles_for_pair(anet, 3, 2, 64) / 1000) == 1168
        one_a = layer_cycles(anet.layer_by_name("conv1a"), 1, 48)
        assert round(one_a / 1000) == 1098
        assert round(cycles_for_pair(anet, 2, 3, 64) / 1000) == 1166


class TestCycleModelBasics:
    def test_exact_fit_has_no_rounding(self):
        layer = ConvLayer("l", n=64, m=64, r=10, c=10, k=3)
        assert layer_cycles(layer, 64, 64) == 10 * 10 * 9

    def test_ceil_on_n(self):
        layer = ConvLayer("l", n=65, m=64, r=10, c=10, k=3)
        assert layer_cycles(layer, 64, 64) == 10 * 10 * 9 * 2

    def test_tr_tc_do_not_affect_cycles(self):
        # The cycle model depends only on Tn, Tm (Section 4.2).
        layer = ConvLayer("l", n=64, m=64, r=55, c=55, k=3)
        assert layer_cycles(layer, 8, 8) == 55 * 55 * 8 * 8 * 9

    def test_rejects_bad_grid(self):
        layer = ConvLayer("l", n=4, m=4, r=4, c=4, k=1)
        with pytest.raises(ValueError):
            layer_cycles(layer, 0, 4)


class TestDspModel:
    def test_float_is_five_per_unit(self):
        # Table 3: Tn=7 x Tm=64 costs 2,240 DSP slices.
        assert dsp_count(7, 64, FLOAT32) == 2240

    def test_690t_float(self):
        assert dsp_count(9, 64, FLOAT32) == 2880

    def test_fixed_is_one_per_unit(self):
        # Table 5: Tn=32 x Tm=68 costs 2,176 DSP slices.
        assert dsp_count(32, 68, FIXED16) == 2176

    def test_multi_clp_dsp_sum_matches_single(self):
        # Section 6.3: the 690T Multi-CLP spreads the same 576 units.
        multi = [(1, 64), (1, 96), (2, 64), (1, 48), (1, 48), (3, 64)]
        assert sum(tn * tm for tn, tm in multi) == 9 * 64

    def test_max_units(self):
        assert max_units_for_budget(2240, FLOAT32) == 448
        assert max_units_for_budget(2880, FIXED16) == 2880

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            max_units_for_budget(0, FLOAT32)


class TestBufferSpec:
    def test_single_layer(self):
        layer = ConvLayer("l", n=48, m=128, r=27, c=27, k=5)
        spec = buffer_spec([layer], [(14, 27)])
        assert spec.input_bank_words == 18 * 31
        assert spec.weight_bank_words == 25
        assert spec.output_bank_words == 14 * 27

    def test_max_across_layers(self):
        l1 = ConvLayer("a", n=3, m=48, r=55, c=55, k=11, s=4)
        l2 = ConvLayer("b", n=192, m=128, r=13, c=13, k=3)
        spec = buffer_spec([l1, l2], [(8, 8), (13, 13)])
        assert spec.input_bank_words == 39 * 39  # layer a dominates
        assert spec.weight_bank_words == 121
        assert spec.output_bank_words == 169  # layer b dominates

    def test_rejects_mismatched_plans(self):
        layer = ConvLayer("l", n=1, m=1, r=4, c=4, k=1)
        with pytest.raises(ValueError):
            buffer_spec([layer], [])

    def test_rejects_oversized_tile(self):
        layer = ConvLayer("l", n=1, m=1, r=4, c=4, k=1)
        with pytest.raises(ValueError):
            buffer_spec([layer], [(5, 4)])


class TestBramModelTable6:
    """Table 6 "model" column, reproduced exactly."""

    def test_485t_single_clp_618(self, anet):
        plans = {
            1: (8, 8), 2: (14, 27), 3: (13, 13), 4: (13, 13), 5: (13, 13)
        }
        layers, tiles = [], []
        for stage in range(1, 6):
            for suffix in "ab":
                layers.append(anet.layer_by_name(f"conv{stage}{suffix}"))
                tiles.append(plans[stage])
        spec = buffer_spec(layers, tiles)
        assert bram_count(7, 64, spec, FLOAT32) == 618
        inp, wgt, out = bram_breakdown(7, 64, spec, FLOAT32)
        assert (inp, wgt, out) == (42, 448, 128)

    def test_690t_single_clp_758(self, anet):
        plans = {
            1: (8, 8), 2: (14, 27), 3: (13, 13), 4: (13, 13), 5: (13, 13)
        }
        layers, tiles = [], []
        for stage in range(1, 6):
            for suffix in "ab":
                layers.append(anet.layer_by_name(f"conv{stage}{suffix}"))
                tiles.append(plans[stage])
        spec = buffer_spec(layers, tiles)
        assert bram_count(9, 64, spec, FLOAT32) == 758

    def test_485t_multi_clp_totals(self, anet):
        def clp_bram(tn, tm, stages, plans):
            layers, tiles = [], []
            for stage, plan in zip(stages, plans):
                for suffix in "ab":
                    layers.append(anet.layer_by_name(f"conv{stage}{suffix}"))
                    tiles.append(plan)
            return bram_count(tn, tm, buffer_spec(layers, tiles), FLOAT32)

        clp0 = clp_bram(2, 64, [5, 4], [(13, 13), (13, 13)])
        clp1 = clp_bram(1, 96, [3], [(13, 13)])
        clp2 = clp_bram(3, 24, [1], [(14, 19)])
        clp3 = clp_bram(8, 19, [2], [(14, 27)])
        assert (clp0, clp1, clp2, clp3) == (130, 193, 186, 222)
        assert clp0 + clp1 + clp2 + clp3 == 731

    def test_small_weight_banks_map_to_lutram(self):
        # K=3 filters (9 words) fall below the 10-word LUTRAM cutoff.
        layer = ConvLayer("l", n=128, m=64, r=13, c=13, k=3)
        spec = buffer_spec([layer], [(13, 13)])
        _, weights, _ = bram_breakdown(2, 64, spec, FLOAT32)
        assert weights == 0

    def test_output_banks_need_two_brams_even_when_small(self):
        layer = ConvLayer("l", n=8, m=8, r=13, c=13, k=3)
        spec = buffer_spec([layer], [(13, 13)])
        _, _, out = bram_breakdown(8, 8, spec, FLOAT32)
        assert out == 2 * 8  # 169 words <= 512, but accumulation needs 2

    def test_fixed16_halves_bank_count(self):
        layer = ConvLayer("l", n=8, m=8, r=30, c=30, k=5)
        spec = buffer_spec([layer], [(30, 30)])
        in_float, _, out_float = bram_breakdown(8, 8, spec, FLOAT32)
        in_fixed, _, out_fixed = bram_breakdown(8, 8, spec, FIXED16)
        assert in_fixed * 2 == in_float
        assert out_fixed * 2 == out_float


# ------------------------------------------------ elementwise vs scalar
# The closed forms run elementwise on int arrays (the optimizer prices
# every grid or tile plan in one call).  The oracles below are the scalar
# bodies they replaced; every array entry must equal them exactly.
def _scalar_layer_cycles(layer, tn, tm):
    n_steps = -(-layer.n // tn)
    m_steps = -(-layer.m // tm)
    return layer.r * layer.c * n_steps * m_steps * layer.k * layer.k


def _scalar_dsp_count(tn, tm, dtype):
    spec = dtype.spec
    slices = spec.dsp_per_multiplier + spec.dsp_per_adder
    return ceil(tn * tm * slices / spec.macs_per_dsp_group)


def _scalar_brams_per_bank(bank_words, needs_two_ports_per_copy):
    if bank_words < LUTRAM_CUTOFF_WORDS:
        return 0
    if not needs_two_ports_per_copy and bank_words <= BRAM18K_SINGLE_BANK_WORDS:
        return 1
    return 2 * ceil(bank_words / BRAM18K_WORDS_32BIT)


def _scalar_bram_breakdown(tn, tm, spec, dtype):
    def banks(logical):
        return ceil(logical / dtype.words_per_bram_entry)

    return (
        banks(tn) * _scalar_brams_per_bank(spec.input_bank_words, False),
        banks(tn * tm) * _scalar_brams_per_bank(spec.weight_bank_words, False),
        banks(tm) * _scalar_brams_per_bank(spec.output_bank_words, True),
    )


dtypes = st.sampled_from([FLOAT32, FIXED16, INT8])
grids = st.lists(
    st.tuples(st.integers(1, 64), st.integers(1, 512)), min_size=1, max_size=8
)


@st.composite
def conv_layers(draw):
    return ConvLayer(
        "prop", n=draw(st.integers(1, 512)), m=draw(st.integers(1, 512)),
        r=draw(st.integers(1, 60)), c=draw(st.integers(1, 60)),
        k=draw(st.integers(1, 11)), s=draw(st.integers(1, 4)),
    )


@settings(max_examples=150, deadline=None)
@given(conv_layers(), grids, dtypes)
@example(ConvLayer("k1s2", n=3, m=5, r=28, c=1, k=1, s=2), [(64, 512), (1, 1)],
         INT8)
def test_grid_arrays_match_scalar_cycles_and_dsp(layer, grid, dtype):
    tn, tm = (np.array(column) for column in zip(*grid))
    with np.errstate(all="raise"):
        cycles = layer_cycles(layer, tn, tm)
        dsp = dsp_count(tn, tm, dtype)
    assert cycles.tolist() == [_scalar_layer_cycles(layer, *g) for g in grid]
    assert dsp.tolist() == [_scalar_dsp_count(*g, dtype) for g in grid]
    for (one_tn, one_tm), want in zip(grid, dsp.tolist()):
        assert type(dsp_count(one_tn, one_tm, dtype)) is int
        assert dsp_count(one_tn, one_tm, dtype) == want
        assert layer_cycles(layer, one_tn, one_tm) == (
            _scalar_layer_cycles(layer, one_tn, one_tm)
        )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 64), st.integers(1, 512), dtypes,
    st.lists(st.tuples(st.integers(1, 4000), st.integers(1, 4000)),
             min_size=1, max_size=8),
    st.integers(1, 300),
)
@example(7, 64, FLOAT32, [(9, 10), (10, 9), (256, 257), (257, 256),
                          (512, 513), (1, 1)], 9)
@example(1, 1, FIXED16, [(10, 10)], 256)
def test_bank_arrays_match_scalar_bram(tn, tm, dtype, banks, weight_bank):
    """One BRAM call over every plan's (input, output) bank words equals
    the scalar model plan by plan, across the LUTRAM, single-BRAM and
    block-size boundaries."""
    in_words, out_words = (np.array(column) for column in zip(*banks))
    with np.errstate(all="raise"):
        spec = BufferSpec(in_words, weight_bank, out_words)
        parts = bram_breakdown(tn, tm, spec, dtype)
        total = bram_count(tn, tm, spec, dtype)
    expected = [
        _scalar_bram_breakdown(tn, tm, BufferSpec(i, weight_bank, o), dtype)
        for i, o in banks
    ]
    # The weight term is one int: its bank size is the same for all.
    columns = (np.broadcast_to(part, in_words.shape).tolist() for part in parts)
    assert [list(plan) for plan in zip(*columns)] == (
        [list(plan) for plan in expected]
    )
    assert total.tolist() == [sum(plan) for plan in expected]
    i, o = banks[0]
    scalar = bram_breakdown(tn, tm, BufferSpec(i, weight_bank, o), dtype)
    assert scalar == expected[0]
    assert all(type(value) is int for value in scalar)
