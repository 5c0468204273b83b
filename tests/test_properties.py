"""Property-based tests (hypothesis) on the core models and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import (
    _cycles_at,
    clp_arrays,
    fill_and_steady_words,
    transfer_words,
)
from repro.core.clp import CLPConfig
from repro.core.cost_model import (
    bram_count,
    buffer_spec,
    dsp_count,
    layer_cycles,
)
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer, input_extent
from repro.core.utilization import layer_utilization
from repro.sim.functional import random_layer_data, reference_conv, tiled_conv


# ------------------------------------------------------------- strategies
@st.composite
def layers(draw, max_dim=24):
    return ConvLayer(
        name="prop",
        n=draw(st.integers(1, max_dim)),
        m=draw(st.integers(1, max_dim)),
        r=draw(st.integers(1, max_dim)),
        c=draw(st.integers(1, max_dim)),
        k=draw(st.integers(1, 5)),
        s=draw(st.integers(1, 3)),
    )


@st.composite
def layer_and_grid(draw):
    layer = draw(layers())
    tn = draw(st.integers(1, 32))
    tm = draw(st.integers(1, 32))
    return layer, tn, tm


@st.composite
def layer_grid_tiles(draw):
    layer = draw(layers())
    tn = draw(st.integers(1, 16))
    tm = draw(st.integers(1, 16))
    tr = draw(st.integers(1, layer.r))
    tc = draw(st.integers(1, layer.c))
    return layer, tn, tm, tr, tc


# ---------------------------------------------------------- cycle model
class TestCycleProperties:
    @given(layer_and_grid())
    def test_cycles_lower_bounded_by_work(self, args):
        layer, tn, tm = args
        # Tn*Tm units can retire at most Tn*Tm MACs per cycle.
        assert layer_cycles(layer, tn, tm) * tn * tm >= layer.macs

    @given(layer_and_grid())
    def test_utilization_in_unit_interval(self, args):
        layer, tn, tm = args
        util = layer_utilization(layer, tn, tm)
        assert 0 < util <= 1

    @given(layer_and_grid())
    def test_perfect_fit_has_full_utilization(self, args):
        layer, tn, tm = args
        assume(layer.n % tn == 0 and layer.m % tm == 0)
        assert layer_utilization(layer, tn, tm) == pytest.approx(1.0)

    @given(layer_and_grid(), st.integers(1, 4))
    def test_cycles_monotone_in_tn(self, args, factor):
        layer, tn, tm = args
        assert layer_cycles(layer, tn * factor, tm) <= layer_cycles(
            layer, tn, tm
        )

    @given(layer_and_grid())
    def test_oversized_grid_hits_floor(self, args):
        layer, _, _ = args
        floor = layer.r * layer.c * layer.k * layer.k
        assert layer_cycles(layer, layer.n, layer.m) == floor


# ------------------------------------------------------------ DSP model
class TestDspProperties:
    @given(st.integers(1, 64), st.integers(1, 512))
    def test_float_is_five_times_fixed(self, tn, tm):
        assert dsp_count(tn, tm, FLOAT32) == 5 * dsp_count(tn, tm, FIXED16)

    @given(st.integers(1, 64), st.integers(1, 512))
    def test_dsp_positive(self, tn, tm):
        assert dsp_count(tn, tm, FIXED16) == tn * tm


# ----------------------------------------------------------- BRAM model
class TestBramProperties:
    @given(layer_grid_tiles())
    def test_bram_nonnegative(self, args):
        layer, tn, tm, tr, tc = args
        spec = buffer_spec([layer], [(tr, tc)])
        assert bram_count(tn, tm, spec, FLOAT32) >= 0

    @given(layer_grid_tiles())
    def test_fixed_never_uses_more_than_float(self, args):
        layer, tn, tm, tr, tc = args
        spec = buffer_spec([layer], [(tr, tc)])
        assert bram_count(tn, tm, spec, FIXED16) <= bram_count(
            tn, tm, spec, FLOAT32
        )

    @given(layer_grid_tiles())
    def test_bram_monotone_in_tile_growth(self, args):
        layer, tn, tm, tr, tc = args
        small = buffer_spec([layer], [(tr, tc)])
        large = buffer_spec([layer], [(layer.r, layer.c)])
        assert bram_count(tn, tm, large, FLOAT32) >= bram_count(
            tn, tm, small, FLOAT32
        )

    @given(layers(), st.integers(1, 16), st.integers(1, 16))
    def test_buffer_spec_covers_every_layer(self, layer, tr_raw, tc_raw):
        tr = min(tr_raw, layer.r)
        tc = min(tc_raw, layer.c)
        spec = buffer_spec([layer], [(tr, tc)])
        assert spec.input_bank_words >= input_extent(
            1, layer.s, layer.k
        ) * input_extent(1, layer.s, layer.k)
        assert spec.output_bank_words == tr * tc


# ------------------------------------------------------ transfer model
class TestTransferProperties:
    @given(layer_grid_tiles())
    def test_transfer_at_least_touches_data_once(self, args):
        layer, tn, tm, tr, tc = args
        inputs, weights, outputs = transfer_words(layer, tm, tr, tc)
        # When K < S the stride skips input pixels, so only K >= S
        # guarantees the whole input array is read at least once.
        if layer.k >= layer.s:
            assert inputs >= layer.input_words
        assert weights >= layer.weight_words
        assert outputs == layer.output_words

    @given(layer_grid_tiles())
    def test_full_tiles_minimize_weight_traffic(self, args):
        layer, tn, tm, tr, tc = args
        _, weights, _ = transfer_words(layer, tm, tr, tc)
        _, full, _ = transfer_words(layer, tm, layer.r, layer.c)
        assert full <= weights

    @given(layer_grid_tiles(), st.floats(0.1, 100.0))
    def test_bound_cycles_at_least_compute(self, args, bw):
        layer, tn, tm, tr, tc = args
        clp = CLPConfig(tn, tm, [layer], FLOAT32, [(tr, tc)])
        cycles = _cycles_at(clp_arrays([clp], FLOAT32), np.array([bw]))[0]
        assert cycles >= layer_cycles(layer, tn, tm)

    @given(layer_grid_tiles())
    def test_first_tile_bounded_by_totals(self, args):
        layer, tn, tm, tr, tc = args
        first_tile, _ = fill_and_steady_words(layer, tn, tm, tr, tc)
        inputs, weights, _ = transfer_words(layer, tm, tr, tc)
        assert first_tile <= inputs + weights


# ------------------------------------------------- functional simulation
class TestFunctionalProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 6),   # n
        st.integers(1, 6),   # m
        st.integers(1, 7),   # r
        st.integers(1, 7),   # c
        st.integers(1, 3),   # k
        st.integers(1, 2),   # s
        st.integers(1, 8),   # tn
        st.integers(1, 8),   # tm
        st.integers(1, 7),   # tr
        st.integers(1, 7),   # tc
        st.integers(0, 3),   # seed
    )
    def test_tiled_equals_reference(
        self, n, m, r, c, k, s, tn, tm, tr, tc, seed
    ):
        layer = ConvLayer("prop", n=n, m=m, r=r, c=c, k=k, s=s)
        tr = min(tr, r)
        tc = min(tc, c)
        inputs, weights, bias = random_layer_data(layer, seed=seed)
        ref = reference_conv(layer, inputs, weights, bias)
        out, counters = tiled_conv(
            layer, inputs, weights, tn=tn, tm=tm, tr=tr, tc=tc, bias=bias
        )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
        # Executed transfers must match the analytic model exactly.
        assert (
            counters.input_words, counters.weight_words, counters.output_words
        ) == transfer_words(layer, tm, tr, tc)
