"""Functional simulation tests: Listing 2 computes exactly Listing 1."""

import numpy as np
import pytest

from repro.core.bandwidth import transfer_words
from repro.core.layer import ConvLayer
from repro.sim.functional import (
    random_layer_data,
    reference_conv,
    tiled_conv,
)


def check_equivalence(layer, tn, tm, tr, tc, seed=0, bias=True):
    inputs, weights, b = random_layer_data(layer, seed=seed)
    b = b if bias else None
    ref = reference_conv(layer, inputs, weights, b)
    out, counters = tiled_conv(
        layer, inputs, weights, tn=tn, tm=tm, tr=tr, tc=tc, bias=b
    )
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
    return counters


class TestTiledEqualsReference:
    def test_exact_tiling(self):
        layer = ConvLayer("l", n=8, m=8, r=8, c=8, k=3)
        check_equivalence(layer, tn=4, tm=4, tr=4, tc=4)

    def test_ragged_tiles_everywhere(self):
        # No dimension divides evenly: exercises all boundary clamps.
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        check_equivalence(layer, tn=3, tm=5, tr=4, tc=5)

    def test_strided_convolution(self):
        layer = ConvLayer("l", n=3, m=6, r=7, c=7, k=5, s=3)
        check_equivalence(layer, tn=2, tm=4, tr=3, tc=2)

    def test_grid_larger_than_layer(self):
        # Tn > N and Tm > M: the SqueezeNet layer-1 mismatch case.
        layer = ConvLayer("l", n=3, m=6, r=6, c=6, k=3)
        check_equivalence(layer, tn=9, tm=16, tr=6, tc=6)

    def test_one_by_one_kernel(self):
        layer = ConvLayer("l", n=12, m=10, r=6, c=6, k=1)
        check_equivalence(layer, tn=5, tm=4, tr=2, tc=3)

    def test_single_pixel_tiles(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3, s=2)
        check_equivalence(layer, tn=2, tm=2, tr=1, tc=1)

    def test_without_bias(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3)
        check_equivalence(layer, tn=2, tm=2, tr=3, tc=3, bias=False)

    def test_alexnet_like_first_layer(self):
        layer = ConvLayer("l", n=3, m=8, r=13, c=13, k=11, s=4)
        check_equivalence(layer, tn=7, tm=8, tr=8, tc=8)


class TestTransferCounters:
    @pytest.mark.parametrize(
        "dims,grid,tile",
        [
            (dict(n=7, m=13, r=9, c=11, k=3, s=1), (3, 5), (4, 5)),
            (dict(n=3, m=6, r=7, c=7, k=5, s=3), (2, 4), (3, 2)),
            (dict(n=12, m=10, r=6, c=6, k=1, s=1), (5, 4), (2, 3)),
            (dict(n=4, m=9, r=8, c=8, k=3, s=2), (4, 4), (8, 8)),
        ],
    )
    def test_counters_match_closed_forms(self, dims, grid, tile):
        """Executed word counts equal the analytic bandwidth model."""
        layer = ConvLayer("l", **dims)
        counters = check_equivalence(layer, *grid, *tile)
        inputs, weights, outputs = transfer_words(layer, grid[1], *tile)
        assert counters.input_words == inputs
        assert counters.weight_words == weights
        assert counters.output_words == outputs

    def test_tile_count_matches_loop_trip_count(self):
        layer = ConvLayer("l", n=7, m=13, r=9, c=11, k=3)
        counters = check_equivalence(layer, 3, 5, 4, 5)
        rsteps, csteps = 3, 3  # ceil(9/4), ceil(11/5)
        msteps, nsteps = 3, 3  # ceil(13/5), ceil(7/3)
        assert counters.tile_count == rsteps * csteps * msteps * nsteps


class TestValidation:
    def test_wrong_input_shape(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3)
        bad = np.zeros((4, 5, 5))
        weights = np.zeros((4, 4, 3, 3))
        with pytest.raises(ValueError):
            reference_conv(layer, bad, weights)

    def test_wrong_weight_shape(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3)
        inputs = np.zeros((4, 7, 7))
        with pytest.raises(ValueError):
            reference_conv(layer, inputs, np.zeros((4, 4, 2, 2)))

    def test_bad_tile(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3)
        inputs, weights, _ = random_layer_data(layer)
        with pytest.raises(ValueError):
            tiled_conv(layer, inputs, weights, tn=2, tm=2, tr=6, tc=2)

    def test_bad_bias_shape(self):
        layer = ConvLayer("l", n=4, m=4, r=5, c=5, k=3)
        inputs, weights, _ = random_layer_data(layer)
        with pytest.raises(ValueError):
            reference_conv(layer, inputs, weights, np.zeros(5))
