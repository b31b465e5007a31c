"""Property tests for 2's-complement bit-plane decomposition (BSF substrate)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant.bitplane import (
    BitPlanes,
    decompose_bitplanes,
    partial_reconstruct,
    plane_weights,
    popcount_per_plane,
    prefix_masks,
    reconstruct_from_planes,
    signed_dtype,
    unknown_weight_sum,
)

int8_arrays = arrays(
    np.int64, st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.integers(-128, 127),
)


class TestPlaneWeights:
    def test_int8_weights(self):
        assert plane_weights(8).tolist() == [-128, 64, 32, 16, 8, 4, 2, 1]

    def test_int4_weights(self):
        assert plane_weights(4).tolist() == [-8, 4, 2, 1]

    def test_weights_sum_to_minus_one(self):
        # all-ones pattern encodes -1 in 2's complement
        for bits in (2, 4, 8, 12):
            assert plane_weights(bits).sum() == -1

    def test_rejects_single_bit(self):
        with pytest.raises(ValueError):
            plane_weights(1)


class TestUnknownWeightSum:
    def test_matches_closed_form(self):
        for bits in (4, 8):
            for known in range(1, bits + 1):
                expected = sum(1 << (bits - 1 - i) for i in range(known, bits))
                assert unknown_weight_sum(bits, known) == expected

    def test_paper_example_values(self):
        # Fig. 6 uses 6 fractional planes (our integer planes scaled by 4):
        # W(1) = 31 -> 7.75 after /4; W(2) = 15 -> 3.75.
        assert unknown_weight_sum(6, 1) / 4 == 7.75
        assert unknown_weight_sum(6, 2) / 4 == 3.75

    def test_zero_at_full_precision(self):
        assert unknown_weight_sum(8, 8) == 0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            unknown_weight_sum(8, 0)
        with pytest.raises(ValueError):
            unknown_weight_sum(8, 9)


class TestRoundTrip:
    @given(int8_arrays)
    def test_decompose_reconstruct_identity(self, values):
        bp = decompose_bitplanes(values, bits=8)
        np.testing.assert_array_equal(reconstruct_from_planes(bp), values)

    @given(arrays(np.int64, st.integers(1, 40), elements=st.integers(-8, 7)))
    def test_int4_round_trip(self, values):
        bp = decompose_bitplanes(values, bits=4)
        np.testing.assert_array_equal(reconstruct_from_planes(bp), values)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            decompose_bitplanes(np.array([1.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decompose_bitplanes(np.array([200]), bits=8)

    def test_plane_shapes(self):
        bp = decompose_bitplanes(np.zeros((3, 5), dtype=np.int64))
        assert bp.planes.shape == (8, 3, 5)
        assert bp.value_shape == (3, 5)


class TestPartialReconstruct:
    @given(int8_arrays, st.integers(1, 8))
    def test_partial_is_conservative_magnitude(self, values, known):
        """With unknown planes zeroed, the result never exceeds the exact
        value (all non-sign planes contribute non-negatively)."""
        bp = decompose_bitplanes(values, bits=8)
        partial = partial_reconstruct(bp, known)
        assert np.all(partial <= values)
        assert np.all(values - partial <= unknown_weight_sum(8, known))

    @given(int8_arrays)
    def test_partial_monotone_in_planes(self, values):
        bp = decompose_bitplanes(values, bits=8)
        prev = partial_reconstruct(bp, 1)
        for known in range(2, 9):
            cur = partial_reconstruct(bp, known)
            assert np.all(cur >= prev)
            prev = cur

    @given(st.data())
    def test_truncation_identity(self, data):
        """The first r planes of a key are the key with its low bits
        cleared: partial_reconstruct(decompose(k), r) == k & mask_r, in
        the signed storage dtype as well as in int64."""
        bits = data.draw(st.integers(2, 16), label="bits")
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        values = data.draw(
            arrays(np.int64, st.integers(1, 24), elements=st.integers(lo, hi)), label="k"
        )
        bp = decompose_bitplanes(values, bits=bits)
        assert bp.ints.dtype == signed_dtype(bits)
        masks = prefix_masks(bits)
        for r in range(1, bits + 1):
            want = partial_reconstruct(bp, r)
            np.testing.assert_array_equal(values & masks[r - 1], want)
            np.testing.assert_array_equal(bp.ints & masks[r - 1].astype(bp.ints.dtype), want)

    def test_integer_backed_planes_build_on_read(self):
        values = np.array([[-128, 127, -1], [0, 5, -6]], dtype=np.int8)
        bp = BitPlanes(ints=values, bits=8)
        want = decompose_bitplanes(values, bits=8)
        assert bp == want
        np.testing.assert_array_equal(bp.popcounts, want.popcounts)
        assert bp.value_shape == (2, 3)
        assert signed_dtype(8) is np.int8 and signed_dtype(9) is np.int16

    def test_zero_planes_gives_zero(self):
        bp = decompose_bitplanes(np.array([42, -42]))
        assert partial_reconstruct(bp, 0).tolist() == [0, 0]


class TestPopcount:
    def test_total_popcount(self):
        bp = decompose_bitplanes(np.array([-1, -1]))  # all bits set
        assert popcount_per_plane(bp).tolist() == [2] * 8

    def test_axis_popcount(self):
        bp = decompose_bitplanes(np.array([[0, -1], [0, -1]]))
        pc = popcount_per_plane(bp, axis=1)
        assert pc.shape == (8, 2)
        np.testing.assert_array_equal(pc, np.ones_like(pc))

    @given(int8_arrays)
    def test_bitplanes_carry_last_axis_popcounts(self, values):
        """decompose_bitplanes fills popcounts equal to popcount_per_plane
        over the last value axis; a BitPlanes built without them fills
        them in identically, and they take no part in equality."""
        bp = decompose_bitplanes(values, bits=8)
        np.testing.assert_array_equal(bp.popcounts, popcount_per_plane(bp, axis=-1))
        assert bp.popcounts.shape == bp.planes.shape[:-1]
        bare = BitPlanes(planes=bp.planes, bits=8)
        assert bare.popcounts.dtype == bp.popcounts.dtype
        assert bare.popcounts.tobytes() == bp.popcounts.tobytes()
        stale = BitPlanes(planes=bp.planes, bits=8, popcounts=np.zeros_like(bp.popcounts))
        assert stale == bp  # same planes object: popcounts are not compared
