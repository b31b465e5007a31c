"""Tests for the vectorized BSF fast path and the DTATrans baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attention.baselines.dtatrans import dtatrans_layer, dtatrans_stack
from repro.core.backend import get_backend
from repro.core.bsf import bsf_filter
from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv
from repro.quant.bitplane import decompose_bitplanes


class TestFastPathEquivalence:
    @given(st.integers(0, 1 << 12), st.floats(0, 3000))
    def test_matches_reference_exactly(self, seed, guard):
        rng = np.random.default_rng(seed)
        k = rng.integers(-128, 128, size=(48, 16))
        q = rng.integers(-128, 128, size=(3, 16))
        planes = decompose_bitplanes(k)
        slow = bsf_filter(q, planes, guard)
        fast = get_backend("fast").filter(q, planes, guard)
        np.testing.assert_array_equal(slow.retained, fast.retained)
        np.testing.assert_array_equal(slow.planes_processed, fast.planes_processed)
        np.testing.assert_array_equal(slow.scores, fast.scores)
        assert slow.bit_plane_loads == fast.bit_plane_loads
        assert slow.effective_bit_ops == fast.effective_bit_ops
        assert slow.naive_bit_ops == fast.naive_bit_ops

    def test_matches_with_masks(self, rng):
        k = rng.integers(-128, 128, size=(64, 16))
        q = rng.integers(-128, 128, size=(4, 16))
        planes = decompose_bitplanes(k)
        allowed = rng.random((4, 64)) < 0.7
        protect = rng.random(64) < 0.05
        slow = bsf_filter(q, planes, 400.0, allowed=allowed, protect=protect)
        fast = get_backend("fast").filter(q, planes, 400.0, allowed=allowed, protect=protect)
        np.testing.assert_array_equal(slow.retained, fast.retained)
        np.testing.assert_array_equal(slow.planes_processed, fast.planes_processed)

    def test_infinite_guard(self, rng):
        k = rng.integers(-128, 128, size=(32, 8))
        q = rng.integers(-128, 128, size=(2, 8))
        planes = decompose_bitplanes(k)
        fast = get_backend("fast").filter(q, planes, float("inf"))
        assert fast.retained.all()
        assert np.all(fast.planes_processed == 8)


class TestDTATrans:
    @pytest.fixture
    def stack(self, rng):
        return [synthesize_qkv(4, 256, 32, PROFILE_PRESETS["nlp"], rng) for _ in range(3)]

    def test_first_layer_full_precision(self, stack):
        res = dtatrans_stack(stack, keep_fraction=0.3)
        assert res[0].full_precision.all()
        assert res[0].lost_mass == 0.0

    def test_band_budgets(self, stack):
        res = dtatrans_stack(stack, keep_fraction=0.25)
        for layer in res[1:]:
            budget = round(0.25 * 256)
            assert layer.full_precision.sum() + layer.low_precision.sum() <= budget
            assert not (layer.full_precision & layer.low_precision).any()

    def test_stale_guidance_loses_mass(self, stack):
        res = dtatrans_stack(stack, keep_fraction=0.25)
        assert np.mean([r.lost_mass for r in res[1:]]) > 0.02

    def test_bigger_budget_loses_less(self, stack):
        small = dtatrans_stack(stack, keep_fraction=0.15)
        big = dtatrans_stack(stack, keep_fraction=0.6)
        assert np.mean([r.lost_mass for r in big[1:]]) <= np.mean(
            [r.lost_mass for r in small[1:]]
        )

    def test_single_layer_interface(self, stack):
        q, k, v = stack[0]
        res, importance = dtatrans_layer(q, k, v, None, 0.3)
        assert res.output.shape == q.shape
        assert importance.shape == (256,)
        res2, _ = dtatrans_layer(q, k, v, importance, 0.3)
        assert res2.pruned.any()


class TestReportAll:
    def test_writes_selected_experiments(self, tmp_path):
        import io

        from repro.eval.report_all import write_report

        buf = io.StringIO()
        n = write_report(buf, experiments=["table3", "fig17"])
        text = buf.getvalue()
        assert n == 2
        assert "fig17" in text and "table3" in text and "QK-PU" in text
