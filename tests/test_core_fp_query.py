"""Tests for the FP-query exponent-alignment extension (§VI-F)."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.fp_query import align_query, fp_bsf_filter_row
from repro.quant.bitplane import decompose_bitplanes

fp_rows = arrays(
    np.float64, st.integers(4, 32),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
)


class TestAlignment:
    @given(fp_rows)
    @example(np.full(4, 5e-324))  # subnormal row: the ratio to qmax underflows
    def test_reconstruction_error_bounded(self, q):
        aligned = align_query(q, mantissa_bits=12)
        err = np.abs(q - aligned.reconstruct()).max() if q.size else 0.0
        assert err <= aligned.truncation_error + 1e-12
        # one ulp of the shared exponent bounds the truncation
        assert aligned.truncation_error <= 2.0 ** aligned.exponent * 0.5 + 1e-12

    @given(fp_rows)
    @example(np.full(4, 5e-324))
    def test_mantissa_within_width(self, q):
        aligned = align_query(q, mantissa_bits=12)
        assert np.abs(aligned.mantissa).max(initial=0) <= 2**11

    def test_zero_row(self):
        aligned = align_query(np.zeros(8))
        assert aligned.exponent == 0 and aligned.truncation_error == 0.0

    def test_wider_mantissa_less_truncation(self, rng):
        q = rng.normal(size=64) * 10
        narrow = align_query(q, mantissa_bits=8)
        wide = align_query(q, mantissa_bits=14)
        assert wide.truncation_error < narrow.truncation_error


class TestFPFilter:
    def test_guard_safety_with_fp_query(self, rng):
        k = rng.integers(-128, 128, size=(256, 32))
        planes = decompose_bitplanes(k)
        q = rng.normal(size=32) * 4
        guard_logits, scale_k = 4.0, 0.005
        res, aligned = fp_bsf_filter_row(q, planes, guard_logits, scale_k)
        # exact FP-domain logits
        logits = (k @ q) * scale_k
        must_keep = logits > logits.max() - guard_logits
        assert np.all(res.retained[must_keep])

    def test_prunes_something_realistic(self, rng):
        from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv

        q, k, v = synthesize_qkv(1, 512, 64, PROFILE_PRESETS["nlp"], rng)
        from repro.quant.integer import quantize_symmetric

        ki = quantize_symmetric(k)
        planes = decompose_bitplanes(ki.data)
        scale_k = float(ki.scale) / np.sqrt(64)
        res, _ = fp_bsf_filter_row(q[0], planes, 3.0, scale_k)
        assert 0.0 < res.sparsity < 1.0

    def test_degenerate_scale_keeps_everything(self, rng):
        k = rng.integers(-128, 128, size=(16, 8))
        planes = decompose_bitplanes(k)
        res, _ = fp_bsf_filter_row(rng.normal(size=8), planes, 1.0, 0.0)
        assert res.retained.all()
