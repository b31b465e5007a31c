"""Serving engine: bit-plane cache, batched attention, request scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PadeConfig
from repro.engine import EngineRequest, PadeEngine, PoolExhausted
from repro.eval.workloads import build_engine_request
from repro.quant.bitplane import popcount_dtype, signed_dtype
from repro.quant.integer import quantize_symmetric

from kv_oracle import assert_cache_holds


def _head_qkv(rng, num_heads, seq_len, head_dim):
    k = rng.normal(size=(num_heads, seq_len, head_dim))
    v = rng.normal(size=(num_heads, seq_len, head_dim))
    return k, v


class TestBitPlaneCache:
    def test_incremental_append_matches_bulk_decomposition(self, rng):
        """Planes appended token-by-token equal a one-shot decomposition
        of the same keys under the frozen prefill scales."""
        num_heads, prefix, extra, head_dim = 3, 20, 7, 8
        k, v = _head_qkv(rng, num_heads, prefix + extra, head_dim)
        cache = PadeEngine().new_cache(num_heads, head_dim, head_dim, prefix + extra)
        cache.prefill(k[:, :prefix], v[:, :prefix])
        for t in range(extra):
            cache.append(k[:, prefix + t], v[:, prefix + t])
        assert_cache_holds(cache, k, v, prefix)
        assert cache.rows_decomposed == num_heads * (prefix + extra)

    def test_new_cache_budget_is_whole_blocks(self, rng):
        """A private pool holds ``tokens`` rounded up to whole blocks and
        never grows: the append past it raises and changes nothing."""
        num_heads, head_dim, v_dim = 2, 4, 6
        cache = PadeEngine().new_cache(num_heads, head_dim, v_dim, tokens=20)
        pool = cache.pool
        assert pool.token_budget == 2 * pool.block_size == 32
        rows = pool.token_budget
        key_bytes = head_dim * np.dtype(signed_dtype(cache.bits)).itemsize
        count_bytes = cache.bits * np.dtype(popcount_dtype(head_dim)).itemsize
        backing = [a for a in vars(pool).values() if isinstance(a, np.ndarray) and rows in a.shape]
        assert sum(a.nbytes for a in backing) == rows * num_heads * (
            key_bytes + count_bytes + 8 * v_dim
        )
        k = rng.normal(size=(num_heads, rows + 1, head_dim))
        v = rng.normal(size=(num_heads, rows + 1, v_dim))
        cache.prefill(k[:, :8], v[:, :8])
        for t in range(8, rows):
            cache.append(k[:, t], v[:, t])
        with pytest.raises(PoolExhausted):
            cache.append(k[:, rows], v[:, rows])
        assert_cache_holds(cache, k[:, :rows], v[:, :rows], 8)

    def test_prefill_twice_rejected(self, rng):
        k, v = _head_qkv(rng, 2, 8, 4)
        cache = PadeEngine().new_cache(2, 4, 4, 8)
        cache.prefill(k, v)
        with pytest.raises(RuntimeError):
            cache.prefill(k, v)

    def test_empty_cache_guards(self):
        cache = PadeEngine().new_cache(1, 4, 4, 8)
        with pytest.raises(RuntimeError):
            _ = cache.planes
        with pytest.raises(RuntimeError):
            cache.append(np.zeros((1, 4)), np.zeros((1, 4)))


class TestEngineAttention:
    def test_output_matches_masked_softmax_of_exact_scores(self, rng):
        num_heads, seq_len, head_dim = 2, 64, 16
        k, v = _head_qkv(rng, num_heads, seq_len, head_dim)
        q = rng.normal(size=(num_heads, 4, head_dim))
        engine = PadeEngine(PadeConfig.standard())
        cache = engine.new_cache(num_heads, head_dim, head_dim, seq_len)
        res = engine.prefill(cache, k, v, q=q)

        for h in range(num_heads):
            qi = quantize_symmetric(q[h])
            logits = (
                qi.data @ cache.k_int[h].T
            ).astype(np.float64) * float(qi.scale) * cache.scales[h] / np.sqrt(head_dim)
            masked = np.where(res.retained[h], logits, -np.inf)
            probs = np.exp(masked - masked.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(res.output[h], probs @ v[h], atol=1e-9)
            # Retained scores are the exact integer products.
            exact = qi.data @ cache.k_int[h].T
            assert np.array_equal(res.scores[h][res.retained[h]], exact[res.retained[h]])

    def test_decode_step_counts_reuse(self, rng):
        num_heads, seq_len, head_dim = 2, 32, 8
        k, v = _head_qkv(rng, num_heads, seq_len + 2, head_dim)
        engine = PadeEngine()
        cache = engine.new_cache(num_heads, head_dim, head_dim, seq_len + 2)
        engine.prefill(cache, k[:, :seq_len], v[:, :seq_len])
        for t in range(2):
            q = rng.normal(size=(num_heads, head_dim))
            res = engine.decode_step(cache, q, k[:, seq_len + t], v[:, seq_len + t])
            assert res.output.shape == (num_heads, 1, head_dim)
        stats = engine.stats
        assert stats.decode_steps == 2
        assert stats.rows_decomposed == num_heads * (seq_len + 2)
        assert stats.rows_reused == num_heads * (seq_len + seq_len + 1)
        assert 0.0 < stats.decomposition_reuse < 1.0

    def test_protection_masks_respected(self, rng):
        cfg = PadeConfig(alpha=0.2, radius=5.0, sink_tokens=3, recent_tokens=4)
        num_heads, seq_len, head_dim = 2, 48, 8
        k, v = _head_qkv(rng, num_heads, seq_len + 1, head_dim)
        engine = PadeEngine(cfg)
        cache = engine.new_cache(num_heads, head_dim, head_dim, seq_len + 1)
        engine.prefill(cache, k[:, :seq_len], v[:, :seq_len])
        res = engine.decode_step(
            cache, rng.normal(size=(num_heads, head_dim)), k[:, seq_len], v[:, seq_len]
        )
        retained = res.retained[:, 0, :]  # (H, S+1)
        assert retained[:, :3].all()  # sinks
        assert retained[:, -4:].all()  # recency window

    def test_causal_sparsity_counts_candidates_only(self, rng):
        """Disallowed (causal) pairs are not counted as pruned."""
        num_heads, seq_len, head_dim = 2, 32, 8
        k, v = _head_qkv(rng, num_heads, seq_len, head_dim)
        q = rng.normal(size=(num_heads, seq_len, head_dim))
        engine = PadeEngine(PadeConfig(causal=True, radius=float("inf")))
        cache = engine.new_cache(num_heads, head_dim, head_dim, seq_len)
        res = engine.prefill(cache, k, v, q=q)
        # Infinite guard retains every causal candidate: sparsity must be 0
        # even though ~half the (q, k) pairs are causally disallowed.
        assert res.candidate_keys == num_heads * seq_len * (seq_len + 1) // 2
        assert res.sparsity == 0.0
        assert engine.stats.sparsity == 0.0

    def test_backend_invariant_retention(self, rng):
        results = {}
        for backend in ("reference", "fast"):
            engine = PadeEngine(backend=backend)
            results[backend] = engine.serve(
                [build_engine_request("r", 3, 96, 6, head_dim=16, seed=5)]
            )["r"]
        assert (
            results["reference"].retained_bytes() == results["fast"].retained_bytes()
        )
        np.testing.assert_allclose(
            results["reference"].decode_outputs, results["fast"].decode_outputs
        )


class TestScheduler:
    def test_requests_batched_per_round(self):
        engine = PadeEngine()
        results = engine.serve(
            [build_engine_request(f"r{i}", 2, 32, 3, head_dim=8, seed=i) for i in range(3)],
            max_active=2,
        )
        assert set(results) == {"r0", "r1", "r2"}
        trace = engine.last_serve.trace
        # First decode round covers both admitted requests at once.
        rounds = [ids for event, ids in trace if event == "decode_round"]
        assert rounds[0] == ("r0", "r1")
        # r2 is only admitted after a slot frees up.
        prefill_order = [ids[0] for event, ids in trace if event == "prefill"]
        assert prefill_order == ["r0", "r1", "r2"]
        finished = [ids[0] for event, ids in trace if event == "finish"]
        assert set(finished) == {"r0", "r1", "r2"}

    def test_results_carry_outputs_and_history(self):
        engine = PadeEngine()
        res = engine.serve([build_engine_request("a", 2, 24, 4, head_dim=8, seed=1)])["a"]
        assert res.decode_outputs.shape == (2, 4, 8)
        assert res.steps == 4
        assert res.final_length == 28
        # History lengths grow by one token per step.
        assert [r.shape[1] for r in res.retained_history] == [25, 26, 27, 28]
        assert res.prefill_output is not None  # default request has 1 prompt query

    def test_prefill_only_request(self):
        engine = PadeEngine()
        res = engine.serve(
            [build_engine_request("p", 2, 16, 0, head_dim=8, prompt_queries=4)]
        )["p"]
        assert res.prefill_output.shape == (2, 4, 8)
        assert res.decode_outputs.shape == (2, 0, 8)
        assert res.steps == 0

    def test_duplicate_request_id_rejected(self):
        engine = PadeEngine()
        dup = build_engine_request("dup", 2, 16, 2, head_dim=8)
        with pytest.raises(ValueError, match="dup"):
            engine.serve([dup, dup])

    def test_mismatched_decode_streams_rejected(self):
        k = np.zeros((1, 4, 4))
        v = np.zeros((1, 4, 4))
        with pytest.raises(ValueError):
            EngineRequest("x", k, v, decode_q=np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            EngineRequest(
                "x", k, v,
                decode_q=np.zeros((1, 2, 4)),
                decode_k=np.zeros((1, 3, 4)),
                decode_v=np.zeros((1, 3, 4)),
            )
