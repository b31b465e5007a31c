"""Chunked prefill: byte parity, round-budget cost model, stall metrics.

The invariants ISSUE 3 pins down:

* chunk boundaries never change the stored cache bytes — scales are
  frozen on the *full* prompt, so any extend schedule equals one-shot
  ``prefill`` exactly (and therefore every retained set downstream);
* under the round-token cost model, an unchunked long prompt blocks
  decode rounds (``decode_blocked_rounds``), while chunking lets short
  requests prefill and decode alongside it — their TTFT improves;
* preemption mid-prefill frees the partial blocks and replays cleanly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    ContinuousScheduler,
    PadeEngine,
    PagedBitPlaneKVCache,
    PlaneBlockPool,
)
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_engine_request


def _kv(rng, num_heads, seq_len, head_dim):
    return (
        rng.normal(size=(num_heads, seq_len, head_dim)),
        rng.normal(size=(num_heads, seq_len, head_dim)),
    )


class TestCacheChunkParity:
    @given(
        seq_len=st.integers(2, 24),
        block_size=st.integers(1, 7),
        chunk=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunk_schedule_matches_one_shot(self, seq_len, block_size, chunk, seed):
        rng = np.random.default_rng(seed)
        k, v = _kv(rng, 2, seq_len, 4)
        pool_a = PlaneBlockPool(2, 4, 4, block_size=block_size,
                                token_budget=seq_len + 2 * block_size)
        pool_b = PlaneBlockPool(2, 4, 4, block_size=block_size,
                                token_budget=seq_len + 2 * block_size)
        one_shot = PagedBitPlaneKVCache(pool_a)
        one_shot.prefill(k, v)
        chunked = PagedBitPlaneKVCache(pool_b)
        chunked.begin_prefill(k, v)
        while chunked.prefill_remaining:
            chunked.extend_prefill(chunk)
        chunked.finish_prefill()
        assert chunked.length == one_shot.length
        assert chunked.scales.tobytes() == one_shot.scales.tobytes()
        assert chunked.planes.planes.tobytes() == one_shot.planes.planes.tobytes()
        assert chunked.k_int.tobytes() == one_shot.k_int.tobytes()
        assert chunked.values.tobytes() == one_shot.values.tobytes()
        assert chunked.rows_decomposed == one_shot.rows_decomposed

    def test_append_rejected_mid_prefill(self, rng):
        pool = PlaneBlockPool(2, 4, 4, block_size=4, token_budget=64)
        cache = PagedBitPlaneKVCache(pool)
        k, v = _kv(rng, 2, 10, 4)
        cache.begin_prefill(k, v)
        cache.extend_prefill(4)
        with pytest.raises(RuntimeError, match="prefill"):
            cache.append(np.zeros((2, 4)), np.zeros((2, 4)))
        with pytest.raises(RuntimeError, match="incomplete"):
            cache.finish_prefill()
        cache.extend_prefill()
        cache.finish_prefill()
        cache.append(np.zeros((2, 4)), np.zeros((2, 4)))
        assert cache.length == 11


def _request(rid, context, steps, arrival, seed=0, num_heads=2, head_dim=8):
    return build_engine_request(
        rid, num_heads, context, steps, head_dim=head_dim,
        seed=seed, arrival_time=arrival,
    )


def _serve(requests, **kwargs):
    engine = PadeEngine()
    results = engine.serve(requests, **kwargs)
    return results, engine.last_serve


class TestSchedulerChunking:
    def _mixed(self):
        reqs = [_request("long", 96, 4, 0.0, seed=1)]
        reqs += [_request(f"s{i}", 16, 4, 1.0 + i, seed=2 + i) for i in range(3)]
        return reqs

    def test_retention_identical_across_timing_models(self):
        """Legacy, unchunked-budgeted and chunked runs retain identically."""
        runs = []
        for kwargs in (
            {},
            {"round_token_budget": 24},
            {"round_token_budget": 24, "chunk_tokens": 16},
        ):
            results, _ = _serve(self._mixed(), token_budget=2048, block_size=8, **kwargs)
            runs.append(results)
        for rid in runs[0]:
            digests = {r[rid].retained_bytes() for r in runs}
            assert len(digests) == 1, f"{rid} retention depends on the timing model"
            for r in runs[1:]:
                np.testing.assert_array_equal(
                    runs[0][rid].decode_outputs, r[rid].decode_outputs
                )

    def test_unchunked_long_prompt_blocks_decode(self):
        _, sched = _serve(
            self._mixed(), token_budget=2048, block_size=8, round_token_budget=24
        )
        assert sched.decode_blocked_rounds > 0
        assert sched.chunk_stall_rounds == 0  # no chunking, no chunk stalls

    def test_chunked_improves_short_request_ttft(self):
        reports = {}
        for chunk in (0, 16):
            results, _ = _serve(
                self._mixed(), token_budget=2048, block_size=8,
                round_token_budget=24, chunk_tokens=chunk,
            )
            reports[chunk] = [
                results[rid].first_token_time - results[rid].arrival_time
                for rid in results if rid != "long"
            ]
        assert np.percentile(reports[16], 95) < np.percentile(reports[0], 95)
        assert np.mean(reports[16]) < np.mean(reports[0])

    def test_prefill_cost_scales_with_prompt_length(self):
        """A P-token prompt takes ceil(P / budget) exclusive rounds."""
        results, _ = _serve(
            [_request("r", 96, 1, 0.0)], token_budget=2048, block_size=8,
            round_token_budget=24,
        )
        # 4 prefill rounds (rounds 0-3), first decode in round 4 -> TTFT 5.
        assert results["r"].first_token_time == 5.0

    def test_prefill_only_request_budgeted(self):
        req = build_engine_request("p", 2, 40, 0, head_dim=8, prompt_queries=2)
        results, _ = _serve([req], token_budget=1024, block_size=8,
                            round_token_budget=16)
        res = results["p"]
        assert res.prefill_output is not None
        # ceil(40/16) = 3 prefill rounds: sealed in round 2, output at 3.
        assert res.first_token_time == 3.0
        assert res.decode_outputs.shape[1] == 0

    def test_chunk_stall_counted_when_decode_eats_budget(self):
        # Budget 4: three decoding requests leave 1 token < nothing after
        # the long request's chunk is starved often enough to count.
        reqs = [_request(f"d{i}", 8, 12, 0.0, seed=i) for i in range(3)]
        reqs.append(_request("late", 48, 2, 1.0, seed=9))
        _, sched = _serve(
            reqs, token_budget=2048, block_size=8,
            round_token_budget=3, chunk_tokens=2,
        )
        assert sched.chunk_stall_rounds > 0

    def test_preemption_mid_prefill_replays_cleanly(self):
        reqs = [
            _request("a", 24, 10, 0.0, seed=1),
            _request("b", 24, 10, 1.0, seed=2),
            _request("c", 24, 10, 2.0, seed=3),
        ]
        tight, tight_sched = _serve(
            reqs, max_active=3, token_budget=64, block_size=4,
            round_token_budget=16, chunk_tokens=8,
        )
        assert tight_sched.pool.used_block_count == 0
        ample, _ = _serve(
            reqs, max_active=3, token_budget=4096, block_size=4,
            round_token_budget=16, chunk_tokens=8,
        )
        assert set(tight) == set(ample)
        for rid in ample:
            assert tight[rid].retained_bytes() == ample[rid].retained_bytes()

    def test_preemption_never_evicts_finished_request(self):
        """A request that completed its last decode step this round is
        still in the active list until _collect; the victim picker must
        skip it — its blocks free this round anyway, and evicting it
        would discard fully computed outputs."""
        from repro.engine.scheduler import _RequestState, _Timing

        engine = PadeEngine()
        sched = ContinuousScheduler(engine, token_budget=64, block_size=4)
        reqs = [_request("old", 8, 4, 0.0, seed=1), _request("young", 8, 0, 0.0, seed=2)]
        pool = sched._ensure_pool(reqs[0])
        states = []
        for i, req in enumerate(reqs):
            cache = PagedBitPlaneKVCache(pool)
            cache.prefill(req.k, req.v)
            state = _RequestState(request=req, cache=cache, admit_index=i)
            sched.active.append(state)
            sched._timings[req.request_id] = _Timing(arrival_time=0.0)
            states.append(state)
        assert states[1].done and not states[0].done  # young finished, old not
        sched._preempt_one()
        # The finished 'young' request is untouched; 'old' was evicted.
        assert states[1] in sched.active
        assert states[0] not in sched.active
        with pytest.raises(ValueError, match="chunk_tokens requires"):
            ContinuousScheduler(PadeEngine(), chunk_tokens=8)
        with pytest.raises(ValueError, match=">= 0"):
            ContinuousScheduler(PadeEngine(), round_token_budget=-1)

    def test_report_includes_stall_and_prefix_keys(self):
        results, sched = _serve(
            self._mixed(), token_budget=2048, block_size=8,
            round_token_budget=24, chunk_tokens=16,
        )
        report = summarize_serving(results.values(), scheduler=sched)
        for key in (
            "chunk_stall_rounds", "decode_blocked_rounds",
            "prefix_hit_rate", "prefix_blocks_saved", "peak_used_blocks",
        ):
            assert key in report
