"""Raw keys are not stored: the pool holds integer K, popcounts and V only.

Each cache keeps its request's prompt K and appended K step rows by
reference and assembles ``k_float`` only when a baseline policy reads it
(DESIGN.md §6).  Pinned here:

* **assembly** — ``k_float``/``k_float_rows`` equal the keys handed
  over, mid chunked prefill, after appends and across a fork, and every
  other view matches an independent oracle (``tests/kv_oracle``);
* **parity across modes** — baseline policies over prefix-shared,
  chunk-prefilled paged caches, and speculative requests whose draft
  policy reads raw keys over shared prompt blocks, give the same outputs
  and retained sets as the same requests served without sharing;
* **storage** — the pool's backing arrays hold exactly
  ``rows·H·(D·key_itemsize + bits·popcount_itemsize + 8·Dv)`` bytes,
  ``bytes_per_block`` agrees, and a fused PADE serve never reads
  ``k_float``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PadeConfig
from repro.engine import PadeEngine, PagedBitPlaneKVCache, PlaneBlockPool
from repro.eval.workloads import build_prefix_workload, build_speculative_request
from repro.quant.bitplane import popcount_dtype, signed_dtype

from kv_oracle import assert_cache_holds


def _kv(rng, heads, length, dim):
    return rng.normal(size=(heads, length, dim)), rng.normal(size=(heads, length, dim))


class TestAssembly:
    def test_paged_chunked_prefill_appends_and_fork(self, rng):
        pool = PlaneBlockPool(2, 8, 8, block_size=4, token_budget=128)
        k, v = _kv(rng, 2, 10, 8)
        cache = PagedBitPlaneKVCache(pool)
        cache.begin_prefill(k, v)
        cache.extend_prefill(6)
        assert cache.k_float.tobytes() == k[:, :6].tobytes()
        cache.extend_prefill()
        cache.finish_prefill()
        steps = rng.normal(size=(3, 2, 8))
        for step in steps[:2]:
            cache.append(step, step)
        clone = cache.fork()
        cache.append(steps[2], steps[2])
        clone.append(-steps[2], -steps[2])
        full = np.concatenate([k, steps.transpose(1, 0, 2)], axis=1)
        assert_cache_holds(cache, full, np.concatenate([v, steps.transpose(1, 0, 2)], axis=1), 10)
        assert clone.k_float[:, :-1].tobytes() == full[:, :-1].tobytes()
        assert clone.k_float[:, -1].tobytes() == (-steps[2]).tobytes()
        assert cache.k_float_rows(8, 12).tobytes() == full[:, 8:12].tobytes()
        cache.release()
        with pytest.raises(RuntimeError, match="empty"):
            cache.k_float
        clone.release()

    def test_private_pool_prefill_and_appends(self, rng):
        cache = PadeEngine().new_cache(2, 8, 8, tokens=9)
        k, v = _kv(rng, 2, 5, 8)
        cache.prefill(k, v)
        steps = rng.normal(size=(4, 2, 8))
        for step in steps:
            cache.append(step, step)
        full = np.concatenate([k, steps.transpose(1, 0, 2)], axis=1)
        assert_cache_holds(cache, full, np.concatenate([v, steps.transpose(1, 0, 2)], axis=1), 5)
        assert cache.k_float_rows(6, 9).tobytes() == full[:, 6:9].tobytes()


def _serve_pair(requests, policy="pade", **kwargs):
    """The same requests served with prefix sharing off and on."""
    runs = {}
    for sharing in (False, True):
        engine = PadeEngine(PadeConfig.standard(), policy=policy)
        runs[sharing] = engine.serve(requests, prefix_sharing=sharing, **kwargs)
        assert engine.last_serve.pool.used_block_count == 0
        if sharing:
            assert engine.last_serve.prefix_hit_blocks > 0, "workload was expected to share"
    return runs[False], runs[True]


def _assert_same(off, on):
    assert off.keys() == on.keys()
    for rid in off:
        assert off[rid].status == on[rid].status == "ok"
        assert off[rid].decode_outputs.tobytes() == on[rid].decode_outputs.tobytes(), rid
        assert off[rid].retained_bytes() == on[rid].retained_bytes(), rid


class TestParityAcrossModes:
    @pytest.mark.parametrize("policy", ["quest", "h2o", "topk-oracle"])
    def test_baselines_over_shared_chunked_caches(self, policy):
        workload = build_prefix_workload(
            4, 2, prefix_len=40, unique_len=12, decode_steps=6, head_dim=16, seed=11
        )
        off, on = _serve_pair(
            workload, policy, max_active=4, token_budget=2048, block_size=8,
            round_token_budget=32, chunk_tokens=16,
        )
        _assert_same(off, on)

    @pytest.mark.parametrize("draft_policy", ["streaming-llm", "topk-oracle"])
    def test_speculation_over_shared_prompts(self, draft_policy):
        """Draft-friendly requests sharing one prompt accept their drafts;
        random-stream requests sharing another roll back — both with the
        draft policy scoring keys that live in shared blocks."""
        friendly = build_speculative_request("f0", 2, 48, 10, 16, seed=1)
        stream = build_speculative_request("f1", 2, 48, 10, 16, seed=2)
        hostile = build_prefix_workload(
            2, 2, prefix_len=32, unique_len=8, decode_steps=10, head_dim=16, seed=4
        )
        requests = [
            friendly,
            replace(friendly, request_id="f1", decode_q=stream.decode_q,
                    decode_k=stream.decode_k, decode_v=stream.decode_v),
        ] + [replace(r, request_id=f"h{i}", speculative=True) for i, r in enumerate(hostile)]
        off, on = _serve_pair(
            requests, max_active=4, token_budget=2048, block_size=8,
            draft_policy=draft_policy,
        )
        _assert_same(off, on)


class TestStorage:
    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_pool_backing_arrays(self, bits):
        h, d, dv = 2, 32, 16
        pool = PlaneBlockPool(h, d, dv, bits=bits, block_size=8, token_budget=64)
        rows = pool.num_blocks * pool.block_size
        key_itemsize = np.dtype(signed_dtype(bits)).itemsize
        popcount_itemsize = np.dtype(popcount_dtype(d)).itemsize
        expected = rows * h * (d * key_itemsize + bits * popcount_itemsize + 8 * dv)
        backing = [a for a in vars(pool).values() if isinstance(a, np.ndarray) and rows in a.shape]
        assert sum(a.nbytes for a in backing) == expected
        assert pool.bytes_per_block * pool.num_blocks == expected


def _count_raw_key_reads(monkeypatch):
    reads = []
    k_float, k_float_rows = PagedBitPlaneKVCache.k_float, PagedBitPlaneKVCache.k_float_rows

    def counted(cache):
        reads.append(cache)
        return k_float.fget(cache)

    def counted_rows(cache, start, end):
        reads.append(cache)
        return k_float_rows(cache, start, end)

    monkeypatch.setattr(PagedBitPlaneKVCache, "k_float", property(counted))
    monkeypatch.setattr(PagedBitPlaneKVCache, "k_float_rows", counted_rows)
    return reads


@pytest.mark.parametrize("policy", ["pade", "quest"])
def test_only_baseline_policies_read_raw_keys(monkeypatch, policy):
    reads = _count_raw_key_reads(monkeypatch)
    workload = build_prefix_workload(
        4, 2, prefix_len=24, unique_len=8, decode_steps=4, head_dim=16, seed=2
    )
    engine = PadeEngine(PadeConfig.standard(), backend="fast", policy=policy)
    engine.serve(
        workload, token_budget=1024, block_size=8, prefix_sharing=True,
        round_token_budget=32, chunk_tokens=16,
    )
    if policy == "pade":
        assert engine.stats.batched_rounds > 0
        assert reads == []
    else:
        assert reads
