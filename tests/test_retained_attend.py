"""Retained-only attend glue: softmax·V over the surviving keys only.

``PadeEngine`` folds each filter round through softmax/V over just the
retained (request, head, query, key) cells: one flat array per round,
``reduceat`` segment reductions, and V rows gathered per retained key
through each cache's block table (DESIGN.md §13).  Pinned here:

* **reference** — outputs match a float64 dense masked-softmax·V within
  1e-12 of the max-abs of the V rows each output row mixes, over ragged
  batches of plain, prefix-shared, COW-forked and spilled paged caches
  with P >= 1 query rows;
* **edges** — a row with no retained key outputs exact zeros, a row with
  one retained key outputs that key's V row exactly;
* **fused == per-request** — ``attend_batch`` is byte-equal to
  ``attend`` per request, counters included;
* **no full V gather** — a fused PADE decode round never reads
  ``PagedBitPlaneKVCache.values`` (the baseline policies still do).

A scripted kernel stands in for the filter so the retained sets — all
masked rows and single-key rows included — are drawn directly.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.engine import PadeEngine, PagedBitPlaneKVCache, PlaneBlockPool
from repro.engine.cache import TierConfig
from repro.eval.workloads import build_serving_workload

CACHE_KINDS = ("paged", "shared", "forked", "spilled")


class _ScriptedKernel:
    """Kernel stand-in returning pre-drawn filter results in order."""

    name = "scripted"

    def __init__(self, results):
        self.results = results
        self.calls = 0

    def filter_heads(self, q_int, planes, guards, allowed=None, protect=None):
        res = self.results[self.calls]
        self.calls += 1
        return res

    def filter_heads_batch(self, q_ints, key_planes, guards_list, alloweds=None, protects=None):
        return list(self.results)


def _build_cache(kind, rng, pool, seq_len, num_heads, head_dim, v_dim):
    """A cache of ``seq_len`` tokens whose V rows sit where ``kind`` puts them."""
    k = rng.normal(size=(num_heads, seq_len, head_dim))
    v = rng.normal(size=(num_heads, seq_len, v_dim))
    if kind == "paged":
        cache = PagedBitPlaneKVCache(pool)
        cache.prefill(k, v)
        return cache
    if kind == "shared":  # full prompt blocks attached from a donor
        PagedBitPlaneKVCache(pool, prefix_sharing=True).prefill(k[:, :-1], v[:, :-1])
        cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        cache.prefill(k[:, :-1], v[:, :-1])
        assert cache.prefix_hit_blocks == (seq_len - 1) // pool.block_size
    elif kind == "forked":  # the appended row lands in a copy-on-write tail
        parent = PagedBitPlaneKVCache(pool)
        parent.prefill(k[:, :-1], v[:, :-1])
        cache = parent.fork()
        parent.append(rng.normal(size=(num_heads, head_dim)), rng.normal(size=(num_heads, v_dim)))
    else:  # "spilled": the first block keeps only its top planes resident
        cache = PagedBitPlaneKVCache(pool)
        cache.prefill(k[:, :-1], v[:, :-1])
        pool.spill_block(cache.block_table[0], pool.tiering.min_resident_planes)
    cache.append(k[:, -1], v[:, -1])
    return cache


def _draw_result(rng, num_heads, num_queries, seq_len):
    """Filter result with all-masked and single-key rows mixed in."""
    retained = rng.random((num_heads, num_queries, seq_len)) < rng.uniform(0.05, 0.9)
    for h in range(num_heads):
        for p in range(num_queries):
            shape = rng.integers(4)
            if shape == 0:
                retained[h, p] = False
            elif shape == 1:
                retained[h, p] = False
                retained[h, p, rng.integers(seq_len)] = True
    return SimpleNamespace(
        retained=retained,
        scores=rng.integers(-20000, 20001, size=retained.shape),
        bit_plane_loads=int(rng.integers(100)),
        effective_bit_ops=int(rng.integers(1000)),
        naive_bit_ops=int(rng.integers(1000)),
    )


def _reference(cache, res, logit_scales):
    """float64 dense masked softmax·V, one row at a time."""
    logits = res.scores * logit_scales[:, None, None]
    values = cache.values
    out = np.zeros(res.retained.shape[:2] + (cache.v_dim,))
    for h, p in np.ndindex(*res.retained.shape[:2]):
        keys = np.flatnonzero(res.retained[h, p])
        if keys.size:
            w = np.exp(logits[h, p, keys] - logits[h, p, keys].max())
            out[h, p] = (w / w.sum()) @ values[h, keys]
    return out


@given(
    num_heads=st.integers(1, 3),
    num_queries=st.integers(1, 3),
    head_dim=st.integers(2, 6),
    v_dim=st.integers(1, 5),
    block_size=st.integers(1, 5),
    requests=st.lists(
        st.tuples(st.sampled_from(CACHE_KINDS), st.integers(0, 14)), min_size=1, max_size=5
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_retained_only_matches_dense_reference_and_per_request(
    num_heads, num_queries, head_dim, v_dim, block_size, requests, seed
):
    rng = np.random.default_rng(seed)
    pool = PlaneBlockPool(
        num_heads, head_dim, v_dim, block_size=block_size, token_budget=256 * block_size,
        tiering=TierConfig(min_resident_planes=2),
    )
    caches = [
        _build_cache(kind, rng, pool, num_queries + 1 + extra, num_heads, head_dim, v_dim)
        for kind, extra in requests
    ]
    qs = [rng.normal(size=(num_heads, num_queries, head_dim)) for _ in caches]
    results = [_draw_result(rng, num_heads, num_queries, c.length) for c in caches]

    fused = PadeEngine(PadeConfig.standard(), backend=_ScriptedKernel(results))
    single = PadeEngine(PadeConfig.standard(), backend=_ScriptedKernel(results))
    batch = fused.attend_batch(caches, qs)
    loop = [single.attend(cache, q) for cache, q in zip(caches, qs)]

    for cache, res, got, one in zip(caches, results, batch, loop):
        assert got.output.tobytes() == one.output.tobytes()
        assert got.candidate_keys == one.candidate_keys
        assert got.execution_cost == one.execution_cost
        want = _reference(cache, res, got.logit_scales)
        for h, p in np.ndindex(num_heads, num_queries):
            keys = np.flatnonzero(res.retained[h, p])
            if keys.size == 0:
                assert not got.output[h, p].any()
            elif keys.size == 1:
                assert got.output[h, p].tobytes() == cache.values[h, keys[0]].tobytes()
            else:
                bound = 1e-12 * np.abs(cache.values[h, keys]).max()
                assert np.abs(got.output[h, p] - want[h, p]).max() <= bound
    assert fused.stats.retained_keys == single.stats.retained_keys == sum(
        int(r.retained.sum()) for r in results
    )
    assert fused.stats.candidate_keys == single.stats.candidate_keys
    assert fused.stats.bit_plane_loads == single.stats.bit_plane_loads


def _count_value_reads(monkeypatch):
    reads = []
    values = PagedBitPlaneKVCache.values

    def counted(cache):
        reads.append(cache)
        return values.fget(cache)

    monkeypatch.setattr(PagedBitPlaneKVCache, "values", property(counted))
    return reads


def _serve(policy):
    requests = build_serving_workload(6, 2, 40, 6, 16, arrival_times=[0.0] * 6, seed=3)
    engine = PadeEngine(PadeConfig.standard(), backend="fast", policy=policy)
    engine.serve(requests, token_budget=1024, block_size=8)
    return engine


def test_fused_decode_round_never_gathers_full_values(monkeypatch):
    reads = _count_value_reads(monkeypatch)
    engine = _serve("pade")
    assert engine.stats.batched_rounds > 0
    assert reads == []


def test_baseline_policies_still_read_values(monkeypatch):
    reads = _count_value_reads(monkeypatch)
    _serve("quest")
    assert reads
