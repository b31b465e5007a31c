"""Prefix sharing: hash identity, COW forks, ref-count lifecycle, leak fix.

The sharing layer is only sound if it is *invisible*: a request served
from shared blocks must retain byte-identical token sets to one that
wrote everything itself (both backends), blocks must fork before any
divergent write reaches a sharer, and the ref-count lifecycle must never
double-free or strand a block.  Hypothesis drives the interleavings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.engine import (
    PadeEngine,
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    PoolExhausted,
)
from repro.eval.workloads import build_prefix_workload

from kv_oracle import assert_cache_holds


def _kv(rng, num_heads, seq_len, head_dim, v_dim):
    return (
        rng.normal(size=(num_heads, seq_len, head_dim)),
        rng.normal(size=(num_heads, seq_len, v_dim)),
    )


def _pool(num_heads=2, head_dim=4, block_size=4, token_budget=256):
    return PlaneBlockPool(
        num_heads, head_dim, head_dim, block_size=block_size, token_budget=token_budget
    )


def _clipped_variant(rng, k, split):
    """A prompt sharing ``k[:, :split]`` whose suffix cannot move the scales."""
    caps = np.abs(k).reshape(k.shape[0], -1).max(axis=1)
    suffix = rng.normal(size=(k.shape[0], k.shape[1] - split, k.shape[2]))
    suffix = np.clip(suffix, -caps[:, None, None], caps[:, None, None])
    return np.concatenate([k[:, :split], suffix], axis=1)


class TestPrefixHits:
    def test_identical_prompts_share_all_full_blocks(self, rng):
        pool = _pool(block_size=4)
        k, v = _kv(rng, 2, 10, 4, 4)  # 2 full blocks + partial tail
        first = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        first.prefill(k, v)
        assert first.prefix_hit_blocks == 0 and first.prefix_miss_blocks == 2
        second = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        second.prefill(k, v)
        assert second.prefix_hit_blocks == 2 and second.prefix_miss_blocks == 0
        # Full blocks shared, partial tail private.
        assert second.block_table[:2] == first.block_table[:2]
        assert second.block_table[2] != first.block_table[2]
        assert pool.ref_count(first.block_table[0]) == 2

    def test_shared_views_byte_identical_to_private(self, rng):
        pool = _pool(block_size=4, token_budget=512)
        k, v = _kv(rng, 2, 12, 4, 4)
        donor = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        donor.prefill(k, v)
        sharer = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        sharer.prefill(k, v)
        assert sharer.prefix_hit_blocks == 3
        assert_cache_holds(sharer, k, v, 12)

    def test_divergent_scales_never_match(self, rng):
        """A suffix that moves the per-head max-abs changes the frozen
        scales, so the 'same' prefix quantizes differently — no hit."""
        pool = _pool(block_size=4, token_budget=512)
        k, v = _kv(rng, 2, 8, 4, 4)
        loud = k.copy()
        loud[:, 6:] *= 10.0  # scales now calibrate off the suffix
        a = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        a.prefill(k, v)
        b = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        b.prefill(loud, v)
        assert b.prefix_hit_blocks == 0
        assert set(a.block_table).isdisjoint(b.block_table)

    def test_divergent_block_breaks_the_chain(self, rng):
        """Chained keys: a mismatch in block i blocks hits for i and after,
        even if a later block's content coincides."""
        pool = _pool(block_size=4, token_budget=512)
        k, v = _kv(rng, 2, 12, 4, 4)
        k[:, 0, :] = 5.0  # block 0 owns calibration, so scales agree
        variant = _clipped_variant(rng, k, split=4)  # blocks 1+ differ
        a = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        a.prefill(k, v)
        b = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        b.prefill(variant, v)
        assert b.prefix_hit_blocks == 1  # only block 0 matches
        assert b.block_table[0] == a.block_table[0]
        assert b.block_table[1] != a.block_table[1]

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_serve_retention_invariant_under_sharing(self, backend):
        """Acceptance: retained sets byte-identical, sharing on vs off."""
        workload = build_prefix_workload(
            4, 2, prefix_len=48, unique_len=8, decode_steps=3, head_dim=8, seed=3
        )
        runs = {}
        for sharing in (False, True):
            engine = PadeEngine(PadeConfig.standard(), backend=backend)
            runs[sharing] = engine.serve(
                workload, max_active=4, token_budget=2048, block_size=16,
                prefix_sharing=sharing,
            )
        for rid in runs[False]:
            assert (
                runs[False][rid].retained_bytes() == runs[True][rid].retained_bytes()
            ), f"{rid} retention changed under prefix sharing ({backend})"
            np.testing.assert_array_equal(
                runs[False][rid].decode_outputs, runs[True][rid].decode_outputs
            )

    def test_late_binding_hits_under_chunked_prefill(self):
        """Requests admitted in the same round as their donor — before it
        wrote anything — still attach its blocks chunk by chunk."""
        workload = build_prefix_workload(
            4, 2, prefix_len=64, unique_len=8, decode_steps=2, head_dim=8, seed=7
        )  # all arrivals at t=0: everyone begins prefill before any registration
        engine = PadeEngine()
        results = engine.serve(
            workload, max_active=4, token_budget=2048, block_size=8,
            prefix_sharing=True, round_token_budget=32, chunk_tokens=16,
        )
        sched = engine.last_serve
        assert sched.prefix_hit_blocks >= 3 * (64 // 8)  # 3 sharers x prefix blocks
        baseline = PadeEngine().serve(
            workload, max_active=4, token_budget=2048, block_size=8,
            round_token_budget=32, chunk_tokens=16,
        )
        for rid in results:
            assert results[rid].retained_bytes() == baseline[rid].retained_bytes()

    def test_sharing_survives_preemption_restart(self):
        """A preempted sharer re-prefills through the index and still
        matches its uncontended retention."""
        workload = build_prefix_workload(
            3, 2, prefix_len=32, unique_len=16, decode_steps=10, head_dim=8,
            arrival_times=[0.0, 1.0, 2.0], seed=5,
        )
        engine = PadeEngine()
        tight = engine.serve(
            workload, max_active=3, token_budget=96, block_size=8,
            prefix_sharing=True,
        )
        assert engine.last_serve.pool.used_block_count == 0
        ample = PadeEngine().serve(
            workload, max_active=3, token_budget=4096, block_size=8,
            prefix_sharing=True,
        )
        for rid in tight:
            assert tight[rid].retained_bytes() == ample[rid].retained_bytes()


class TestCopyOnWrite:
    def test_fork_then_divergent_append_copies_tail(self, rng):
        pool = _pool(block_size=4)
        k, v = _kv(rng, 2, 6, 4, 4)  # partial tail (2 rows of block 1)
        a = PagedBitPlaneKVCache(pool)
        a.prefill(k, v)
        b = a.fork()
        tail = a.block_table[-1]
        assert pool.ref_count(tail) == 2
        ka, va = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        kb, vb = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        a.append(ka, va)  # first divergent write forks the shared tail
        assert pool.forks == 1
        assert a.block_table[-1] != tail
        b.append(kb, vb)  # b now owns the original tail alone: no copy
        assert pool.forks == 1
        for cache, k_step, v_step in ((a, ka, va), (b, kb, vb)):
            assert_cache_holds(
                cache,
                np.concatenate([k, k_step[:, None]], axis=1),
                np.concatenate([v, v_step[:, None]], axis=1),
                6,
            )

    def test_fork_of_aligned_cache_never_copies(self, rng):
        """With a full tail block, both sides append into fresh blocks —
        no copy-on-write is ever needed."""
        pool = _pool(block_size=4)
        k, v = _kv(rng, 2, 8, 4, 4)
        a = PagedBitPlaneKVCache(pool)
        a.prefill(k, v)
        b = a.fork()
        a.append(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        b.append(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        assert pool.forks == 0
        assert a.block_table[:-1] == b.block_table[:-1]
        assert a.block_table[-1] != b.block_table[-1]

    def test_registered_blocks_are_never_mutated_by_appends(self, rng):
        """Appends after an aligned prefill go into fresh blocks; the
        registered prompt blocks keep their published content."""
        pool = _pool(block_size=4)
        k, v = _kv(rng, 2, 8, 4, 4)  # aligned: both blocks registered
        a = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        a.prefill(k, v)
        assert pool.is_registered(a.block_table[-1])
        a.append(*(x.reshape(2, 4) for x in _kv(rng, 2, 1, 4, 4)))
        # Aligned tail: append allocated a fresh block, registration intact.
        assert pool.is_registered(a.block_table[-2])
        assert not pool.is_registered(a.block_table[-1])


class TestLeakRegression:
    def test_failed_shared_prefill_releases_prefix_refs(self, rng):
        """ISSUE 3 satellite: PoolExhausted mid-admission must free the
        partially attached blocks, restoring pre-admission occupancy."""
        pool = _pool(block_size=4, token_budget=16)  # 4 blocks
        k, v = _kv(rng, 2, 8, 4, 4)
        donor = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        donor.prefill(k, v)  # 2 blocks, both registered
        filler = PagedBitPlaneKVCache(pool)
        filler.prefill(*_kv(rng, 2, 8, 4, 4))  # the other 2 blocks
        long_k = _clipped_variant(rng, k, split=8)  # hits both donor blocks
        long_k = np.concatenate([long_k, long_k[:, :4]], axis=1)  # needs 1 more
        long_v = np.concatenate([v, v[:, :4]], axis=1)
        victim = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        used_before = pool.used_block_count
        refs_before = [pool.ref_count(b) for b in donor.block_table]
        with pytest.raises(PoolExhausted):
            victim.prefill(long_k, long_v)
        assert pool.used_block_count == used_before
        assert [pool.ref_count(b) for b in donor.block_table] == refs_before
        assert victim.length == 0
        # After the filler frees its blocks the same call succeeds.
        filler.release()
        victim.prefill(long_k, long_v)
        assert victim.prefix_hit_blocks == 2

    def test_allocate_many_is_atomic(self):
        pool = _pool(block_size=4, token_budget=16)
        pool.allocate_many(3)
        free_before = pool.free_block_count
        with pytest.raises(PoolExhausted):
            pool.allocate_many(2)
        assert pool.free_block_count == free_before


class TestRefcountLifecycle:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["admit", "fork", "append", "free"]), st.integers(0, 7)),
            min_size=1,
            max_size=30,
        ),
        block_size=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    def test_interleaved_admit_fork_free_never_double_frees(self, ops, block_size, seed):
        """ISSUE 3 satellite: any interleaving of admit (shared prompts),
        fork, append and free keeps the pool conserved — used + free ==
        total, every live block has refcount >= 1, and releasing the last
        reference returns the block to the free list."""
        rng = np.random.default_rng(seed)
        pool = PlaneBlockPool(1, 3, 3, block_size=block_size, token_budget=40 * block_size)
        prompts = [_kv(rng, 1, block_size * 2 + 1, 3, 3) for _ in range(3)]
        live = []
        for op, pick in ops:
            if op == "admit":
                cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
                k, v = prompts[pick % len(prompts)]
                try:
                    cache.prefill(k, v)
                except PoolExhausted:
                    continue
                live.append(cache)
            elif live and op == "fork":
                live.append(live[pick % len(live)].fork())
            elif live and op == "append":
                cache = live[pick % len(live)]
                try:
                    cache.append(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
                except PoolExhausted:
                    continue
            elif live and op == "free":
                live.pop(pick % len(live)).release()
            # Conservation + refcount sanity after every step.
            assert pool.used_block_count + pool.free_block_count == pool.num_blocks
            for cache in live:
                for block in cache.block_table:
                    assert pool.ref_count(block) >= 1
        for cache in live:
            cache.release()  # the last reference frees; double frees would raise
        assert pool.used_block_count == 0
        assert pool.free_block_count == pool.num_blocks

    def test_release_after_last_reference_raises(self, rng):
        pool = _pool()
        k, v = _kv(rng, 2, 4, 4, 4)
        a = PagedBitPlaneKVCache(pool)
        a.prefill(k, v)
        blocks = list(a.block_table)
        a.release()
        with pytest.raises(ValueError):
            pool.release(blocks)

    def test_shared_block_freed_only_at_zero_refs(self, rng):
        pool = _pool(block_size=4)
        k, v = _kv(rng, 2, 8, 4, 4)
        a = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        a.prefill(k, v)
        b = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        b.prefill(k, v)
        shared = a.block_table[0]
        a.release()
        assert pool.ref_count(shared) == 1  # b still holds it
        assert pool.lookup_prefix(pool._block_key[shared]) == shared
        b.release()
        assert pool.ref_count(shared) == 0
        assert pool.used_block_count == 0


class TestPolicyInteractions:
    """Prefix sharing × attention policies (ISSUE 4).

    Sharing must stay invisible to every policy: a request served from
    shared blocks retains identical token sets to one that wrote
    everything itself, and content-derived per-block policy state
    (Quest's page summaries in ``pool.block_meta``) is reused by
    sharers but never outlives or escapes its block.
    """

    def _digests(self, results):
        return {rid: results[rid].retained_bytes() for rid in results}

    @pytest.mark.parametrize("policy", ["quest", "streaming-llm", "h2o"])
    def test_sharing_invisible_to_policies(self, policy):
        from repro.eval.workloads import build_prefix_workload

        def serve(sharing):
            workload = build_prefix_workload(4, 2, 16, 8, 6, 16, seed=5)
            engine = PadeEngine(policy=policy)
            results = engine.serve(
                workload, max_active=4, token_budget=1024, block_size=16,
                prefix_sharing=sharing,
            )
            return results, engine.last_serve

        on, on_sched = serve(True)
        off, _ = serve(False)
        assert on_sched.prefix_hit_blocks > 0, "workload was expected to share"
        assert self._digests(on) == self._digests(off)
        for rid in off:
            np.testing.assert_array_equal(
                on[rid].decode_outputs, off[rid].decode_outputs
            )

    def test_quest_block_meta_shared_and_freed(self, rng):
        """Two sharers compute one summary per shared block; freeing the
        last reference drops the meta with the block."""
        from repro.attention.policy import get_policy

        engine = PadeEngine(policy=get_policy("quest", keep_fraction=0.5))
        pool = _pool(num_heads=2, head_dim=8, block_size=4, token_budget=256)
        k, v = _kv(rng, 2, 8, 8, 8)
        q = rng.normal(size=(2, 1, 8))

        donor = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        engine.prefill(donor, k, v, q=q, total_tokens=8)
        assert set(pool.block_meta) <= set(donor.block_table)
        meta_ids = {id(pool.block_meta[b]["quest"]) for b in pool.block_meta}

        sharer = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        engine.prefill(sharer, k, v, q=q, total_tokens=8)
        # The sharer attached the donor's blocks and reused their summaries.
        assert sharer.prefix_hit_blocks == 2
        assert {id(pool.block_meta[b]["quest"]) for b in pool.block_meta} == meta_ids

        donor.release()
        sharer.release()
        assert pool.block_meta == {}

    def test_fork_invalidates_block_meta(self, rng):
        """A copy-on-write fork must not leave stale summaries behind on
        either side of the divergence."""
        engine = PadeEngine(policy="quest")
        pool = _pool(num_heads=1, head_dim=4, block_size=4, token_budget=256)
        k, v = _kv(rng, 1, 4, 4, 4)
        a = PagedBitPlaneKVCache(pool)
        engine.prefill(a, k, v, total_tokens=6)
        b = a.fork()
        # Drive one decode on the fork: the shared tail is full, so the
        # append allocates a new block; the original's meta stays valid.
        engine.decode_step(b, rng.normal(size=(1, 4)), rng.normal(size=(1, 4)),
                           rng.normal(size=(1, 4)))
        shared = a.block_table[0]
        # Now mutate the shared full block via fork_block directly (the
        # partial-tail COW path) and check its meta is dropped.
        pool.block_meta.setdefault(shared, {})["quest"] = "stale"
        fresh = pool.fork_block(shared, rows_used=4)
        assert "quest" not in pool.block_meta.get(fresh, {})
        a._blocks[0] = fresh  # keep the table consistent for release
        a.release()
        b.release()
