"""Paged bit-plane cache: pool accounting + view/attend properties.

Every view of a paged cache — ``planes/k_int/values/scales/k_float`` —
must equal an independent oracle (per-head ``quantize_symmetric`` under
the frozen prompt scales plus ``decompose_bitplanes``, ``tests/kv_oracle``)
for any interleaving of prefill/append against any block size, and
``PadeEngine.attend`` must give the same retained sets, scores and
outputs at every block size as over a cache whose whole sequence sits
in one block, under both kernel backends.  Hypothesis drives the
schedules.
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
from repro.engine.cache import TierConfig, _key_rows, quantize_heads
from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import int_range, quantize_symmetric

from kv_oracle import assert_cache_holds


def _kv(rng, num_heads, seq_len, head_dim, v_dim):
    return (
        rng.normal(size=(num_heads, seq_len, head_dim)),
        rng.normal(size=(num_heads, seq_len, v_dim)),
    )


def _fill(k, v, prefill_len, block_size):
    """Prefill ``prefill_len`` tokens of ``k``/``v``, append the rest."""
    num_heads, total, head_dim = k.shape
    pool = PlaneBlockPool(
        num_heads, head_dim, v.shape[2], block_size=block_size,
        token_budget=max(block_size, total + block_size),
    )
    # Freed in ascending order, the LIFO free list hands blocks out
    # highest first: the block table is never the identity map, so a view
    # that ignored it would read the wrong rows.
    pool.release(pool.allocate_many(pool.num_blocks))
    cache = PagedBitPlaneKVCache(pool)
    cache.prefill(k[:, :prefill_len], v[:, :prefill_len])
    for t in range(prefill_len, total):
        cache.append(k[:, t], v[:, t])
    return cache


class TestDensePagedParity:
    """Paged views against dense oracle arrays (``kv_oracle``)."""

    @given(
        num_heads=st.integers(1, 3),
        head_dim=st.integers(2, 6),
        prefill_len=st.integers(1, 12),
        appends=st.integers(0, 8),
        block_size=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_views_byte_identical(
        self, num_heads, head_dim, prefill_len, appends, block_size, seed
    ):
        rng = np.random.default_rng(seed)
        k, v = _kv(rng, num_heads, prefill_len + appends, head_dim, head_dim)
        paged = _fill(k, v, prefill_len, block_size)
        assert_cache_holds(paged, k, v, prefill_len)
        assert paged.rows_decomposed == num_heads * (prefill_len + appends)
        assert paged.appends == appends

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @given(
        prefill_len=st.integers(4, 24),
        appends=st.integers(0, 6),
        block_size=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_attend_identical_through_engine(
        self, backend, prefill_len, appends, block_size, seed
    ):
        """Same retained sets, scores and outputs through PadeEngine.attend
        as over a one-block cache (the whole sequence in one block)."""
        num_heads, head_dim = 2, 8
        rng = np.random.default_rng(seed)
        k, v = _kv(rng, num_heads, prefill_len + appends, head_dim, head_dim)
        one_block = _fill(k, v, prefill_len, prefill_len + appends)
        paged = _fill(k, v, prefill_len, block_size)
        assert len(one_block.block_table) == 1
        engine = PadeEngine(PadeConfig.standard(), backend=backend)
        q = rng.normal(size=(num_heads, 2, head_dim))
        res_one = engine.attend(one_block, q)
        res_paged = engine.attend(paged, q)
        assert np.array_equal(res_one.retained, res_paged.retained)
        assert np.array_equal(res_one.scores, res_paged.scores)
        assert res_one.output.tobytes() == res_paged.output.tobytes()
        assert res_one.candidate_keys == res_paged.candidate_keys

    @given(
        schedule=st.lists(st.integers(0, 1), min_size=2, max_size=12),
        block_size=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_interleaved_sequences_share_one_pool(self, schedule, block_size, seed):
        """Two sequences interleaving appends in one pool never cross-talk."""
        num_heads, head_dim = 2, 4
        rng = np.random.default_rng(seed)
        counts = [3 + schedule.count(0), 3 + schedule.count(1)]
        ks, vs = zip(*[_kv(rng, num_heads, c, head_dim, head_dim) for c in counts])
        pool = PlaneBlockPool(
            num_heads, head_dim, head_dim, block_size=block_size,
            token_budget=(sum(counts) + 2 * block_size),
        )
        paged = [PagedBitPlaneKVCache(pool) for _ in range(2)]
        for i in range(2):
            paged[i].prefill(ks[i][:, :3], vs[i][:, :3])
        cursor = [3, 3]
        for who in schedule:
            t = cursor[who]
            paged[who].append(ks[who][:, t], vs[who][:, t])
            cursor[who] = t + 1
        for i in range(2):
            assert_cache_holds(paged[i], ks[i], vs[i], 3)

    def test_release_and_reuse_blocks(self, rng):
        """Freed blocks are recycled and the recycled contents are correct."""
        num_heads, head_dim = 2, 4
        pool = PlaneBlockPool(num_heads, head_dim, head_dim, block_size=4, token_budget=16)
        k, v = _kv(rng, num_heads, 12, head_dim, head_dim)
        first = PagedBitPlaneKVCache(pool)
        first.prefill(k, v)  # 3 blocks
        assert pool.used_block_count == 3
        second = PagedBitPlaneKVCache(pool)
        with pytest.raises(PoolExhausted):
            second.prefill(k, v)  # needs 3, only 1 free
        first.release()
        assert pool.used_block_count == 0
        assert first.length == 0
        second.prefill(k, v)
        assert_cache_holds(second, k, v, 12)

    def test_append_exhaustion_leaves_cache_intact(self, rng):
        """A failed append mutates nothing, so the retry after a victim
        frees its blocks (the preemption path) yields the exact rows."""
        num_heads, head_dim = 1, 4
        pool = PlaneBlockPool(num_heads, head_dim, head_dim, block_size=2, token_budget=6)
        cache = PagedBitPlaneKVCache(pool)
        victim = PagedBitPlaneKVCache(pool)
        k, v = _kv(rng, num_heads, 6, head_dim, head_dim)
        cache.prefill(k[:, :4], v[:, :4])  # 2 blocks
        victim.prefill(k[:, 4:], v[:, 4:])  # last block
        with pytest.raises(PoolExhausted):
            cache.append(k[:, 4], v[:, 4])
        assert cache.length == 4
        victim.release()
        cache.append(k[:, 4], v[:, 4])  # same call now succeeds
        assert_cache_holds(cache, k[:, :5], v[:, :5], 4)

    def test_pool_rejects_double_free_and_tracks_budget(self):
        pool = PlaneBlockPool(1, 4, 4, block_size=8, token_budget=35)
        assert pool.num_blocks == 4  # budget rounded down to whole blocks
        assert pool.token_budget == 32
        block = pool.allocate()
        pool.release([block])
        with pytest.raises(ValueError):
            pool.release([block])

    def test_empty_cache_guards(self):
        pool = PlaneBlockPool(1, 4, 4, block_size=4, token_budget=8)
        cache = PagedBitPlaneKVCache(pool)
        with pytest.raises(RuntimeError):
            _ = cache.planes
        with pytest.raises(RuntimeError):
            cache.append(np.zeros((1, 4)), np.zeros((1, 4)))


class TestVectorizedQuantizationRegression:
    """The vectorized per-head quantizer is pinned byte-identical to the
    original per-head ``quantize_symmetric`` loop (ISSUE 2 satellite)."""

    @given(
        num_heads=st.integers(1, 5),
        seq_len=st.integers(1, 20),
        head_dim=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_prefill_quantization_matches_loop(self, num_heads, seq_len, head_dim, seed):
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(num_heads, seq_len, head_dim)) * rng.uniform(0.1, 10)
        k_int, scales = quantize_heads(k, bits=8)
        looped = [quantize_symmetric(k[h], bits=8) for h in range(num_heads)]
        assert k_int.tobytes() == np.stack([q.data for q in looped]).tobytes()
        assert scales.tobytes() == np.array([float(q.scale) for q in looped]).tobytes()

    @given(
        num_heads=st.integers(1, 5),
        head_dim=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_append_quantization_matches_loop(self, num_heads, head_dim, seed):
        """Frozen-scale (clipping) path: one step quantized per head."""
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.01, 0.5, size=num_heads)
        step = rng.normal(size=(num_heads, head_dim)) * 3.0  # clips sometimes
        k_int, out_scales = quantize_heads(step, bits=8, scales=scales)
        looped = np.stack(
            [quantize_symmetric(step[h], bits=8, scale=scales[h]).data for h in range(num_heads)]
        )
        assert k_int.tobytes() == looped.tobytes()
        assert np.array_equal(out_scales, scales)

    def test_zero_rows_quantize_with_unit_scale(self):
        """All-zero heads resolve to scale 1.0, exactly like the scalar path."""
        k = np.zeros((2, 3, 4))
        k_int, scales = quantize_heads(k, bits=8)
        assert np.array_equal(scales, np.ones(2))
        assert not k_int.any()

    def test_empty_sequence_quantizes_with_unit_scale(self):
        """S=0 calibrates to scale 1.0 (the scalar quantizer's empty-input
        fallback) instead of crashing on an empty reduction; an empty
        prefill then supports decode appends, on a shared pool and on a
        private one."""
        k_int, scales = quantize_heads(np.zeros((2, 0, 4)), bits=8)
        assert k_int.shape == (2, 0, 4)
        assert np.array_equal(scales, np.ones(2))
        for cache in (
            PadeEngine().new_cache(2, 4, 4, tokens=1),
            PagedBitPlaneKVCache(PlaneBlockPool(2, 4, 4, block_size=4, token_budget=16)),
        ):
            cache.prefill(np.zeros((2, 0, 4)), np.zeros((2, 0, 4)))
            assert cache.length == 0
            cache.append(np.ones((2, 4)), np.ones((2, 4)))
            assert cache.length == 1

    def test_cache_contents_match_looped_reference(self, rng):
        """End-to-end: cache state equals the pre-vectorization algorithm."""
        num_heads, head_dim = 3, 8
        k, v = _kv(rng, num_heads, 10, head_dim, head_dim)
        cache = PadeEngine().new_cache(num_heads, head_dim, head_dim, tokens=10)
        cache.prefill(k[:, :7], v[:, :7])
        for t in range(7, 10):
            cache.append(k[:, t], v[:, t])
        looped_prefill = [quantize_symmetric(k[h, :7], bits=8) for h in range(num_heads)]
        frozen = np.array([float(q.scale) for q in looped_prefill])
        looped_all = np.stack(
            [
                np.concatenate(
                    [
                        looped_prefill[h].data,
                        quantize_symmetric(k[h, 7:], bits=8, scale=frozen[h]).data,
                    ]
                )
                for h in range(num_heads)
            ]
        )
        assert cache.scales.tobytes() == frozen.tobytes()
        assert cache.k_int.tobytes() == looped_all.tobytes()


class TestKeyRowStorage:
    """``_key_rows`` counts plane bits straight from the integers; it is
    pinned equal to ``decompose_bitplanes``' ints and popcounts."""

    @given(
        bits=st.integers(2, 16),
        shape=st.sampled_from([(4, 32), (2, 5, 7), (3, 1), (2, 0, 3), (1, 300)]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_decompose_bitplanes(self, bits, shape, seed):
        rng = np.random.default_rng(seed)
        lo, hi = int_range(bits)
        k_int = rng.integers(lo, hi + 1, size=shape)
        k_int.reshape(-1)[: k_int.size // 2] = lo  # most-negative: only the sign bit set
        if k_int.size:
            k_int.reshape(-1)[-1] = hi
        ints, popcounts = _key_rows(k_int, bits)
        want = decompose_bitplanes(k_int, bits=bits)
        assert ints.dtype == want.ints.dtype and ints.tobytes() == want.ints.tobytes()
        assert popcounts.dtype == want.popcounts.dtype
        assert popcounts.shape == want.popcounts.shape
        assert popcounts.tobytes() == want.popcounts.tobytes()

    @pytest.mark.parametrize("bits", [2, 8, 16])
    def test_out_of_range_rejected(self, bits):
        lo, hi = int_range(bits)
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match="out of int"):
                _key_rows(np.array([[0, bad]]), bits)


class TestPoolLifecycleEdges:
    """ISSUE-5 hardening: lifecycle corners of the ref-counted pool."""

    def _prefilled_pair(self, rng, block_size=4, tokens=6, budget=8):
        """A cache + its fork sharing a pool with zero free blocks."""
        pool = PlaneBlockPool(2, 4, 4, block_size=block_size, token_budget=budget)
        cache = PagedBitPlaneKVCache(pool)
        k, v = _kv(rng, 2, tokens, 4, 4)
        cache.prefill(k, v)
        return pool, cache, cache.fork()

    def test_fork_at_pool_capacity_then_cow_exhaustion(self, rng):
        """Forking a full pool is free (pure sharing); the first divergent
        append needs a COW block, fails loudly, and mutates nothing."""
        pool, cache, clone = self._prefilled_pair(rng)
        assert pool.free_block_count == 0  # capacity: both blocks live
        assert clone.block_table == cache.block_table
        before = (clone.length, clone.block_table, pool.forks)
        with pytest.raises(PoolExhausted):
            clone.append(np.zeros((2, 4)), np.zeros((2, 4)))
        assert (clone.length, clone.block_table, pool.forks) == before
        assert cache.k_int.tobytes() == clone.k_int.tobytes()
        # Freeing the sibling turns the tail exclusive: the retry succeeds
        # in place, still without a single block to spare.
        cache.release()
        clone.append(np.zeros((2, 4)), np.zeros((2, 4)))
        assert clone.length == 7
        assert pool.free_block_count == 0

    def test_cow_skipped_when_refcount_drops_to_one(self, rng):
        """A tail whose last sharer just left is written in place — no
        fresh allocation, no copy, refcount stays 1."""
        pool, cache, clone = self._prefilled_pair(rng, budget=16)
        tail = cache.block_table[-1]
        assert pool.ref_count(tail) == 2
        clone.release()
        assert pool.ref_count(tail) == 1
        used_before, forks_before = pool.used_block_count, pool.forks
        cache.append(np.ones((2, 4)), np.ones((2, 4)))
        assert cache.block_table[-1] == tail  # same physical block
        assert pool.used_block_count == used_before
        assert pool.forks == forks_before

    def test_double_free_detection(self, rng):
        pool = PlaneBlockPool(2, 4, 4, block_size=4, token_budget=16)
        block = pool.allocate()
        pool.release([block])
        with pytest.raises(ValueError, match="not allocated"):
            pool.release([block])
        # Cache-level: a second release() is a harmless no-op (the block
        # list is already empty), not a hidden double free.
        cache = PagedBitPlaneKVCache(pool)
        k, v = _kv(rng, 2, 6, 4, 4)
        cache.prefill(k, v)
        cache.release()
        used = pool.used_block_count
        cache.release()
        assert pool.used_block_count == used == 0

    def test_abort_mid_prefill_releases_partial_prefix_refs(self, rng):
        """Releasing an unfinished chunked prefill drops the attached
        donor references and the freshly written blocks, leaving the
        donor's registrations intact for the next sharer."""
        pool = PlaneBlockPool(2, 4, 4, block_size=4, token_budget=64)
        donor = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        k, v = _kv(rng, 2, 8, 4, 4)
        donor.prefill(k, v)
        assert pool.used_block_count == 2 and donor.prefix_miss_blocks == 2

        # Sharer: same 8-token prefix + a private suffix clipped to the
        # prefix's per-head max-abs so the frozen scales (and therefore
        # the chain keys) match the donor's.
        suffix_k, suffix_v = _kv(rng, 2, 4, 4, 4)
        caps = np.abs(k).reshape(2, -1).max(axis=1)
        suffix_k = np.clip(suffix_k, -caps[:, None, None], caps[:, None, None])
        k2 = np.concatenate([k, suffix_k], axis=1)
        v2 = np.concatenate([v, suffix_v], axis=1)
        sharer = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        sharer.begin_prefill(k2, v2)
        assert sharer.prefix_hit_blocks == 2  # donor blocks attached by ref
        assert all(pool.ref_count(b) == 2 for b in donor.block_table)
        sharer.extend_prefill(2)  # one fresh partial block
        assert pool.used_block_count == 3 and sharer.prefill_remaining == 2

        sharer.release()  # the abort path: mid-prefill, partial refs live
        assert pool.used_block_count == 2
        assert all(pool.ref_count(b) == 1 for b in donor.block_table)
        assert all(pool.is_registered(b) for b in donor.block_table)
        # The index still serves future sharers.
        fresh = PagedBitPlaneKVCache(pool, prefix_sharing=True)
        fresh.prefill(k2, v2)
        assert fresh.prefix_hit_blocks == 2


class TestFlatPoolLedger:
    """A pool without tiering keeps the same plane-unit ledger as a tiered
    one: capacity is its token budget, which its store never outgrows,
    the ladder is empty and every live block stays at full precision."""

    def test_ledger_tracks_blocks_at_full_precision(self, rng):
        pool = PlaneBlockPool(2, 4, 4, bits=8, block_size=4, token_budget=32)
        assert pool.plane_capacity_units == pool.num_blocks * pool.bits
        assert pool.spill_ladder == []
        caches = []
        for tokens in (5, 9, 3):
            cache = PagedBitPlaneKVCache(pool)
            cache.prefill(*_kv(rng, 2, tokens, 4, 4))
            caches.append(cache)
        caches.append(caches[1].fork())
        caches[-1].append(np.ones((2, 4)), np.ones((2, 4)))  # COW tail copy
        for cache in caches:
            used = pool.used_block_count
            assert used > 0
            assert pool.plane_units_used == used * pool.bits
            assert pool.plane_units_free == pool.free_block_count * pool.bits
            assert pool.resident_plane_histogram() == {pool.bits: used}
            assert pool.degraded_blocks() == []
            assert pool.degraded_block_count == 0
            cache.release()
        assert pool.plane_units_used == 0
        assert pool.resident_plane_histogram() == {}

    def test_spill_requires_a_tier_config(self):
        pool = PlaneBlockPool(1, 4, 4, block_size=4, token_budget=16)
        block = pool.allocate()
        with pytest.raises(RuntimeError, match="without tiering"):
            pool.spill_block(block, 2)
        with pytest.raises(RuntimeError, match="without tiering"):
            pool.spill_candidates()
        assert pool.resident_planes(block) == pool.bits
        assert pool.ensure_resident(block) == 0

    def test_unbounded_charged_pool_grows_and_never_raises(self, rng):
        # Charged-footprint serving (h2o, streaming-llm) bills admission
        # against the budget, so its pool has no plane ceiling: the
        # backing store grows past its first blocks, every block it hands
        # out is usable, and rows written before a growth survive it.
        pool = PlaneBlockPool(1, 4, 4, block_size=4, token_budget=None)
        assert pool.plane_capacity_units is None and pool.num_blocks == 0
        cache = PagedBitPlaneKVCache(pool)
        cache.prefill(*_kv(rng, 1, 6, 4, 4))
        k_int, values = cache.k_int.copy(), cache.values.copy()
        blocks = [pool.allocate() for _ in range(14)] + pool.allocate_many(16)
        assert list(cache.block_table) + blocks == list(range(32))
        assert pool.num_blocks >= 32
        assert pool.plane_units_used == 32 * pool.bits
        assert np.array_equal(cache.k_int, k_int)
        assert np.array_equal(cache.values, values)
        pool.release(blocks)
        cache.release()
        assert pool.free_block_count == pool.num_blocks


class TestTruncate:
    """``truncate(m)`` after ``n`` appends (a speculative rollback) leaves
    a cache equal to one that appended only ``m``: the same views, block
    count, pool refcounts and plane units, and later appends overwrite
    the dead rows past the cut."""

    @given(
        block_size=st.sampled_from([1, 3, 4]),
        prompt=st.integers(1, 9),
        appended=st.integers(0, 9),
        cut=st.integers(0, 9),
        regrow=st.integers(0, 4),
        forked=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_truncate_equals_the_shorter_append_run(
        self, block_size, prompt, appended, cut, regrow, forked, seed
    ):
        rng = np.random.default_rng(seed)
        k, v = _kv(rng, 2, prompt + appended, 4, 3)
        k_new, v_new = _kv(rng, 2, regrow, 4, 3)  # a different continuation
        keep = prompt + appended - min(cut, appended)
        if forked and appended and not regrow:
            # A partial prompt tail shared with the sibling is copied on
            # the first append and stays private: keep one appended row.
            keep = max(keep, prompt + 1)

        def build(k_rows, v_rows):
            pool = PlaneBlockPool(2, 4, 3, block_size=block_size, token_budget=64)
            cache = PagedBitPlaneKVCache(pool)
            cache.prefill(k_rows[:, :prompt], v_rows[:, :prompt])
            sibling = cache.fork() if forked else None
            for t in range(prompt, k_rows.shape[1]):
                cache.append(k_rows[:, t], v_rows[:, t])
            return pool, cache, sibling

        pool, cache, _sibling = build(k, v)
        cache.truncate(keep)
        for t in range(regrow):
            cache.append(k_new[:, t], v_new[:, t])
        want_k = np.concatenate([k[:, :keep], k_new], axis=1)
        want_v = np.concatenate([v[:, :keep], v_new], axis=1)
        ref_pool, ref, _ref_sibling = build(want_k, want_v)
        assert_cache_holds(cache, want_k, want_v, prompt)
        assert len(cache.block_table) == len(ref.block_table)
        assert [pool.ref_count(b) for b in cache.block_table] == [
            ref_pool.ref_count(b) for b in ref.block_table
        ]
        assert pool.used_block_count == ref_pool.used_block_count
        assert pool.plane_units_used == ref_pool.plane_units_used

    def test_refuses_to_cut_into_the_prompt(self, rng):
        cache = _fill(*_kv(rng, 2, 9, 4, 3), prefill_len=6, block_size=4)
        for bad in (5, 10):
            with pytest.raises(ValueError, match="cannot truncate"):
                cache.truncate(bad)
        assert cache.length == 9
        with pytest.raises(ValueError, match="cannot truncate"):
            PagedBitPlaneKVCache(cache.pool).truncate(0)


class TestGrowingStore:
    """A pool's backing store grows beneath its LIFO free stack, so a
    growing pool hands out exactly the blocks of one pre-sized to the
    largest store it ever needs."""

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(("allocate", "allocate_many", "release")),
                      st.integers(0, 2**16)),
            max_size=60,
        ),
        start_blocks=st.sampled_from([None, 2, 3]),
    )
    def test_growing_pool_hands_out_presized_block_ids(self, ops, start_blocks):
        """Random allocate/allocate_many/release sequences return the same
        block ids from a growing pool as from a pool pre-sized to 64."""
        # A tiered pool at the floor residency holds ``bits`` blocks per
        # block of plane budget, so a small budget still grows its store.
        tiering = None if start_blocks is None else TierConfig(min_resident_planes=1)
        budget = None if start_blocks is None else start_blocks * 4
        growing = PlaneBlockPool(1, 4, 4, block_size=4, token_budget=budget, tiering=tiering)
        presized = PlaneBlockPool(1, 4, 4, block_size=4, token_budget=64 * 4)
        live = []
        for op, pick in ops:
            if op == "release":
                if live:
                    block = live.pop(pick % len(live))
                    growing.release([block])
                    presized.release([block])
                continue
            count = 1 if op == "allocate" else pick % 4
            if len(live) + count > 24:
                continue
            if tiering is not None:  # spill every live block to the floor
                for block in growing.spill_candidates():
                    growing.spill_block(block, 1)
                if growing.plane_units_free < count * growing.bits:
                    continue
            if op == "allocate":
                got, want = [growing.allocate()], [presized.allocate()]
            else:
                got, want = growing.allocate_many(count), presized.allocate_many(count)
            assert got == want
            live += got
        # Doubling keeps the store within twice the live high-water mark.
        assert growing.free_block_count + growing.used_block_count == growing.num_blocks
        assert growing.num_blocks <= max(2 * growing.peak_used_blocks, start_blocks or 0)
