"""Property tests for the two-tier (plane-progressive spill) pool.

The tiered pool is only sound if spilling is invisible to everything but
the score precision: refcounts, COW sharing, and the free/allocated
accounting must be exactly the flat pool's, a spill → restore round trip
must be byte-identical, writers must never land rows in a degraded
block, and with tiering disabled the pool must behave byte-for-byte like
the pre-tiering code (no tier state, no report columns).  Hypothesis
drives the spill/restore/release schedules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.core.backend import get_backend
from repro.engine import (
    PadeEngine,
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    PoolExhausted,
)
from repro.engine.cache import TierConfig
from repro.quant.bitplane import decompose_bitplanes, prefix_masks


def _tiered_pool(budget_blocks=6, block_size=4, bits=8, min_resident=2,
                 num_heads=2, head_dim=4, plane_budget_blocks=None):
    return PlaneBlockPool(
        num_heads, head_dim, head_dim, bits=bits, block_size=block_size,
        token_budget=budget_blocks * block_size,
        tiering=TierConfig(min_resident_planes=min_resident),
        plane_budget_blocks=plane_budget_blocks,
    )


def _fill_cache(pool, rng, tokens):
    cache = PagedBitPlaneKVCache(pool)
    k = rng.normal(size=(pool.num_heads, tokens, pool.head_dim))
    v = rng.normal(size=(pool.num_heads, tokens, pool.v_dim))
    cache.prefill(k, v)
    return cache


def _check_tier_invariants(pool):
    """Accounting invariants that must hold after every operation."""
    live = pool._allocated
    # Plane units are exactly the sum of live residencies.
    assert pool.plane_units_used == sum(pool.resident_planes(b) for b in live)
    assert pool.plane_units_used <= pool.plane_capacity_units
    for block in live:
        r = pool.resident_planes(block)
        assert pool.tiering.min_resident_planes <= r <= pool.bits
        rows = pool.rows_of(block)
        low_bits = (1 << (pool.bits - r)) - 1
        # Resident rows hold planes [0, r) only: low bits clear, counts 0.
        assert not (pool._keys[:, rows] & low_bits).any()
        assert not pool._popcounts[r:, :, rows].any()
        if r < pool.bits:
            # The spill store holds exactly the missing planes.
            store = pool._spill_store[block]
            assert store.popcounts.shape[0] == pool.bits - r
            assert not (store.low & ~low_bits).any()
        else:
            assert block not in pool._spill_store
    # Free blocks carry no tier state.
    for block in pool._free:
        assert block not in pool._resident
        assert block not in pool._spill_store


class TestPoolLifecycle:
    @given(
        schedule=st.lists(st.integers(0, 3), min_size=1, max_size=24),
        min_resident=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_spill_restore_release_preserves_accounting(
        self, schedule, min_resident, seed
    ):
        """Any interleaving of fill/spill/restore/release keeps the
        plane-unit and refcount books balanced and leaks nothing."""
        rng = np.random.default_rng(seed)
        pool = _tiered_pool(budget_blocks=6, min_resident=min_resident)
        ladder = pool.tiering.ladder(pool.bits)
        caches = []
        for op in schedule:
            if op == 0 and len(caches) < 3:  # fill a fresh cache
                try:
                    caches.append(_fill_cache(pool, rng, int(rng.integers(1, 8))))
                except PoolExhausted:
                    pass
            elif op == 1:  # spill the coldest candidate one ladder level
                for block in pool.spill_candidates()[:1]:
                    current = pool.resident_planes(block)
                    target = next((t for t in ladder if t < current), None)
                    if target is not None:
                        pool.spill_block(block, target)
            elif op == 2:  # prefetch-restore the coldest degraded block
                for block in pool.degraded_blocks()[:1]:
                    missing = pool.bits - pool.resident_planes(block)
                    if pool.plane_units_free >= missing:
                        pool.restore_block(block)
            elif op == 3 and caches:  # retire the oldest cache
                caches.pop(0).release()
            _check_tier_invariants(pool)
        for cache in caches:
            cache.release()
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0
        assert not pool._spill_store
        assert not pool._resident
        assert pool.free_block_count == pool.num_blocks

    @given(
        tokens=st.integers(1, 16),
        target=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_spill_restore_roundtrip_is_byte_identical(self, tokens, target, seed):
        """Restoring a spilled block reproduces its key rows and popcounts
        exactly; while spilled, the low planes read as zero (partial
        reconstruction)."""
        rng = np.random.default_rng(seed)
        pool = _tiered_pool(budget_blocks=6, min_resident=1)
        cache = _fill_cache(pool, rng, tokens)
        block = cache.block_table[0]
        rows = slice(block * pool.block_size, (block + 1) * pool.block_size)
        keys, counts = pool._keys[:, rows].copy(), pool._popcounts[:, :, rows].copy()
        before = decompose_bitplanes(keys, bits=pool.bits).planes
        moved = pool.spill_block(block, target)
        assert moved == pool.bits - target
        spilled = decompose_bitplanes(pool._keys[:, rows], bits=pool.bits).planes
        assert not spilled[target:].any()
        assert (spilled[:target] == before[:target]).all()
        assert not pool._popcounts[target:, :, rows].any()
        assert (pool._popcounts[:target, :, rows] == counts[:target]).all()
        pool.restore_block(block)
        assert pool._keys[:, rows].tobytes() == keys.tobytes()
        assert pool._popcounts[:, :, rows].tobytes() == counts.tobytes()
        cache.release()

    @given(seed=st.integers(0, 2**16))
    def test_writes_into_spilled_blocks_restore_first(self, seed):
        """Appending into a degraded tail block must not leave the fresh
        row's planes half-spilled (a later restore would clobber them)."""
        rng = np.random.default_rng(seed)
        pool = _tiered_pool(budget_blocks=6, block_size=4)
        cache = _fill_cache(pool, rng, 5)  # tail block half-full
        tail = cache.block_table[-1]
        pool.spill_block(tail, pool.tiering.min_resident_planes)
        k = rng.normal(size=(pool.num_heads, pool.head_dim))
        v = rng.normal(size=(pool.num_heads, pool.v_dim))
        cache.append(k, v)
        assert pool.resident_planes(tail) == pool.bits
        assert tail not in pool._spill_store
        cache.release()
        assert pool.plane_units_used == 0


class TestSharingAndCow:
    @given(seed=st.integers(0, 2**16))
    def test_fork_of_spilled_block_restores_then_copies(self, seed):
        """COW-forking a shared degraded block first restores it, so the
        fork is a byte-identical full-precision copy."""
        rng = np.random.default_rng(seed)
        pool = _tiered_pool(budget_blocks=6, block_size=4)
        cache = _fill_cache(pool, rng, 4)
        block = cache.block_table[0]
        pool.share(block)  # a second owner appears
        pool.spill_block(block, pool.tiering.min_resident_planes)
        fork = pool.fork_block(block, rows_used=4)
        assert pool.resident_planes(block) == pool.bits
        assert pool.resident_planes(fork) == pool.bits
        src = slice(block * pool.block_size, (block + 1) * pool.block_size)
        dst = slice(fork * pool.block_size, (fork + 1) * pool.block_size)
        assert pool._keys[:, src].tobytes() == pool._keys[:, dst].tobytes()
        assert pool._popcounts[:, :, src].tobytes() == pool._popcounts[:, :, dst].tobytes()
        # The fork consumed the share() reference; only the cache's remains.
        assert pool.ref_count(block) == 1
        pool.release([fork])
        cache.release()
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0

    def test_protected_blocks_are_never_spill_candidates(self):
        rng = np.random.default_rng(0)
        pool = _tiered_pool(budget_blocks=6)
        cache = _fill_cache(pool, rng, 8)
        pool.set_protected(cache.block_table)
        assert pool.spill_candidates() == []
        pool.set_protected([])
        assert set(pool.spill_candidates()) == set(cache.block_table)
        cache.release()

    def test_plane_budget_exhaustion_raises_and_spill_unblocks(self):
        rng = np.random.default_rng(1)
        pool = _tiered_pool(budget_blocks=6, plane_budget_blocks=2, block_size=4)
        cache = _fill_cache(pool, rng, 8)  # 2 blocks = entire plane budget
        with pytest.raises(PoolExhausted):
            pool.allocate()
        for block in cache.block_table:
            pool.spill_block(block, pool.tiering.min_resident_planes)
        extra = pool.allocate()  # freed units admit a new block
        pool.release([extra])
        cache.release()
        assert pool.plane_units_used == 0


class TestResidentPlaneView:
    """``PagedBitPlaneKVCache.planes`` gathers integer key rows and stored
    popcounts: under any interleaving of the pool's write paths its planes
    must equal the decomposition of the pool's key rows, its stored
    popcounts must equal the counts of those planes (spilled planes read
    0), and no view it handed out earlier may ever change."""

    OPS = ("append", "admit", "extend", "fork", "spill", "restore", "release", "readmit")

    @staticmethod
    def _check_views(pool, caches, published):
        _check_tier_invariants(pool)
        for cache in caches:
            if cache._scales is None:
                continue
            view = cache.planes
            keys = pool._keys[:, cache._rows_for(0, cache.length), :]
            fresh = decompose_bitplanes(keys, bits=pool.bits)
            assert np.array_equal(view.ints, keys)
            assert view.planes.tobytes() == fresh.planes.tobytes()
            assert view.popcounts.dtype == fresh.popcounts.dtype
            assert np.array_equal(view.popcounts, fresh.popcounts)
            published.append(
                (view, view.ints.tobytes(), view.planes.tobytes(), view.popcounts.tobytes())
            )
        for view, ints_bytes, planes_bytes, counts_bytes in published:
            assert view.ints.tobytes() == ints_bytes
            assert view.planes.tobytes() == planes_bytes
            assert view.popcounts.tobytes() == counts_bytes

    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)), min_size=8, max_size=30
        ),
        seed=st.integers(0, 2**16),
    )
    def test_view_matches_fresh_gather_under_interleavings(self, steps, seed):
        rng = np.random.default_rng(seed)
        pool = PlaneBlockPool(
            2, 5, 3, bits=8, block_size=4, token_budget=20 * 4,
            tiering=TierConfig(min_resident_planes=2),
        )
        # Every prompt shares an 8-token (two-block) prefix; suffixes are
        # too small to move the per-head scales, so prefix blocks attach.
        prefix_k = rng.normal(size=(2, 8, 5))
        prefix_v = rng.normal(size=(2, 8, 3))

        def prompt():
            n = int(rng.integers(1, 7))
            k = np.concatenate([prefix_k, 0.01 * rng.normal(size=(2, n, 5))], axis=1)
            v = np.concatenate([prefix_v, rng.normal(size=(2, n, 3))], axis=1)
            return k, v

        caches, prompts, published = [], {}, []
        for _ in range(2):  # two sealed sequences to start from
            cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
            prompts[id(cache)] = prompt()
            cache.prefill(*prompts[id(cache)])
            caches.append(cache)
        for op, pick in steps:
            live = [c for c in caches if c._scales is not None]
            sealed = [c for c in live if c._pending_keys is None]
            pending = [c for c in live if c._pending_keys is not None]
            try:
                if op == "append" and sealed:
                    sealed[pick % len(sealed)].append(
                        rng.normal(size=(2, 5)), rng.normal(size=(2, 3))
                    )
                elif op == "admit" and len(live) < 5:
                    cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
                    prompts[id(cache)] = prompt()
                    cache.begin_prefill(*prompts[id(cache)])
                    caches.append(cache)
                elif op == "extend" and pending:  # chunked prefill, 3 rows a chunk
                    cache = pending[pick % len(pending)]
                    cache.extend_prefill(3)
                    if cache.prefill_remaining == 0:
                        cache.finish_prefill()
                elif op == "fork" and sealed and len(live) < 5:
                    parent = sealed[pick % len(sealed)]
                    child = parent.fork()
                    prompts[id(child)] = prompts[id(parent)]
                    caches.append(child)
                elif op == "spill":
                    candidates = pool.spill_candidates()
                    if candidates:
                        block = candidates[pick % len(candidates)]
                        deeper = [t for t in pool.tiering.ladder(pool.bits)
                                  if t < pool.resident_planes(block)]
                        if deeper:
                            pool.spill_block(block, deeper[pick % len(deeper)])
                elif op == "restore":
                    degraded = pool.degraded_blocks()
                    if degraded:
                        block = degraded[pick % len(degraded)]
                        level = pool.resident_planes(block) + 1 + pick % 2
                        pool.restore_block(block, min(level, pool.bits))
                elif op == "release" and live:  # frees blocks for reuse
                    live[pick % len(live)].release()
                elif op == "readmit" and sealed:  # preempt, then prefill again
                    cache = sealed[pick % len(sealed)]
                    cache.release()
                    cache.prefill(*prompts[id(cache)])
            except PoolExhausted:
                pass
            self._check_views(pool, caches, published)
        for cache in caches:
            cache.release()
        assert pool.used_block_count == 0


class TestIntegerStore:
    """Spill and restore act on the one stored integer K by masking."""

    @given(
        bits=st.sampled_from([4, 8, 12, 16]),
        min_resident=st.integers(1, 3),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_spill_restore_sequences_keep_bytes_and_popcounts(
        self, bits, min_resident, ops, seed
    ):
        """Any sequence of spills down to the floor and partial or full
        restores keeps every resident plane's bits and popcount, reads
        spilled planes' popcounts as 0, and ends byte-identical."""
        rng = np.random.default_rng(seed)
        pool = _tiered_pool(budget_blocks=4, bits=bits, min_resident=min_resident)
        cache = _fill_cache(pool, rng, 2 * pool.block_size)
        block = cache.block_table[1]
        rows = pool.rows_of(block)
        keys, counts = pool._keys[:, rows].copy(), pool._popcounts[:, :, rows].copy()
        assert pool._keys.dtype == (np.int8 if bits <= 8 else np.int16)
        masks = prefix_masks(bits)
        for spill, pick in ops:
            current = pool.resident_planes(block)
            if spill and current > min_resident:
                pool.spill_block(block, min_resident + pick % (current - min_resident))
            elif not spill and current < bits:
                pool.restore_block(block, current + 1 + pick % (bits - current))
            r = pool.resident_planes(block)
            assert np.array_equal(pool._keys[:, rows], keys & masks[r - 1])
            assert np.array_equal(pool._popcounts[:r, :, rows], counts[:r])
            assert not pool._popcounts[r:, :, rows].any()
        pool.restore_block(block)
        assert pool._keys[:, rows].tobytes() == keys.tobytes()
        assert pool._popcounts[:, :, rows].tobytes() == counts.tobytes()
        cache.release()

    @pytest.mark.parametrize("bits", [8, 12])
    def test_fast_equals_reference_on_degraded_paged_cache(self, bits):
        """Every ``BSFResult`` field of every fast entry point equals the
        reference backend on views of a paged cache with degraded blocks
        (int8 storage at 8 bits, int16 above)."""
        rng = np.random.default_rng(bits)
        pool = _tiered_pool(budget_blocks=24, bits=bits, min_resident=2, head_dim=6)
        caches = [_fill_cache(pool, rng, n) for n in (13, 22, 5)]
        for i, block in enumerate(pool.spill_candidates()[::2]):
            pool.spill_block(block, 2 + i % (bits - 2))
        assert pool.degraded_block_count > 0
        views = [c.planes for c in caches]
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        qs = [rng.integers(lo, hi + 1, size=(pool.num_heads, 2, pool.head_dim)) for _ in caches]
        scale = float(1 << (2 * bits - 3))
        guards = [np.array([0.0, np.inf]), np.array([scale, 0.25 * scale]), np.zeros(2)]
        protects = [None, rng.random((pool.num_heads, 2, 22)) < 0.2, None]
        fast, ref = get_backend("fast"), get_backend("reference")
        want = ref.filter_heads_batch(qs, views, guards, protects=protects)
        got = fast.filter_heads_batch(qs, views, guards, protects=protects)
        for i, w in enumerate(want):
            _assert_fields_equal(got[i], w)
            _assert_fields_equal(
                fast.filter_heads(qs[i], views[i], guards[i], protect=protects[i]), w
            )
            for h in range(pool.num_heads):  # the single-head kernel
                head = decompose_bitplanes(views[i].ints[h], bits=bits)
                _assert_fields_equal(
                    fast.filter(qs[i][h], head, guards[i][h]),
                    ref.filter(qs[i][h], head, guards[i][h]),
                )
        for cache in caches:
            cache.release()


def _assert_fields_equal(got, want):
    for name in ("retained", "planes_processed", "scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("bit_plane_loads", "effective_bit_ops", "naive_bit_ops"):
        assert getattr(got, name) == getattr(want, name), name


class TestSchedulerIntegration:
    def _overload(self, tiering):
        from repro.eval.workloads import build_serving_workload

        engine = PadeEngine(PadeConfig.standard())
        workload = build_serving_workload(6, 4, 32, 40, 32, rate=1.5, seed=7)
        results = engine.serve(
            workload, max_active=5, token_budget=224, block_size=16,
            tiering=tiering,
        )
        return results, engine.last_serve

    def test_overloaded_tiered_serve_leaks_nothing(self):
        results, scheduler = self._overload(TierConfig(min_resident_planes=4))
        assert all(r.status == "ok" for r in results.values())
        assert scheduler.spill_reliefs > 0, "overload never spilled"
        pool = scheduler.pool
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0
        assert not pool._spill_store

    def test_disabled_tiering_matches_flat_pool_and_hides_columns(self):
        from repro.eval.serving_metrics import summarize_serving

        results, scheduler = self._overload(None)
        assert scheduler.tiering is None
        pool = scheduler.pool
        assert pool.tiering is None
        assert pool.spill_events == 0 and pool.restore_events == 0
        report = summarize_serving(
            results.values(), occupancy=scheduler.occupancy,
            token_budget=pool.token_budget, scheduler=scheduler,
        )
        leaked = [
            k for k in report
            if "tier" in k or "spill" in k or "planes_resident" in k
            or "degraded" in k
        ]
        assert not leaked, f"disabled run leaked tiering columns: {leaked}"

    def test_tiering_requires_the_pade_policy(self):
        from repro.eval.workloads import build_serving_workload

        engine = PadeEngine(PadeConfig.standard(), policy="h2o")
        workload = build_serving_workload(2, 4, 32, 4, 32, rate=0.5, seed=0)
        with pytest.raises(ValueError, match="pade"):
            engine.serve(workload, token_budget=256, tiering=True)


class TestTierConfigValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            TierConfig(min_resident_planes=0)
        with pytest.raises(ValueError):
            TierConfig(restore_blocks_per_round=-1)
        with pytest.raises(ValueError):
            TierConfig(min_resident_planes=8).ladder(8)

    def test_ladder_halves_down_to_the_floor(self):
        assert TierConfig(min_resident_planes=2).ladder(8) == [4, 2]
        assert TierConfig(min_resident_planes=1).ladder(8) == [4, 2, 1]
        assert TierConfig(min_resident_planes=3).ladder(8) == [4, 3]

    def test_floor_at_or_above_bits_rejected_by_pool(self):
        with pytest.raises(ValueError):
            _tiered_pool(min_resident=8)
