"""Fork-based serving modes: parallel sampling, speculative decoding,
and the fork/tiering interaction.

Forking is only sound if the copy-on-write clone is byte-exact even when
the donor's blocks are partially spilled to the cold tier, if the
charged-footprint admission books count physically shared blocks once,
and if every lineage/anchor reference drains back to the pool no matter
how the request ends (completion, rollback, preemption, eviction).
Hypothesis drives the fork → spill → preempt → restore lifecycles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.engine import (
    PadeEngine,
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    PoolExhausted,
)
from repro.engine.cache import TierConfig
from repro.eval.workloads import (
    build_engine_request,
    build_parallel_workload,
    build_speculative_request,
    build_speculative_workload,
)

SPILL_DEPTH = 4  # resident planes during the regression forks


def _tiered_pool(budget_blocks=8, block_size=4, bits=8, num_heads=2, head_dim=4):
    return PlaneBlockPool(
        num_heads, head_dim, head_dim, bits=bits, block_size=block_size,
        token_budget=budget_blocks * block_size,
        tiering=TierConfig(min_resident_planes=2),
    )


def _fill_cache(pool, rng, tokens):
    cache = PagedBitPlaneKVCache(pool)
    k = rng.normal(size=(pool.num_heads, tokens, pool.head_dim))
    v = rng.normal(size=(pool.num_heads, tokens, pool.v_dim))
    cache.prefill(k, v)
    return cache


def _block_bytes(pool, block):
    """Stored integer key rows and per-plane popcounts of ``block``."""
    rows = pool.rows_of(block)
    return pool._keys[:, rows, :].tobytes() + pool._popcounts[:, :, rows].tobytes()


class TestForkUnderTiering:
    """Satellite: COW fork of spilled donors must restore before copying
    and must not double-count plane units for shared blocks."""

    def test_fork_at_spill_depth_restores_byte_exact(self):
        rng = np.random.default_rng(3)
        pool = _tiered_pool()
        cache = _fill_cache(pool, rng, 8)
        donor = cache.block_table[0]
        full = _block_bytes(pool, donor)
        pool.share(donor)  # second owner, so fork_block must copy
        pool.spill_block(donor, SPILL_DEPTH)
        assert pool.resident_planes(donor) == SPILL_DEPTH
        fork = pool.fork_block(donor, rows_used=pool.block_size)
        # The donor came home before the copy: both sides are the full-
        # precision original, byte for byte.
        assert pool.resident_planes(donor) == pool.bits
        assert pool.resident_planes(fork) == pool.bits
        assert _block_bytes(pool, donor) == full
        assert _block_bytes(pool, fork) == full
        pool.release([fork])
        cache.release()
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0

    def test_shared_spilled_blocks_count_plane_units_once(self):
        """share() adds a reference, not plane units: the accounting is
        per physical block, so a partially spilled shared block holds
        exactly its resident planes — once."""
        rng = np.random.default_rng(4)
        pool = _tiered_pool()
        cache = _fill_cache(pool, rng, 8)
        base = pool.plane_units_used
        for block in cache.block_table:
            pool.share(block)
        assert pool.plane_units_used == base  # sharing is free
        pool.spill_block(cache.block_table[0], SPILL_DEPTH)
        spilled = pool.bits - SPILL_DEPTH
        assert pool.plane_units_used == base - spilled
        assert pool.plane_units_used == sum(
            pool.resident_planes(b) for b in pool._allocated
        )
        pool.release(list(cache.block_table))  # the share() refs
        cache.release()
        assert pool.plane_units_used == 0

    def test_cache_fork_then_divergence_over_spilled_donor(self):
        """Full-cache fork at spill depth 4: divergent appends on both
        sides stay byte-exact and the donor's shared prefix survives."""
        rng = np.random.default_rng(5)
        pool = _tiered_pool(budget_blocks=12)
        cache = _fill_cache(pool, rng, 6)  # 1.5 blocks: shared + tail
        for block in cache.block_table:
            pool.spill_block(block, SPILL_DEPTH)
        clone = cache.fork()
        k = rng.normal(size=(pool.num_heads, pool.head_dim))
        v = rng.normal(size=(pool.num_heads, pool.v_dim))
        cache.append(k, v)  # COW-forks the shared tail
        clone.append(-k, -v)
        assert cache.block_table[-1] != clone.block_table[-1]
        shared = cache.block_table[0]
        assert shared == clone.block_table[0]
        # Divergence restored the tails; the appended rows read back
        # exactly on both lineages.
        np.testing.assert_array_equal(cache.k_float[:, -1, :], k)
        np.testing.assert_array_equal(clone.k_float[:, -1, :], -k)
        np.testing.assert_array_equal(cache.values[:, -1, :], v)
        np.testing.assert_array_equal(clone.values[:, -1, :], -v)
        clone.release()
        cache.release()
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0
        assert not pool._spill_store


class TestChargedFootprintAdmission:
    """Satellite: n-best requests admit on the deduplicated charged set."""

    def test_parallel_request_charges_shared_prompt_once(self):
        engine = PadeEngine(PadeConfig.standard())
        [req] = build_parallel_workload(1, 4, 64, 4, 32, n_samples=4, seed=0)
        # Replicating the full footprint per lineage would need
        # 4 * (64 + 4) = 272 tokens — over this budget.  The dedup
        # charge (shared prompt once + per-lineage tails) fits.
        assert req.n_samples * req.total_tokens > 192
        results = engine.serve([req], max_active=2, token_budget=192,
                               block_size=16)
        assert results[req.request_id].status == "ok"
        assert len(results[req.request_id].sample_outputs) == 3
        pool = engine.last_serve.pool
        assert pool.used_block_count == 0

    def test_replicated_footprint_would_be_rejected(self):
        """The same request under the replicated (pre-dedup) charge is
        provably unservable: pin the budget the dedup accounting saves."""
        engine = PadeEngine(PadeConfig.standard())
        [req] = build_parallel_workload(1, 4, 64, 4, 32, n_samples=4, seed=0)
        scheduler_charge = None
        results = engine.serve([req], max_active=2, token_budget=192,
                               block_size=16)
        scheduler = engine.last_serve
        scheduler_charge = scheduler._charge_tokens(req)
        assert scheduler_charge <= 192 < req.n_samples * req.total_tokens
        assert results[req.request_id].status == "ok"


class TestSpeculativeServing:
    def _serve(self, reqs, **kw):
        engine = PadeEngine(PadeConfig.standard())
        kw.setdefault("max_active", 4)
        kw.setdefault("token_budget", 4096)
        kw.setdefault("block_size", 16)
        results = engine.serve(reqs, **kw)
        return results, engine.last_serve

    def test_draft_friendly_workload_accepts_everything(self):
        req = build_speculative_request("s0", 4, 64, 12, 32, seed=1)
        results, sched = self._serve([req])
        assert results["s0"].status == "ok"
        assert results["s0"].decode_outputs.shape[1] == 12
        assert sched.spec_accepted_tokens == sched.spec_drafted_tokens
        assert sched.spec_rollbacks == 0
        # >= 1.5x the plain one-token-per-round cadence.
        assert sched.spec_emitted_tokens / sched.spec_rounds >= 1.5
        assert sched.pool.used_tokens == 0

    def test_hostile_workload_rolls_back_and_still_completes(self):
        """A random (draft-hostile) stream rejects almost every draft:
        every round must still emit the verifier's bonus token, rewind to
        the anchor, and leak nothing."""
        req = build_engine_request("h0", 4, 32, 10, 32, seed=2)
        from dataclasses import replace

        req = replace(req, speculative=True, draft_tokens=4)
        results, sched = self._serve([req], token_budget=1024)
        assert results["h0"].status == "ok"
        assert results["h0"].decode_outputs.shape[1] == 10
        assert np.isfinite(results["h0"].decode_outputs).all()
        assert sched.spec_rollbacks > 0
        assert sched.spec_emitted_tokens == 10
        assert sched.pool.used_tokens == 0

    def test_speculative_requires_pade_verifier(self):
        engine = PadeEngine(PadeConfig.standard(), policy="h2o")
        req = build_speculative_request("s0", 4, 32, 4, 32)
        with pytest.raises(ValueError, match="pade"):
            engine.serve([req], token_budget=1024)

    def test_non_draftable_draft_policy_is_rejected(self):
        engine = PadeEngine(PadeConfig.standard())
        req = build_speculative_request("s0", 4, 32, 4, 32)
        with pytest.raises(ValueError, match="speculative draft"):
            engine.serve([req], token_budget=1024, draft_policy="h2o")

    def test_spec_counters_flow_into_the_report(self):
        from repro.eval.serving_metrics import summarize_serving

        reqs = build_speculative_workload(3, 4, 32, 8, 32, seed=5)
        results, sched = self._serve(reqs)
        report = summarize_serving(
            results.values(), occupancy=sched.occupancy,
            token_budget=sched.pool.token_budget, scheduler=sched,
        )
        assert report["spec_rounds"] > 0
        assert report["accepted_tokens_per_round"] >= 1.5
        assert 0.0 <= report["draft_acceptance_rate"] <= 1.0

    def test_disabled_modes_report_no_spec_or_parallel_columns(self):
        from repro.eval.serving_metrics import summarize_serving
        from repro.eval.workloads import build_serving_workload

        reqs = build_serving_workload(3, 4, 32, 6, 32, rate=0.5, seed=0)
        results, sched = self._serve(reqs, token_budget=1024)
        report = summarize_serving(
            results.values(), occupancy=sched.occupancy,
            token_budget=sched.pool.token_budget, scheduler=sched,
        )
        leaked = [k for k in report if "spec" in k or "parallel" in k
                  or "amplification" in k or "draft" in k]
        assert not leaked, f"plain run leaked fork-mode columns: {leaked}"


class TestParallelSampling:
    def test_lineages_return_distinct_outputs_and_leak_nothing(self):
        engine = PadeEngine(PadeConfig.standard())
        reqs = build_parallel_workload(2, 4, 32, 6, 32, n_samples=3, seed=7)
        results = engine.serve(reqs, max_active=4, token_budget=2048,
                               block_size=16)
        sched = engine.last_serve
        for req in reqs:
            res = results[req.request_id]
            assert res.status == "ok"
            assert len(res.sample_outputs) == 2
            assert res.decode_outputs.shape == res.sample_outputs[0].shape
            # Different decode streams: the lineages genuinely diverge.
            assert not np.allclose(res.decode_outputs, res.sample_outputs[0])
            assert len(res.sample_retained) == 2
            assert len(res.sample_retained[0]) == res.decode_outputs.shape[1]
        assert sched.parallel_requests == 2
        assert sched.parallel_unique_blocks < sched.parallel_replicated_blocks
        assert sched.pool.used_tokens == 0

    def test_pool_amplification_reported_below_replication(self):
        from repro.eval.serving_metrics import summarize_serving

        engine = PadeEngine(PadeConfig.standard())
        reqs = build_parallel_workload(4, 4, 64, 4, 32, n_samples=4, seed=9)
        results = engine.serve(reqs, max_active=4, token_budget=4096,
                               block_size=16)
        sched = engine.last_serve
        report = summarize_serving(
            results.values(), occupancy=sched.occupancy,
            token_budget=sched.pool.token_budget, scheduler=sched,
        )
        n = 4
        assert 1.0 <= report["pool_amplification_factor"] < n / 2

    def test_parallel_requires_pade_policy(self):
        engine = PadeEngine(PadeConfig.standard(), policy="h2o")
        reqs = build_parallel_workload(1, 4, 32, 4, 32, n_samples=2, seed=0)
        with pytest.raises(ValueError, match="pade"):
            engine.serve(reqs, token_budget=1024)


class TestForkUnderPressureLifecycle:
    """Hypothesis: fork-heavy serving under pressure never leaks blocks
    and survivors decode byte-identically to an unpressured run."""

    @settings(deadline=None, max_examples=12)
    @given(
        n_samples=st.integers(2, 4),
        budget_blocks=st.integers(14, 24),
        seed=st.integers(0, 2**16),
    )
    def test_parallel_under_pressure_leaks_nothing(
        self, n_samples, budget_blocks, seed
    ):
        engine = PadeEngine(PadeConfig.standard())
        reqs = build_parallel_workload(
            3, 2, 24, 6, 16, n_samples=n_samples, rate=1.0, seed=seed
        )
        results = engine.serve(
            reqs, max_active=2, token_budget=budget_blocks * 8, block_size=8,
        )
        sched = engine.last_serve
        assert all(r.status == "ok" for r in results.values())
        assert sched.pool.used_tokens == 0
        assert sched.pool.used_block_count == 0

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**16), budget_blocks=st.integers(16, 28))
    def test_tiered_spec_pressure_leaks_nothing(self, seed, budget_blocks):
        """fork → spill → preempt → restore: speculative requests under a
        tiered pool tight enough to force spills (and possibly
        preemptions) complete clean — no leaked blocks, no stranded
        spill-store entries, no plane units."""
        engine = PadeEngine(PadeConfig.standard())
        reqs = build_speculative_workload(3, 2, 24, 8, 16, rate=1.5, seed=seed)
        results = engine.serve(
            reqs, max_active=3, token_budget=budget_blocks * 8, block_size=8,
            tiering=TierConfig(min_resident_planes=2, restore_blocks_per_round=2),
        )
        pool = engine.last_serve.pool
        assert all(r.status == "ok" for r in results.values())
        assert pool.used_block_count == 0
        assert pool.plane_units_used == 0
        assert not pool._spill_store

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**16))
    def test_pressured_survivors_match_unpressured_run(self, seed):
        """Preemption/spill pressure must be invisible in the bytes: the
        same workload served under a generous budget and a tight tiered
        one returns identical outputs for every completed request."""
        reqs = build_parallel_workload(2, 2, 16, 5, 16, n_samples=2, seed=seed)
        outs = {}
        for tag, kw in (
            ("roomy", dict(token_budget=2048)),
            ("tight", dict(token_budget=14 * 8,
                           tiering=TierConfig(min_resident_planes=2))),
        ):
            engine = PadeEngine(PadeConfig.standard())
            results = engine.serve(
                reqs, max_active=1, block_size=8, **kw
            )
            assert all(r.status == "ok" for r in results.values())
            outs[tag] = {
                rid: (r.decode_outputs.tobytes(),
                      tuple(s.tobytes() for s in r.sample_outputs))
                for rid, r in results.items()
            }
            assert engine.last_serve.pool.used_block_count == 0
        assert outs["roomy"] == outs["tight"]


class TestWallTpotSingleToken:
    """Satellite: 1-token completions carry no wall-TPOT sample; the
    report must say "no data", not "0 ms per token"."""

    def test_single_token_completions_emit_count_only(self):
        from repro.eval.serving_metrics import RequestTiming, summarize_serving

        timings = [
            RequestTiming(
                request_id=f"r{i}", arrival_time=0.0, admit_time=0.0,
                first_token_time=1.0, finish_time=1.0, prompt_tokens=8,
                decode_tokens=1, wall_arrival_ms=0.0, wall_admit_ms=0.5,
                wall_first_token_ms=2.0, wall_finish_ms=2.0,
            )
            for i in range(3)
        ]
        report = summarize_serving(timings)
        assert report["n_wall_tpot_ms"] == 0.0
        tpot_keys = [k for k in report if "wall_tpot" in k]
        assert tpot_keys == ["n_wall_tpot_ms"], tpot_keys
        # TTFT is still fully reported — the first token is its sample.
        assert report["n_wall_ttft_ms"] == 3.0
