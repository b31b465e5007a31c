"""AttentionPolicy layer: registry, incremental/one-shot parity, footprints.

The parity property ISSUE 4 pins down: for each converted baseline, an
incremental policy decoding a random sequence step by step through the
engine produces, at every step, the same retained mask row the legacy
one-shot function computes for that query, allclose outputs, and the
same cost accounting.  Hypothesis drives the shapes/budgets; the
tensors come from seeded generators so runs are reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attention.baselines import (
    double_sparsity_attention,
    h2o_decode,
    minference_attention,
    quest_attention,
    streaming_llm_attention,
    topk_oracle_attention,
)
from repro.attention.baselines.double_sparsity import (
    DoubleSparsityPolicy,
    select_heavy_channels,
)
from repro.attention.policy import (
    POLICY_REGISTRY,
    available_policies,
    get_policy,
    resolve_policy,
)
from repro.core import PadeConfig
from repro.engine import PadeEngine, PagedBitPlaneKVCache, PlaneBlockPool
from repro.eval.workloads import build_serving_workload


def _problem(seed, prompt_len, steps, head_dim=12):
    rng = np.random.default_rng(seed)
    total = prompt_len + steps
    return (
        rng.normal(size=(total, head_dim)),
        rng.normal(size=(total, head_dim)),
        rng.normal(size=(steps, head_dim)),
    )


def _decode_incremental(policy, k, v, q, prompt_len, block_size=16):
    """Single-head incremental decode through the policy-routed engine.

    The cache's pool has ``block_size``-token blocks: Quest pages snap to
    them, so a Quest run passes its page size here.
    """
    engine = PadeEngine(PadeConfig.standard(), policy=policy)
    pool = PlaneBlockPool(
        1, k.shape[1], v.shape[1], block_size=block_size,
        token_budget=-(-k.shape[0] // block_size) * block_size,
    )
    cache = PagedBitPlaneKVCache(pool)
    engine.prefill(cache, k[None, :prompt_len], v[None, :prompt_len],
                   total_tokens=k.shape[0])
    masks, outputs, costs = [], [], []
    for t in range(q.shape[0]):
        res = engine.decode_step(
            cache, q[None, t], k[None, prompt_len + t], v[None, prompt_len + t]
        )
        masks.append(res.retained[0, 0])
        outputs.append(res.output[0, 0])
        costs.append((res.prediction_cost, res.execution_cost))
    return masks, outputs, costs


def _assert_step_parity(masks, outputs, legacy, prompt_len):
    """Every incremental step row equals the legacy one-shot row."""
    for t, (mask, out) in enumerate(zip(masks, outputs)):
        visible = prompt_len + t + 1
        np.testing.assert_array_equal(mask, legacy.retained[t, :visible])
        assert not legacy.retained[t, visible:].any()
        np.testing.assert_allclose(out, legacy.output[t], atol=1e-12)


shapes = st.tuples(
    st.integers(min_value=6, max_value=48),   # prompt length
    st.integers(min_value=1, max_value=8),    # decode steps
    st.integers(min_value=0, max_value=10_000),  # tensor seed
)
budgets = st.sampled_from([0.1, 0.2, 0.3, 0.5])


class TestIncrementalOneShotParity:
    @given(shape=shapes, keep=budgets, sinks=st.integers(min_value=1, max_value=6))
    def test_streaming_llm(self, shape, keep, sinks):
        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        masks, outs, costs = _decode_incremental(
            get_policy("streaming-llm", keep_fraction=keep, sink_tokens=sinks),
            k, v, q, prompt_len,
        )
        legacy = streaming_llm_attention(q, k, v, keep, sink_tokens=sinks)
        _assert_step_parity(masks, outs, legacy, prompt_len)
        assert all(pred == 0.0 for pred, _ in costs)  # no predictor

    @given(shape=shapes, keep=budgets)
    def test_topk_oracle(self, shape, keep):
        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        masks, outs, costs = _decode_incremental(
            get_policy("topk-oracle", keep_fraction=keep), k, v, q, prompt_len
        )
        legacy = topk_oracle_attention(q, k, v, keep)
        _assert_step_parity(masks, outs, legacy, prompt_len)
        assert all(pred == 1.0 for pred, _ in costs)  # full dense scoring

    @given(shape=shapes, keep=budgets, page=st.sampled_from([4, 8, 16]))
    def test_quest(self, shape, keep, page):
        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        masks, outs, _ = _decode_incremental(
            get_policy("quest", keep_fraction=keep, page_size=page),
            k, v, q, prompt_len, block_size=page,
        )
        legacy = quest_attention(q, k, v, keep, page_size=page)
        _assert_step_parity(masks, outs, legacy, prompt_len)

    @given(shape=shapes, keep=budgets, cf=st.sampled_from([0.125, 0.25, 0.5]))
    def test_double_sparsity(self, shape, keep, cf):
        # Calibration pinned to the full sequence on both sides so the
        # channel subsets agree (serving calibrates on the prompt).
        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        channels = select_heavy_channels(k, cf)
        masks, outs, costs = _decode_incremental(
            DoubleSparsityPolicy(keep, cf, channels=channels), k, v, q, prompt_len
        )
        legacy = double_sparsity_attention(
            q, k, v, keep, channel_fraction=cf, channels=channels
        )
        _assert_step_parity(masks, outs, legacy, prompt_len)
        assert all(pred == cf for pred, _ in costs)
        assert legacy.prediction_cost == cf

    @given(shape=shapes, bf=st.sampled_from([0.2, 0.4, 0.8]),
           recent=st.integers(min_value=2, max_value=8))
    def test_h2o(self, shape, bf, recent):
        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        legacy_out, legacy_lost, legacy_state = h2o_decode(
            q, k, v, budget_fraction=bf, recent_tokens=recent
        )
        policy = get_policy("h2o", budget_fraction=bf, recent_tokens=recent)
        masks, outs, _ = _decode_incremental(policy, k, v, q, prompt_len)
        for t in range(steps):
            np.testing.assert_allclose(outs[t], legacy_out[t], atol=1e-12)
        # Final alive set and lost-mass series line up with the wrapper
        # (re-run through a fresh engine so the state is inspectable).
        engine = PadeEngine(PadeConfig.standard(), policy=policy)
        cache = engine.new_cache(1, k.shape[1], v.shape[1], k.shape[0])
        engine.prefill(cache, k[None, :prompt_len], v[None, :prompt_len],
                       total_tokens=k.shape[0])
        for t in range(steps):
            engine.decode_step(cache, q[None, t], k[None, prompt_len + t],
                               v[None, prompt_len + t])
        engine_state = cache.policy_state.per_head
        np.testing.assert_array_equal(
            engine_state["alive"][0], legacy_state.alive
        )
        np.testing.assert_allclose(
            engine_state["lost"][0], legacy_lost, atol=1e-12
        )

    @given(shape=shapes, keep=budgets)
    def test_minference_prefill_block(self, shape, keep):
        """The one-shot wrapper and the policy's prefill share one pattern
        choice; the incremental decode rows extend exactly that pattern."""
        from repro.attention.baselines.minference import _pattern_mask

        prompt_len, steps, seed = shape
        k, v, q = _problem(seed, prompt_len, steps)
        policy = get_policy("minference", keep_fraction=keep)
        legacy = minference_attention(q, k, v, keep)
        np.testing.assert_array_equal(policy.one_shot_mask(q, k), legacy.retained)

        masks, _, _ = _decode_incremental(policy, k, v, q, prompt_len)
        # Decode rows extend the pattern chosen at the first decode step.
        engine = PadeEngine(PadeConfig.standard(), policy=policy)
        cache = engine.new_cache(1, k.shape[1], v.shape[1], k.shape[0])
        engine.prefill(cache, k[None, :prompt_len], v[None, :prompt_len],
                       total_tokens=k.shape[0])
        engine.decode_step(cache, q[None, 0], k[None, prompt_len], v[None, prompt_len])
        name, params = cache.policy_state.per_head["patterns"][0]
        for t, mask in enumerate(masks):
            visible = prompt_len + t + 1
            np.testing.assert_array_equal(
                mask, _pattern_mask(name, params, 1, visible, visible - 1)[0]
            )


class TestQuestPages:
    """Quest pages are pool blocks: an unset ``page_size`` takes the
    pool's block size, a different one is an error, not a silent swap."""

    def _serve(self, policy, block_size):
        requests = build_serving_workload(2, 2, 40, 3, 8, arrival_times=[0.0, 0.0], seed=4)
        engine = PadeEngine(PadeConfig.standard(), policy=policy)
        return engine.serve(requests, block_size=block_size, token_budget=256)

    def test_unset_page_size_pages_by_pool_block(self, monkeypatch):
        from repro.attention.baselines.quest import QuestPolicy

        pages = []
        new_state = QuestPolicy.new_state

        def capture(self, cache, total_tokens=None):
            state = new_state(self, cache, total_tokens)
            pages.append(state.per_head["page_size"])
            return state

        monkeypatch.setattr(QuestPolicy, "new_state", capture)
        results = self._serve(get_policy("quest"), block_size=8)
        assert all(res.status == "ok" for res in results.values())
        assert pages and set(pages) == {8}

    def test_page_size_other_than_the_block_size_is_rejected(self):
        with pytest.raises(ValueError, match=r"page_size 8 .* block size 16"):
            self._serve(get_policy("quest", page_size=8), block_size=16)

    @pytest.mark.parametrize("page", [8, 32])
    def test_one_shot_keeps_its_page_size(self, page):
        """The pool-less wrapper pages by its own ``page_size``: 128
        visible keys at a quarter budget keep whole aligned pages."""
        k, v, q = _problem(2, 127, 1)
        kept = np.flatnonzero(quest_attention(q, k, v, 0.25, page_size=page).retained[0])
        assert kept.size == 32
        pages = kept.reshape(-1, page)
        assert (pages[:, 0] % page == 0).all()
        assert (np.diff(pages, axis=1) == 1).all()


class TestRegistry:
    def test_expected_policies_registered(self):
        names = available_policies()
        for expected in ("pade", "quest", "h2o", "streaming-llm", "topk-oracle",
                         "double-sparsity", "minference"):
            assert expected in names

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown attention policy"):
            get_policy("nope")

    def test_resolve_accepts_name_instance_none(self):
        assert resolve_policy(None).name == "pade"
        assert resolve_policy("quest").name == "quest"
        inst = get_policy("h2o")
        assert resolve_policy(inst) is inst

    def test_registry_classes_expose_names(self):
        for name, cls in POLICY_REGISTRY.items():
            assert cls.name == name


class TestFootprints:
    def test_dense_policies_charge_full_context(self):
        for name in ("pade", "quest", "topk-oracle", "double-sparsity", "minference"):
            policy = get_policy(name)
            assert policy.dense_footprint
            assert policy.cache_footprint(100, 20) == 120

    def test_h2o_footprint_bounded_by_budget(self):
        policy = get_policy("h2o", budget_fraction=0.25, recent_tokens=4)
        assert not policy.dense_footprint
        assert policy.cache_footprint(100, 20) == 30  # round(0.25 * 120)
        # The recency floor still wins for tiny contexts.
        assert policy.cache_footprint(4, 2) == 5

    def test_streaming_footprint_is_sink_plus_window(self):
        policy = get_policy("streaming-llm", keep_fraction=0.25, sink_tokens=4)
        assert not policy.dense_footprint
        assert policy.cache_footprint(100, 20) == 4 + 26  # sinks + (30 - 4)

    def test_engine_stats_cost_columns(self):
        k, v, q = _problem(3, 24, 4)
        engine = PadeEngine(PadeConfig.standard(), policy="streaming-llm")
        cache = engine.new_cache(1, k.shape[1], v.shape[1], 28)
        engine.prefill(cache, k[None, :24], v[None, :24], total_tokens=28)
        for t in range(4):
            engine.decode_step(cache, q[None, t], k[None, 24 + t], v[None, 24 + t])
        assert engine.stats.policy_calls == 4
        assert engine.stats.mean_prediction_cost == 0.0
        assert 0.0 < engine.stats.mean_execution_cost < 1.0
        assert engine.stats.mean_sparsity_level == engine.stats.mean_execution_cost
        assert 0.0 < engine.stats.sparsity < 1.0
