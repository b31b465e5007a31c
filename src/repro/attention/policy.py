"""Pluggable attention policies: one serving engine, every sparse method.

The paper's headline claims are *comparative* — PADE's fused bit-plane
filtering against Quest, H2O, StreamingLLM, MInference, double sparsity
and the exact top-k oracle.  Before this layer existed those baselines
were one-shot, full-sequence functions that never touched the engine,
the paged cache pool or the continuous scheduler, so TTFT/TPOT/
throughput could only be measured for PADE.  An
:class:`AttentionPolicy` closes that gap: it is the strategy object the
policy-agnostic :class:`~repro.engine.engine.PadeEngine` consults at
prefill and at every decode step, so every serving feature (continuous
batching, paged blocks, preemption, prefix sharing, chunked prefill)
applies to every method and the serving currency becomes
apples-to-apples across policies.

Contract
--------
A policy implements four hooks:

``new_state(cache, total_tokens=None)``
    Create the per-request mutable state (H2O's alive/accumulated
    arrays, Quest's page summaries, MInference's chosen pattern …).
    The engine stores it on the cache (``cache.policy_state``), so
    preemption — which releases the cache — drops the state with it and
    a restarted request rebuilds it from scratch, keeping retained sets
    invariant.  ``total_tokens`` is the request's final context length
    (prompt + decode); budget-style policies resolve their key budgets
    against it, exactly like the legacy one-shot functions resolve
    theirs against the full sequence.
``prefill(engine, cache, q)``
    Attend the prompt queries ``q`` of shape ``(H, P, D)`` against the
    cache, returning an :class:`~repro.engine.engine.EngineAttentionResult`.
``decode_step(engine, cache, q)``
    Attend one decode query per head (``q`` of shape ``(H, D)``) against
    the cache, whose newest token was already appended.
``cache_footprint(prompt_tokens, decode_steps)``
    Peak KV tokens the policy needs resident.  Dense-footprint policies
    (PADE, Quest, top-k, …) return the full context; bounded policies
    (H2O's eviction budget, StreamingLLM's sink+window) return less —
    the continuous scheduler charges admission against this number, so a
    bounded policy admits more concurrent requests under the same pool
    budget.

State-per-block ownership: *content-derived* state (Quest's per-page
min/max — a pure function of the frozen block rows) is keyed by
:class:`~repro.engine.cache.PlaneBlockPool` block in ``pool.block_meta``
and therefore shared by prefix-shared blocks and invalidated when a
block frees or copy-on-write forks.  *Query-derived* state (H2O's
accumulated attention mass) depends on the request's own queries, lives
only in ``cache.policy_state``, and is never shared.

Registering a policy::

    @register_policy
    class MyPolicy(BaselineAttentionPolicy):
        name = "my-policy"
        ...

    engine = PadeEngine(policy="my-policy")

The registry is the extension point later serving features plug into;
``available_policies()`` feeds the CLI ``serve --attention`` choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type, Union

import numpy as np

from repro.attention.dense import softmax
from repro.attention.masks import causal_mask

__all__ = [
    "AttentionPolicy",
    "BaselineAttentionPolicy",
    "BaselinePolicyState",
    "PadePolicy",
    "POLICY_REGISTRY",
    "register_policy",
    "get_policy",
    "available_policies",
    "resolve_policy",
    "resolve_draft_policy",
    "available_draft_policies",
]


#: name -> policy class.  Populated by :func:`register_policy`; the
#: baseline policies register on ``import repro.attention.baselines``.
POLICY_REGISTRY: Dict[str, Type["AttentionPolicy"]] = {}


def register_policy(cls: Type["AttentionPolicy"]) -> Type["AttentionPolicy"]:
    """Class decorator: publish ``cls`` under ``cls.name`` in the registry."""
    if not getattr(cls, "name", None):
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    POLICY_REGISTRY[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    # The baseline policies live next to their legacy one-shot functions
    # and register on import; defer it so policy.py itself stays
    # import-light (and cycle-free: baselines import this module).
    import repro.attention.baselines  # noqa: F401


def available_policies() -> List[str]:
    """Sorted registry names (the CLI ``--attention`` choices)."""
    _ensure_registered()
    return sorted(POLICY_REGISTRY)


def get_policy(name: str, **kwargs) -> "AttentionPolicy":
    """Instantiate the policy registered under ``name``.

    The baselines are imported only for a name not registered yet, so a
    PADE-only server never loads them.
    """
    if name not in POLICY_REGISTRY:
        _ensure_registered()
    if name not in POLICY_REGISTRY:
        raise ValueError(
            f"unknown attention policy {name!r}; choose from {available_policies()}"
        )
    return POLICY_REGISTRY[name](**kwargs)


def resolve_policy(
    policy: Union[None, str, "AttentionPolicy"],
) -> "AttentionPolicy":
    """Engine-side resolution: ``None`` → PADE, str → registry, instance → as-is."""
    if policy is None:
        return get_policy("pade")
    if isinstance(policy, str):
        return get_policy(policy)
    return policy


def available_draft_policies() -> List[str]:
    """Registry names usable as the cheap draft in speculative decoding."""
    _ensure_registered()
    return sorted(
        name for name, cls in POLICY_REGISTRY.items() if cls.draftable
    )


def resolve_draft_policy(
    policy: Union[None, str, "AttentionPolicy"],
) -> "AttentionPolicy":
    """Resolve the *draft* side of a draft-verify speculative pair.

    Only :attr:`AttentionPolicy.draftable` policies qualify: on a reject
    the scheduler truncates the rejected draft tokens off the cache and
    keeps the draft's per-request state as it is, which is sound only
    when that state never absorbs information from the speculated
    (possibly discarded) tokens.  Stateless positional
    policies (StreamingLLM) and pure functions of the current K/V
    (top-k oracle) qualify; accumulation-style policies like H2O — whose
    eviction mass would be polluted by rolled-back queries — do not.
    """
    resolved = resolve_policy(policy if policy is not None else "streaming-llm")
    if not resolved.draftable:
        raise ValueError(
            f"policy {resolved.name!r} cannot be used as a speculative draft; "
            f"choose from {available_draft_policies()}"
        )
    return resolved


class AttentionPolicy:
    """Base class: how the engine selects and attends retained keys.

    A policy instance is engine-owned and request-agnostic; all mutable
    per-request state goes through :meth:`new_state` and is stored on
    the cache by the engine.
    """

    #: Registry name; subclasses must override.
    name: str = ""
    #: True when :meth:`cache_footprint` always equals the full context.
    #: The continuous scheduler keeps its physical admission path for
    #: dense-footprint policies and switches to charged-footprint
    #: accounting for bounded ones.
    dense_footprint: bool = True
    #: True when the policy is sound as the cheap *draft* of a
    #: draft-verify speculative pair (DESIGN.md §17): its per-request
    #: state must not accumulate information from speculated queries,
    #: because a rejected draft block is truncated off the cache while
    #: the same state object stays on it.
    draftable: bool = False

    # ------------------------------------------------------------------
    def cache_footprint(self, prompt_tokens: int, decode_steps: int) -> int:
        """Peak resident KV tokens for a request (dense: the full context)."""
        return prompt_tokens + decode_steps

    def new_state(self, cache, total_tokens: Optional[int] = None):
        """Per-request state created at prefill (None for stateless)."""
        return None

    def prefill(self, engine, cache, q: np.ndarray):
        raise NotImplementedError

    def decode_step(self, engine, cache, q: np.ndarray):
        raise NotImplementedError

    def decode_step_batch(self, engine, caches, qs):
        """One decode round over several requests: one result per request,
        in order.  The default is a :meth:`decode_step` loop; an override
        must be result-identical to it — outputs, retained sets and
        per-request stats byte for byte (DESIGN.md §13)."""
        return [
            self.decode_step(engine, cache, np.asarray(q, dtype=np.float64))
            for cache, q in zip(caches, qs)
        ]

    # ------------------------------------------------------------------
    def _record(self, engine, result) -> None:
        """Fold one attention call into the engine's policy cost counters."""
        if engine is None:
            return
        engine.stats.policy_calls += 1
        engine.stats.policy_prediction_cost += result.prediction_cost
        engine.stats.policy_execution_cost += result.execution_cost


class PadePolicy(AttentionPolicy):
    """The paper's method: fused bit-serial filtering over cached planes.

    Routes straight to :meth:`PadeEngine.attend` — the exact pre-policy
    code path, so retained sets and outputs are byte-identical to the
    engine before this layer existed (pinned by
    ``benchmarks/bench_policies.py``).  Prediction cost is zero *by
    construction*: the filter's bound evaluation IS the execution's
    first bit-planes, the reuse argument the paper makes against
    stage-splitting predictors.
    """

    name = "pade"

    def prefill(self, engine, cache, q: np.ndarray):
        res = engine.attend(cache, q)
        self._record(engine, res)
        return res

    def decode_step(self, engine, cache, q: np.ndarray):
        res = engine.attend(cache, np.asarray(q, dtype=np.float64)[:, None, :])
        self._record(engine, res)
        return res

    def decode_step_batch(self, engine, caches, qs):
        """Fused decode round: one filter call over every request via
        :meth:`PadeEngine.attend_batch`, recorded per request exactly as
        the per-request loop would."""
        results = engine.attend_batch(
            caches, [np.asarray(q, dtype=np.float64)[:, None, :] for q in qs]
        )
        for res in results:
            self._record(engine, res)
        return results


register_policy(PadePolicy)


# ---------------------------------------------------------------------------
# Baseline orchestration: per-head row masks + masked dense execution
# ---------------------------------------------------------------------------


@dataclass
class BaselinePolicyState:
    """Common per-request state of the software baselines.

    ``total_tokens`` is the final context length the key budgets resolve
    against (``None`` falls back to the current cache length — the
    policy then re-scales its budget as the sequence grows).
    ``per_head`` is free-form storage for the concrete policy.
    """

    prompt_tokens: int
    total_tokens: Optional[int] = None
    per_head: dict = field(default_factory=dict)

    def budget_context(self, current_length: int) -> int:
        return current_length if self.total_tokens is None else self.total_tokens


class BaselineAttentionPolicy(AttentionPolicy):
    """Shared multi-head machinery for the converted software baselines.

    Concrete policies implement two single-head hooks —
    :meth:`head_prefill_mask` (rows for the prompt queries) and
    :meth:`head_decode_mask` (one row for the newest query) — plus a
    per-call prediction-cost model; this base class handles head
    batching, masked dense execution over the cache's float K/V, cost
    accounting and result assembly.  The legacy one-shot functions are
    thin wrappers over the same hooks (via :meth:`one_shot_mask`), which
    is what makes the incremental-equals-one-shot parity tests exact.
    """

    def new_state(self, cache, total_tokens: Optional[int] = None):
        return BaselinePolicyState(
            prompt_tokens=cache.length, total_tokens=total_tokens
        )

    # -- single-head hooks ---------------------------------------------
    def head_prefill_mask(
        self, state, head: int, q_rows: np.ndarray, k: np.ndarray, offset: int
    ) -> np.ndarray:
        """Keep mask ``(P, S)`` for prompt queries at ``offset``.

        Default: one :meth:`head_decode_mask`-equivalent row per query
        position, each restricted to its causally visible prefix.
        """
        num_queries, num_keys = q_rows.shape[0], k.shape[0]
        keep = np.zeros((num_queries, num_keys), dtype=bool)
        for i in range(num_queries):
            visible = offset + i + 1
            keep[i, :visible] = self.head_row_mask(
                state, head, q_rows[i], k[:visible]
            )
        return keep

    def head_decode_mask(
        self, state, head: int, q_row: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Keep mask ``(S,)`` for the newest decode query (position S-1)."""
        return self.head_row_mask(state, head, q_row, k)

    def head_row_mask(
        self, state, head: int, q_row: np.ndarray, k_visible: np.ndarray
    ) -> np.ndarray:
        """Selection core: keep mask over the visible keys for one query."""
        raise NotImplementedError

    def prediction_cost(self, state, num_queries: int, num_keys: int) -> float:
        """Per-call predictor overhead (fraction of a dense pass)."""
        return 0.0

    # -- engine-facing orchestration -----------------------------------
    def prefill(self, engine, cache, q: np.ndarray):
        q = np.asarray(q, dtype=np.float64)
        state = self._ensure_state(cache)
        num_heads, num_queries, _ = q.shape
        offset = cache.length - num_queries
        k = cache.k_float  # assembled once for all heads
        keep = np.stack(
            [
                self.head_prefill_mask(state, h, q[h], k[h], offset)
                for h in range(num_heads)
            ]
        )
        return self._execute(engine, cache, q, keep, offset, k)

    def decode_step(self, engine, cache, q: np.ndarray):
        q = np.asarray(q, dtype=np.float64)
        state = self._ensure_state(cache)
        num_heads = cache.num_heads
        seq_len = cache.length
        k = cache.k_float  # assembled once for all heads
        keep = np.stack(
            [self.head_decode_mask(state, h, q[h], k[h]) for h in range(num_heads)]
        )[:, None, :]
        return self._execute(engine, cache, q[:, None, :], keep, seq_len - 1, k)

    def _ensure_state(self, cache):
        if cache.policy_state is None:
            cache.policy_state = self.new_state(cache)
        return cache.policy_state

    def _execute(
        self,
        engine,
        cache,
        q: np.ndarray,
        keep: np.ndarray,
        offset: int,
        k: Optional[np.ndarray] = None,
    ):
        """Masked dense attention over the retained sets + cost assembly."""
        from repro.engine.engine import EngineAttentionResult

        num_heads, num_queries, _ = q.shape
        seq_len = cache.length
        causal = causal_mask(num_queries, seq_len, offset)
        keep = keep & causal
        values = cache.values
        if k is None:
            k = cache.k_float
        scores = np.einsum("hpd,hsd->hps", q, k) / np.sqrt(cache.head_dim)
        logits = np.where(keep, scores, -np.inf)
        probs = softmax(logits, axis=-1)
        output = np.einsum("hps,hsd->hpd", probs, values)

        candidates = num_heads * int(causal.sum())
        state = cache.policy_state
        prediction = self.prediction_cost(state, num_queries, seq_len)
        execution = float(keep.sum()) / candidates if candidates else 0.0
        result = EngineAttentionResult(
            output=output,
            retained=keep,
            scores=scores,
            logit_scales=np.ones(num_heads),
            guards=np.zeros(num_heads),
            candidate_keys=candidates,
            prediction_cost=prediction,
            execution_cost=execution,
        )
        if engine is not None:
            engine.stats.retained_keys += int(keep.sum())
            engine.stats.candidate_keys += candidates
        self._record(engine, result)
        return result

    # -- one-shot wrapper support --------------------------------------
    def one_shot_mask(
        self, q: np.ndarray, k: np.ndarray, query_offset: Optional[int] = None
    ) -> np.ndarray:
        """Full ``(P, S)`` keep mask of a single-head, one-shot call.

        Drives exactly the incremental per-row hooks over a throwaway
        state calibrated on the full ``k`` — the legacy one-shot
        baseline functions are thin wrappers around this.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        k = np.asarray(k, dtype=np.float64)
        num_queries, num_keys = q.shape[0], k.shape[0]
        offset = num_keys - num_queries if query_offset is None else query_offset
        cache = _ArrayCacheView(k)
        state = self.new_state(cache, total_tokens=num_keys)
        return self.head_prefill_mask(state, 0, q, k, offset) & causal_mask(
            num_queries, num_keys, offset
        )


class _ArrayCacheView:
    """Minimal single-head cache shim backing the one-shot wrappers."""

    def __init__(self, k: np.ndarray) -> None:
        k = np.asarray(k, dtype=np.float64)
        self.k_float = k[None]
        self.num_heads = 1
        self.head_dim = k.shape[1]
        self.length = k.shape[0]
        self.policy_state = None
