"""StreamingLLM baseline: static attention sinks + recency window.

Xiao et al.'s StreamingLLM keeps the first few "sink" tokens and a sliding
recency window, with no input-dependent selection.  The paper (Fig. 15)
observes it performs worst among the compared methods because the static
pattern cannot capture input-dependent heavy hitters — exactly the behaviour
this implementation exhibits on the synthetic workloads with off-pattern
heavy hitters.

There is no predictor, so prediction cost is zero; the sparsity level is the
kept fraction alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attention.baselines.base import SparseAttentionResult, sparse_attention_from_mask
from repro.attention.masks import sink_recent_mask
from repro.attention.policy import BaselineAttentionPolicy, register_policy

__all__ = [
    "streaming_llm_attention",
    "streaming_llm_budget_to_window",
    "StreamingLLMPolicy",
]


def streaming_llm_budget_to_window(
    num_keys: int, keep_fraction: float, sink_tokens: int = 4
) -> int:
    """Window width that spends a keep-fraction budget after the sinks."""
    budget = max(1, int(round(keep_fraction * num_keys)) - sink_tokens)
    return budget


@register_policy
class StreamingLLMPolicy(BaselineAttentionPolicy):
    """Incremental sink+window selection (StreamingLLM served statefully).

    The pattern is purely positional, so the incremental conversion is
    stateless: every query keeps the ``sink_tokens`` head of the context
    plus a recency window whose width spends the remaining key budget.
    Because only the sinks and the window ever need to be resident, the
    cache footprint is *bounded* — the continuous scheduler charges
    admission for ``sinks + window`` tokens instead of the full context,
    so StreamingLLM packs more concurrent requests into the same pool
    budget than any dense-footprint policy.
    """

    name = "streaming-llm"
    dense_footprint = False
    # Purely positional selection: no per-request state absorbs the
    # speculated queries, so truncating a rejected draft is sound.
    draftable = True

    def __init__(self, keep_fraction: float = 0.25, sink_tokens: int = 4) -> None:
        self.keep_fraction = float(keep_fraction)
        self.sink_tokens = int(sink_tokens)

    def cache_footprint(self, prompt_tokens: int, decode_steps: int) -> int:
        total = prompt_tokens + decode_steps
        window = streaming_llm_budget_to_window(
            total, self.keep_fraction, self.sink_tokens
        )
        return min(total, self.sink_tokens + window)

    def head_row_mask(self, state, head, q_row, k_visible) -> np.ndarray:
        visible = k_visible.shape[0]
        window = streaming_llm_budget_to_window(
            state.budget_context(visible), self.keep_fraction, self.sink_tokens
        )
        return sink_recent_mask(
            1, visible, self.sink_tokens, window, query_offset=visible - 1
        )[0]


def streaming_llm_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    keep_fraction: float,
    sink_tokens: int = 4,
    query_offset: Optional[int] = None,
    scale: Optional[float] = None,
) -> SparseAttentionResult:
    """Sparse attention with the StreamingLLM sink+window pattern.

    ``keep_fraction`` is the key budget per query (the Fig. 15 x-axis);
    it is split between ``sink_tokens`` sinks and a recency window.
    Thin wrapper over :class:`StreamingLLMPolicy` — the mask is
    assembled row by row from the same incremental selection the
    serving engine runs.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    policy = StreamingLLMPolicy(keep_fraction, sink_tokens)
    keep = policy.one_shot_mask(q, k, query_offset)
    return sparse_attention_from_mask(q, k, v, keep, prediction_cost=0.0, scale=scale)
