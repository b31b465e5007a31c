"""Reference attention implementations and software sparse-attention baselines.

``flash_attention`` resolves on first use (PEP 562): no server calls it.
"""

from repro._lazy import lazy_exports
from repro.attention.dense import dense_attention, attention_scores, softmax
from repro.attention.masks import causal_mask, window_mask, sink_recent_mask
from repro.attention.policy import (
    AttentionPolicy,
    BaselineAttentionPolicy,
    PadePolicy,
    POLICY_REGISTRY,
    available_policies,
    get_policy,
    register_policy,
)

__all__ = [
    "dense_attention",
    "attention_scores",
    "softmax",
    "flash_attention",
    "causal_mask",
    "window_mask",
    "sink_recent_mask",
    "AttentionPolicy",
    "BaselineAttentionPolicy",
    "PadePolicy",
    "POLICY_REGISTRY",
    "available_policies",
    "get_policy",
    "register_policy",
]
__getattr__, __dir__ = lazy_exports(globals(), {"flash_attention": "flash"})
