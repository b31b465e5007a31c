"""BUI-enabled guarded filtering (BUI-GF, paper §IV-A, Fig. 7).

The filter exploits softmax's exponential decay (Eq. 1): a token whose score
sits far below the row maximum contributes negligibly.  Working with interval
bounds instead of exact scores makes the decision *safe*:

* **Step 0 — threshold updating**: the threshold tracks the best *lower*
  bound seen so far, ``T = max_j(S_min_j) - alpha * radius`` (Eq. 4).  Using
  lower bounds means the threshold never overshoots the true maximum.
* **Step 1 — comparison**: token ``j`` survives while its *upper* bound
  exceeds the threshold, ``S_max_j > T``.  Pruning on the upper bound means a
  token is only dropped when even its most optimistic score is more than
  ``alpha * radius`` below a score some other token is *guaranteed* to reach.

Consequently any token whose exact logit is within ``alpha * radius`` of the
exact row maximum is never pruned — the guarantee the property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["PruneDecision", "GuardedFilter", "causal_allowed", "protection_mask"]


@dataclass(frozen=True)
class PruneDecision:
    """Outcome of one comparison round for a batch of candidate tokens."""

    keep: np.ndarray  # bool mask over candidates
    threshold: float  # the T used for this round (integer-score units)


@dataclass
class GuardedFilter:
    """Stateful guarded filter for a single query row.

    The hardware instantiates one BUI-GF module per PE row (Fig. 11d); each
    module keeps a running maximum of score lower bounds and broadcasts the
    resulting threshold to all lanes in its row.  ``guard`` is the product
    ``alpha * radius`` converted to integer-score units by the caller.

    Attributes
    ----------
    guard:
        Pruning margin in integer-score units; larger = more conservative.
    max_lower_bound:
        Running ``max_j S_min_j`` over every token observed so far (pruned
        tokens' last bounds remain valid contributions, as only the max
        matters).
    """

    guard: float
    max_lower_bound: float = field(default=-np.inf)

    def observe(self, lower_bounds: np.ndarray) -> float:
        """Step 0 — fold new score lower bounds into the running maximum."""
        lb = np.asarray(lower_bounds, dtype=np.float64)
        if lb.size:
            self.max_lower_bound = max(self.max_lower_bound, float(lb.max()))
        return self.max_lower_bound

    @property
    def threshold(self) -> float:
        """Current pruning threshold ``T`` (Eq. 4)."""
        if np.isinf(self.guard):
            return -np.inf
        return self.max_lower_bound - self.guard

    def decide(self, upper_bounds: np.ndarray) -> PruneDecision:
        """Step 1 — keep tokens whose upper bound clears the threshold.

        The comparison is inclusive so the row-maximum token itself always
        survives even at a zero guard (its bound equals the threshold).
        """
        ub = np.asarray(upper_bounds, dtype=np.float64)
        t = self.threshold
        return PruneDecision(keep=ub >= t, threshold=t)

    def filter_round(
        self,
        lower_bounds: np.ndarray,
        upper_bounds: np.ndarray,
        protect: Optional[np.ndarray] = None,
    ) -> PruneDecision:
        """One full BUI-GF round: update the threshold, then compare.

        ``protect`` optionally marks tokens that must survive regardless
        (attention sinks / recency window in :class:`~repro.core.config.PadeConfig`).
        """
        self.observe(lower_bounds)
        decision = self.decide(upper_bounds)
        if protect is not None:
            keep = decision.keep | np.asarray(protect, dtype=bool)
            decision = PruneDecision(keep=keep, threshold=decision.threshold)
        return decision


def guard_in_int_units(alpha: float, radius: float, logit_scale: float) -> float:
    """Convert the logit-domain guard ``alpha * radius`` into integer scores.

    ``logit_scale`` is the factor mapping integer scores to logits
    (``s_q * s_k / sqrt(H)`` when logits are scaled); the integer-domain guard
    is the logit guard divided by it.  A zero scale (degenerate all-zero
    input) maps to an infinite guard, i.e. no pruning.
    """
    if np.isinf(radius):
        return float("inf")
    if logit_scale <= 0:
        return float("inf")
    return alpha * radius / logit_scale


def causal_allowed(num_queries: int, num_keys: int, query_offset: int = 0) -> np.ndarray:
    """Causal candidate mask: query ``i`` may attend keys ``<= offset + i``.

    ``query_offset`` positions the query block inside a longer sequence
    (decode steps pass ``num_keys - num_queries``).
    """
    rows = np.arange(num_queries)[:, None] + query_offset
    cols = np.arange(num_keys)[None, :]
    return cols <= rows


def protection_mask(
    num_queries: int,
    num_keys: int,
    sink_tokens: int,
    recent_tokens: int,
    query_offset: int = 0,
) -> Optional[np.ndarray]:
    """Always-keep mask combining attention sinks and a recency window."""
    if sink_tokens == 0 and recent_tokens == 0:
        return None
    protect = np.zeros((num_queries, num_keys), dtype=bool)
    if sink_tokens:
        protect[:, : min(sink_tokens, num_keys)] = True
    if recent_tokens:
        for i in range(num_queries):
            end = min(query_offset + i + 1, num_keys)
            start = max(0, end - recent_tokens)
            protect[i, start:end] = True
    return protect
