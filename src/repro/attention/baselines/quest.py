"""Quest-style page-granular dynamic selection (additional comparator).

Quest partitions the KV cache into fixed-size *pages* and keeps per-page
min/max channel summaries; at decode time it upper-bounds each page's best
possible score from the summaries and fetches only the top pages.  It is a
coarse-granularity cousin of PADE's bound-based filtering: sound bounds, but
at page granularity the bound slack forces fetching whole pages for single
heavy hitters.

Included as an extra comparator: its *selection* is bound-driven like
BUI-GF, so comparing the two isolates the value of bit-level granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.attention.baselines.base import SparseAttentionResult, sparse_attention_from_mask
from repro.attention.policy import BaselineAttentionPolicy, register_policy

__all__ = ["PageSummaries", "build_page_summaries", "quest_attention", "QuestPolicy"]


#: Page size of a pool-less cache when the policy sets none.
DEFAULT_PAGE_SIZE = 16


@dataclass(frozen=True)
class PageSummaries:
    """Per-page elementwise min/max of K."""

    k_min: np.ndarray  # (pages, H)
    k_max: np.ndarray  # (pages, H)
    page_size: int

    @property
    def num_pages(self) -> int:
        return self.k_min.shape[0]


def build_page_summaries(k: np.ndarray, page_size: int = 16) -> PageSummaries:
    """Offline pass: fold K into per-page channel extrema."""
    k = np.asarray(k, dtype=np.float64)
    num_keys = k.shape[0]
    pages = int(np.ceil(num_keys / page_size))
    k_min = np.full((pages, k.shape[1]), np.inf)
    k_max = np.full((pages, k.shape[1]), -np.inf)
    for p in range(pages):
        chunk = k[p * page_size : (p + 1) * page_size]
        k_min[p] = chunk.min(axis=0)
        k_max[p] = chunk.max(axis=0)
    return PageSummaries(k_min=k_min, k_max=k_max, page_size=page_size)


def page_score_upper_bound(q_row: np.ndarray, summaries: PageSummaries) -> np.ndarray:
    """Sound per-page upper bound: positive q picks k_max, negative k_min."""
    q = np.asarray(q_row, dtype=np.float64)
    pos = np.where(q > 0, q, 0.0)
    neg = np.where(q < 0, q, 0.0)
    return summaries.k_max @ pos + summaries.k_min @ neg


@register_policy
class QuestPolicy(BaselineAttentionPolicy):
    """Incremental page-granular selection with per-block summaries.

    Pages are the paged pool's blocks when the cache is a
    :class:`~repro.engine.cache.PagedBitPlaneKVCache`: ``page_size=None``
    takes the pool's block size, and any other size raises
    :class:`ValueError`.  A pool-less cache (the one-shot wrapper) pages
    by ``page_size``, :data:`DEFAULT_PAGE_SIZE` when unset.  Each full
    block's min/max summary is stored in ``pool.block_meta`` keyed by
    the *pool block* — a pure function of the block's frozen rows, so
    prefix-shared blocks reuse one summary, a copy-on-write fork
    invalidates it, and a freed (preempted) block drops it.  The
    growing partial tail page is summarized on the fly each step.

    Selection per query ranks only the causally *visible* pages (a page
    that does not exist yet cannot be fetched) and keeps the top
    ``round(keep_fraction * visible_pages)`` of them — bound slack at
    page granularity still forces whole-page fetches for single heavy
    hitters, the comparison point against PADE's bit-level bounds.
    """

    name = "quest"

    def __init__(self, keep_fraction: float = 0.25, page_size: Optional[int] = None) -> None:
        self.keep_fraction = float(keep_fraction)
        self.page_size = None if page_size is None else int(page_size)

    def new_state(self, cache, total_tokens=None):
        state = super().new_state(cache, total_tokens)
        pool = getattr(cache, "pool", None)
        if pool is None:
            page_size = DEFAULT_PAGE_SIZE if self.page_size is None else self.page_size
        elif self.page_size in (None, pool.block_size):
            page_size = pool.block_size
        else:
            raise ValueError(
                f"quest page_size {self.page_size} differs from the pool's block size "
                f"{pool.block_size}: pages are pool blocks"
            )
        state.per_head["page_size"] = page_size
        state.per_head["cache"] = cache
        state.per_head["summaries"] = {}  # (head, page) -> (k_min, k_max), pool-less caches
        return state

    def prediction_cost(self, state, num_queries: int, num_keys: int) -> float:
        pages = -(-num_keys // state.per_head["page_size"])
        return 2.0 * pages / max(1, num_keys)

    def _full_page_summary(self, state, head: int, page: int, k_visible: np.ndarray):
        """Min/max of a *full* page, shared through pool block meta when paged."""
        ps = state.per_head["page_size"]
        cache = state.per_head["cache"]
        pool = getattr(cache, "pool", None)
        if pool is not None:
            block = cache.block_table[page]
            meta = pool.block_meta.setdefault(block, {})
            if "quest" not in meta:
                chunk = cache.k_float_rows(page * ps, (page + 1) * ps)  # (H, ps, D)
                meta["quest"] = (chunk.min(axis=1), chunk.max(axis=1))
            k_min, k_max = meta["quest"]
            return k_min[head], k_max[head]
        cached = state.per_head["summaries"]
        if (head, page) not in cached:
            chunk = k_visible[page * ps : (page + 1) * ps]
            cached[(head, page)] = (chunk.min(axis=0), chunk.max(axis=0))
        return cached[(head, page)]

    def head_row_mask(self, state, head, q_row, k_visible) -> np.ndarray:
        ps = state.per_head["page_size"]
        visible = k_visible.shape[0]
        full_pages = visible // ps
        vis_pages = -(-visible // ps)
        pos = np.where(q_row > 0, q_row, 0.0)
        neg = np.where(q_row < 0, q_row, 0.0)
        bounds = np.empty(vis_pages)
        for p in range(full_pages):
            k_min, k_max = self._full_page_summary(state, head, p, k_visible)
            bounds[p] = k_max @ pos + k_min @ neg
        if vis_pages > full_pages:  # growing partial tail page
            tail = k_visible[full_pages * ps :]
            bounds[full_pages] = tail.max(axis=0) @ pos + tail.min(axis=0) @ neg
        page_budget = max(1, int(round(self.keep_fraction * vis_pages)))
        keep = np.zeros(visible, dtype=bool)
        for p in np.argsort(bounds)[::-1][:page_budget]:
            keep[p * ps : (p + 1) * ps] = True
        return keep


def quest_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    keep_fraction: float,
    page_size: int = DEFAULT_PAGE_SIZE,
    query_offset: Optional[int] = None,
    scale: Optional[float] = None,
) -> SparseAttentionResult:
    """Sparse attention fetching only the top-bounded pages per query.

    Thin wrapper over :class:`QuestPolicy`: every query row ranks the
    pages of its causally visible prefix (partial tail page summarized
    over the visible rows only) — the same selection the serving engine
    runs step by step.

    Prediction cost: the summary dot products (2 channels per page vs S
    keys) — cheap, the page slack is the real price.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    k = np.asarray(k, dtype=np.float64)
    num_keys = k.shape[0]
    policy = QuestPolicy(keep_fraction, page_size)
    keep = policy.one_shot_mask(q, k, query_offset)
    num_pages = -(-num_keys // page_size)
    prediction_cost = 2.0 * num_pages / max(1, num_keys)
    return sparse_attention_from_mask(q, k, v, keep, prediction_cost, scale=scale)


def page_bound_soundness(q_row: np.ndarray, k: np.ndarray, page_size: int = 16) -> Tuple[float, bool]:
    """Check the bound dominates every true in-page score (test helper)."""
    summaries = build_page_summaries(k, page_size)
    bounds = page_score_upper_bound(q_row, summaries)
    scores = k @ np.asarray(q_row, dtype=np.float64)
    ok = True
    slack = []
    for p in range(summaries.num_pages):
        chunk = scores[p * page_size : (p + 1) * page_size]
        if chunk.size:
            ok &= bool(bounds[p] >= chunk.max() - 1e-9)
            slack.append(float(bounds[p] - chunk.max()))
    return float(np.mean(slack)), ok
