"""`PadeEngine` — batched multi-head serving layer over the fused filter.

Where :func:`repro.core.pade_attention.pade_attention` is a one-shot,
single-head operator (quantize → decompose → filter → attend, everything
rebuilt per call), the engine is the layer a serving stack talks to:

* **multi-head**: attention runs with per-head quantization scales and
  guards over one layer's cache; one engine serves every layer of a
  stack, each layer with its own cache;
* **persistent bit-plane cache**: keys are quantized once at prefill
  into a :class:`repro.engine.cache.PagedBitPlaneKVCache` and extended
  incrementally each decode step, never rebuilt — a block table over a
  pool shared by every request in :meth:`PadeEngine.serve`, or over a
  private pool from :meth:`PadeEngine.new_cache`;
* **one fused filter call per round**: a single request's attend covers
  all heads via ``KernelBackend.filter_heads`` and a decode round covers
  every active request via ``KernelBackend.filter_heads_batch``; the
  ``"fast"`` backend runs both on
  :func:`repro.core.bsf_fast.bsf_filter_fast_batch`;
* **request scheduling**: :meth:`PadeEngine.serve` runs requests through
  continuous batching — arrival-aware admission every round over a
  paged block pool with a global token budget and preemption under
  pressure (see :mod:`repro.engine.scheduler`);
* **pluggable attention policy**: ``PadeEngine(policy=...)`` serves any
  registered :class:`~repro.attention.policy.AttentionPolicy` — the PADE
  bit-plane filter (default) or the converted software baselines (Quest,
  H2O, StreamingLLM, MInference, double sparsity, top-k oracle) — through
  the same caches and schedulers, so serving metrics are apples-to-apples
  across methods.

The engine's retained sets are backend-invariant: running the same
workload under ``"reference"`` and ``"fast"`` produces byte-identical
retention (asserted by ``benchmarks/bench_engine.py`` and the engine
tests), so backend choice is purely a throughput knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Union

import numpy as np

from repro.attention.policy import AttentionPolicy, resolve_policy
from repro.core.backend import KernelBackend, get_backend
from repro.core.bsf_fast import round_arrays
from repro.core.config import PadeConfig
from repro.core.pade_attention import causal_allowed, protection_mask
from repro.engine.cache import (
    DEFAULT_BLOCK_SIZE,
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    gather_planes,
    gather_value_rows,
)
from repro.quant.integer import int_range

__all__ = ["EngineStats", "EngineAttentionResult", "PadeEngine"]


@dataclass
class EngineStats:
    """Aggregate counters over everything an engine instance has served."""

    prefill_tokens: int = 0
    decode_steps: int = 0
    filter_calls: int = 0
    bit_plane_loads: int = 0
    effective_bit_ops: int = 0
    naive_bit_ops: int = 0
    retained_keys: int = 0
    candidate_keys: int = 0
    rows_decomposed: int = 0  # quantize+decompose work actually performed
    rows_reused: int = 0  # cache hits a per-call pipeline would re-decompose
    policy_calls: int = 0  # attention calls routed through the policy
    policy_prediction_cost: float = 0.0  # summed per-call predictor overhead
    policy_execution_cost: float = 0.0  # summed per-call retained fractions
    batched_rounds: int = 0  # fused cross-request filter dispatches
    fused_rows: int = 0  # valid (head, query, key) cells in fused lattices
    fused_padded_rows: int = 0  # padded lattice cells those dispatches spanned

    @property
    def sparsity(self) -> float:
        if self.candidate_keys == 0:
            return 0.0
        return 1.0 - self.retained_keys / self.candidate_keys

    @property
    def decomposition_reuse(self) -> float:
        """Fraction of consumed K rows served from the plane cache."""
        total = self.rows_decomposed + self.rows_reused
        return self.rows_reused / total if total else 0.0

    @property
    def mean_prediction_cost(self) -> float:
        """Mean per-call predictor overhead (fraction of a dense pass)."""
        return self.policy_prediction_cost / self.policy_calls if self.policy_calls else 0.0

    @property
    def mean_execution_cost(self) -> float:
        """Mean per-call retained fraction (sparse execution cost)."""
        return self.policy_execution_cost / self.policy_calls if self.policy_calls else 0.0

    @property
    def mean_sparsity_level(self) -> float:
        """Paper Fig. 15 currency: (prediction + execution) / dense cost."""
        return self.mean_prediction_cost + self.mean_execution_cost

    @property
    def batch_efficiency(self) -> float:
        """Fraction of the fused decode lattice holding real keys.

        1.0 means every padded ``(request, head, query, key)`` cell the
        fused dispatches allocated was a live key — i.e. the active set
        was perfectly rectangular; lower values quantify the padding
        overhead ragged sequence lengths impose on the batched round.
        """
        return self.fused_rows / self.fused_padded_rows if self.fused_padded_rows else 0.0


@dataclass(frozen=True)
class EngineAttentionResult:
    """One engine attention call: all heads of one layer, one query block.

    ``output`` has shape ``(H, P, Dv)``, ``retained`` and ``scores``
    shape ``(H, P, S)``; ``logit_scales`` / ``guards`` are the per-head
    integer-unit parameters the filter actually used (ones/zeros for the
    software baseline policies, whose scores are plain float logits);
    ``candidate_keys`` counts the (head, query, key) pairs the masks made
    eligible.  ``prediction_cost`` / ``execution_cost`` are the paper's
    Fig. 15 cost split for this call — predictor overhead and retained
    fraction, each as a fraction of a dense pass.
    """

    output: np.ndarray
    retained: np.ndarray
    scores: np.ndarray
    logit_scales: np.ndarray
    guards: np.ndarray
    candidate_keys: int
    prediction_cost: float = 0.0
    execution_cost: float = 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of *candidate* pairs pruned (disallowed pairs — e.g.
        causally masked — are never candidates, matching
        :class:`~repro.core.bsf.BSFResult` semantics)."""
        if self.candidate_keys == 0:
            return 0.0
        return 1.0 - float(self.retained.sum()) / self.candidate_keys


class _RoundParams(NamedTuple):
    """Filter inputs of one attend round (:meth:`PadeEngine._attend_params_batch`)."""

    q_int: np.ndarray  # (R, Hh, P, D) int64
    logit_scales: np.ndarray  # (R, Hh)
    guards: np.ndarray  # (R, Hh)
    alloweds: List[Optional[np.ndarray]]  # per request, None = every key
    protects: List[Optional[np.ndarray]]


class PadeEngine:
    """Batched multi-head PADE attention with a resident bit-plane cache.

    Parameters
    ----------
    config:
        Algorithm parameters (bits, alpha, radius, sink/recency
        protection).  ``config.backend`` participates in backend
        resolution unless ``backend`` is passed explicitly.
    backend:
        Kernel backend name or instance; overrides ``config.backend``.
    policy:
        Attention policy served by this engine: a registry name
        (``"pade"``, ``"quest"``, ``"h2o"``, ``"streaming-llm"``,
        ``"topk-oracle"``, ``"double-sparsity"``, ``"minference"``), an
        :class:`~repro.attention.policy.AttentionPolicy` instance, or
        ``None`` for the default PADE bit-plane filter.
    """

    def __init__(
        self,
        config: Optional[PadeConfig] = None,
        backend: Optional[Union[str, KernelBackend]] = None,
        policy: Union[None, str, AttentionPolicy] = None,
    ) -> None:
        self.config = config or PadeConfig.standard()
        self.kernel: KernelBackend = get_backend(
            backend if backend is not None else self.config.backend
        )
        self.policy: AttentionPolicy = resolve_policy(policy)
        self.stats = EngineStats()
        self._last_serve = None

    # ------------------------------------------------------------------
    # Low-level per-layer operations
    # ------------------------------------------------------------------
    def new_cache(
        self, num_heads: int, head_dim: int, v_dim: int, tokens: int
    ) -> PagedBitPlaneKVCache:
        """An empty cache for one sequence of up to ``tokens`` tokens.

        The cache owns a private :class:`~repro.engine.cache.PlaneBlockPool`
        whose budget is ``tokens`` rounded up to whole blocks.  There is
        no growth path: a prefill or append past that budget raises
        :class:`~repro.engine.cache.PoolExhausted`, exactly as a full
        serving pool does.
        """
        budget = -(-tokens // DEFAULT_BLOCK_SIZE) * DEFAULT_BLOCK_SIZE
        pool = PlaneBlockPool(
            num_heads, head_dim, v_dim, bits=self.config.bits, token_budget=budget
        )
        return PagedBitPlaneKVCache(pool)

    def attend(self, cache: PagedBitPlaneKVCache, q: np.ndarray) -> EngineAttentionResult:
        """Attend the trailing query block ``q`` of shape ``(H, P, D)``
        against the cached keys for every head: a round of one request."""
        return self.attend_batch([cache], [q])[0]

    def attend_batch(self, caches, qs) -> List[EngineAttentionResult]:
        """Attend one trailing query block per request in one round pass.

        :meth:`_attend_params_batch` quantizes the round's queries and
        builds the guards and masks, :func:`~repro.engine.cache.gather_planes`
        gathers every request's keys in one take per pool (writing the
        round's staged appends first), and one kernel call covers the
        set: ``KernelBackend.filter_heads`` for a single request,
        ``KernelBackend.filter_heads_batch`` for a ragged round of
        several.  Outputs, retained sets and every per-request
        ``EngineStats`` counter are the same whichever call ran
        (DESIGN.md §13); only a fused call of several requests adds to
        the ``batched_rounds`` / ``fused_rows`` occupancy counters.
        """
        if len(caches) != len(qs):
            raise ValueError("attend_batch needs one query block per cache")
        if not caches:
            return []
        params = self._attend_params_batch(caches, qs)
        key_planes = gather_planes(caches)
        if len(caches) == 1:
            results = [
                self.kernel.filter_heads(
                    params.q_int[0], key_planes[0], params.guards[0],
                    allowed=params.alloweds[0], protect=params.protects[0],
                )
            ]
        else:
            results = self.kernel.filter_heads_batch(
                list(params.q_int), key_planes, list(params.guards),
                alloweds=params.alloweds, protects=params.protects,
            )
            seq_lens = [cache.length for cache in caches]
            cells_per_key = params.q_int.shape[1] * params.q_int.shape[2]
            self.stats.batched_rounds += 1
            self.stats.fused_rows += cells_per_key * sum(seq_lens)
            self.stats.fused_padded_rows += cells_per_key * len(caches) * max(seq_lens)
        return self._finish_attend_batch(caches, results, params)

    def _attend_params_batch(self, caches, qs) -> _RoundParams:
        """Filter inputs of a round: ``(R, Hh, P, D)`` integer queries,
        ``(R, Hh)`` logit scales and guards, and per-request ``allowed``
        / ``protect`` masks.

        The quantization and guard arithmetic is the per-head
        ``quantize_symmetric`` / ``guard_in_int_units`` sequence of
        IEEE-754 double operations, broadcast over the (request, head)
        axes — ``max |q|`` folds, the ``max_abs / qmax`` divisions,
        ``rint``/``clip`` and the ``alpha * radius / scale`` guards are
        all elementwise, so a request's inputs do not depend on the rest
        of the round.  Every query block must have the same shape.  A
        one-query block (a decode step) sits at the sequence's last
        position, where the causal mask allows every key, so its
        ``allowed`` is ``None`` rather than an all-true mask.
        """
        cfg = self.config
        qs_np = [np.asarray(q, dtype=np.float64) for q in qs]
        if len({q.shape for q in qs_np}) != 1:
            raise ValueError(
                f"a round needs one query shape, got {sorted({q.shape for q in qs_np})}"
            )
        q_all = np.stack(qs_np)  # (R, Hh, P, D)
        for cache in caches:
            if q_all.ndim != 4 or q_all.shape[1::2] != (cache.num_heads, cache.head_dim):
                raise ValueError(
                    f"expected queries ({cache.num_heads}, P, {cache.head_dim}), "
                    f"got {q_all.shape[1:]}"
                )
        _, num_heads, num_queries, head_dim = q_all.shape
        qmin, qmax = int_range(cfg.bits)
        max_abs = np.abs(q_all).max(axis=(2, 3))  # (R, Hh)
        # The same subnormal-underflow floor as quantize_symmetric.
        q_scales = np.where(
            max_abs > 0, np.maximum(max_abs / qmax, np.finfo(np.float64).tiny), 1.0
        )
        q_int = np.clip(
            np.rint(q_all / q_scales[:, :, None, None]), qmin, qmax
        ).astype(np.int64)
        logit_scales = q_scales * np.stack([cache.scales for cache in caches])
        if cfg.scale_logits:
            logit_scales = logit_scales / np.sqrt(head_dim)
        if np.isinf(cfg.radius):
            guards = np.full_like(logit_scales, np.inf)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                guards = np.where(
                    logit_scales <= 0, np.inf, (cfg.alpha * cfg.radius) / logit_scales
                )
        alloweds, protects = [], []
        for cache in caches:
            seq_len = cache.length
            offset = seq_len - num_queries
            causal = cfg.causal and num_queries > 1
            alloweds.append(causal_allowed(num_queries, seq_len, offset) if causal else None)
            protects.append(
                protection_mask(num_queries, seq_len, cfg.sink_tokens, cfg.recent_tokens, offset)
            )
        return _RoundParams(q_int, logit_scales, guards, alloweds, protects)

    def _finish_attend_batch(self, caches, results, params) -> List[EngineAttentionResult]:
        """Fold a round of filter results through softmax/V and the stats.

        One pass over the whole round (DESIGN.md §13).  ``np.flatnonzero``
        of the round's ``(R, Hh, P, S_max)`` retained array
        (:func:`~repro.core.bsf_fast.round_arrays`) lists the kept cells
        in C order, so every (request, head, query) row is one contiguous
        segment with its keys ascending.  Only those cells' logits are
        exponentiated and only their V rows are read — one take through
        the caches' row maps (:func:`~repro.engine.cache.gather_value_rows`).
        Row maxima, softmax denominators and the probability·V sums are
        ``reduceat`` reductions over the segments.  A segment's output
        depends on that segment alone, so a fused round is byte-equal to
        :meth:`attend`, which runs this routine on one request.  Rows
        with no retained key output exact zeros.
        """
        retained_all, scores_all = round_arrays(results)
        _, num_heads, num_queries, s_max = retained_all.shape
        cells = np.flatnonzero(retained_all)
        req_head = cells // (num_queries * s_max)  # request * Hh + head
        logits = np.take(scores_all, cells) * np.take(params.logit_scales, req_head)
        row_counts = np.count_nonzero(retained_all, axis=3).ravel()
        live = row_counts > 0
        starts = (np.cumsum(row_counts) - row_counts)[live]
        segment = np.repeat(np.arange(starts.size), row_counts[live])
        logits -= np.maximum.reduceat(logits, starts)[segment]
        probs = np.exp(logits, out=logits)
        probs /= np.add.reduceat(probs, starts)[segment]
        req, heads = np.divmod(req_head, num_heads)
        rows = gather_value_rows(caches, req, heads, cells % s_max)
        rows *= probs[:, None]
        output = np.zeros((row_counts.size, rows.shape[1]))
        output[live] = np.add.reduceat(rows, starts, axis=0)
        output = output.reshape(retained_all.shape[:3] + (-1,))
        per_request = row_counts.reshape(len(caches), -1).sum(axis=1)

        out = []
        for i, res in enumerate(results):
            retained = int(per_request[i])
            allowed = params.alloweds[i]
            candidates = (  # ``allowed`` broadcasts: each cell repeats size-ratio times
                np.count_nonzero(allowed) * (res.retained.size // allowed.size)
                if allowed is not None
                else res.retained.size
            )
            self.stats.filter_calls += 1
            self.stats.bit_plane_loads += res.bit_plane_loads
            self.stats.effective_bit_ops += res.effective_bit_ops
            self.stats.naive_bit_ops += res.naive_bit_ops
            self.stats.retained_keys += retained
            self.stats.candidate_keys += candidates
            out.append(
                EngineAttentionResult(
                    output=output[i],
                    retained=res.retained,
                    scores=res.scores,
                    logit_scales=params.logit_scales[i],
                    guards=params.guards[i],
                    candidate_keys=candidates,
                    # PADE has no separate predictor: the bound evaluation
                    # is the execution's first bit planes, so the whole
                    # cost is execution.
                    prediction_cost=0.0,
                    execution_cost=float(retained) / candidates if candidates else 0.0,
                )
            )
        return out

    def prefill(
        self,
        cache: PagedBitPlaneKVCache,
        k: np.ndarray,
        v: np.ndarray,
        q: Optional[np.ndarray] = None,
        total_tokens: Optional[int] = None,
    ) -> Optional[EngineAttentionResult]:
        """Populate a cache from prompt K/V and optionally attend ``q``.

        One-shot form of :meth:`prefill_begin` / :meth:`prefill_extend` /
        :meth:`prefill_finish` (the path the scheduler takes), storing the
        same bytes; later decode steps reuse the stored planes.  The attend —
        and all later decode steps on this cache — route through the
        engine's :class:`~repro.attention.policy.AttentionPolicy`, whose
        per-request state is created here (``total_tokens``, the final
        context length when known, anchors budget-style policies exactly
        like the full sequence anchors their one-shot forms).
        """
        before = cache.rows_decomposed
        cache.prefill(k, v)
        self.stats.rows_decomposed += cache.rows_decomposed - before
        return self._seal_prompt(cache, q, total_tokens)

    def prefill_begin(self, cache, k: np.ndarray, v: np.ndarray) -> int:
        """Start a prefill: calibrate scales, attach prefix hits.

        Returns the tokens already resident (shared
        prefix blocks attached by reference — zero decompose cost); the
        remainder is fed through :meth:`prefill_extend` and sealed by
        :meth:`prefill_finish`.  The chunk boundaries never change the
        stored bytes: scales come from the full prompt, so the planes are
        identical to a one-shot :meth:`prefill`.
        """
        return cache.begin_prefill(k, v)

    def prefill_extend(self, cache, max_tokens: Optional[int] = None) -> int:
        """Write up to ``max_tokens`` more prompt rows of a chunked prefill."""
        before = cache.rows_decomposed
        written = cache.extend_prefill(max_tokens)
        self.stats.rows_decomposed += cache.rows_decomposed - before
        return written

    def prefill_finish(
        self,
        cache,
        q: Optional[np.ndarray] = None,
        total_tokens: Optional[int] = None,
    ):
        """Seal a prefill and optionally attend the prompt queries."""
        cache.finish_prefill()
        return self._seal_prompt(cache, q, total_tokens)

    def _seal_prompt(self, cache, q, total_tokens):
        """Count a resident prompt, create the policy state, attend ``q``."""
        self.stats.prefill_tokens += cache.length
        cache.policy_state = self.policy.new_state(cache, total_tokens=total_tokens)
        if q is None:
            return None
        return self.policy.prefill(self, cache, np.asarray(q, dtype=np.float64))

    def decode_step(
        self,
        cache: PagedBitPlaneKVCache,
        q: np.ndarray,
        k_step: np.ndarray,
        v_step: np.ndarray,
    ) -> EngineAttentionResult:
        """One autoregressive step: extend the cache, attend the new query.

        ``q`` / ``k_step`` have shape ``(H, D)`` and ``v_step`` ``(H, Dv)``
        — one token per head.  Only the appended token is decomposed; the
        other ``H × (S-1)`` rows come straight from the plane cache (the
        reuse a per-call pipeline forfeits).  Selection and attend route
        through the engine's policy (the default :class:`PadePolicy` is
        byte-identical to calling :meth:`attend` directly).
        """
        self.decode_append(cache, k_step, v_step)
        return self.decode_attend(cache, q)

    def decode_append(
        self, cache: PagedBitPlaneKVCache, k_step: np.ndarray, v_step: np.ndarray
    ) -> None:
        """Extend the cache by one token and bill the decompose stats.

        The append half of :meth:`decode_step`, split out so a batched
        round can append every active request before filtering any of
        them.  The cache raises
        :class:`~repro.engine.cache.PoolExhausted` *before* mutating
        anything, and this method touches the stats only after the append
        succeeds, so a failed append leaves both cache and counters
        untouched — the scheduler's preempt-and-retry relies on that.
        """
        cache.append(k_step, v_step)
        self.stats.decode_steps += 1
        self.stats.rows_decomposed += cache.num_heads
        self.stats.rows_reused += cache.num_heads * (cache.length - 1)

    def decode_attend(self, cache: PagedBitPlaneKVCache, q: np.ndarray) -> EngineAttentionResult:
        """Attend one already-appended decode query through the policy."""
        return self.policy.decode_step(self, cache, np.asarray(q, dtype=np.float64))

    def decode_attend_batch(self, caches, qs) -> List[EngineAttentionResult]:
        """Attend one already-appended decode query per request in one
        round through the policy's ``decode_step_batch``: one result per
        request, in order, identical to a :meth:`decode_attend` loop."""
        return self.policy.decode_step_batch(self, caches, qs)

    def decode_step_batch(self, steps) -> List[EngineAttentionResult]:
        """One fused autoregressive step over several requests.

        ``steps`` is a sequence of ``(cache, q, k_step, v_step)`` tuples
        as :meth:`decode_step` takes them.  Every cache is appended first
        (in order — pool allocation order is what the per-request loop
        produces), then one :meth:`decode_attend_batch` covers the whole
        set.  Filters never allocate pool blocks and caches are
        request-private, so the append/filter reordering is
        result-identical to interleaved per-request
        :meth:`decode_step` calls (DESIGN.md §13).
        """
        for cache, _, k_step, v_step in steps:
            self.decode_append(cache, k_step, v_step)
        return self.decode_attend_batch(
            [s[0] for s in steps], [s[1] for s in steps]
        )

    # ------------------------------------------------------------------
    # Request-level serving
    # ------------------------------------------------------------------
    def serve(self, requests, **scheduler_kwargs):
        """Serve ``requests`` to completion through continuous batching.

        Runs a fresh :class:`~repro.engine.scheduler.ContinuousScheduler`
        on this engine; ``scheduler_kwargs`` are its settings (budget,
        batch width, scheduling policy, prefix sharing, chunked prefill,
        tiering, speculative decoding, ...), documented and validated
        there.  Returns ``{request_id: RequestResult}`` with per-request
        timing populated; the scheduler stays inspectable via
        :attr:`last_serve` (trace, timed events, pool occupancy, prefix
        and tier counters, tenant service).
        """
        from repro.engine.scheduler import ContinuousScheduler

        scheduler = ContinuousScheduler(self, **scheduler_kwargs)
        for request in requests:
            scheduler.submit(request)
        self._last_serve = scheduler
        return scheduler.run()

    @property
    def last_serve(self):
        """The :class:`ContinuousScheduler` of the most recent :meth:`serve`."""
        if self._last_serve is None:
            raise RuntimeError("serve() has not been called on this engine")
        return self._last_serve
