"""`PadeEngine` — batched multi-head serving layer over the fused filter.

Where :func:`repro.core.pade_attention.pade_attention` is a one-shot,
single-head operator (quantize → decompose → filter → attend, everything
rebuilt per call), the engine is the layer a serving stack talks to:

* **multi-head, multi-layer**: attention runs with per-head quantization
  scales and guards; :meth:`PadeEngine.new_model_caches` shapes one cache
  per layer from a model preset
  (:class:`repro.model.configs.ModelConfig`), so one engine serves a
  whole stack;
* **persistent bit-plane cache**: Key planes are decomposed once at
  prefill (:class:`repro.engine.cache.BitPlaneKVCache`) and extended
  incrementally each decode step, never rebuilt;
* **head-batched fast path**: each filter round covers all heads with one
  matmul via ``KernelBackend.filter_heads`` (the ``"fast"`` backend
  dispatches :func:`repro.core.bsf_fast.bsf_filter_fast_heads`);
* **request scheduling**: :meth:`PadeEngine.submit` /
  :meth:`PadeEngine.run` batch prefill admission and decode rounds across
  concurrent requests in lockstep; :meth:`PadeEngine.serve` runs the
  continuous-batching path — arrival-aware admission every round over a
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
from typing import List, Optional, Union

import numpy as np

from repro.attention.policy import AttentionPolicy, resolve_policy
from repro.core.backend import KernelBackend, get_backend
from repro.core.bui_gf import guard_in_int_units
from repro.core.config import PadeConfig
from repro.core.pade_attention import causal_allowed, protection_mask
from repro.engine.cache import BitPlaneKVCache
from repro.quant.integer import int_range, quantize_symmetric

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
    max_active:
        Decode-round batch width of the scheduler — how many requests may
        be in flight at once (see :meth:`run`).
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
        max_active: int = 8,
        policy: Union[None, str, AttentionPolicy] = None,
    ) -> None:
        self.config = config or PadeConfig.standard()
        self.kernel: KernelBackend = get_backend(
            backend if backend is not None else self.config.backend
        )
        self.policy: AttentionPolicy = resolve_policy(policy)
        self.stats = EngineStats()
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        from repro.engine.scheduler import EngineScheduler

        self._scheduler = EngineScheduler(self, max_active=max_active)
        self._last_serve = None

    # ------------------------------------------------------------------
    # Low-level per-layer operations
    # ------------------------------------------------------------------
    def new_cache(self, num_heads: int, head_dim: int, v_dim: int) -> BitPlaneKVCache:
        """Create an empty cache shaped for one layer of this engine."""
        return BitPlaneKVCache(num_heads, head_dim, v_dim, bits=self.config.bits)

    def new_model_caches(self, model, v_dim: Optional[int] = None) -> List[BitPlaneKVCache]:
        """One empty cache per layer of a model preset.

        ``model`` is a :class:`repro.model.configs.ModelConfig` or preset
        name; caches are shaped for the model's KV heads (GQA models cache
        ``num_kv_heads``, not ``num_heads``).  Prefill/decode each layer's
        cache with that layer's K/V to serve the whole stack from one
        engine.
        """
        from repro.model.configs import get_model

        cfg = get_model(model) if isinstance(model, str) else model
        dim = cfg.head_dim if v_dim is None else v_dim
        return [
            self.new_cache(cfg.num_kv_heads, cfg.head_dim, dim)
            for _ in range(cfg.num_layers)
        ]

    def attend(
        self,
        cache: BitPlaneKVCache,
        q: np.ndarray,
        query_offset: Optional[int] = None,
    ) -> EngineAttentionResult:
        """Attend a query block against the cached keys for every head.

        ``q`` has shape ``(H, P, D)``.  ``query_offset`` positions the
        block inside the sequence for causal/recency masks; it defaults to
        ``length - P`` (the trailing block, i.e. the prefill/decode case).
        """
        q_int, logit_scales, guards, allowed, protect = self._attend_params(
            cache, q, query_offset
        )
        res = self.kernel.filter_heads(
            q_int, cache.planes, guards, allowed=allowed, protect=protect
        )
        return self._finish_attend(cache, res, logit_scales, guards, allowed)

    def attend_batch(
        self,
        caches,
        qs,
    ) -> List[EngineAttentionResult]:
        """Attend one query block per request in a single fused filter call.

        The batched analogue of :meth:`attend` for a decode round: per
        request the quantization, guards and causal/protection masks are
        prepared exactly as :meth:`attend` prepares them, the bit planes
        are gathered from each request's cache (paged caches gather via
        their block tables here), then **one**
        ``KernelBackend.filter_heads_batch`` call covers the whole ragged
        active set and the outputs/retained sets/stats are scattered back
        per request.  Result-identical to calling :meth:`attend` per
        request in order — including every per-request ``EngineStats``
        counter — by DESIGN.md §13; the only extra accounting is the
        ``batched_rounds`` / ``fused_rows`` occupancy counters on the
        fused path.  Backends that predate ``filter_heads_batch`` fall
        back to a per-request ``filter_heads`` loop transparently.
        """
        if len(caches) != len(qs):
            raise ValueError("attend_batch needs one query block per cache")
        if not caches:
            return []
        params = self._attend_params_batch(caches, qs)
        q_ints = [p[0] for p in params]
        guards_list = [p[2] for p in params]
        alloweds = [p[3] for p in params]
        protects = [p[4] for p in params]
        key_planes = [cache.planes for cache in caches]

        fused = getattr(self.kernel, "filter_heads_batch", None)
        if fused is not None:
            results = fused(
                q_ints, key_planes, guards_list, alloweds=alloweds, protects=protects
            )
            seq_lens = [cache.length for cache in caches]
            cells_per_key = q_ints[0].shape[0] * q_ints[0].shape[1]
            self.stats.batched_rounds += 1
            self.stats.fused_rows += cells_per_key * sum(seq_lens)
            self.stats.fused_padded_rows += cells_per_key * len(caches) * max(seq_lens)
        else:
            results = [
                self.kernel.filter_heads(
                    q_ints[i], key_planes[i], guards_list[i],
                    allowed=alloweds[i], protect=protects[i],
                )
                for i in range(len(caches))
            ]
        return self._finish_attend_batch(caches, results, params)

    def _attend_params_batch(self, caches, qs):
        """Filter inputs for a whole decode round, one tuple per request.

        Bit-identical to calling :meth:`_attend_params` per request: the
        quantization and guard arithmetic below is the same sequence of
        IEEE-754 double operations, merely broadcast over the (request,
        head) axes — ``max |q|`` folds, the ``max_abs / qmax`` divisions,
        ``rint``/``clip`` and the ``alpha * radius / scale`` guards are
        all elementwise, so batching cannot change a single bit.
        Heterogeneous query shapes (not a decode round) fall back to the
        per-request helper.
        """
        cfg = self.config
        qs_np = [np.asarray(q, dtype=np.float64) for q in qs]
        if len({q.shape for q in qs_np}) != 1:
            return [self._attend_params(cache, q) for cache, q in zip(caches, qs_np)]
        q_all = np.stack(qs_np)  # (R, Hh, P, D)
        _, num_heads, num_queries, head_dim = q_all.shape
        for cache in caches:
            if num_heads != cache.num_heads or head_dim != cache.head_dim:
                raise ValueError(
                    f"expected queries ({cache.num_heads}, P, {cache.head_dim}), "
                    f"got {q_all.shape[1:]}"
                )
        qmin, qmax = int_range(cfg.bits)
        max_abs = np.abs(q_all).max(axis=(2, 3))  # (R, Hh)
        # Same subnormal-underflow floor as quantize_symmetric — the two
        # paths must stay bit-identical.
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
        params = []
        for i, cache in enumerate(caches):
            seq_len = cache.length
            offset = seq_len - num_queries
            allowed = causal_allowed(num_queries, seq_len, offset) if cfg.causal else None
            protect = protection_mask(
                num_queries, seq_len, cfg.sink_tokens, cfg.recent_tokens, offset
            )
            params.append((q_int[i], logit_scales[i], guards[i], allowed, protect))
        return params

    def _finish_attend_batch(self, caches, results, params):
        """Fold a round of filter results through softmax/V, batched.

        The request-independent elementwise stages (logit scaling, the
        masked ``-inf`` fill, row max, ``exp``, the guarded divide) run
        on one padded ``(R, Hh, P, S_max)`` lattice; the softmax
        *denominators* and the probability·V einsums stay per-request on
        the real ``S_i`` slices so every pairwise summation tree is the
        one :meth:`_finish_attend` would build — outputs match the
        per-request path byte for byte, not just numerically.
        """
        seq_lens = [cache.length for cache in caches]
        s_max = max(seq_lens)
        num_requests = len(caches)
        num_heads, num_queries = results[0].retained.shape[:2]
        retained_pad = np.zeros((num_requests, num_heads, num_queries, s_max), dtype=bool)
        scores_pad = np.zeros((num_requests, num_heads, num_queries, s_max))
        for i, res in enumerate(results):
            retained_pad[i, :, :, : seq_lens[i]] = res.retained
            scores_pad[i, :, :, : seq_lens[i]] = res.scores
        scale_mat = np.stack([p[1] for p in params])  # (R, Hh)
        logits = scores_pad * scale_mat[:, :, None, None]
        logits = np.where(retained_pad, logits, -np.inf)
        row_max = logits.max(axis=3, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        probs = np.exp(logits - row_max)
        denom = np.empty((num_requests, num_heads, num_queries, 1))
        for i, s in enumerate(seq_lens):
            denom[i] = probs[i, :, :, :s].sum(axis=2, keepdims=True)
        probs = np.divide(probs, denom, out=np.zeros_like(probs), where=denom > 0)
        retained_counts = retained_pad.sum(axis=(1, 2, 3))

        out = []
        for i, (cache, res) in enumerate(zip(caches, results)):
            _, logit_scales, guards, allowed, _ = params[i]
            output = np.einsum(
                "hps,hsd->hpd", probs[i, :, :, : seq_lens[i]], cache.values
            )
            candidates = (
                int(np.broadcast_to(allowed, res.retained.shape).sum())
                if allowed is not None
                else res.retained.size
            )
            self.stats.filter_calls += 1
            self.stats.bit_plane_loads += res.bit_plane_loads
            self.stats.effective_bit_ops += res.effective_bit_ops
            self.stats.naive_bit_ops += res.naive_bit_ops
            self.stats.retained_keys += int(retained_counts[i])
            self.stats.candidate_keys += candidates
            out.append(
                EngineAttentionResult(
                    output=output,
                    retained=res.retained,
                    scores=res.scores,
                    logit_scales=logit_scales,
                    guards=guards,
                    candidate_keys=candidates,
                    prediction_cost=0.0,
                    execution_cost=(
                        float(retained_counts[i]) / candidates if candidates else 0.0
                    ),
                )
            )
        return out

    def _attend_params(
        self,
        cache: BitPlaneKVCache,
        q: np.ndarray,
        query_offset: Optional[int] = None,
    ):
        """Per-request filter inputs: ``(q_int, logit_scales, guards,
        allowed, protect)`` — shared verbatim by :meth:`attend` and
        :meth:`attend_batch` so the two paths cannot drift."""
        cfg = self.config
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 3 or q.shape[0] != cache.num_heads or q.shape[2] != cache.head_dim:
            raise ValueError(
                f"expected queries ({cache.num_heads}, P, {cache.head_dim}), got {q.shape}"
            )
        num_heads, num_queries, head_dim = q.shape
        seq_len = cache.length
        offset = seq_len - num_queries if query_offset is None else query_offset

        q_quant = [quantize_symmetric(q[h], bits=cfg.bits) for h in range(num_heads)]
        q_int = np.stack([qh.data for qh in q_quant])
        q_scales = np.array([float(qh.scale) for qh in q_quant])
        logit_scales = q_scales * cache.scales
        if cfg.scale_logits:
            logit_scales = logit_scales / np.sqrt(head_dim)
        guards = np.array(
            [guard_in_int_units(cfg.alpha, cfg.radius, float(s)) for s in logit_scales]
        )

        allowed = causal_allowed(num_queries, seq_len, offset) if cfg.causal else None
        protect = protection_mask(
            num_queries, seq_len, cfg.sink_tokens, cfg.recent_tokens, offset
        )
        return q_int, logit_scales, guards, allowed, protect

    def _finish_attend(
        self,
        cache: BitPlaneKVCache,
        res,
        logit_scales: np.ndarray,
        guards: np.ndarray,
        allowed,
    ) -> EngineAttentionResult:
        """Fold one filter result through softmax/V and the stats counters."""
        # Retained scores are exact integer Q·K products; fold them through
        # a masked softmax and the cached V rows.
        logits = res.scores.astype(np.float64) * logit_scales[:, None, None]
        logits = np.where(res.retained, logits, -np.inf)
        row_max = logits.max(axis=2, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        probs = np.exp(logits - row_max)
        denom = probs.sum(axis=2, keepdims=True)
        probs = np.divide(probs, denom, out=np.zeros_like(probs), where=denom > 0)
        output = np.einsum("hps,hsd->hpd", probs, cache.values)

        candidates = (
            int(np.broadcast_to(allowed, res.retained.shape).sum())
            if allowed is not None
            else res.retained.size
        )
        self.stats.filter_calls += 1
        self.stats.bit_plane_loads += res.bit_plane_loads
        self.stats.effective_bit_ops += res.effective_bit_ops
        self.stats.naive_bit_ops += res.naive_bit_ops
        self.stats.retained_keys += int(res.retained.sum())
        self.stats.candidate_keys += candidates
        return EngineAttentionResult(
            output=output,
            retained=res.retained,
            scores=res.scores,
            logit_scales=logit_scales,
            guards=guards,
            candidate_keys=candidates,
            # PADE has no separate predictor: the bound evaluation is the
            # execution's first bit planes, so the whole cost is execution.
            prediction_cost=0.0,
            execution_cost=(
                float(res.retained.sum()) / candidates if candidates else 0.0
            ),
        )

    def prefill(
        self,
        cache: BitPlaneKVCache,
        k: np.ndarray,
        v: np.ndarray,
        q: Optional[np.ndarray] = None,
        total_tokens: Optional[int] = None,
    ) -> Optional[EngineAttentionResult]:
        """Populate a cache from prompt K/V and optionally attend ``q``.

        This is the only place the bulk decomposition cost is paid; every
        later :meth:`decode_step` reuses the stored planes.  The attend —
        and all later decode steps on this cache — route through the
        engine's :class:`~repro.attention.policy.AttentionPolicy`, whose
        per-request state is created here (``total_tokens``, the final
        context length when known, anchors budget-style policies exactly
        like the full sequence anchors their one-shot forms).
        """
        before = cache.rows_decomposed
        cache.prefill(k, v)
        self.stats.prefill_tokens += cache.length
        self.stats.rows_decomposed += cache.rows_decomposed - before
        cache.policy_state = self.policy.new_state(cache, total_tokens=total_tokens)
        if q is None:
            return None
        return self.policy.prefill(self, cache, np.asarray(q, dtype=np.float64))

    def prefill_begin(self, cache, k: np.ndarray, v: np.ndarray) -> int:
        """Start a chunked prefill: calibrate scales, attach prefix hits.

        Paged caches only.  Returns the tokens already resident (shared
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
        """Seal a chunked prefill and optionally attend the prompt queries."""
        cache.finish_prefill()
        self.stats.prefill_tokens += cache.length
        cache.policy_state = self.policy.new_state(cache, total_tokens=total_tokens)
        if q is None:
            return None
        return self.policy.prefill(self, cache, np.asarray(q, dtype=np.float64))

    def decode_step(
        self,
        cache: BitPlaneKVCache,
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
        self, cache: BitPlaneKVCache, k_step: np.ndarray, v_step: np.ndarray
    ) -> None:
        """Extend the cache by one token and bill the decompose stats.

        The append half of :meth:`decode_step`, split out so a batched
        round can append every active request before filtering any of
        them.  Paged caches raise
        :class:`~repro.engine.cache.PoolExhausted` *before* mutating
        anything, and this method touches the stats only after the append
        succeeds, so a failed append leaves both cache and counters
        untouched — the scheduler's preempt-and-retry relies on that.
        """
        cache.append(k_step, v_step)
        self.stats.decode_steps += 1
        self.stats.rows_decomposed += cache.num_heads
        self.stats.rows_reused += cache.num_heads * (cache.length - 1)

    def decode_attend(self, cache: BitPlaneKVCache, q: np.ndarray) -> EngineAttentionResult:
        """Attend one already-appended decode query through the policy."""
        return self.policy.decode_step(self, cache, np.asarray(q, dtype=np.float64))

    def decode_attend_batch(self, caches, qs) -> List[EngineAttentionResult]:
        """Attend one decode query per request in a single fused round.

        Routes through the policy's ``decode_step_batch`` when it
        declares :attr:`supports_batched_decode` (PADE does), otherwise
        falls back to a per-request :meth:`decode_attend` loop — either
        way the results are identical to the loop, per request, in order.
        """
        if self.supports_batched_decode and len(caches) > 1:
            return self.policy.decode_step_batch(self, caches, qs)
        return [self.decode_attend(cache, q) for cache, q in zip(caches, qs)]

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

    @property
    def supports_batched_decode(self) -> bool:
        """True when the active policy can serve fused decode rounds."""
        return bool(getattr(self.policy, "supports_batched_decode", False))

    # ------------------------------------------------------------------
    # Request-level scheduling (delegates to the schedulers)
    # ------------------------------------------------------------------
    def submit(self, request) -> None:
        """Queue an :class:`~repro.engine.scheduler.EngineRequest`."""
        self._scheduler.submit(request)

    def run(self):
        """Serve every queued request to completion (batched rounds).

        Returns ``{request_id: RequestResult}``; see
        :class:`repro.engine.scheduler.EngineScheduler` for the admission
        and round-robin policy.
        """
        return self._scheduler.run()

    @property
    def schedule_trace(self):
        """Chronological ``(event, request_ids)`` log of the last run."""
        return self._scheduler.trace

    def serve(
        self,
        requests,
        max_active: Optional[int] = None,
        token_budget: int = 4096,
        block_size: int = 16,
        policy="fcfs",
        admission: str = "continuous",
        prefix_sharing: bool = False,
        chunk_tokens: int = 0,
        round_token_budget: int = 0,
        tenant_weights=None,
        batched_decode: bool = True,
        tiering=None,
        draft_policy="streaming-llm",
        spec_accept_tol: float = 0.05,
    ):
        """Serve ``requests`` with continuous batching over a paged pool.

        Arrival-aware admission at every decode-round boundary, KV rows in
        fixed-size blocks under ``token_budget``, preemption under memory
        pressure — see :class:`repro.engine.scheduler.ContinuousScheduler`
        for the policy knobs.  ``policy`` picks the scheduling policy
        (``fcfs`` / ``shortest-prompt`` / ``priority`` / ``edf`` /
        ``fair``, or a :class:`~repro.engine.scheduler.SchedulingPolicy`
        instance) and ``tenant_weights`` the fair-share weights the
        ``fair`` policy divides service by.  ``prefix_sharing`` turns on
        hash-based copy-on-write prompt-prefix sharing across requests;
        ``round_token_budget`` activates the prefill cost model (a prompt
        occupies rounds in proportion to its length) and ``chunk_tokens``
        splits those prompts into chunks interleaved with decode rounds.
        ``batched_decode`` (default on) fuses each decode round's filter
        across the whole active set when the policy supports it — results
        are byte-identical to the per-request loop either way.
        ``tiering`` (``True`` or a :class:`~repro.engine.cache.TierConfig`)
        arms the two-tier plane memory: under pool pressure, low-order
        bit planes of cold blocks spill to a secondary tier and
        preemption becomes the last resort (PADE policy only; DESIGN.md
        §16).  ``draft_policy`` / ``spec_accept_tol`` configure the
        draft-verify speculative mode for requests submitted with
        ``speculative=True`` (DESIGN.md §17): the named draftable policy
        proposes ``draft_tokens``-token blocks over a COW fork anchor
        and this engine's PADE policy verifies them, accepting the
        leading run within the relative-L2 tolerance.
        Returns ``{request_id: RequestResult}`` with per-request timing
        (arrival/admit/first-token/finish) populated — aborted requests
        (deadline missed, queueing bound exceeded, cancelled) report
        ``status="aborted"``; the scheduler of the last call stays
        inspectable via :attr:`last_serve` (trace, timed events, pool
        occupancy timeline, prefix-cache counters, tenant service).
        """
        from repro.engine.scheduler import ContinuousScheduler

        scheduler = ContinuousScheduler(
            self,
            max_active=self._scheduler.max_active if max_active is None else max_active,
            token_budget=token_budget,
            block_size=block_size,
            policy=policy,
            admission=admission,
            prefix_sharing=prefix_sharing,
            chunk_tokens=chunk_tokens,
            round_token_budget=round_token_budget,
            tenant_weights=tenant_weights,
            batched_decode=batched_decode,
            tiering=tiering,
            draft_policy=draft_policy,
            spec_accept_tol=spec_accept_tol,
        )
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
