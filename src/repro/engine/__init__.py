"""Batched multi-head serving layer for PADE sparse attention.

* :mod:`repro.engine.cache` — the persistent per-head bit-plane KV
  cache: :class:`PagedBitPlaneKVCache`, a block table over a
  :class:`PlaneBlockPool` (fixed-size token blocks under a token budget —
  one pool shared by every request when serving, a private one per
  :meth:`PadeEngine.new_cache`).  The pool ref-counts blocks:
  content-hashed prompt-prefix sharing (``prefix_sharing=True``) and
  zero-copy cache forks with copy-on-write tails ride on top, and the
  ``begin/extend/finish_prefill`` triple supports chunked prefill with
  byte-identical results to one-shot prefill.
* :mod:`repro.engine.engine` — :class:`PadeEngine`: multi-head attention
  with per-head guards, a head-batched filter round
  (one matmul covers all heads), and aggregate serving statistics.
* :mod:`repro.engine.scheduler` — :class:`ContinuousScheduler`
  (arrival-aware iteration-level batching with pluggable
  :class:`SchedulingPolicy` admission — ``fcfs`` / ``shortest-prompt`` /
  ``priority`` / ``edf`` / ``fair`` — SLO-aware preemption victim
  selection, deadline/cancellation aborts, and budget-pressure
  preemption).  Its constructor declares every scheduler setting;
  :meth:`PadeEngine.serve` forwards them as keyword arguments.

Quickstart (synthetic single-layer decode)::

    from repro.engine import EngineRequest, PadeEngine
    engine = PadeEngine(backend="fast")
    request = EngineRequest("req0", k, v, decode_q=q, decode_k=dk, decode_v=dv)
    results = engine.serve([request])
    out = results["req0"].decode_outputs        # (H, T, Dv)

Continuous batching under a token budget::

    results = engine.serve(requests, token_budget=4096, policy="fcfs")
    results["req0"].first_token_time            # decode-round units
    engine.last_serve.occupancy                 # pool occupancy timeline

Prefix sharing + chunked prefill::

    results = engine.serve(requests, token_budget=4096, prefix_sharing=True,
                           round_token_budget=64, chunk_tokens=48)
    engine.last_serve.prefix_hit_blocks         # blocks served from the index
"""

from repro.engine.cache import (
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    PoolExhausted,
)
from repro.engine.engine import EngineAttentionResult, EngineStats, PadeEngine
from repro.engine.scheduler import (
    SCHEDULER_POLICY_REGISTRY,
    SCHEDULING_POLICIES,
    ContinuousScheduler,
    EdfPolicy,
    EngineRequest,
    FairPolicy,
    FcfsPolicy,
    PriorityPolicy,
    RequestResult,
    SchedulingPolicy,
    ShortestPromptPolicy,
    resolve_scheduling_policy,
)

__all__ = [
    "PagedBitPlaneKVCache",
    "PlaneBlockPool",
    "PoolExhausted",
    "PadeEngine",
    "EngineAttentionResult",
    "EngineStats",
    "EngineRequest",
    "ContinuousScheduler",
    "RequestResult",
    "SchedulingPolicy",
    "FcfsPolicy",
    "ShortestPromptPolicy",
    "PriorityPolicy",
    "EdfPolicy",
    "FairPolicy",
    "SCHEDULER_POLICY_REGISTRY",
    "SCHEDULING_POLICIES",
    "resolve_scheduling_policy",
]
