"""Request-level scheduling for :class:`repro.engine.engine.PadeEngine`.

Serving traffic arrives as *requests*: a prompt to prefill, then a stream
of decode steps.  :class:`ContinuousScheduler` batches them with
iteration-level (continuous) batching over a shared
:class:`~repro.engine.cache.PlaneBlockPool`: requests carry arrival
times, admission happens at *every* decode-round boundary under a
pluggable :class:`SchedulingPolicy` (``fcfs`` / ``shortest-prompt`` /
``priority`` / ``edf`` / ``fair``), KV rows live in fixed-size blocks
under a global token budget, and budget pressure preempts a
policy-chosen victim (its blocks are freed; it re-prefills from scratch
on re-admission, so its retained sets are identical to an uncontended
run).

Its ``__init__`` is the one place scheduler settings are declared,
defaulted, documented and validated: :meth:`PadeEngine.serve`, the
asyncio front-end, the cluster and the harness all pass them through as
opaque keyword arguments (one JSON object on the way to a replica
process).

Multi-tenant SLO serving rides on three request attributes: ``tenant``
(the traffic source, the unit of fairness accounting), ``priority``
(the service class — higher is more urgent), and ``deadline_ms`` /
``max_queue_ms`` (completion / queueing SLOs on the scheduler clock; the
"ms" suffix marks them as wall-clock quantities once rounds are
calibrated to a hardware round latency, exactly like every other timing
in :mod:`repro.eval.serving_metrics`).  A request whose deadline passes,
whose queueing bound expires, or that is cancelled via
:meth:`ContinuousScheduler.cancel` is *aborted*: its pool blocks and
prefix references are released immediately and its
:class:`RequestResult` reports ``status="aborted"`` with the reason.

Since the offline substrate has no real model producing Q/K/V on the fly,
a request carries its decode-step tensors up front (synthesized or
replayed); the engine consumes them step by step exactly as a model
runtime would hand them over.  Time is measured in decode rounds: each
round boundary advances the clock by one unit, and arrival times are
expressed on the same axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.cache import (
    PagedBitPlaneKVCache,
    PlaneBlockPool,
    PoolExhausted,
    TierConfig,
)
from repro.engine.heap import pin_malloc_thresholds

# Speculative acceptance (DESIGN.md §17): a draft token whose output lies
# within this relative L2 of the verifier's output is accepted.
SPEC_ACCEPT_TOL = 0.05

__all__ = [
    "EngineRequest",
    "RequestResult",
    "deadline_was_missed",
    "ContinuousScheduler",
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


@dataclass(frozen=True)
class EngineRequest:
    """One serving request: prompt K/V (+ optional prompt queries) and the
    per-step decode tensors.

    Shapes: ``k``/``v`` are ``(H, S, D)`` / ``(H, S, Dv)``;
    ``q_prompt`` is ``(H, P, D)`` or ``None``; the decode streams are
    ``(H, T, D)`` / ``(H, T, D)`` / ``(H, T, Dv)`` with a shared step
    count ``T`` (``None`` for prefill-only requests).  ``arrival_time``
    is in decode-round units; the scheduler never admits a request
    before it.

    The SLO attributes are all optional: ``tenant`` names the traffic
    source (fairness accounting
    unit), ``priority`` the service class (higher = more urgent, used by
    the ``priority`` policy and by preemption victim selection),
    ``deadline_ms`` a completion SLO relative to arrival, and
    ``max_queue_ms`` a bound on time spent waiting for admission — both
    on the scheduler clock (decode rounds until calibrated).
    """

    request_id: str
    k: np.ndarray
    v: np.ndarray
    q_prompt: Optional[np.ndarray] = None
    decode_q: Optional[np.ndarray] = None
    decode_k: Optional[np.ndarray] = None
    decode_v: Optional[np.ndarray] = None
    arrival_time: float = 0.0
    tenant: str = "default"
    priority: int = 0
    deadline_ms: Optional[float] = None
    max_queue_ms: Optional[float] = None
    # Parallel sampling (n-best): per extra lineage decode streams of
    # shape (n-1, H, T, D) / (n-1, H, T, D) / (n-1, H, T, Dv).  The
    # primary decode_q/k/v stream is lineage 0; lineages share the
    # prefilled prompt via copy-on-write cache forks.
    sample_decode_q: Optional[np.ndarray] = None
    sample_decode_k: Optional[np.ndarray] = None
    sample_decode_v: Optional[np.ndarray] = None
    # Draft-verify speculative decoding: a cheap draft policy proposes
    # up to ``draft_tokens`` outputs per round and the engine's verifier
    # accepts a leading run of them at the round boundary (the rejected
    # draft tail is truncated off the cache).
    speculative: bool = False
    draft_tokens: int = 4

    @property
    def decode_steps(self) -> int:
        return 0 if self.decode_q is None else self.decode_q.shape[1]

    @property
    def prompt_tokens(self) -> int:
        return int(np.asarray(self.k).shape[1])

    @property
    def total_tokens(self) -> int:
        """Peak KV footprint of one lineage: prompt plus every decode step."""
        return self.prompt_tokens + self.decode_steps

    @property
    def n_samples(self) -> int:
        """Decode lineages served for this request (1 = plain decoding)."""
        if self.sample_decode_q is None:
            return 1
        return 1 + int(self.sample_decode_q.shape[0])

    def __post_init__(self) -> None:
        streams = (self.decode_q, self.decode_k, self.decode_v)
        samples = (self.sample_decode_q, self.sample_decode_k, self.sample_decode_v)
        tensors = (self.k, self.v, self.q_prompt) + streams + samples
        if not all(np.isfinite(t).all() for t in tensors if t is not None):
            raise ValueError("request tensors must be finite")
        present = [s for s in streams if s is not None]
        if present and len(present) != 3:
            raise ValueError("decode_q/decode_k/decode_v must be provided together")
        if present and len({s.shape[1] for s in present}) != 1:
            raise ValueError("decode streams must share the same step count")
        sample_present = [s for s in samples if s is not None]
        if sample_present and len(sample_present) != 3:
            raise ValueError(
                "sample_decode_q/sample_decode_k/sample_decode_v must be "
                "provided together"
            )
        if sample_present:
            if len(present) != 3:
                raise ValueError("parallel sampling requires primary decode streams")
            if len({s.shape[0] for s in sample_present}) != 1:
                raise ValueError("sample decode streams must share the lineage count")
            if len({s.shape[2] for s in sample_present}) != 1 or (
                sample_present[0].shape[2] != self.decode_steps
            ):
                raise ValueError(
                    "sample decode streams must match the primary step count"
                )
        if self.speculative:
            if len(present) != 3:
                raise ValueError("speculative decoding requires decode streams")
            if sample_present:
                raise ValueError(
                    "speculative decoding and parallel sampling are mutually "
                    "exclusive on one request"
                )
            if self.draft_tokens < 1:
                raise ValueError("draft_tokens must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 when set")
        if self.max_queue_ms is not None and self.max_queue_ms < 0:
            raise ValueError("max_queue_ms must be >= 0 when set")

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute completion deadline on the scheduler clock (or None)."""
        if self.deadline_ms is None:
            return None
        return self.arrival_time + self.deadline_ms


def deadline_was_missed(
    deadline_ms: Optional[float],
    status: str,
    abort_reason: Optional[str],
    arrival_time: float,
    finish_time: float,
) -> bool:
    """The one SLO-miss predicate, shared by :class:`RequestResult` and
    :class:`repro.eval.serving_metrics.RequestTiming`.

    A completion SLO was set and not met: the request was aborted by the
    *scheduler* (deadline or queue-timeout — the user never got the full
    answer in time), or it finished later than ``arrival + deadline_ms``.
    A voluntary client cancellation is not a scheduling failure and does
    not count as a miss.
    """
    if deadline_ms is None:
        return False
    if status == "aborted":
        return abort_reason != "cancelled"
    return (finish_time - arrival_time) > deadline_ms


@dataclass
class RequestResult:
    """Everything the engine produced for one completed request.

    The timing fields are populated by :class:`ContinuousScheduler`: all
    are in decode-round units on the same clock as
    ``EngineRequest.arrival_time``.
    ``first_token_time`` is when the first decode token (or, for
    prefill-only requests, the prefill output) became available.

    ``status`` is ``"ok"`` for a served request and ``"aborted"`` for one
    the scheduler gave up on (``abort_reason`` one of ``"deadline"``,
    ``"queue-timeout"``, ``"cancelled"``); an aborted request keeps
    whatever outputs it produced before the abort, and its pool blocks
    were released the moment it was aborted.  ``admit_time`` is ``None``
    for a request that was never admitted (aborted while queued).
    """

    request_id: str
    prefill_output: Optional[np.ndarray]  # (H, P, Dv) or None
    decode_outputs: np.ndarray  # (H, T, Dv), T may be 0
    retained_history: List[np.ndarray] = field(default_factory=list)  # per step (H, S_t)
    # Parallel sampling: one (H, T, Dv) output stack and one retained
    # history per *extra* lineage (lineage 0 is decode_outputs above).
    sample_outputs: List[np.ndarray] = field(default_factory=list)
    sample_retained: List[List[np.ndarray]] = field(default_factory=list)
    final_length: int = 0
    arrival_time: float = 0.0
    admit_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: float = 0.0
    prompt_tokens: int = 0
    preemptions: int = 0
    tenant: str = "default"
    priority: int = 0
    deadline_ms: Optional[float] = None
    status: str = "ok"
    abort_reason: Optional[str] = None

    @property
    def steps(self) -> int:
        return len(self.retained_history)

    @property
    def aborted(self) -> bool:
        return self.status == "aborted"

    @property
    def deadline_missed(self) -> bool:
        """True when a completion SLO was set and not met (see
        :func:`deadline_was_missed`)."""
        return deadline_was_missed(
            self.deadline_ms, self.status, self.abort_reason,
            self.arrival_time, self.finish_time,
        )

    def retained_bytes(self) -> bytes:
        """Canonical byte encoding of every step's retained-token set.

        Used to assert backend invariance: two runs retain byte-identical
        token sets iff these encodings compare equal.  Sample-lineage
        histories are folded in after the primary stream, so parallel
        sampling determinism is pinned by the same comparison.
        """
        histories = [self.retained_history] + list(self.sample_retained)
        return b"".join(
            np.packbits(r.astype(np.uint8)).tobytes()
            for hist in histories
            for r in hist
        )


def _stack_decode_outputs(req: EngineRequest, outputs: List[np.ndarray]) -> np.ndarray:
    """Stack per-step decode outputs into ``(H, T, Dv)`` (``T`` may be 0).

    Used for the primary stream and every sample lineage alike, so the
    empty-decode shape convention cannot drift between them.
    """
    if outputs:
        return np.stack(outputs, axis=1)
    num_heads = np.asarray(req.k).shape[0]
    v_dim = np.asarray(req.v).shape[2]
    return np.zeros((num_heads, 0, v_dim))


@dataclass(eq=False)
class _Lineage:
    """One decode stream of a request and the cache it writes into.

    Lineage 0 is the request's primary stream (``decode_q/k/v``) on the
    cache its prompt is prefilled into; a parallel-sampling request adds
    one copy-on-write fork per extra sample stream once the prompt is
    resident.
    """

    cache: object
    decode_q: Optional[np.ndarray]
    decode_k: Optional[np.ndarray]
    decode_v: Optional[np.ndarray]
    outputs: List[np.ndarray] = field(default_factory=list)
    retained_history: List[np.ndarray] = field(default_factory=list)
    next_step: int = 0


class _RequestState:
    """One admission of a request: its lineages plus per-attempt billing.

    A preempted request is re-admitted as a fresh state, so nothing here
    outlives one attempt.  Identity is equality, so ``in``/``index``/
    ``remove`` on the active list are ``is`` tests.
    """

    def __init__(self, request: EngineRequest, cache, admit_index: int = 0) -> None:
        self.request = request
        self.admit_index = admit_index
        self.lineages = [
            _Lineage(cache, request.decode_q, request.decode_k, request.decode_v)
        ]
        self.prefill_output: Optional[np.ndarray] = None
        self.service_charged = 0.0  # tenant-service tokens billed this attempt

    @property
    def cache(self):
        """The primary lineage's cache, the one the prompt is written to."""
        return self.lineages[0].cache

    @property
    def prefilling(self) -> bool:
        """True while a prefill still owes prompt tokens."""
        return getattr(self.cache, "prefill_remaining", 0) > 0

    @property
    def done(self) -> bool:
        if self.prefilling:
            return False
        steps = self.request.decode_steps
        for lin in self.lineages:
            if lin.next_step < steps:
                return False
        return True


class SchedulingPolicy:
    """Pluggable admission ordering + preemption victim selection.

    The continuous scheduler consults its policy at two decision points:

    * :meth:`admission_key` — queued-but-arrived requests are admitted in
      ascending key order, recomputed at every round boundary (keys may
      depend on the clock, e.g. aging, or on scheduler state, e.g.
      per-tenant service).  Ties must always break on the submission
      ``order`` so replays are deterministic.
    * :meth:`select_victim` — under pool pressure, which active request
      loses its blocks.  The base rule is the PR-2 invariant (youngest
      admission first: it has made the least progress, so restarting it
      wastes the least work); SLO-aware policies use
      :meth:`priority_victim` instead — evict the lowest priority class
      first, inside a class prefer a request whose deadline survives a
      restart over one the eviction would doom, then youngest.  A
      deadline-endangered request is therefore never chosen while a
      lower class (or a safe peer) is available.
    """

    name: str = "base"

    def admission_key(self, scheduler: "ContinuousScheduler", entry):
        order, req = entry
        return (req.arrival_time, order)

    def select_victim(self, scheduler: "ContinuousScheduler", candidates):
        return max(candidates, key=lambda s: s.admit_index)

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def deadline_endangered(scheduler: "ContinuousScheduler", state) -> bool:
        """Would restarting ``state`` now plausibly miss its deadline?

        A preempted request restarts from scratch, so it needs at least
        its full decode run plus a re-prefill before its absolute
        deadline.  The re-prefill cost follows the scheduler's timing
        model: one round under legacy instant prefill, ``ceil(prompt /
        per-round tokens)`` rounds under the round-token budget (the
        chunk size when chunking, the whole round budget otherwise).
        Still an optimistic bound — queueing delay after the restart is
        unknowable here — so "endangered" errs toward sparing the
        request.  No deadline = never endangered.
        """
        deadline = state.request.deadline_at
        if deadline is None:
            return False
        if scheduler.round_token_budget:
            per_round = scheduler.chunk_tokens or scheduler.round_token_budget
            reprefill = -(-state.request.prompt_tokens // per_round)
        else:
            reprefill = 1
        # Restart-from-scratch: every decode step is redone, regardless of
        # how far this attempt got.
        remaining = state.request.decode_steps + reprefill
        return (deadline - scheduler.time) <= remaining

    def priority_victim(self, scheduler: "ContinuousScheduler", candidates):
        def key(state):
            endangered = self.deadline_endangered(scheduler, state)
            return (state.request.priority, 1 if endangered else 0, -state.admit_index)

        return min(candidates, key=key)


class FcfsPolicy(SchedulingPolicy):
    """Arrival order, submission order on ties (the PR-2 baseline)."""

    name = "fcfs"


class ShortestPromptPolicy(SchedulingPolicy):
    """Shortest prompt first (cheap admission), arrival on ties."""

    name = "shortest-prompt"

    def admission_key(self, scheduler, entry):
        order, req = entry
        return (req.prompt_tokens, req.arrival_time, order)


class PriorityPolicy(SchedulingPolicy):
    """Strict priority classes with linear aging against starvation.

    A request's effective priority is ``priority + waited / aging_rounds``
    — every ``aging_rounds`` rounds spent queued promote it by one class,
    so a steady stream of high-class traffic cannot starve a low-class
    request forever.  ``aging_rounds=0`` disables aging (pure strict
    classes).  Preemption is priority-aware (:meth:`priority_victim`).
    """

    name = "priority"

    def __init__(self, aging_rounds: float = 32.0) -> None:
        if aging_rounds < 0:
            raise ValueError("aging_rounds must be >= 0")
        self.aging_rounds = float(aging_rounds)

    def admission_key(self, scheduler, entry):
        order, req = entry
        waited = max(0.0, scheduler.time - req.arrival_time)
        aged = req.priority + (waited / self.aging_rounds if self.aging_rounds else 0.0)
        return (-aged, req.arrival_time, order)

    def select_victim(self, scheduler, candidates):
        return self.priority_victim(scheduler, candidates)


class EdfPolicy(SchedulingPolicy):
    """Earliest absolute deadline first; deadline-free requests queue
    FCFS behind every deadlined one.  Preemption is priority-aware."""

    name = "edf"

    def admission_key(self, scheduler, entry):
        order, req = entry
        deadline = req.deadline_at
        return (np.inf if deadline is None else deadline, req.arrival_time, order)

    def select_victim(self, scheduler, candidates):
        return self.priority_victim(scheduler, candidates)


class FairPolicy(SchedulingPolicy):
    """Per-tenant weighted fair queueing over delivered tokens.

    The scheduler accounts every token it serves (prompt tokens written
    at prefill, one per decode step) to the request's tenant; admission
    always picks the arrived request of the tenant with the least
    *normalized* service ``served_tokens / weight`` (weights from
    ``ContinuousScheduler(tenant_weights=...)``, default 1.0 — a tenant
    with weight 2 is entitled to twice the tokens).  An adversarial
    tenant flooding the queue therefore cannot starve the others: its
    own service balloons and every other tenant wins admission first.
    Preemption is priority-aware.
    """

    name = "fair"

    def admission_key(self, scheduler, entry):
        order, req = entry
        return (scheduler.normalized_service(req.tenant), req.arrival_time, order)

    def select_victim(self, scheduler, candidates):
        return self.priority_victim(scheduler, candidates)


#: name -> policy class; instantiate (or pass an instance) to customize.
SCHEDULER_POLICY_REGISTRY = {
    "fcfs": FcfsPolicy,
    "shortest-prompt": ShortestPromptPolicy,
    "priority": PriorityPolicy,
    "edf": EdfPolicy,
    "fair": FairPolicy,
}

#: Admission orderings the continuous scheduler understands.
SCHEDULING_POLICIES = tuple(SCHEDULER_POLICY_REGISTRY)


def resolve_scheduling_policy(policy) -> SchedulingPolicy:
    """Turn a registry name or :class:`SchedulingPolicy` into an instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if policy in SCHEDULER_POLICY_REGISTRY:
        return SCHEDULER_POLICY_REGISTRY[policy]()
    raise ValueError(f"unknown policy {policy!r}; choose from {SCHEDULING_POLICIES}")


@dataclass
class _Timing:
    """Per-request clock marks that survive preemption/restart.

    ``admit_time`` and ``first_token_time`` keep their *first* values
    across a preemption: decode replay is deterministic (same request
    tensors, same retained sets), so tokens streamed before eviction stay
    valid and TTFT measures when the first of them actually left the
    engine.  The eviction stall is not hidden — it lands in TPOT and
    ``finish_time``, which only the final (successful) pass sets.
    """

    arrival_time: float
    admit_time: Optional[float] = None
    first_token_time: Optional[float] = None
    preemptions: int = 0
    # When the current wait for admission started: arrival at first, the
    # preemption instant after a restart — the clock max_queue_ms runs on.
    enqueued_at: float = 0.0

    def __post_init__(self) -> None:
        self.enqueued_at = self.arrival_time


class ContinuousScheduler:
    """Iteration-level batching over a shared paged bit-plane pool.

    Every loop iteration is one decode round (one clock unit):

    1. **admission** — queued requests whose ``arrival_time`` has passed
       are considered in policy order (see :class:`SchedulingPolicy`:
       ``fcfs`` arrival order, ``shortest-prompt`` prompt length,
       ``priority`` strict classes with aging, ``edf`` earliest deadline,
       ``fair`` least-served tenant).  Before admission, requests whose
       SLO already expired (completion deadline passed, or
       ``max_queue_ms`` exceeded while queued) and cancelled requests
       are *aborted* — reported immediately, blocks freed, never
       admitted.  A request is admitted
       while a slot is free (< ``max_active``) and the pool can hold its
       prompt *plus* one headroom block per unfinished active request (so
       admitting it cannot immediately preempt the running batch).
       Admission prefills into a :class:`PagedBitPlaneKVCache` drawn from
       the shared pool.
    2. **decode round** — every active request advances one step.  If an
       append needs a block and the pool is exhausted, the policy picks a
       preemption victim (base policies: the *youngest* admission;
       SLO-aware policies: lowest priority class first, never a
       deadline-endangered request while a safer choice exists): its
       blocks are released and it rejoins the queue to re-prefill from
       scratch later.  Restart-from-scratch keeps retained sets
       bit-identical to an uncontended run — the cache contents depend
       only on the request's own tensors, never on who shared the pool.
       Active requests whose deadline passes mid-flight are aborted at
       the next round boundary, freeing their blocks (and any partially
       attached prefix references) immediately.
    3. **completion** — finished requests release their blocks and report
       timing (arrival/admit/first-token/finish) alongside their outputs.

    The pool is created lazily from the first admitted request's shapes;
    all requests in one run must share ``(H, D, Dv)`` (one model).  With
    every arrival at 0, the ``fcfs`` policy and an uncontended pool, the
    run is lockstep batching: FIFO admission while slots are free, every
    active request advancing one step per round, and outputs identical
    to driving each request alone through its own cache
    (:meth:`PadeEngine.new_cache`).

    These parameters are the whole scheduler configuration: every
    serving layer forwards them as keyword arguments, and over a process
    boundary as one JSON object (a :class:`~repro.engine.cache.TierConfig`
    travels as its field dict, which ``tiering`` accepts back).

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.PadeEngine` to serve on.
    max_active:
        Decode-round batch width.
    token_budget:
        Global KV budget in tokens, rounded down to whole blocks: the
        pool's one capacity (its plane-unit ceiling, DESIGN.md §16).  A
        dense policy's pool holds it directly; a charged policy's
        admission bills its bounded footprint against it instead, so its
        pool has no ceiling and its backing store grows to what is live.
    block_size:
        Tokens per pool block.
    policy:
        Admission ordering + victim selection: a name from
        :data:`SCHEDULING_POLICIES` or a :class:`SchedulingPolicy`
        instance (e.g. ``PriorityPolicy(aging_rounds=16)``).
    tenant_weights:
        Per-tenant fair-share weights for the ``fair`` policy (default
        1.0 each); ignored by the other policies.
    admission:
        ``"continuous"`` admits at every round boundary; ``"drain"`` only
        when the active set is empty — the static-batching baseline the
        serving benchmark compares against.
    prefix_sharing:
        Content-hash prompt-prefix sharing across requests: full prompt
        blocks with a registered chain key are attached by reference
        (copy-on-write) instead of re-allocated and re-decomposed.
        Retained sets are unchanged — a hit block is byte-identical to
        what the request would have written itself.
    round_token_budget:
        Tokens one decode round can process (0 = instant timing: a
        prompt is written whole, as one chunk, in its admission round).
        When set, a prompt's *missed* tokens cost rounds:
        without chunking the oldest prefill owns whole rounds exclusively
        (decode stalls — the motivation for chunked prefill); with
        ``chunk_tokens`` set, decode runs first every round and the
        leftover budget is split over prefilling requests in admission
        order, at most ``chunk_tokens`` each.
    chunk_tokens:
        Per-request, per-round prefill chunk size (requires
        ``round_token_budget``); 0 keeps prefills unchunked.
    tiering:
        Two-tier plane memory (DESIGN.md §16): ``True`` / a
        :class:`~repro.engine.cache.TierConfig` (or a dict of its
        fields) arms the spill ladder —
        under pool pressure, low-order bit planes of cold unprotected
        blocks are spilled to the secondary tier (spill → deeper spill)
        and preemption fires only when even fully-spilled state cannot
        make room.  Spilled planes are prefetched back each round within
        ``restore_blocks_per_round``; restore traffic is charged against
        the round token budget when one is set.  Requires the plane-
        consuming ``pade`` attention policy — the software baselines
        score on float keys and would not observe the degradation, so
        tiering them would cheat the budget.  ``None``/``False`` (the
        default) is byte-identical to the pre-tiering scheduler.
    draft_policy:
        The cheap draft for speculative requests (DESIGN.md §17): a name
        or instance of a policy declaring ``draftable`` (``streaming-llm``,
        ``topk-oracle``).  Resolved lazily — only when a speculative
        request is actually submitted, which also requires the engine to
        serve the ``pade`` verifier policy.
    """

    def __init__(
        self,
        engine,
        max_active: int = 8,
        token_budget: int = 4096,
        block_size: int = 16,
        policy="fcfs",
        admission: str = "continuous",
        prefix_sharing: bool = False,
        chunk_tokens: int = 0,
        round_token_budget: int = 0,
        tenant_weights: Optional[Dict[str, float]] = None,
        tiering=None,
        draft_policy="streaming-llm",
    ) -> None:
        self.policy_obj = resolve_scheduling_policy(policy)
        if admission not in ("continuous", "drain"):
            raise ValueError(f"admission must be 'continuous' or 'drain', got {admission!r}")
        if max_active < 1 or block_size < 1:
            raise ValueError("max_active and block_size must be >= 1")
        if chunk_tokens < 0 or round_token_budget < 0:
            raise ValueError("chunk_tokens and round_token_budget must be >= 0")
        if chunk_tokens and not round_token_budget:
            raise ValueError("chunk_tokens requires round_token_budget (the per-round split)")
        if tiering:
            if isinstance(tiering, dict):
                tiering = TierConfig(**tiering)
            self.tiering = tiering if isinstance(tiering, TierConfig) else TierConfig()
            attn_name = getattr(getattr(engine, "policy", None), "name", None)
            if attn_name != "pade":
                raise ValueError(
                    f"tiering requires the plane-consuming 'pade' attention policy "
                    f"(got {attn_name!r}): baseline policies score on float keys, "
                    f"so spilled planes would free budget without degrading them"
                )
        else:
            self.tiering = None
        self.engine = engine
        self.max_active = max_active
        self.token_budget = token_budget // block_size * block_size
        self.block_size = block_size
        self.policy = self.policy_obj.name
        self.admission = admission
        self.prefix_sharing = bool(prefix_sharing)
        self.chunk_tokens = int(chunk_tokens)
        self.round_token_budget = int(round_token_budget)
        self.tenant_weights: Dict[str, float] = dict(tenant_weights or {})
        self.pool: Optional[PlaneBlockPool] = None
        # Bounded-footprint attention policies (H2O's eviction budget,
        # StreamingLLM's sink+window) switch admission to charged-footprint
        # accounting: each request is charged its policy's peak resident
        # tokens against the token budget instead of its dense context.
        attn_policy = getattr(engine, "policy", None)
        self._charged = attn_policy is not None and not attn_policy.dense_footprint
        # Charged mode keeps every key physically resident (retained sets
        # must stay exactly reproducible) while *admission* is billed the
        # policy's bounded footprint against the token budget — the
        # capacity a bounded-cache deployment would actually provision.
        self.time = 0.0
        self.pending: List[Tuple[int, EngineRequest]] = []  # (submit order, request)
        self.active: List[_RequestState] = []
        self.events: List[Tuple[float, str, Tuple[str, ...]]] = []  # (time, event, ids)
        self.occupancy: List[Tuple[float, int, int]] = []  # (time, used tokens, active)
        self.prefix_hit_blocks = 0  # prompt blocks attached from the prefix index
        self.prefix_miss_blocks = 0  # shareable prompt blocks written fresh
        self.chunk_stall_rounds = 0  # rounds where a prefill got zero budget
        self.decode_blocked_rounds = 0  # rounds an exclusive prefill stalled decode
        self.spill_reliefs = 0  # _make_room calls that spilling alone satisfied
        self.tier_prefetch_restores = 0  # blocks restored by the per-round prefetch pass
        self.degraded_tokens = 0  # decode tokens produced while any block was degraded
        self.decoded_tokens = 0  # all decode tokens this scheduler produced
        # Speculative decoding counters (DESIGN.md §17): rounds, tokens the
        # draft proposed, tokens the verifier accepted, tokens emitted
        # (accepted run + the verifier's bonus token at a reject).
        self.draft_policy_name = (
            draft_policy if isinstance(draft_policy, str) else draft_policy.name
        )
        self._draft_policy_arg = draft_policy
        self._draft_policy = None  # resolved on the first speculative request
        self.spec_rounds = 0
        self.spec_drafted_tokens = 0
        self.spec_accepted_tokens = 0
        self.spec_emitted_tokens = 0
        self.spec_rollbacks = 0  # rounds that truncated a rejected draft tail
        # Parallel-sampling pool amplification: unique blocks the whole
        # lineage set held at completion vs what n independent caches of
        # the primary lineage's size would have held.
        self.parallel_requests = 0
        self.parallel_unique_blocks = 0
        self.parallel_single_blocks = 0
        self.parallel_replicated_blocks = 0
        self.planes_hist: Dict[int, int] = {}  # residency level -> block-round samples
        self.tier_hist_rounds = 0  # rounds the histogram was sampled over
        self.tenant_service: Dict[str, float] = {}  # tenant -> tokens served
        self._cancelled: set = set()  # request ids to abort at the next boundary
        self._timings: Dict[str, _Timing] = {}
        self._submit_seq = 0
        self._admit_seq = 0
        self._results: Dict[str, RequestResult] = {}
        # Per-token streaming hook for the async front-end: called as
        # ``token_sink(request_id, step_index, output)`` the moment a
        # decode step's output is flushed.  Replay after a preemption
        # recomputes byte-identical tokens; the high-water marks in
        # ``_streamed`` keep them from being streamed twice.
        self.token_sink = None
        self._streamed: Dict[str, int] = {}

    @property
    def trace(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """The untimed view of :attr:`events`: ``(event, ids)`` per entry."""
        return [(event, ids) for _, event, ids in self.events]

    @property
    def _budgeted(self) -> bool:
        """True when the round-token prefill cost model is active."""
        return self.round_token_budget > 0

    # ------------------------------------------------------------------
    def submit(self, request: EngineRequest) -> None:
        in_flight = [r.request_id for _, r in self.pending]
        in_flight += [s.request.request_id for s in self.active]
        if request.request_id in in_flight:
            raise ValueError(f"request id {request.request_id!r} already queued")
        self.check_request(request)
        if not self.fits_budget(request):
            raise ValueError(
                f"request {request.request_id!r} needs {self._charge_blocks(request)} "
                f"blocks; the budget holds only {self.token_budget // self.block_size} "
                f"blocks of {self.block_size} — it could never be served"
            )
        self.pending.append((self._submit_seq, request))
        self._submit_seq += 1
        # Fresh marks: a preemption re-queues without coming through here,
        # so only a finished id reused by a later run is overwritten.
        self._timings[request.request_id] = _Timing(arrival_time=request.arrival_time)

    def check_request(self, request: EngineRequest) -> None:
        """Raise ``ValueError`` if this engine can never serve ``request``.

        :meth:`submit`'s checks minus the duplicate-id test; the async
        front-end runs them before it accepts a submission.
        """
        attn_name = getattr(getattr(self.engine, "policy", None), "name", None)
        if request.speculative:
            # The verifier is the engine's own policy: accept/reject is
            # only meaningful when it is the plane-consuming PADE filter
            # (the draft is a *different*, cheaper selection over the
            # same pool; a baseline verifying a baseline proves nothing).
            if attn_name != "pade":
                raise ValueError(
                    f"speculative decoding requires the 'pade' verifier policy "
                    f"(engine serves {attn_name!r})"
                )
            self._resolve_draft()
        if request.n_samples > 1:
            # Lineage caches are COW forks, and a fork carries blocks
            # only — not the donor's policy_state.  Stateless PADE
            # decodes each lineage correctly; a stateful baseline (H2O
            # accumulators) would silently restart its statistics per
            # fork, so parallel sampling is PADE-only.
            if attn_name != "pade":
                raise ValueError(
                    f"parallel sampling requires the 'pade' attention policy "
                    f"(engine serves {attn_name!r})"
                )

    def _resolve_draft(self):
        """Instantiate the draft policy on first speculative use."""
        if self._draft_policy is None:
            from repro.attention.policy import resolve_draft_policy

            self._draft_policy = resolve_draft_policy(self._draft_policy_arg)
            self.draft_policy_name = self._draft_policy.name
        return self._draft_policy

    def fits_budget(self, request: EngineRequest) -> bool:
        """Whether ``request`` could ever be served under the token budget.

        The same predicate :meth:`submit` enforces; the async front-end
        uses it to reject an oversized submission with an error reply
        instead of a crashed engine loop.
        """
        return self._charge_blocks(request) <= self.token_budget // self.block_size

    def load_stats(self) -> Dict[str, float]:
        """Lightweight load snapshot for routers and monitors.

        The cluster front-end polls this through the ``stats`` protocol
        message to drive least-loaded routing and drain detection; every
        field is a plain number so the snapshot serializes as-is.
        """
        used = self.pool.used_block_count if self.pool is not None else 0
        return {
            "time": float(self.time),
            "pending": len(self.pending),
            "active": len(self.active),
            "in_flight": len(self.pending) + len(self.active),
            "used_blocks": int(used),
            "total_blocks": self.token_budget // self.block_size,
            "completed": len(self._results),
            "prefix_hit_blocks": int(self.prefix_hit_blocks),
            "prefix_miss_blocks": int(self.prefix_miss_blocks),
        }

    def cancel(self, request_id: str) -> None:
        """Mark a request for abort at the next round boundary.

        Safe at any point of the request's life: queued requests are
        dropped before admission, active ones release their blocks (and
        any partially attached prefix references) without finishing.
        Unknown ids are remembered too, so a cancel racing a submit wins.
        A cancel landing after the request already finished its work is
        too late — the result stands.  Pending cancellations are
        consumed by the run they take effect in (and cleared when a run
        ends), so an id reused by a later batch starts clean.
        """
        self._cancelled.add(request_id)

    # ------------------------------------------------------------------
    def normalized_service(self, tenant: str) -> float:
        """Tokens served to ``tenant`` divided by its fair-share weight."""
        weight = self.tenant_weights.get(tenant, 1.0)
        if weight <= 0:
            raise ValueError(f"tenant weight for {tenant!r} must be > 0")
        return self.tenant_service.get(tenant, 0.0) / weight

    def _charge_service(self, state: _RequestState, tokens: float) -> None:
        """Bill ``tokens`` of service to the request's tenant.

        The per-attempt total is remembered on the state so a preemption
        can roll it back (:meth:`_preempt_one`) — fair queueing accounts
        *delivered* tokens, and a preempted attempt delivers nothing.
        """
        if tokens:
            tenant = state.request.tenant
            self.tenant_service[tenant] = (
                self.tenant_service.get(tenant, 0.0) + float(tokens)
            )
            state.service_charged += float(tokens)

    # ------------------------------------------------------------------
    def _record(self, event: str, ids: Tuple[str, ...]) -> None:
        self.events.append((self.time, event, ids))

    def _ensure_pool(self, request: EngineRequest) -> PlaneBlockPool:
        num_heads, _, head_dim = np.asarray(request.k).shape
        v_dim = np.asarray(request.v).shape[2]
        if self.pool is None:
            # The token budget is the pool's plane ceiling, except under
            # charged admission, which bills it itself: that pool has none.
            self.pool = PlaneBlockPool(
                num_heads,
                head_dim,
                v_dim,
                bits=self.engine.config.bits,
                block_size=self.block_size,
                token_budget=None if self._charged else self.token_budget,
                tiering=self.tiering,
            )
        elif (self.pool.num_heads, self.pool.head_dim, self.pool.v_dim) != (
            num_heads,
            head_dim,
            v_dim,
        ):
            raise ValueError(
                f"request {request.request_id!r} shape ({num_heads}, {head_dim}, {v_dim}) "
                f"does not match the pool's ({self.pool.num_heads}, "
                f"{self.pool.head_dim}, {self.pool.v_dim})"
            )
        return self.pool

    def _dense_blocks(self, req: EngineRequest) -> int:
        """Exact worst-case pool blocks ``req`` holds, all lineages included.

        The full prompt blocks are shared by every lineage and counted
        once.  Each lineage privatizes the forked partial prompt tail and
        grows it by its own decode steps, in whole blocks of its own —
        tails of different lineages never share a block.  A speculative
        request's draft never appends past its last decode step, and a
        reject truncates in place, so it needs no more than plain decode.
        """
        bs = self.block_size
        shared = req.prompt_tokens // bs
        tail = req.prompt_tokens - shared * bs
        per_lineage = -(-(tail + req.decode_steps) // bs)
        return max(1, shared + req.n_samples * per_lineage)

    def _charge_blocks(self, req: EngineRequest) -> int:
        """Blocks ``req`` is charged against the token budget.

        A dense policy keeps every key resident, so the charge is
        :meth:`_dense_blocks`.  A bounded (charged) policy is billed its
        peak resident tokens in whole blocks, capped by the dense count;
        n-best and speculative requests are PADE-only
        (:meth:`check_request`), so no lineage term applies.
        """
        dense = self._dense_blocks(req)
        if not self._charged:
            return dense
        footprint = self.engine.policy.cache_footprint(req.prompt_tokens, req.decode_steps)
        return min(dense, max(1, -(-footprint // self.block_size)))

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        if self.admission == "drain" and self.active:
            return
        while len(self.active) < self.max_active:
            arrived = [e for e in self.pending if e[1].arrival_time <= self.time]
            if not arrived:
                return
            entry = min(arrived, key=lambda e: self.policy_obj.admission_key(self, e))
            request = entry[1]
            pool = self._ensure_pool(request)
            if self._charged:
                # Charged-footprint admission: the request reserves its
                # policy's peak resident tokens for its whole lifetime, so
                # no headroom is needed — a bounded policy never grows past
                # its charge, which is exactly why it packs more concurrent
                # requests into the same budget than a dense one.
                budget_blocks = self.token_budget // self.block_size
                used = sum(
                    self._charge_blocks(s.request) for s in self.active if not s.done
                )
                if budget_blocks - used < self._charge_blocks(request):
                    return
            else:
                prompt_blocks = max(1, -(-request.prompt_tokens // pool.block_size))
                # One headroom block per unfinished active request keeps this
                # admission from forcing a preemption in the very next round
                # (prefix hits only lower the real demand).  Counted in plane
                # units, a tiered pool's deficit is spilled away when the
                # ladder can cover it: admitting at degraded precision
                # instead of queueing is the whole TTFT win.
                headroom = sum(1 for s in self.active if not s.done)
                if not self._make_room((prompt_blocks + headroom) * pool.bits):
                    return
            self.pending.remove(entry)
            cache = PagedBitPlaneKVCache(pool, prefix_sharing=self.prefix_sharing)
            state = _RequestState(request=request, cache=cache, admit_index=self._admit_seq)
            self._admit_seq += 1
            timing = self._timings[request.request_id]
            if timing.admit_time is None:
                timing.admit_time = self.time
            # Shared prefix blocks attach for free; under the round-token
            # model the missed tokens are paid for round by round, under
            # instant timing (or after a full hit) as one chunk right now.
            self.engine.prefill_begin(cache, request.k, request.v)
            self.active.append(state)
            if self._budgeted:
                self._record("admit", (request.request_id,))
                if state.prefilling:
                    continue
            self._extend_with_preemption(state, None)

    def _finish_prefill(self, state: _RequestState) -> None:
        """Seal a fully written prompt — the one place a prefill ends.

        Attends the prompt queries, accounts prefix hits, stamps the
        prefill-only first token, logs ``"prefill"`` and arms lineages
        and the draft.  (Service was billed chunk by chunk as written.)
        """
        request = state.request
        res = self.engine.prefill_finish(
            state.cache, q=request.q_prompt, total_tokens=request.total_tokens
        )
        if res is not None:
            state.prefill_output = res.output
        # Counted at completion so late-binding hits (blocks attached
        # chunk by chunk as a concurrent donor registers them) are seen.
        self.prefix_hit_blocks += state.cache.prefix_hit_blocks
        self.prefix_miss_blocks += state.cache.prefix_miss_blocks
        timing = self._timings[request.request_id]
        if request.decode_steps == 0 and timing.first_token_time is None:
            # Prefill-only: the prompt output is the first (and last) token.
            timing.first_token_time = self.time + 1.0
        self._record("prefill", (request.request_id,))
        self._setup_lineages(state)

    def _setup_lineages(self, state: _RequestState) -> None:
        """Arm the request's serving mode once its prompt is resident.

        Parallel sampling: fork one copy-on-write cache per extra sample
        stream — zero allocation (every block is shared by reference),
        so this can never raise; divergence is paid block by block when
        a lineage first appends into the shared tail.  Speculative
        decoding: create the draft policy's per-request state and hang
        it on the cache (the PADE verifier keeps no per-request state,
        so the slot is free).
        """
        req = state.request
        if req.n_samples > 1:
            for s in range(req.n_samples - 1):
                clone = state.cache.fork()
                clone.policy_state = self.engine.policy.new_state(
                    clone, total_tokens=req.total_tokens
                )
                state.lineages.append(
                    _Lineage(
                        cache=clone,
                        decode_q=req.sample_decode_q[s],
                        decode_k=req.sample_decode_k[s],
                        decode_v=req.sample_decode_v[s],
                    )
                )
            self._record("fork", (req.request_id,))
        if req.speculative:
            state.cache.policy_state = self._resolve_draft().new_state(
                state.cache, total_tokens=req.total_tokens
            )

    def _release_request(self, state: _RequestState) -> None:
        """Free every cache this request holds, one per lineage."""
        for cache in self._live_caches(state):
            cache.release()

    @staticmethod
    def _live_caches(state: _RequestState):
        """Every cache ``state`` currently holds blocks through."""
        return (lin.cache for lin in state.lineages)

    def _preempt_one(self) -> None:
        # Never evict a finished-but-uncollected request: its blocks are
        # freed by _collect at the end of this round anyway, and a
        # preemption would discard fully computed outputs just to redo
        # them.  The raiser itself is never done, so candidates exist.
        candidates = [s for s in self.active if not s.done]
        victim = self.policy_obj.select_victim(self, candidates)
        self.active.remove(victim)
        self._release_request(victim)
        # Un-bill the discarded attempt: fair queueing accounts delivered
        # tokens, and everything this attempt produced is thrown away
        # (the replay will be billed when it actually delivers).
        if victim.service_charged:
            tenant = victim.request.tenant
            self.tenant_service[tenant] = max(
                0.0, self.tenant_service.get(tenant, 0.0) - victim.service_charged
            )
        timing = self._timings[victim.request.request_id]
        timing.preemptions += 1
        timing.enqueued_at = self.time  # max_queue_ms clock restarts here
        self.pending.append((self._submit_seq, victim.request))
        self._submit_seq += 1
        self._record("preempt", (victim.request.request_id,))

    # ------------------------------------------------------------------
    # Making room: the two-tier pressure ladder, then preemption (DESIGN.md §16).
    def _make_room(self, units: int, raiser: Optional[_RequestState] = None) -> bool:
        """Free ``units`` plane units: plan first, spill second, preempt last.

        The spill candidates (cold, unprotected, minus the write tail of
        every live cache of every active request, which its next append
        would restore at once) are taken once and spilled level by level
        only if spilling them all to the floor covers the deficit.
        Otherwise nothing is spilled: an admission (no ``raiser``)
        declines, and an allocation preempts one policy-chosen victim and
        plans again on its retry.  ``False``: the admission declines, or
        the victim was ``raiser`` itself (everything it held released,
        back in the queue).
        """
        pool = self.pool
        deficit = units - pool.plane_units_free
        if deficit <= 0:
            return True
        ladder = pool.spill_ladder  # empty on a flat pool
        if ladder:
            tails = {
                block
                for state in self.active
                for cache in self._live_caches(state)
                for block in cache.block_table[-1:]
            }
            candidates = [b for b in pool.spill_candidates() if b not in tails]
            if sum(pool.resident_planes(b) - ladder[-1] for b in candidates) >= deficit:
                for level, block in product(ladder, candidates):  # level by level
                    if pool.resident_planes(block) > level:
                        deficit -= pool.spill_block(block, level)
                        if deficit <= 0:
                            break
                self.spill_reliefs += 1
                if raiser is not None:
                    self._record("spill", (raiser.request.request_id,))
                return True
        if raiser is None:
            return False
        if len(self.active) == 1:
            # Defensive: submit checks that a lone request's charge fits
            # the budget, so only something squatting on the pool gets here.
            raise RuntimeError(
                f"token budget {self.token_budget} cannot hold request "
                f"{raiser.request.request_id!r} alone; raise --budget or "
                f"shrink the request"
            )
        self._preempt_one()
        return raiser in self.active

    def _with_room(self, state: _RequestState, write, before_relief=None) -> bool:
        """Run ``write``, an allocating write into one of ``state``'s
        caches, making the room each exhaustion says it needed
        (:attr:`PoolExhausted.units`) and retrying.  ``before_relief``
        runs first at every exhaustion (the decode round flushes its
        fused batch there).  ``False``: ``state`` itself was evicted.
        """
        while True:
            try:
                write()
                return True
            except PoolExhausted as exc:
                if before_relief is not None:
                    before_relief()
                if not self._make_room(exc.units, state):
                    return False

    def _tier_protect(self) -> None:
        """Pin every active sequence's unspillable blocks for this round.

        Protected: the write tail (spilling it would bounce straight
        back on the next append) plus the blocks covering the engine's
        sink/recent attention window — so the positions
        :func:`~repro.attention.masks.protection_mask` guarantees are
        retained are never scored from degraded planes, and the
        divergence bound only ever applies to prunable middle context.
        """
        pool = self.pool
        if pool is None or pool.tiering is None:
            return
        cfg = self.engine.config
        sink = getattr(cfg, "sink_tokens", 0)
        recent = getattr(cfg, "recent_tokens", 0)
        bs = self.block_size
        protected: set = set()
        for state in self.active:
            if state.done:
                continue
            # Every live cache of the request: forked sample lineages
            # have write tails and sink/recent windows of their own.
            for cache in self._live_caches(state):
                blocks = cache.block_table
                if not blocks:
                    continue
                protected.add(blocks[-1])
                if sink:
                    protected.update(blocks[: -(-min(sink, cache.length) // bs)])
                if recent:
                    protected.update(blocks[max(0, cache.length - recent) // bs :])
        pool.set_protected(protected)

    def _tier_round(self) -> int:
        """Per-round tier maintenance; returns the restore token charge.

        Re-pins protected blocks (fresh admissions included), then
        prefetches spilled planes back — coldest degraded block first,
        up to ``restore_blocks_per_round`` and never past the primary
        tier's capacity — so a block is restored *before* its request
        next decodes, not on the blocking path of a write.  Restore
        traffic is charged in round-token equivalents (one block's worth
        of planes = one block of tokens) against the round budget when
        one is set, and never takes all of it: a prefetch is optional
        work, and a round whose every token went to restoring would
        leave a prefill with no budget, round after round.
        """
        pool = self.pool
        if pool is None or pool.tiering is None:
            return 0
        self._tier_protect()
        budget = pool.tiering.restore_blocks_per_round
        restore_cost = 0
        restored = 0
        for block in pool.degraded_blocks():
            if restored >= budget:
                break
            missing = pool.bits - pool.resident_planes(block)
            cost = -(-missing * self.block_size // pool.bits)
            if pool.plane_units_free < missing:
                break  # pressure is still on; do not overshoot the tier
            if self._budgeted and restore_cost + cost >= self.round_token_budget:
                break  # leave the round's decode and prefills some budget
            pool.restore_block(block)
            restore_cost += cost
            restored += 1
            self.tier_prefetch_restores += 1
        for level, count in pool.resident_plane_histogram().items():
            self.planes_hist[level] = self.planes_hist.get(level, 0) + count
        self.tier_hist_rounds += 1
        return restore_cost

    def drain_evicted_prefix_keys(self) -> List[bytes]:
        """Prefix chain keys the pool dropped since the last drain.

        Forwarded by the serving front-end to the cluster router so its
        affinity index mirrors pool evictions (see
        :meth:`~repro.engine.cache.PlaneBlockPool.drain_evicted_prefix_keys`).
        """
        return [] if self.pool is None else self.pool.drain_evicted_prefix_keys()

    def _decode_round(self) -> int:
        """One decode round over the active set; returns steps advanced.

        The round runs append-all-then-filter-once: each request's new
        K/V token is appended in active-set order, the appended-but-
        unfiltered requests accumulate in ``pending``, and one
        :meth:`~repro.engine.engine.PadeEngine.decode_attend_batch`
        flushes them together.  An append only reserves its row (block
        allocation, COW fork, restore, relief — all in this order) and
        stages it in the pool; the flush's key gather writes every staged
        row in one pass before it reads any.  This is result-identical to an
        interleaved per-request append-and-filter loop because filters
        never allocate pool blocks and caches are request-private
        (DESIGN.md §13) — so every append sees the exact pool state the
        loop would give it, and :class:`PoolExhausted` fires at the same
        token either way.

        When an append does exhaust the pool, the pending work is flushed
        *before* the relief: the victim selection must see the same
        done-flags the per-request loop would (a request that just
        finished its last step is never evicted), and the already-decoded
        requests' first-token marks and service charges must land exactly
        as if they had been filtered one at a time.  (Flushing before a
        *spill* keeps the same equivalence: already-appended requests
        filter against pre-spill planes either way, and their staged
        rows are written before the spill reads them.)
        """
        round_ids: List[str] = []
        pending: List[Tuple[_RequestState, _Lineage]] = []

        def flush() -> None:
            self._flush_decode(pending, round_ids)

        i = 0
        while i < len(self.active):
            state = self.active[i]
            if state.done or state.prefilling:
                i += 1
                continue
            req = state.request
            if req.speculative:
                # A speculative round runs the verifier once over the
                # whole draft block; flush the round so far first so the
                # trace order matches the per-request loop.
                flush()
                self._spec_round(state, round_ids)
                if state in self.active:
                    i = self.active.index(state) + 1
                # else: the element now at slot i is the next one due.
                continue
            for lin in state.lineages:
                if lin.next_step >= req.decode_steps:
                    continue
                t = lin.next_step
                # If the raiser itself was evicted, every lineage died
                # with it, and the element now at slot i is the next one due.
                if not self._with_room(
                    state,
                    lambda: self.engine.decode_append(
                        lin.cache, lin.decode_k[:, t, :], lin.decode_v[:, t, :]
                    ),
                    before_relief=flush,
                ):
                    break
                pending.append((state, lin))
            else:
                i = self.active.index(state) + 1
        flush()
        if round_ids:
            self._record("decode_round", tuple(round_ids))
        return len(round_ids)

    def _flush_decode(
        self,
        pending: List[Tuple[_RequestState, _Lineage]],
        round_ids: List[str],
    ) -> None:
        """Filter the appended-but-unfiltered steps and emit their tokens.

        Each entry is a ``(state, lineage)`` pair.
        """
        if not pending:
            return
        results = self.engine.decode_attend_batch(
            [lin.cache for _, lin in pending],
            [lin.decode_q[:, lin.next_step, :] for _, lin in pending],
        )
        for (state, lin), res in zip(pending, results):
            self._emit(
                state, lin, res.output[:, 0, :], res.retained[:, 0, :],
                self._degraded(lin.cache), round_ids,
            )
        pending.clear()

    def _degraded(self, cache) -> bool:
        """True when some block of ``cache`` holds only partial planes."""
        pool = self.pool
        if not pool.degraded_block_count:
            return False
        return any(pool.resident_planes(b) < pool.bits for b in cache.block_table)

    def _emit(
        self, state: _RequestState, lin: _Lineage, output: np.ndarray,
        retained: np.ndarray, degraded: bool, round_ids: List[str],
    ) -> None:
        """Record lineage ``lin``'s next decode token and bill it to ``state``.

        ``degraded`` marks a token scored against partial-plane keys —
        the accuracy-vs-pressure quantity the serving report tracks.
        Streaming and first-token timing belong to the primary only:
        sibling samples are delivered in the final result, not on the
        token stream.
        """
        t = lin.next_step
        lin.outputs.append(output)
        lin.retained_history.append(retained)
        lin.next_step = t + 1
        self.decoded_tokens += 1
        if degraded:
            self.degraded_tokens += 1
        rid = state.request.request_id
        primary = lin is state.lineages[0]
        # A post-preemption replay recomputes byte-identical tokens; only
        # steps past the high-water mark stream.
        if primary and self.token_sink is not None and t >= self._streamed.get(rid, 0):
            self._streamed[rid] = t + 1
            self.token_sink(rid, t, output)
        self._charge_service(state, 1.0)
        if primary and t == 0:
            timing = self._timings[rid]
            if timing.first_token_time is None:
                timing.first_token_time = self.time + 1.0
        round_ids.append(rid)

    # -- speculative decoding ------------------------------------------

    def _spec_round(self, state: _RequestState, round_ids: List[str]) -> None:
        """One draft-verify cycle for a speculative request (DESIGN.md §17).

        Let the cheap draft policy append and score up to
        ``draft_tokens`` tokens, then verify the whole block with one
        PADE attend over the appended queries — query ``j`` sits at
        position ``base_len + j``, exactly where decode step ``t0 + j``
        would, so causal offsets line up automatically.  The leading run
        of draft outputs within :data:`SPEC_ACCEPT_TOL` relative L2 of the
        verifier's is accepted; the verifier's own output is emitted at
        the first reject (the bonus token), so a round always advances at
        least one step.  The draft appended the request's own K/V rows,
        so the emitted steps are already in the cache: a reject only
        truncates the rejected tail off it.
        """
        req = state.request
        draft = self._resolve_draft()
        rid = req.request_id
        lin = state.lineages[0]
        cache = lin.cache
        t0 = lin.next_step
        gamma = min(max(1, int(req.draft_tokens)), req.decode_steps - t0)
        base_len = cache.length
        draft_outs: List[np.ndarray] = []
        for j in range(gamma):
            step = t0 + j
            if not self._with_room(state, lambda: self.engine.decode_append(
                cache, req.decode_k[:, step, :], req.decode_v[:, step, :]
            )):
                return  # evicted: its cache was released
            # engine=None: the draft pass is bookkept as part of the
            # speculative round, not as standalone decode-step stats.
            dres = draft.decode_step(None, cache, req.decode_q[:, step, :])
            draft_outs.append(dres.output[:, 0, :])
        vres = self.engine.policy.prefill(
            self.engine, cache, req.decode_q[:, t0 : t0 + gamma, :]
        )
        accepted = 0
        for j in range(gamma):
            verify = vres.output[:, j, :]
            err = float(np.linalg.norm(draft_outs[j] - verify))
            if err <= SPEC_ACCEPT_TOL * (float(np.linalg.norm(verify)) + 1e-12):
                accepted += 1
            else:
                break
        emitted = gamma if accepted == gamma else accepted + 1
        self.spec_rounds += 1
        self.spec_drafted_tokens += gamma
        self.spec_accepted_tokens += accepted
        self.spec_emitted_tokens += emitted
        degraded = self._degraded(cache)
        for j in range(emitted):
            # Query j only sees keys up to its own position; clip the
            # padded retained row back to the causal prefix.
            self._emit(
                state, lin, vres.output[:, j, :],
                vres.retained[:, j, : base_len + j + 1].copy(), degraded, round_ids,
            )
        if emitted < gamma:
            # The draft's policy state stays on the cache: draftable
            # policies keep nothing from speculated queries.
            self.spec_rollbacks += 1
            cache.truncate(base_len + emitted)
        self._record("spec", (rid,))

    # ------------------------------------------------------------------
    def _extend_with_preemption(self, state: _RequestState, tokens: int) -> int:
        """Feed ``tokens`` prompt tokens to one prefilling request.

        Runs under the same retry loop as the decode appends
        (:meth:`_with_room`); if the victim turns out to be ``state``
        itself, the chunk is abandoned (the request is back in the
        queue, its blocks freed) and nothing was written.
        """
        written = 0

        def write() -> None:
            nonlocal written
            written = self.engine.prefill_extend(state.cache, tokens)

        if not self._with_room(state, write):
            return 0
        self._charge_service(state, written)
        if not state.prefilling:
            self._finish_prefill(state)
        return written

    def _prefill_round(self, decode_tokens: int) -> None:
        """Spend this round's leftover token budget on pending prefills.

        Unchunked: the oldest prefill owns the whole round (decode was
        already skipped by the caller).  Chunked: prefilling requests are
        served in admission order from the budget decode left over, at
        most ``chunk_tokens`` each — so a short prompt makes progress
        every round instead of queueing behind a long one.
        """
        prefilling = [s for s in self.active if s.prefilling]
        if not prefilling:
            return
        prefilling.sort(key=lambda s: s.admit_index)
        if not self.chunk_tokens:
            self._extend_with_preemption(prefilling[0], self.round_token_budget)
            return
        budget_left = self.round_token_budget - decode_tokens
        for state in prefilling:
            if state not in self.active:  # preempted by an earlier extend
                continue
            if budget_left <= 0:
                self.chunk_stall_rounds += 1
                break
            take = min(self.chunk_tokens, budget_left)
            budget_left -= self._extend_with_preemption(state, take)

    def _build_result(
        self,
        req: EngineRequest,
        state: Optional[_RequestState],
        abort_reason: Optional[str] = None,
    ) -> RequestResult:
        """Assemble a :class:`RequestResult` from whatever was produced.

        ``state`` is ``None`` for requests aborted while still queued —
        they report empty outputs; an aborted active request keeps the
        tokens it streamed before the abort.  Any ``abort_reason`` makes
        the status ``"aborted"``.
        """
        lineages = state.lineages if state is not None else []
        outputs = [_stack_decode_outputs(req, lin.outputs) for lin in lineages]
        histories = [lin.retained_history for lin in lineages]
        timing = self._timings[req.request_id]
        return RequestResult(
            request_id=req.request_id,
            prefill_output=state.prefill_output if state is not None else None,
            decode_outputs=outputs[0] if outputs else _stack_decode_outputs(req, []),
            sample_outputs=outputs[1:],
            sample_retained=histories[1:],
            retained_history=histories[0] if histories else [],
            final_length=state.cache.length if state is not None else 0,
            arrival_time=timing.arrival_time,
            admit_time=timing.admit_time,
            first_token_time=timing.first_token_time,
            # Clamped for pre-arrival cancellations: a request aborted
            # before it ever arrived ends, at the earliest, on arrival.
            finish_time=max(self.time, timing.arrival_time),
            prompt_tokens=req.prompt_tokens,
            preemptions=timing.preemptions,
            tenant=req.tenant,
            priority=req.priority,
            deadline_ms=req.deadline_ms,
            status="ok" if abort_reason is None else "aborted",
            abort_reason=abort_reason,
        )

    def _abort_reason(self, req: EngineRequest, queued: bool) -> Optional[str]:
        """Why ``req`` must be aborted right now (None = keep serving).

        Checked at round boundaries.  The deadline test is ``>=`` because
        anything still unfinished at the boundary can only produce output
        at ``time + 1`` or later — strictly past the deadline.
        ``max_queue_ms`` bounds time spent *waiting for admission*: its
        clock starts at arrival and restarts when a preemption re-queues
        the request, so an admitted-then-preempted request is not
        penalized for the rounds it already ran.
        """
        if req.request_id in self._cancelled:
            return "cancelled"
        deadline = req.deadline_at
        if deadline is not None and self.time >= deadline:
            return "deadline"
        if queued and req.max_queue_ms is not None:
            waited = self.time - self._timings[req.request_id].enqueued_at
            if waited > req.max_queue_ms:
                return "queue-timeout"
        return None

    def _expire(self, results: Dict[str, RequestResult]) -> None:
        """Abort cancelled / SLO-expired requests, queued or active.

        Runs before admission every round: an aborted request frees its
        pool blocks — including staging buffers and partially attached
        prefix references of an in-flight chunked prefill — immediately,
        so the capacity goes to requests that can still meet their SLOs.
        Requests that already finished their work are left for
        ``_collect`` (their tokens are computed; discarding them helps
        nobody).
        """
        kept_pending = []
        for entry in self.pending:
            reason = self._abort_reason(entry[1], queued=True)
            if reason is None:
                kept_pending.append(entry)
            else:
                self._retire(results, entry[1], None, reason)
        self.pending = kept_pending
        still_active = []
        for state in self.active:
            reason = None if state.done else self._abort_reason(state.request, queued=False)
            if reason is None:
                still_active.append(state)
            else:
                self._retire(results, state.request, state, reason)
        self.active = still_active

    def _collect(self, results: Dict[str, RequestResult]) -> None:
        still_active = []
        for state in self.active:
            if not state.done:
                still_active.append(state)
                continue
            req = state.request
            if len(state.lineages) > 1:
                # Pool amplification accounting at the moment of maximal
                # divergence: unique physical blocks across every lineage
                # vs what n independent caches would have held.
                tables = {b for c in self._live_caches(state) for b in c.block_table}
                self.parallel_requests += 1
                self.parallel_unique_blocks += len(tables)
                self.parallel_single_blocks += len(state.cache.block_table)
                self.parallel_replicated_blocks += (
                    len(state.cache.block_table) * req.n_samples
                )
            # A cancel still pending for it arrived too late: finished first.
            self._retire(results, req, state)
        self.active = still_active

    def _retire(
        self,
        results: Dict[str, RequestResult],
        req: EngineRequest,
        state: Optional[_RequestState],
        abort_reason: Optional[str] = None,
    ) -> None:
        """The one exit of a request: finished, or aborted with a reason.

        Reports the result, releases every cache it holds (``state`` is
        ``None`` for a request aborted while queued), consumes any
        pending cancel and logs ``"finish"`` or ``"abort"``.
        """
        results[req.request_id] = self._build_result(req, state, abort_reason)
        if state is not None:
            self._release_request(state)
        self._cancelled.discard(req.request_id)
        self._record("finish" if abort_reason is None else "abort", (req.request_id,))

    # ------------------------------------------------------------------
    def _used_tokens(self) -> int:
        """Tokens the budget ceiling currently sees (charged or resident)."""
        if self._charged:
            # Charged accounting: what the budget ceiling actually sees.
            used = sum(self._charge_blocks(s.request) for s in self.active)
            return used * self.block_size
        if self.pool is None:
            return 0
        # Residency-weighted primary-tier usage in token equivalents (a
        # half-spilled block counts half; on a flat pool, used tokens), so
        # occupancy stays meaningful against the token budget even when
        # the backing store has grown past it.
        return self.pool.plane_units_used * self.block_size // self.pool.bits

    def start(self) -> Dict[str, RequestResult]:
        """Begin a run: reset per-run state and pin the malloc thresholds.

        Returns the *live* results dict that :meth:`step` fills in —
        callers driving the scheduler round by round (the async
        front-end) read completed entries out of it between steps.
        """
        pin_malloc_thresholds()
        self.time = 0.0
        self.events = []
        self.occupancy = []
        self.tenant_service = {}
        self._streamed = {}
        self._results = {}
        return self._results

    def step(self) -> bool:
        """Execute one decode round (one clock unit).

        Returns ``False`` without advancing the clock when both the
        queue and the active set are empty; the caller may keep
        submitting and stepping afterwards.  This is the *one* round
        implementation — :meth:`run` and the async front-end both drive
        it, so an async serve over loopback replays the exact schedule
        the in-process path produces.
        """
        if not (self.pending or self.active):
            return False
        results = self._results
        if not self.active and self.pending:
            # Idle: fast-forward the clock to the next arrival.
            next_arrival = min(r.arrival_time for _, r in self.pending)
            if next_arrival > self.time:
                if self.occupancy:
                    # Sample the idle gap so time-weighted occupancy
                    # means do not over-weight busy periods: this sample
                    # covers (previous sample, next_arrival] at the idle
                    # usage level with an empty active set.
                    self.occupancy.append(
                        (float(next_arrival), self._used_tokens(), 0)
                    )
                self.time = float(next_arrival)
        self._expire(results)
        # Pin the running batch's write tails and sink/recent windows
        # before admission — an admission-triggered spill must never
        # degrade them.
        self._tier_protect()
        self._admit()
        # Re-pin (fresh admissions included) and prefetch spilled planes
        # back before anyone decodes; the restore traffic is charged
        # against this round's token budget below.
        restore_tokens = self._tier_round()
        decode_tokens = 0
        exclusive = (
            self._budgeted
            and not self.chunk_tokens
            and any(s.prefilling for s in self.active)
        )
        if exclusive:
            # Unchunked prefill hogs the engine: decode stalls — the
            # degradation chunked prefill exists to remove.
            if any(not s.done and not s.prefilling for s in self.active):
                self.decode_blocked_rounds += 1
        else:
            decode_tokens = self._decode_round()
        if self._budgeted:
            self._prefill_round(decode_tokens + restore_tokens)
        self.time += 1.0
        self.occupancy.append((self.time, self._used_tokens(), len(self.active)))
        self._collect(results)
        return True

    def finish(self) -> Dict[str, RequestResult]:
        """End a run and return every result produced so far.

        Unconsumed cancellations (ids this run never saw) die with it:
        a later batch reusing an id must not inherit a stale cancel.
        """
        self._cancelled.clear()
        return self._results

    def run(self) -> Dict[str, RequestResult]:
        """Serve every submitted request to completion; returns per-id results."""
        self.start()
        while self.step():
            pass
        return self.finish()
