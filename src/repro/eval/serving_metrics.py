"""Serving-side latency and utilization metrics (TTFT / TPOT / queueing).

The figure harness measures *per-call* quantities (sparsity, bit ops,
energy); a serving stack is judged on a different currency — how long a
request waits (queueing delay), how fast the first token lands (TTFT),
how fast tokens stream after that (TPOT), and how well the KV budget is
used (pool occupancy).  This module turns the per-request timing the
continuous scheduler records into those numbers, with the p50/p95/p99
tails that capacity planning actually cares about.

Round-based times are in decode-round units on the scheduler's clock;
the conversions to wall-clock are a single multiply by the round latency
of whatever hardware model is being costed, so ratios and percentile
shapes carry over unchanged.  The async front-end
(:mod:`repro.serve`) additionally stamps *measured* wall-clock marks
(``wall_*_ms``, milliseconds on a monotonic clock relative to the server
epoch) onto each :class:`RequestTiming` via :func:`with_wall_clock`;
when any timing carries them, :func:`summarize_serving` reports
wall-clock TTFT/TPOT/queueing percentiles alongside the round-based
ones.  Every latency series also reports its sample count
(``n_{prefix}``) so an empty series — all-zero percentiles — cannot be
mistaken for genuinely perfect latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "RequestTiming",
    "timing_from_result",
    "with_wall_clock",
    "latency_percentiles",
    "jain_fairness_index",
    "prefix_cache_stats",
    "summarize_serving",
    "summarize_cluster",
]

#: Tail percentiles reported for every latency series.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RequestTiming:
    """Clock marks of one served request (decode-round units).

    ``first_token_time`` is when the first decode token (or the prefill
    output, for prefill-only requests) became available; ``decode_tokens``
    counts generated tokens.

    The ``wall_*_ms`` fields are *measured* wall-clock marks stamped by
    the async front-end (milliseconds on a monotonic clock, relative to
    the server epoch — see :func:`with_wall_clock`); they stay ``None``
    for in-process simulation runs, where only the round clock exists.
    """

    request_id: str
    arrival_time: float
    admit_time: Optional[float]  # None = never admitted (queued abort)
    first_token_time: Optional[float]
    finish_time: float
    prompt_tokens: int
    decode_tokens: int
    preemptions: int = 0
    final_length: int = 0  # KV tokens resident at finish/abort
    tenant: str = "default"
    priority: int = 0
    deadline_ms: Optional[float] = None
    status: str = "ok"
    abort_reason: Optional[str] = None
    wall_arrival_ms: Optional[float] = None
    wall_admit_ms: Optional[float] = None
    wall_first_token_ms: Optional[float] = None
    wall_finish_ms: Optional[float] = None

    @property
    def aborted(self) -> bool:
        return self.status == "aborted"

    @property
    def deadline_missed(self) -> bool:
        """A completion SLO was set and not met — scheduler-caused abort
        or late finish; voluntary cancellations don't count (shared
        predicate: :func:`repro.engine.scheduler.deadline_was_missed`)."""
        from repro.engine.scheduler import deadline_was_missed

        return deadline_was_missed(
            self.deadline_ms, self.status, self.abort_reason,
            self.arrival_time, self.finish_time,
        )

    @property
    def queueing_delay(self) -> float:
        """Rounds spent waiting for admission (slot + memory headroom).

        A request aborted while still queued waited its whole life:
        ``finish - arrival``.
        """
        if self.admit_time is None:
            return self.finish_time - self.arrival_time
        return self.admit_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token, measured from *arrival* (the user's view)."""
        first = self.finish_time if self.first_token_time is None else self.first_token_time
        return first - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first (0 for <=1 token)."""
        if self.decode_tokens <= 1 or self.first_token_time is None:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.decode_tokens - 1)

    # -- measured wall-clock views (None when no wall marks were stamped)
    @property
    def wall_ttft_ms(self) -> Optional[float]:
        """Measured wall-clock time to first token from arrival (ms)."""
        if self.wall_arrival_ms is None:
            return None
        first = (
            self.wall_finish_ms
            if self.wall_first_token_ms is None
            else self.wall_first_token_ms
        )
        if first is None:
            return None
        return first - self.wall_arrival_ms

    @property
    def wall_tpot_ms(self) -> Optional[float]:
        """Measured mean wall ms per output token after the first."""
        if (
            self.decode_tokens <= 1
            or self.wall_first_token_ms is None
            or self.wall_finish_ms is None
        ):
            return None
        return (self.wall_finish_ms - self.wall_first_token_ms) / (self.decode_tokens - 1)

    @property
    def wall_queueing_ms(self) -> Optional[float]:
        """Measured wall ms spent waiting for admission (whole life for
        a request aborted while still queued, mirroring
        :attr:`queueing_delay`)."""
        if self.wall_arrival_ms is None:
            return None
        if self.wall_admit_ms is None:
            if self.wall_finish_ms is None:
                return None
            return self.wall_finish_ms - self.wall_arrival_ms
        return self.wall_admit_ms - self.wall_arrival_ms


def with_wall_clock(
    timing: RequestTiming,
    arrival_ms: Optional[float] = None,
    admit_ms: Optional[float] = None,
    first_token_ms: Optional[float] = None,
    finish_ms: Optional[float] = None,
) -> RequestTiming:
    """Stamp measured wall-clock marks onto a round-clock timing.

    All marks are milliseconds on one monotonic clock
    (``time.perf_counter`` based — never the NTP-adjustable wall clock)
    relative to a shared epoch, so differences are always non-negative.
    """
    return replace(
        timing,
        wall_arrival_ms=arrival_ms,
        wall_admit_ms=admit_ms,
        wall_first_token_ms=first_token_ms,
        wall_finish_ms=finish_ms,
    )


def timing_from_result(result) -> RequestTiming:
    """Extract a :class:`RequestTiming` from a scheduler ``RequestResult``."""
    return RequestTiming(
        request_id=result.request_id,
        arrival_time=result.arrival_time,
        admit_time=result.admit_time,
        first_token_time=result.first_token_time,
        finish_time=result.finish_time,
        prompt_tokens=result.prompt_tokens,
        decode_tokens=result.decode_outputs.shape[1],
        preemptions=result.preemptions,
        final_length=getattr(result, "final_length", 0),
        tenant=getattr(result, "tenant", "default"),
        priority=getattr(result, "priority", 0),
        deadline_ms=getattr(result, "deadline_ms", None),
        status=getattr(result, "status", "ok"),
        abort_reason=getattr(result, "abort_reason", None),
    )


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations.

    ``(Σx)² / (n · Σx²)`` — 1.0 when every tenant gets the same share,
    ``1/n`` when one tenant takes everything.  Degenerate inputs (empty,
    or all-zero allocations) report 1.0: nothing was served, so nothing
    was served *unfairly*.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 1.0
    if (arr < 0).any():
        raise ValueError("allocations must be >= 0")
    square_sum = float((arr * arr).sum())
    if square_sum == 0.0:
        return 1.0
    return float(arr.sum()) ** 2 / (arr.size * square_sum)


def latency_percentiles(values: Sequence[float], prefix: str) -> Dict[str, float]:
    """Mean + p50/p95/p99 of a latency series, keyed ``{prefix}_{stat}``.

    Uses linear interpolation (numpy default) so small request counts
    still produce stable, monotone tails.  An empty series reports zeros
    *plus* ``n_{prefix} = 0`` — every series carries its sample count,
    so report consumers (and the bench sanity gates) can tell "no data"
    from "zero latency" (an all-aborted flood produces the former).
    """
    out = {f"n_{prefix}": float(len(values)), f"mean_{prefix}": 0.0}
    out.update({f"p{int(q)}_{prefix}": 0.0 for q in PERCENTILES})
    if len(values) == 0:
        return out
    arr = np.asarray(values, dtype=np.float64)
    out[f"mean_{prefix}"] = float(arr.mean())
    for q in PERCENTILES:
        out[f"p{int(q)}_{prefix}"] = float(np.percentile(arr, q))
    return out


def prefix_cache_stats(
    hit_blocks: int, miss_blocks: int, bytes_per_block: int = 0
) -> Dict[str, float]:
    """Prefix-cache effectiveness in serving currency.

    ``hit_blocks`` is how many full prompt blocks were attached from the
    pool's content index instead of allocated + re-decomposed;
    ``miss_blocks`` how many shareable blocks had to be written fresh.
    Every hit is one pool block *and* one block's worth of prefill
    compute saved, so the report doubles as a blocks-saved figure.
    """
    shareable = hit_blocks + miss_blocks
    return {
        "prefix_hit_blocks": float(hit_blocks),
        "prefix_miss_blocks": float(miss_blocks),
        "prefix_hit_rate": hit_blocks / shareable if shareable else 0.0,
        "prefix_blocks_saved": float(hit_blocks),
        "prefix_bytes_saved": float(hit_blocks * bytes_per_block),
    }


def summarize_serving(results: Iterable, scheduler=None) -> Dict[str, float]:
    """Reduce per-request results (+ the scheduler that served them) to one report.

    ``results`` is any iterable of ``RequestResult`` (or pre-built
    :class:`RequestTiming`, which the async front-end passes so its
    wall-clock marks survive).  The report covers latency (TTFT / TPOT /
    queueing delay, each with n/mean/p50/p95/p99, measured over
    *completed* requests; a ``wall_*_ms`` block is added when wall marks
    are present), throughput (generated tokens per round over the
    makespan) and preemption count.  With the ``ContinuousScheduler``
    given, its ``(time, used_tokens, active_requests)`` occupancy
    timeline adds mean/peak active requests and mean/peak pool occupancy
    as a fraction of its (block-rounded) ``token_budget``, with means
    *time-weighted* over the sample intervals so fast-forwarded idle
    gaps count for their full duration.

    The multi-tenant SLO block is always present: completed/aborted
    counts (aborts split by reason), the deadline-miss rate over
    deadlined requests (aborts *and* late finishes count as misses),
    Jain's fairness index over per-tenant generated tokens
    (``jain_fairness_index``, with ``tenant_tokens_{name}`` detail) and
    over resident KV service (``jain_service_index`` — the quantity the
    ``fair`` policy equalizes), and — whenever more than one priority
    class appears — per-class TTFT/TPOT percentiles keyed
    ``..._ttft_class{p}`` / ``..._tpot_class{p}``.  The scheduler also
    adds the prefix-cache figures
    (hit rate, blocks/bytes saved, peak live blocks), the chunked-
    prefill stall counters (``chunk_stall_rounds`` — rounds a prefill got
    zero budget; ``decode_blocked_rounds`` — rounds an unchunked prefill
    stalled decode), and the per-policy attention columns read off the
    engine: achieved sparsity over candidate pairs plus the paper's
    Fig. 15 cost split (mean prediction/execution cost per attention
    call and their sum, the sparsity level).
    """
    timings = [
        r if isinstance(r, RequestTiming) else timing_from_result(r) for r in results
    ]
    if not timings:
        raise ValueError("no results to summarize")
    completed = [t for t in timings if not t.aborted]
    aborted = [t for t in timings if t.aborted]
    report: Dict[str, float] = {"requests": float(len(timings))}
    report["completed_requests"] = float(len(completed))
    report["aborted_requests"] = float(len(aborted))
    for reason in ("deadline", "queue-timeout", "cancelled"):
        key = f"aborted_{reason.replace('-', '_')}"
        report[key] = float(sum(1 for t in aborted if t.abort_reason == reason))
    deadlined = [t for t in timings if t.deadline_ms is not None]
    misses = sum(1 for t in deadlined if t.deadline_missed)
    report["deadline_requests"] = float(len(deadlined))
    report["deadline_misses"] = float(misses)
    report["deadline_miss_rate"] = misses / len(deadlined) if deadlined else 0.0

    report.update(latency_percentiles([t.ttft for t in completed], "ttft"))
    report.update(
        latency_percentiles([t.tpot for t in completed if t.decode_tokens > 1], "tpot")
    )
    report.update(latency_percentiles([t.queueing_delay for t in completed], "queueing_delay"))

    # Measured wall-clock latency block: only when the async front-end
    # stamped wall marks (in-process simulation reports stay unchanged).
    if any(t.wall_arrival_ms is not None for t in timings):
        wall_ttft = [t.wall_ttft_ms for t in completed if t.wall_ttft_ms is not None]
        wall_tpot = [t.wall_tpot_ms for t in completed if t.wall_tpot_ms is not None]
        wall_queue = [
            t.wall_queueing_ms for t in completed if t.wall_queueing_ms is not None
        ]
        report.update(latency_percentiles(wall_ttft, "wall_ttft_ms"))
        if wall_tpot:
            report.update(latency_percentiles(wall_tpot, "wall_tpot_ms"))
        else:
            # Every completion streamed <= 1 token, so no TPOT sample
            # exists (the first token is TTFT's).  Emit only the count:
            # zero percentiles here would read as a measured 0.0 ms per
            # token instead of "no data".
            report["n_wall_tpot_ms"] = 0.0
        report.update(latency_percentiles(wall_queue, "wall_queueing_ms"))
        wall_start = [t.wall_arrival_ms for t in timings if t.wall_arrival_ms is not None]
        wall_end = [t.wall_finish_ms for t in timings if t.wall_finish_ms is not None]
        if wall_start and wall_end:
            wall_makespan = max(wall_end) - min(wall_start)
            report["wall_makespan_ms"] = wall_makespan
            report["wall_tokens_per_s"] = (
                1000.0 * sum(t.decode_tokens for t in timings) / wall_makespan
                if wall_makespan > 0
                else 0.0
            )

    # Per-class latency tails: only when the workload actually has classes
    # (single-class reports stay exactly the pre-SLO shape).
    classes = sorted({t.priority for t in timings})
    if len(classes) > 1:
        for prio in classes:
            in_class = [t for t in completed if t.priority == prio]
            report.update(
                latency_percentiles([t.ttft for t in in_class], f"ttft_class{prio}")
            )
            report.update(
                latency_percentiles(
                    [t.tpot for t in in_class if t.decode_tokens > 1], f"tpot_class{prio}"
                )
            )

    # Per-tenant fairness, two views.  ``jain_fairness_index`` is over
    # *delivered decode tokens* (what each tenant's users actually
    # received; aborted requests count their partial streams).
    # ``jain_service_index`` is over resident KV service (prompt written
    # + decode, via ``final_length``) — the quantity the ``fair`` policy
    # equalizes, so with skewed prompt/output shapes the two can
    # legitimately diverge.
    tenant_tokens: Dict[str, float] = {}
    tenant_service: Dict[str, float] = {}
    for t in timings:
        tenant_tokens[t.tenant] = tenant_tokens.get(t.tenant, 0.0) + t.decode_tokens
        service = t.final_length
        if not service and not t.aborted:
            service = t.prompt_tokens + t.decode_tokens
        tenant_service[t.tenant] = tenant_service.get(t.tenant, 0.0) + service
    report["tenants"] = float(len(tenant_tokens))
    report["jain_fairness_index"] = jain_fairness_index(list(tenant_tokens.values()))
    report["jain_service_index"] = jain_fairness_index(list(tenant_service.values()))
    if len(tenant_tokens) > 1:
        for tenant in sorted(tenant_tokens):
            report[f"tenant_tokens_{tenant}"] = tenant_tokens[tenant]

    first_arrival = min(t.arrival_time for t in timings)
    last_finish = max(t.finish_time for t in timings)
    makespan = last_finish - first_arrival
    total_decode = sum(t.decode_tokens for t in timings)
    report["makespan_rounds"] = makespan
    report["generated_tokens"] = float(total_decode)
    report["throughput_tokens_per_round"] = total_decode / makespan if makespan > 0 else 0.0
    report["preemptions"] = float(sum(t.preemptions for t in timings))

    occupancy = getattr(scheduler, "occupancy", ())
    if occupancy:
        token_budget = scheduler.token_budget
        times = np.asarray([t for t, _, _ in occupancy], dtype=np.float64)
        used = np.asarray([u for _, u, _ in occupancy], dtype=np.float64)
        active = np.asarray([a for _, _, a in occupancy], dtype=np.float64)
        # Each sample covers the interval since the previous one (the
        # first covers one round), so means are *time-weighted*: an idle
        # gap the scheduler fast-forwarded across counts for its full
        # duration instead of one sample — executed rounds (1-unit
        # intervals) keep weight 1, so dense timelines are unchanged.
        weights = np.ones_like(times)
        if times.size > 1:
            weights[1:] = np.diff(times)
        span = float(weights.sum())
        report["peak_active_requests"] = float(active.max())
        report["mean_active_requests"] = float((active * weights).sum() / span)
        if token_budget:
            report["mean_pool_occupancy"] = float(
                (used * weights).sum() / (span * token_budget)
            )
            report["peak_pool_occupancy"] = float(used.max() / token_budget)

    if scheduler is not None:
        pool = getattr(scheduler, "pool", None)
        report.update(
            prefix_cache_stats(
                getattr(scheduler, "prefix_hit_blocks", 0),
                getattr(scheduler, "prefix_miss_blocks", 0),
                pool.bytes_per_block if pool is not None else 0,
            )
        )
        report["chunk_stall_rounds"] = float(getattr(scheduler, "chunk_stall_rounds", 0))
        report["decode_blocked_rounds"] = float(
            getattr(scheduler, "decode_blocked_rounds", 0)
        )
        if pool is not None:
            report["peak_used_blocks"] = float(pool.peak_used_blocks)
        if getattr(scheduler, "tiering", None) is not None and pool is not None:
            # Accuracy-vs-pressure columns, emitted only when the tiered
            # backend ran so the disabled report stays byte-identical.
            report["spill_reliefs"] = float(scheduler.spill_reliefs)
            report["spill_events"] = float(pool.spill_events)
            report["restore_events"] = float(pool.restore_events)
            report["spilled_plane_bytes"] = float(pool.spilled_plane_bytes)
            report["restored_plane_bytes"] = float(pool.restored_plane_bytes)
            report["tier_prefetch_restores"] = float(scheduler.tier_prefetch_restores)
            report["degraded_token_fraction"] = float(
                scheduler.degraded_tokens / max(1, scheduler.decoded_tokens)
            )
            report["tier_min_resident_planes"] = float(
                scheduler.tiering.min_resident_planes
            )
            rounds = max(1, scheduler.tier_hist_rounds)
            for level, count in sorted(scheduler.planes_hist.items()):
                report[f"planes_resident_{level}"] = float(count / rounds)
            dram = pool.tier_dram_stats()
            report["tier_restore_cycles"] = float(dram["restore"].cycles)
            report["tier_restore_energy_pj"] = float(dram["restore"].energy_pj)
        if getattr(scheduler, "spec_rounds", 0):
            # Draft-verify speculative decoding: the headline is emitted
            # tokens per verifier round (plain decode is 1.0 by
            # construction — one token per round per request).
            report["spec_rounds"] = float(scheduler.spec_rounds)
            report["spec_drafted_tokens"] = float(scheduler.spec_drafted_tokens)
            report["spec_accepted_tokens"] = float(scheduler.spec_accepted_tokens)
            report["spec_emitted_tokens"] = float(scheduler.spec_emitted_tokens)
            report["spec_rollbacks"] = float(scheduler.spec_rollbacks)
            report["accepted_tokens_per_round"] = (
                scheduler.spec_emitted_tokens / scheduler.spec_rounds
            )
            report["draft_acceptance_rate"] = (
                scheduler.spec_accepted_tokens
                / max(1, scheduler.spec_drafted_tokens)
            )
        if getattr(scheduler, "parallel_requests", 0):
            # n-best parallel sampling: amplification is unique physical
            # blocks across all lineages over one lineage's blocks — 1.0
            # means perfect sharing, n means no sharing at all.
            report["parallel_requests"] = float(scheduler.parallel_requests)
            report["parallel_unique_blocks"] = float(scheduler.parallel_unique_blocks)
            report["parallel_replicated_blocks"] = float(
                scheduler.parallel_replicated_blocks
            )
            report["pool_amplification_factor"] = (
                scheduler.parallel_unique_blocks
                / max(1, scheduler.parallel_single_blocks)
            )
        engine = getattr(scheduler, "engine", None)
        stats = getattr(engine, "stats", None)
        if stats is not None:
            report["policy_sparsity"] = float(stats.sparsity)
            report["policy_prediction_cost"] = float(stats.mean_prediction_cost)
            report["policy_execution_cost"] = float(stats.mean_execution_cost)
            report["policy_sparsity_level"] = float(stats.mean_sparsity_level)
            # Fused-decode occupancy: how many rounds ran as one
            # cross-request filter call, and how full the padded lattice
            # was when they did (1.0 = perfectly rectangular active set).
            report["batched_rounds"] = float(stats.batched_rounds)
            report["batch_efficiency"] = float(stats.batch_efficiency)
    return report


def summarize_cluster(replica_reports: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Roll per-replica serving reports up into one cluster report.

    ``replica_reports`` is one :func:`summarize_serving` dict per replica
    (an empty dict for a replica that served nothing — a dead replica,
    or one the router simply never picked).  Counts sum; the cluster
    makespan is the *max* per-replica makespan, because replicas are
    independent engines running concurrently — on the shared round
    clock, the cluster is done when its slowest replica is done, so
    ``cluster_throughput_tokens_per_round`` is total generated tokens
    over that max.  Prefix-cache hit/miss blocks sum before the hit rate
    is recomputed (so the cluster rate is request-weighted, not an
    average of rates), and ``jain_replica_index`` applies Jain's index
    to per-replica generated tokens — the load-balance figure, with
    ``tokens_r{i}`` detail columns.  Worst-tail columns
    (``worst_p95_ttft`` etc.) take the max across replicas: the SLO a
    cluster operator quotes is the one its worst shard delivers.  Tier,
    speculative and n-best counters (``spill_events``, ``spec_*``,
    ``parallel_*``) sum when any replica reports them, and the
    speculative ratios are recomputed from the sums.  There is no
    cluster ``pool_amplification_factor``: a replica report carries no
    single-lineage block count to derive it from.
    """
    reports = list(replica_reports)
    if not reports:
        raise ValueError("no replica reports to summarize")
    served = [r for r in reports if r]
    out: Dict[str, float] = {
        "replicas": float(len(reports)),
        "reporting_replicas": float(len(served)),
    }

    def total(key: str) -> float:
        return float(sum(float(r.get(key, 0.0)) for r in served))

    for key in (
        "requests",
        "completed_requests",
        "aborted_requests",
        "generated_tokens",
        "preemptions",
    ):
        out[key] = total(key)
    makespan = max((float(r.get("makespan_rounds", 0.0)) for r in served), default=0.0)
    out["cluster_makespan_rounds"] = makespan
    out["cluster_throughput_tokens_per_round"] = (
        out["generated_tokens"] / makespan if makespan > 0 else 0.0
    )
    hit = total("prefix_hit_blocks")
    miss = total("prefix_miss_blocks")
    out.update(prefix_cache_stats(int(hit), int(miss)))
    out["prefix_bytes_saved"] = total("prefix_bytes_saved")
    for key in ("spill_events", "restore_events", "spill_reliefs",
                "tier_prefetch_restores", "spilled_plane_bytes", "restored_plane_bytes",
                "spec_rounds", "spec_drafted_tokens", "spec_accepted_tokens",
                "spec_emitted_tokens", "spec_rollbacks", "parallel_requests",
                "parallel_unique_blocks", "parallel_replicated_blocks"):
        if any(key in r for r in served):
            out[key] = total(key)
    if "spec_rounds" in out:
        out["accepted_tokens_per_round"] = out["spec_emitted_tokens"] / out["spec_rounds"]
        out["draft_acceptance_rate"] = out["spec_accepted_tokens"] / max(
            1.0, out["spec_drafted_tokens"]
        )
    out["jain_replica_index"] = jain_fairness_index(
        [float(r.get("generated_tokens", 0.0)) for r in reports]
    )
    for i, r in enumerate(reports):
        out[f"tokens_r{i}"] = float(r.get("generated_tokens", 0.0))
    for key in ("p95_ttft", "p99_ttft", "p95_queueing_delay", "p95_wall_ttft_ms"):
        values = [float(r[key]) for r in served if key in r]
        if values:
            out[f"worst_{key}"] = max(values)
    return out
