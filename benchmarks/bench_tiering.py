"""Tiered KV memory benchmark: plane-progressive spill vs preempt-and-restart.

Acceptance workload (ISSUE 9): a sustained decode-growth overload — long
generations colliding under one pool budget — served twice at the *same*
DRAM budget, three claims:

* **tiering beats preempt-and-restart on tail latency** — with the
  two-tier pool, pressure sheds low-order bit-planes of cold blocks
  instead of throwing away decoded tokens, so the tiered arm's p99 TTFT
  is strictly better than the preempt arm's and it preempts no more
  often (the preempt arm must actually preempt for the comparison to
  mean anything).
* **bounded retained-set divergence** — degraded blocks score on a
  partial plane prefix whose unknown-plane weight is bounded
  (``unknown_weight_sum``), so the fraction of retained-set cells that
  differ from the exact run stays under a pinned bound.  The preempt
  arm *is* the exact reference: preempted requests restart from scratch
  and replay identical retained sets (the PR-2 invariance), so diffing
  tiered-vs-preempt measures divergence from uncontended truth.
* **byte-identical when disabled** — with tiering off the serve is
  byte-for-byte today's behavior on both kernel backends (identical
  retained-set encodings, no tiering columns in the report), and the
  tiered arm itself is backend-invariant too (spills happen on round
  boundaries after the decode flush, never splitting a fused round).

    PYTHONPATH=src python benchmarks/bench_tiering.py [--requests N] [--budget B]
    PYTHONPATH=src python benchmarks/bench_tiering.py --quick --json-out BENCH_tiering.json

``--quick`` shrinks the workloads for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` archives the measured
dict as a build artifact.  Also runnable under pytest (the module-level
tests use the reduced workloads).
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.core.backend import set_default_backend
from repro.core.config import PadeConfig
from repro.engine import PadeEngine
from repro.engine.cache import TierConfig
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_serving_workload

#: Pinned ceiling on the fraction of retained-set cells that may differ
#: between the tiered arm and the exact (preempt) reference.  With a
#: 4-plane residency floor the unknown-weight bound is 15/255 per score,
#: which lands both CI workload sizes near ~0.15; 0.25 leaves headroom
#: without letting the answer quality drift unnoticed.
DIVERGENCE_BOUND = 0.25

#: Tier policy under test: keep 4 of 8 planes resident even when fully
#: spilled, restore up to 4 degraded blocks per round.
TIER = TierConfig(min_resident_planes=4, restore_blocks_per_round=4)


def _serve(workload, budget, max_active, tiering=None, backend=None):
    if backend is not None:
        set_default_backend(backend)
    engine = PadeEngine(PadeConfig.standard())
    results = engine.serve(
        workload,
        max_active=max_active,
        token_budget=budget,
        block_size=16,
        tiering=tiering,
    )
    scheduler = engine.last_serve
    report = summarize_serving(results.values(), scheduler=scheduler)
    return results, report, scheduler


def _retained_divergence(results, reference):
    """Fraction of retained-set cells differing from the reference run."""
    mismatched = total = 0
    for rid, res in results.items():
        ref = reference[rid]
        for got, want in zip(res.retained_history, ref.retained_history):
            mismatched += int((got != want).sum())
            total += got.size
    return mismatched / max(1, total)


def _p99_ttft(results):
    ttfts = [
        r.first_token_time - r.arrival_time
        for r in results.values()
        if r.first_token_time is not None
    ]
    return float(np.percentile(ttfts, 99))


def overload_comparison(
    num_requests: int = 12,
    context: int = 32,
    steps: int = 64,
    rate: float = 1.5,
    budget: int = 320,
    max_active: int = 8,
    seed: int = 7,
):
    """Preempt-and-restart vs plane-progressive spill at equal DRAM budget."""
    workload = build_serving_workload(
        num_requests, 4, context, steps, 32, rate=rate, seed=seed
    )
    res_pre, rep_pre, _ = _serve(workload, budget, max_active)
    res_tier, rep_tier, sched = _serve(workload, budget, max_active, tiering=TIER)
    p99_pre, p99_tier = _p99_ttft(res_pre), _p99_ttft(res_tier)
    pool = sched.pool
    return {
        "preempt": rep_pre,
        "tiered": rep_tier,
        "p99_ttft_preempt": p99_pre,
        "p99_ttft_tiered": p99_tier,
        "p99_ttft_improvement": p99_pre / p99_tier if p99_tier > 0 else float("inf"),
        "preemptions_preempt": rep_pre["preemptions"],
        "preemptions_tiered": rep_tier["preemptions"],
        "spill_reliefs": float(sched.spill_reliefs),
        "retained_divergence": _retained_divergence(res_tier, res_pre),
        "divergence_bound": DIVERGENCE_BOUND,
        "leak_free": pool.used_block_count == 0 and pool.plane_units_used == 0,
    }


def disabled_parity(
    num_requests: int = 8,
    context: int = 32,
    steps: int = 48,
    rate: float = 1.5,
    budget: int = 256,
    max_active: int = 6,
    seed: int = 7,
):
    """Byte-parity gates: disabled tiering is today's behavior, both backends.

    Serves the same pressured workload four ways (tiering off/on ×
    reference/fast backend) and compares the canonical retained-set
    encodings.  Off must match off, on must match on; the off report
    must carry no tiering columns and the off pool no spill traffic.
    """
    workload = build_serving_workload(
        num_requests, 4, context, steps, 32, rate=rate, seed=seed
    )
    blobs = {}
    off_report = None
    for tier_name, tiering in (("off", None), ("on", TIER)):
        for backend in ("reference", "fast"):
            results, report, sched = _serve(
                workload, budget, max_active, tiering=tiering, backend=backend
            )
            blobs[(tier_name, backend)] = b"".join(
                results[rid].retained_bytes() for rid in sorted(results)
            )
            if tiering is None:
                off_report = report
                assert sched.pool is not None
                off_spill_traffic = (
                    sched.spill_reliefs
                    + sched.pool.spill_events
                    + sched.pool.restore_events
                )
    set_default_backend("fast")
    tier_columns = [k for k in off_report if "tier" in k or "spill" in k or "planes_resident" in k]
    return {
        "disabled_backend_parity": blobs[("off", "reference")] == blobs[("off", "fast")],
        "tiered_backend_parity": blobs[("on", "reference")] == blobs[("on", "fast")],
        "tiered_differs_from_disabled": blobs[("on", "fast")] != blobs[("off", "fast")],
        "disabled_report_tier_columns": tier_columns,
        "disabled_spill_traffic": float(off_spill_traffic),
    }


def _check(overload, parity):
    assert overload["preemptions_preempt"] > 0, (
        "preempt arm never preempted -- the overload is not sustained enough "
        "for the comparison to mean anything"
    )
    assert overload["p99_ttft_tiered"] < overload["p99_ttft_preempt"], (
        f"tiered p99 TTFT {overload['p99_ttft_tiered']:.2f} not better than "
        f"preempt-and-restart {overload['p99_ttft_preempt']:.2f}"
    )
    assert overload["preemptions_tiered"] <= overload["preemptions_preempt"], (
        "tiering preempted more often than the preempt-only baseline"
    )
    assert overload["spill_reliefs"] > 0, "tiered arm never spilled"
    assert overload["retained_divergence"] <= DIVERGENCE_BOUND, (
        f"retained-set divergence {overload['retained_divergence']:.3f} "
        f"exceeds the pinned bound {DIVERGENCE_BOUND}"
    )
    assert overload["leak_free"], "tiered pool not empty after the run"
    assert parity["disabled_backend_parity"], (
        "tiering disabled: backends disagree on retained sets"
    )
    assert parity["tiered_backend_parity"], (
        "tiering enabled: backends disagree on retained sets"
    )
    assert not parity["disabled_report_tier_columns"], (
        f"disabled run leaked tiering columns: {parity['disabled_report_tier_columns']}"
    )
    assert parity["disabled_spill_traffic"] == 0, (
        "disabled run recorded spill/restore traffic"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced workloads, same assertions as main)
# ---------------------------------------------------------------------------

def test_tiering_beats_preemption_under_overload():
    overload = overload_comparison(num_requests=8, steps=48, budget=256, max_active=6)
    parity = disabled_parity(num_requests=6, steps=40, budget=224)
    _check(overload, parity)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=12)
    parser.add_argument("--budget", type=int, default=320)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workloads for CI perf-smoke (same assertions)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the measured results dict to this JSON file",
    )
    args = parser.parse_args()
    requests, budget, steps, max_active = args.requests, args.budget, 64, 8
    if args.quick:
        requests, budget, steps, max_active = 8, 256, 48, 6

    overload = overload_comparison(
        num_requests=requests, steps=steps, budget=budget, max_active=max_active
    )
    print("sustained overload at one DRAM budget (preempt vs tiered):")
    print(
        f"  preempt : p99 TTFT {overload['p99_ttft_preempt']:7.2f}  "
        f"preemptions {overload['preemptions_preempt']:.0f}"
    )
    print(
        f"  tiered  : p99 TTFT {overload['p99_ttft_tiered']:7.2f}  "
        f"preemptions {overload['preemptions_tiered']:.0f}  "
        f"spill reliefs {overload['spill_reliefs']:.0f}  "
        f"degraded-token fraction {overload['tiered']['degraded_token_fraction']:.3f}"
    )
    print(
        f"  p99 TTFT improvement {overload['p99_ttft_improvement']:.2f}x, "
        f"retained divergence {overload['retained_divergence']:.3f} "
        f"(bound {DIVERGENCE_BOUND})"
    )

    parity = disabled_parity(num_requests=max(6, requests // 2), budget=budget)
    print(
        "\nparity: disabled backends "
        f"{'identical' if parity['disabled_backend_parity'] else 'DIFFER'}, "
        "tiered backends "
        f"{'identical' if parity['tiered_backend_parity'] else 'DIFFER'}, "
        f"disabled spill traffic {parity['disabled_spill_traffic']:.0f}"
    )

    _check(overload, parity)
    print("\nall tiering gates hold")

    if args.json_out:
        payload = {"overload": overload, "parity": parity, "quick": args.quick}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
