"""Serving benchmark: continuous batching vs lockstep over the paged pool.

Acceptance workload (ISSUE 2): a Poisson arrival stream served under one
global KV token budget, three ways:

* **continuous** — :class:`repro.engine.ContinuousScheduler` with
  arrival-time admission at every decode-round boundary over the shared
  :class:`~repro.engine.cache.PlaneBlockPool`;
* **lockstep** — the same scheduler with ``admission="drain"``: a batch
  is formed and fully drained before new arrivals are admitted (the
  static-batching baseline the motivation section describes);
* **solo** — every request driven alone through its own cache over a
  private pool (``PadeEngine.new_cache``, ``prefill`` then one
  ``decode_step`` per token), used only as the retained-set oracle.

The script asserts (a) continuous batching beats lockstep on mean TTFT,
and (b) every request's retained-token sets are byte-identical across the
shared-pool serve and the solo loop under both kernel backends
(``RequestResult.retained_bytes``).  A second sweep reports throughput
and preemption counts as the token budget shrinks.

    PYTHONPATH=src python benchmarks/bench_serving.py [--requests N] [--rate R] [--budget B]
    PYTHONPATH=src python benchmarks/bench_serving.py --quick --json-out BENCH_serving.json

``--quick`` shrinks the workload for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` writes the measured dict
to disk so the run can be archived as a build artifact.  Also runnable
under pytest (the module-level test uses the same reduced workload).
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.core import PadeConfig
from repro.engine import PadeEngine, RequestResult
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_serving_workload


def _serve(workload, backend, budget, block_size, max_active, policy, admission):
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    results = engine.serve(
        workload,
        max_active=max_active,
        token_budget=budget,
        block_size=block_size,
        policy=policy,
        admission=admission,
    )
    scheduler = engine.last_serve
    report = summarize_serving(results.values(), scheduler=scheduler)
    return results, report


def _serve_solo(workload, backend):
    """Per-request private-pool decode loop: the retained-set oracle."""
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    out = {}
    for req in workload:
        num_heads, _, head_dim = req.k.shape
        cache = engine.new_cache(num_heads, head_dim, req.v.shape[2], req.total_tokens)
        prefill = engine.prefill(
            cache, req.k, req.v, q=req.q_prompt, total_tokens=req.total_tokens
        )
        steps = [
            engine.decode_step(
                cache, req.decode_q[:, t], req.decode_k[:, t], req.decode_v[:, t]
            )
            for t in range(req.decode_steps)
        ]
        out[req.request_id] = RequestResult(
            request_id=req.request_id,
            prefill_output=None if prefill is None else prefill.output,
            decode_outputs=np.stack([r.output[:, 0] for r in steps], axis=1),
            retained_history=[r.retained[:, 0] for r in steps],
        )
    return out


def run_comparison(
    num_requests: int = 8,
    rate: float = 0.35,
    context: int = 72,
    steps: int = 12,
    num_heads: int = 4,
    head_dim: int = 32,
    budget: int = 512,
    block_size: int = 16,
    max_active: int = 3,
    seed: int = 7,
):
    """Continuous vs lockstep TTFT under one budget + served/solo parity."""
    workload = build_serving_workload(
        num_requests, num_heads, context, steps, head_dim, rate=rate, seed=seed
    )
    out = {"parity_ok": True}
    reference_bytes = None
    for backend in ("fast", "reference"):
        cont, cont_report = _serve(
            workload, backend, budget, block_size, max_active, "fcfs", "continuous"
        )
        lock, lock_report = _serve(
            workload, backend, budget, block_size, max_active, "fcfs", "drain"
        )
        solo = _serve_solo(workload, backend)
        digests = {
            rid: cont[rid].retained_bytes() for rid in sorted(cont)
        }
        for rid in digests:
            if not (
                digests[rid]
                == lock[rid].retained_bytes()
                == solo[rid].retained_bytes()
            ):
                out["parity_ok"] = False
        if reference_bytes is None:
            reference_bytes = digests
        elif digests != reference_bytes:
            out["parity_ok"] = False
        if backend == "fast":
            out["continuous"] = cont_report
            out["lockstep"] = lock_report
    out["ttft_improvement"] = (
        out["lockstep"]["mean_ttft"] / out["continuous"]["mean_ttft"]
        if out["continuous"]["mean_ttft"] > 0
        else float("inf")
    )
    return out


def budget_sweep(
    budgets=(192, 256, 384, 1024),
    num_requests: int = 8,
    rate: float = 0.35,
    context: int = 72,
    steps: int = 24,
    num_heads: int = 4,
    head_dim: int = 32,
    block_size: int = 8,
    max_active: int = 4,
    seed: int = 7,
):
    """Throughput / TTFT / preemptions as the global token budget shrinks."""
    workload = build_serving_workload(
        num_requests, num_heads, context, steps, head_dim, rate=rate, seed=seed
    )
    rows = []
    for budget in budgets:
        _, report = _serve(
            workload, "fast", budget, block_size, max_active, "fcfs", "continuous"
        )
        rows.append(
            {
                "budget": budget,
                "throughput_tokens_per_round": report["throughput_tokens_per_round"],
                "mean_ttft": report["mean_ttft"],
                "p95_ttft": report["p95_ttft"],
                "preemptions": report["preemptions"],
                "peak_pool_occupancy": report.get("peak_pool_occupancy", 0.0),
            }
        )
    return rows


def test_continuous_beats_lockstep():
    """Reduced workload for the benchmark suite: same assertions, less time."""
    r = run_comparison(num_requests=6, context=48, steps=8, budget=384, max_active=2)
    assert r["parity_ok"], "served/solo retained sets diverged across backends"
    assert r["continuous"]["mean_ttft"] < r["lockstep"]["mean_ttft"], (
        f"continuous TTFT {r['continuous']['mean_ttft']:.2f} not better than "
        f"lockstep {r['lockstep']['mean_ttft']:.2f}"
    )


def test_budget_sweep_shows_pressure():
    """A tight budget triggers preemption; an ample one does not."""
    rows = budget_sweep(budgets=(192, 1024), num_requests=6)
    assert rows[0]["preemptions"] > 0, "tight budget never preempted"
    assert rows[-1]["preemptions"] == 0, "ample budget preempted"
    assert rows[0]["throughput_tokens_per_round"] <= rows[-1]["throughput_tokens_per_round"]
    assert all(row["peak_pool_occupancy"] <= 1.0 for row in rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--rate", type=float, default=0.35)
    parser.add_argument("--context", type=int, default=72)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--head-dim", type=int, default=32)
    parser.add_argument("--budget", type=int, default=512)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--max-active", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload for CI perf-smoke (same assertions)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the measured results dict to this JSON file",
    )
    args = parser.parse_args()
    if args.quick:
        args.requests, args.context, args.steps = 6, 48, 8
        args.budget, args.max_active = 384, 2

    print(
        f"serving sweep: {args.requests} requests, Poisson rate {args.rate}/round, "
        f"{args.context}-token prompts (±25%), {args.steps} decode steps, "
        f"budget {args.budget} tokens / blocks of {args.block_size}"
    )
    r = run_comparison(
        args.requests, args.rate, args.context, args.steps, args.heads,
        args.head_dim, args.budget, args.block_size, args.max_active,
    )
    for mode in ("continuous", "lockstep"):
        rep = r[mode]
        print(
            f"  {mode:11s}: mean TTFT {rep['mean_ttft']:6.2f}  "
            f"p95 {rep['p95_ttft']:6.2f}  mean TPOT {rep['mean_tpot']:5.2f}  "
            f"queueing {rep['mean_queueing_delay']:6.2f}  "
            f"throughput {rep['throughput_tokens_per_round']:5.2f} tok/round  "
            f"preemptions {rep['preemptions']:.0f}"
        )
    print(f"  TTFT improvement        : {r['ttft_improvement']:.2f}x")
    print(f"  served == solo retained : {r['parity_ok']} (both backends)")

    print("\nthroughput vs budget (continuous, fast backend, longer decode):")
    sweep = budget_sweep(
        budgets=(192, 1024) if args.quick else (192, 256, 384, 1024),
        num_requests=args.requests, rate=args.rate, context=args.context,
        num_heads=args.heads, head_dim=args.head_dim,
        max_active=args.max_active + 1,
    )
    for row in sweep:
        print(
            f"  budget {row['budget']:5d}: {row['throughput_tokens_per_round']:5.2f} tok/round  "
            f"mean TTFT {row['mean_ttft']:6.2f}  p95 {row['p95_ttft']:6.2f}  "
            f"preemptions {row['preemptions']:3.0f}  "
            f"peak occupancy {row['peak_pool_occupancy']:.0%}"
        )

    assert r["parity_ok"], "served/solo retained sets diverged"
    assert r["continuous"]["mean_ttft"] < r["lockstep"]["mean_ttft"], (
        "continuous batching did not beat lockstep on mean TTFT"
    )
    print("\nPASS: continuous beats lockstep on mean TTFT with byte-identical retention")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"comparison": r, "budget_sweep": sweep}, fh, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
