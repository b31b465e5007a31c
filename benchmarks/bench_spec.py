"""Speculative & parallel-sampling serving benchmark on the COW-forked pool.

Acceptance workload (ISSUE 10): the two fork-based serving modes against
their plain-decode baselines, three claims:

* **speculation beats one-token-per-round** — on a draft-friendly
  (sink-dominated) workload the StreamingLLM draft proposes tokens the
  PADE verifier accepts almost verbatim, so the speculative arm emits
  >= 1.5x the tokens per scheduler round that plain PADE decode does
  (plain decode is exactly 1.0/round by construction).
* **n-best shares, it does not replicate** — at ``n = 4`` parallel
  sampling the pool amplification factor (unique live blocks over the
  single-lineage footprint) stays under ``n / 2``: the shared prompt
  prefix is physically one copy, each lineage pays only its private
  decode tail plus one COW-forked block.
* **byte-identical when disabled** — with both modes off the serve is
  byte-for-byte today's behavior on both kernel backends (identical
  output and retained-set digests, no ``spec_*`` / ``parallel_*``
  report columns).

    PYTHONPATH=src python benchmarks/bench_spec.py [--requests N] [--budget B]
    PYTHONPATH=src python benchmarks/bench_spec.py --quick --json-out BENCH_spec.json

``--quick`` shrinks the workloads for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` archives the measured
dict as a build artifact.  Also runnable under pytest (the module-level
tests use the reduced workloads).
"""

from __future__ import annotations

import argparse
import json

from repro.core.backend import set_default_backend
from repro.core.config import PadeConfig
from repro.engine import PadeEngine
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import (
    build_parallel_workload,
    build_serving_workload,
    build_speculative_workload,
)

#: Speculative gate: accepted-tokens-per-round vs the plain-decode
#: cadence of exactly 1.0 token per round.
SPEEDUP_FLOOR = 1.5

#: Parallel-sampling lineage count and its amplification ceiling.
N_SAMPLES = 4
AMPLIFICATION_CEILING = N_SAMPLES / 2


def _serve(workload, budget, max_active, backend=None, **kw):
    if backend is not None:
        set_default_backend(backend)
    engine = PadeEngine(PadeConfig.standard())
    results = engine.serve(
        workload, max_active=max_active, token_budget=budget, block_size=16, **kw
    )
    scheduler = engine.last_serve
    report = summarize_serving(results.values(), scheduler=scheduler)
    return results, report, scheduler


def speculative_comparison(
    num_requests: int = 8,
    context: int = 64,
    steps: int = 16,
    budget: int = 4096,
    max_active: int = 4,
    seed: int = 11,
):
    """Draft-verify speculation vs plain PADE decode on the same tensors.

    The parity arm serves the *identical* draft-friendly tensors with
    ``speculative=False``, so the accepted-tokens-per-round ratio
    measures the round-count saving alone, not a workload change.
    """
    spec_wl = build_speculative_workload(
        num_requests, 4, context, steps, 32, rate=1.0, seed=seed
    )
    plain_wl = build_speculative_workload(
        num_requests, 4, context, steps, 32, rate=1.0, seed=seed,
        speculative=False,
    )
    _res_s, rep_spec, sched_s = _serve(spec_wl, budget, max_active)
    _res_p, rep_plain, sched_p = _serve(plain_wl, budget, max_active)
    plain_per_round = (
        sched_p.decoded_tokens / max(1, len(sched_p.round_log))
        if getattr(sched_p, "round_log", None) is not None
        else 1.0
    )
    return {
        "speculative": rep_spec,
        "plain": rep_plain,
        "accepted_tokens_per_round": rep_spec["accepted_tokens_per_round"],
        "draft_acceptance_rate": rep_spec["draft_acceptance_rate"],
        "spec_rollbacks": rep_spec["spec_rollbacks"],
        "plain_tokens_per_round": 1.0,  # one decode_step per active round
        "speedup": rep_spec["accepted_tokens_per_round"] / 1.0,
        "speedup_floor": SPEEDUP_FLOOR,
        "leak_free": sched_s.pool.used_block_count == 0
        and sched_p.pool.used_block_count == 0,
    }


def parallel_amplification(
    num_requests: int = 12,
    context: int = 64,
    steps: int = 4,
    budget: int = 8192,
    max_active: int = 8,
    seed: int = 11,
):
    """Pool amplification of n-best sampling at ``n = N_SAMPLES``."""
    workload = build_parallel_workload(
        num_requests, 4, context, steps, 32, n_samples=N_SAMPLES,
        rate=1.0, seed=seed,
    )
    results, report, sched = _serve(workload, budget, max_active)
    return {
        "parallel": report,
        "n_samples": float(N_SAMPLES),
        "pool_amplification_factor": report["pool_amplification_factor"],
        "amplification_ceiling": AMPLIFICATION_CEILING,
        "completed": report["completed_requests"],
        "sample_outputs_ok": all(
            len(r.sample_outputs) == N_SAMPLES - 1 for r in results.values()
        ),
        "leak_free": sched.pool.used_block_count == 0,
    }


def disabled_parity(
    num_requests: int = 6,
    context: int = 32,
    steps: int = 12,
    budget: int = 1024,
    max_active: int = 4,
    seed: int = 11,
):
    """Byte-parity gate: both modes off is today's behavior, both backends."""
    from repro.serve.protocol import result_digests

    workload = build_serving_workload(
        num_requests, 4, context, steps, 32, rate=0.8, seed=seed
    )
    digests = {}
    off_report = None
    for backend in ("reference", "fast"):
        results, report, _sched = _serve(
            workload, budget, max_active, backend=backend
        )
        digests[backend] = {
            rid: result_digests(results[rid]) for rid in sorted(results)
        }
        off_report = report
    set_default_backend("fast")
    leaked = [
        k for k in off_report
        if "spec" in k or "parallel" in k or "amplification" in k or "draft" in k
    ]
    return {
        "disabled_backend_parity": digests["reference"] == digests["fast"],
        "disabled_report_fork_columns": leaked,
    }


def _check(spec, par, parity):
    assert spec["draft_acceptance_rate"] > 0, "draft never accepted a token"
    assert spec["accepted_tokens_per_round"] >= SPEEDUP_FLOOR, (
        f"speculative accepted-tokens/round {spec['accepted_tokens_per_round']:.2f} "
        f"below the {SPEEDUP_FLOOR}x floor over plain decode (1.0/round)"
    )
    assert spec["leak_free"], "speculative arm leaked pool blocks"
    assert par["pool_amplification_factor"] < AMPLIFICATION_CEILING, (
        f"pool amplification {par['pool_amplification_factor']:.2f} at "
        f"n={N_SAMPLES} reached the replication ceiling {AMPLIFICATION_CEILING}"
    )
    assert par["pool_amplification_factor"] >= 1.0, (
        "amplification below 1.0 -- the accounting is broken"
    )
    assert par["sample_outputs_ok"], "missing n-best lineage outputs"
    assert par["leak_free"], "parallel arm leaked pool blocks"
    assert parity["disabled_backend_parity"], (
        "modes disabled: backends disagree on output/retained digests"
    )
    assert not parity["disabled_report_fork_columns"], (
        f"disabled run leaked fork-mode columns: "
        f"{parity['disabled_report_fork_columns']}"
    )


# ---------------------------------------------------------------------------
# pytest entry points (reduced workloads, same assertions as main)
# ---------------------------------------------------------------------------

def test_speculation_and_parallel_sampling_gates():
    spec = speculative_comparison(num_requests=4, steps=12, budget=2048)
    par = parallel_amplification(num_requests=6, budget=4096, max_active=6)
    parity = disabled_parity(num_requests=4, steps=8, budget=768)
    _check(spec, par, parity)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--budget", type=int, default=4096)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workloads for CI perf-smoke (same assertions)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the measured results dict to this JSON file",
    )
    args = parser.parse_args()
    requests, budget, steps = args.requests, args.budget, 16
    par_requests, par_budget = 12, 8192
    if args.quick:
        requests, budget, steps = 4, 2048, 12
        par_requests, par_budget = 6, 4096

    spec = speculative_comparison(num_requests=requests, steps=steps, budget=budget)
    print("draft-verify speculation vs plain PADE decode (same tensors):")
    print(
        f"  speculative: {spec['accepted_tokens_per_round']:.2f} accepted "
        f"tokens/round, acceptance rate {spec['draft_acceptance_rate']:.2f}, "
        f"rollbacks {spec['spec_rollbacks']:.0f}"
    )
    print(
        f"  plain      : {spec['plain_tokens_per_round']:.2f} tokens/round"
        f"  ->  {spec['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )

    par = parallel_amplification(num_requests=par_requests, budget=par_budget)
    print(
        f"\nn-best sampling at n={N_SAMPLES}: pool amplification "
        f"{par['pool_amplification_factor']:.2f}x "
        f"(replication would be {float(N_SAMPLES):.0f}x, "
        f"ceiling {AMPLIFICATION_CEILING:.1f}x)"
    )

    parity = disabled_parity(num_requests=max(4, requests // 2))
    print(
        "\nparity: modes disabled, backends "
        f"{'identical' if parity['disabled_backend_parity'] else 'DIFFER'}"
    )

    _check(spec, par, parity)
    print("\nall speculative/parallel gates hold")

    if args.json_out:
        payload = {
            "speculative": spec, "parallel": par, "parity": parity,
            "quick": args.quick,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
