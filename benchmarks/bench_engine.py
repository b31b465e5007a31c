"""Serving-engine benchmark: cached-plane decode vs per-call kernels.

Acceptance workload (ISSUE 1): an 8-head decode sweep over a 2048-token
context.  Two implementations of the same decode loop are timed:

* **per-call** — what a caller had before the engine existed: every step,
  every head, one :func:`repro.core.pade_attention.pade_attention`
  invocation that re-quantizes K, re-decomposes all bit planes, and runs
  the single-head row pipeline;
* **engine** — :class:`repro.engine.PadeEngine` with its persistent
  bit-plane cache (prompt decomposed once, one incremental row per step)
  and the head-batched fast path (one matmul per round covers all heads).

The script asserts (a) the engine is >= 3x faster, and (b) the engine's
retained-token sets are byte-identical between the ``"reference"`` and
``"fast"`` backends.

    PYTHONPATH=src python benchmarks/bench_engine.py [--steps N] [--context S] [--heads H]
    PYTHONPATH=src python benchmarks/bench_engine.py --quick --json-out BENCH_engine.json

``--quick`` shrinks the sweep for the CI perf-smoke job (same assertions,
less wall-clock) and ``--json-out`` writes the measured dict to disk so
the run can be archived as a build artifact.  Also runnable under pytest
(the module-level test uses the same reduced sweep).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core import PadeConfig, pade_attention
from repro.engine import PadeEngine
from repro.eval.workloads import build_engine_request


def run_sweep(num_heads: int, context: int, steps: int, head_dim: int = 64):
    """Time the per-call loop and the engine on the same decode workload."""
    cfg = PadeConfig.standard()
    request = build_engine_request(
        "bench", num_heads, context, steps, head_dim=head_dim, seed=42
    )

    # --- per-call baseline: rebuild everything every (step, head) ---------
    k_cache = [request.k[h] for h in range(num_heads)]
    v_cache = [request.v[h] for h in range(num_heads)]
    t0 = time.perf_counter()
    for t in range(steps):
        for h in range(num_heads):
            k_cache[h] = np.concatenate([k_cache[h], request.decode_k[h, t : t + 1]])
            v_cache[h] = np.concatenate([v_cache[h], request.decode_v[h, t : t + 1]])
            pade_attention(
                request.decode_q[h, t], k_cache[h], v_cache[h], cfg,
                query_offset=k_cache[h].shape[0] - 1,
            )
    percall_s = time.perf_counter() - t0

    # --- engine: resident plane cache + head-batched rounds ---------------
    # The pool is sized to the request's footprint in whole blocks: the
    # default budget would time allocating thousands of unused rows.
    block_size = 16
    budget = -(-request.total_tokens // block_size) * block_size
    timings = {}
    results = {}
    for backend in ("fast", "reference"):
        engine = PadeEngine(cfg, backend=backend)
        t0 = time.perf_counter()
        results[backend] = engine.serve(
            [request], token_budget=budget, block_size=block_size
        )["bench"]
        timings[backend] = time.perf_counter() - t0

    ref = results["reference"].retained_bytes()
    fast = results["fast"].retained_bytes()
    return {
        "percall_s": percall_s,
        "engine_fast_s": timings["fast"],
        "engine_reference_s": timings["reference"],
        "speedup_fast": percall_s / timings["fast"],
        "speedup_reference": percall_s / timings["reference"],
        "retained_identical": ref == fast,
        "retained_digest_bytes": len(fast),
        "final_length": results["fast"].final_length,
    }


def test_engine_beats_percall():
    """Reduced sweep for the benchmark suite: same assertions, less time."""
    r = run_sweep(num_heads=8, context=512, steps=8)
    assert r["retained_identical"], "reference/fast engine retained sets diverged"
    assert r["speedup_fast"] >= 3.0, f"engine speedup {r['speedup_fast']:.1f}x < 3x"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--context", type=int, default=2048)
    parser.add_argument("--steps", type=int, default=64)
    parser.add_argument("--head-dim", type=int, default=64)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep for CI perf-smoke (same assertions)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the measured results dict to this JSON file",
    )
    args = parser.parse_args()
    if args.quick:
        args.context, args.steps = min(args.context, 512), min(args.steps, 8)

    print(f"decode sweep: {args.heads} heads, {args.context}-token context, "
          f"{args.steps} steps, head dim {args.head_dim}")
    r = run_sweep(args.heads, args.context, args.steps, args.head_dim)
    print(f"  per-call pade_attention : {r['percall_s']:8.2f} s")
    print(f"  engine (fast backend)   : {r['engine_fast_s']:8.2f} s "
          f"({r['speedup_fast']:.1f}x)")
    print(f"  engine (reference)      : {r['engine_reference_s']:8.2f} s "
          f"({r['speedup_reference']:.1f}x)")
    print(f"  retained sets identical : {r['retained_identical']} "
          f"({r['retained_digest_bytes']} packed bytes compared)")
    assert r["retained_identical"], "reference/fast engine retained sets diverged"
    assert r["speedup_fast"] >= 3.0, f"engine speedup {r['speedup_fast']:.1f}x < 3x"
    print("  PASS: engine >= 3x faster with backend-invariant retention")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(r, fh, indent=2)
        print(f"  wrote {args.json_out}")


if __name__ == "__main__":
    main()
