"""Prefix-sharing + chunked-prefill benchmark over the paged plane pool.

Acceptance workload (ISSUE 3), two halves:

* **prefix sharing** — eight requests sharing a 512-token system prompt
  are served with hash-based copy-on-write prefix sharing off and on.
  The script asserts (a) every request's retained-token sets are
  byte-identical between the two modes under both kernel backends
  (sharing must be invisible to the attention path), and (b) the shared
  run's peak pool footprint is >= 30% smaller (blocks and bytes saved
  are reported, along with the prefill decompose work avoided).
* **chunked prefill** — a mixed-length stream (one long prompt ahead of
  several short requests) is served under the round-token cost model,
  unchunked vs chunked.  The script asserts the short requests' p95 TTFT
  improves with chunking and that retained sets stay byte-identical
  (chunk boundaries never change the stored planes: scales are frozen on
  the full prompt).

    PYTHONPATH=src python benchmarks/bench_prefix.py [--requests N] [--prefix P] [--quick]
    PYTHONPATH=src python benchmarks/bench_prefix.py --quick --json-out BENCH_prefix.json

Also runnable under pytest (the module-level tests use reduced workloads
so the benchmark suite stays tractable).
"""

from __future__ import annotations

import argparse
import json

from repro.core import PadeConfig
from repro.engine import PadeEngine
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_engine_request, build_prefix_workload


def _serve(workload, backend, budget, block_size, max_active, **kwargs):
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    results = engine.serve(
        workload,
        max_active=max_active,
        token_budget=budget,
        block_size=block_size,
        **kwargs,
    )
    return engine, results, engine.last_serve


def run_prefix_comparison(
    num_requests: int = 8,
    prefix_len: int = 512,
    unique_len: int = 32,
    steps: int = 4,
    num_heads: int = 4,
    head_dim: int = 32,
    block_size: int = 16,
    seed: int = 9,
):
    """Peak pool blocks + retained-set parity, sharing off vs on, both backends."""
    workload = build_prefix_workload(
        num_requests, num_heads, prefix_len, unique_len, steps, head_dim, seed=seed
    )
    # Ample budget: savings are measured as peak live blocks, not evictions.
    budget = num_requests * (prefix_len + unique_len + steps + 2 * block_size)
    out = {"parity_ok": True}
    reference_bytes = None
    for backend in ("fast", "reference"):
        off_engine, off, off_sched = _serve(
            workload, backend, budget, block_size, num_requests
        )
        on_engine, on, on_sched = _serve(
            workload, backend, budget, block_size, num_requests, prefix_sharing=True
        )
        digests = {rid: on[rid].retained_bytes() for rid in sorted(on)}
        for rid in digests:
            if digests[rid] != off[rid].retained_bytes():
                out["parity_ok"] = False
        if reference_bytes is None:
            reference_bytes = digests
        elif digests != reference_bytes:
            out["parity_ok"] = False
        if backend == "fast":
            report = summarize_serving(on.values(), scheduler=on_sched)
            peak_off = off_sched.pool.peak_used_blocks
            peak_on = on_sched.pool.peak_used_blocks
            out.update(
                {
                    "requests": num_requests,
                    "prefix_tokens": prefix_len,
                    "peak_blocks_unshared": peak_off,
                    "peak_blocks_shared": peak_on,
                    "block_savings": 1.0 - peak_on / peak_off,
                    "pool_bytes_saved": (peak_off - peak_on)
                    * on_sched.pool.bytes_per_block,
                    "prefix_hit_rate": report["prefix_hit_rate"],
                    "prefix_blocks_saved": report["prefix_blocks_saved"],
                    "rows_decomposed_unshared": off_engine.stats.rows_decomposed,
                    "rows_decomposed_shared": on_engine.stats.rows_decomposed,
                    "prefill_rows_saved": off_engine.stats.rows_decomposed
                    - on_engine.stats.rows_decomposed,
                }
            )
    return out


def _mixed_workload(
    long_context: int,
    short_context: int,
    num_short: int,
    steps: int,
    num_heads: int,
    head_dim: int,
    seed: int,
):
    """One long prompt arriving first, short requests right behind it."""
    requests = [
        build_engine_request(
            "long", num_heads, long_context, steps, head_dim,
            seed=seed, arrival_time=0.0,
        )
    ]
    for i in range(num_short):
        requests.append(
            build_engine_request(
                f"short{i}", num_heads, short_context, steps, head_dim,
                seed=seed + 17 * (i + 1), arrival_time=1.0 + 0.5 * i,
            )
        )
    return requests


def run_chunked_ttft(
    long_context: int = 384,
    short_context: int = 32,
    num_short: int = 6,
    steps: int = 6,
    num_heads: int = 4,
    head_dim: int = 32,
    round_tokens: int = 64,
    chunk: int = 48,
    block_size: int = 16,
    seed: int = 23,
):
    """Short-request p95 TTFT: unchunked vs chunked prefill, same budget."""
    import numpy as np

    workload = _mixed_workload(
        long_context, short_context, num_short, steps, num_heads, head_dim, seed
    )
    budget = 2 * (long_context + num_short * short_context)
    out = {"parity_ok": True}
    runs = {}
    for mode, chunk_tokens in (("unchunked", 0), ("chunked", chunk)):
        _, results, sched = _serve(
            workload, "fast", budget, block_size, num_short + 1,
            chunk_tokens=chunk_tokens, round_token_budget=round_tokens,
        )
        short_ttft = [
            r.first_token_time - r.arrival_time
            for rid, r in results.items()
            if rid != "long"
        ]
        runs[mode] = results
        out[mode] = {
            "p95_short_ttft": float(np.percentile(short_ttft, 95)),
            "mean_short_ttft": float(np.mean(short_ttft)),
            "long_ttft": results["long"].first_token_time
            - results["long"].arrival_time,
            "decode_blocked_rounds": sched.decode_blocked_rounds,
            "chunk_stall_rounds": sched.chunk_stall_rounds,
        }
    for rid in runs["unchunked"]:
        if (
            runs["unchunked"][rid].retained_bytes()
            != runs["chunked"][rid].retained_bytes()
        ):
            out["parity_ok"] = False
    out["p95_short_ttft_improvement"] = (
        out["unchunked"]["p95_short_ttft"] / out["chunked"]["p95_short_ttft"]
    )
    return out


def test_prefix_sharing_saves_blocks():
    """Reduced workload for the benchmark suite: same assertions, less time."""
    r = run_prefix_comparison(num_requests=4, prefix_len=128, unique_len=16, steps=2)
    assert r["parity_ok"], "retained sets changed when prefix sharing was enabled"
    assert r["block_savings"] >= 0.30, f"block savings {r['block_savings']:.0%} < 30%"
    assert r["prefill_rows_saved"] > 0, "sharing saved no decompose work"


def test_chunked_prefill_improves_short_ttft():
    r = run_chunked_ttft(long_context=192, num_short=4, steps=4)
    assert r["parity_ok"], "chunked prefill changed retained sets"
    assert r["chunked"]["p95_short_ttft"] < r["unchunked"]["p95_short_ttft"], (
        f"chunked p95 short TTFT {r['chunked']['p95_short_ttft']:.1f} not better "
        f"than unchunked {r['unchunked']['p95_short_ttft']:.1f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--prefix", type=int, default=512)
    parser.add_argument("--unique", type=int, default=32)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--head-dim", type=int, default=32)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced decode/backend sweep for CI perf-smoke",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the combined results dict to this JSON file",
    )
    args = parser.parse_args()

    steps = 2 if args.quick else args.steps
    print(
        f"prefix sweep: {args.requests} requests sharing a {args.prefix}-token "
        f"prefix (+{args.unique} unique), blocks of {args.block_size}"
    )
    prefix = run_prefix_comparison(
        args.requests, args.prefix, args.unique, steps,
        args.heads, args.head_dim, args.block_size,
    )
    print(f"  peak pool blocks        : {prefix['peak_blocks_unshared']} unshared "
          f"-> {prefix['peak_blocks_shared']} shared "
          f"({prefix['block_savings']:.0%} saved, "
          f"{prefix['pool_bytes_saved'] / 1024:.0f} KiB)")
    print(f"  prefix hit rate         : {prefix['prefix_hit_rate']:.0%}")
    print(f"  prefill rows decomposed : {prefix['rows_decomposed_unshared']} -> "
          f"{prefix['rows_decomposed_shared']}")
    print(f"  retained sets identical : {prefix['parity_ok']} "
          f"(sharing on/off, both backends)")

    chunked = run_chunked_ttft(
        long_context=192 if args.quick else 384,
        num_short=4 if args.quick else 6,
        steps=4 if args.quick else 6,
        num_heads=args.heads, head_dim=args.head_dim,
    )
    print("\nchunked prefill (round-token cost model, one long prompt ahead "
          "of short requests):")
    for mode in ("unchunked", "chunked"):
        rep = chunked[mode]
        print(f"  {mode:9s}: p95 short TTFT {rep['p95_short_ttft']:6.1f}  "
              f"mean {rep['mean_short_ttft']:6.1f}  long TTFT {rep['long_ttft']:5.1f}  "
              f"decode-blocked {rep['decode_blocked_rounds']:3d}  "
              f"chunk-stalls {rep['chunk_stall_rounds']:3d}")
    print(f"  p95 short-TTFT improvement: "
          f"{chunked['p95_short_ttft_improvement']:.2f}x")

    assert prefix["parity_ok"], "prefix sharing changed retained sets"
    assert prefix["block_savings"] >= 0.30, (
        f"block savings {prefix['block_savings']:.0%} < 30%"
    )
    assert chunked["parity_ok"], "chunked prefill changed retained sets"
    assert chunked["chunked"]["p95_short_ttft"] < chunked["unchunked"]["p95_short_ttft"], (
        "chunked prefill did not improve short-request p95 TTFT"
    )
    print("\nPASS: >=30% pool-block savings with byte-identical retention; "
          "chunked prefill improves short-request p95 TTFT")

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"prefix": prefix, "chunked": chunked}, fh, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
