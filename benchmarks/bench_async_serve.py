"""Async serving benchmark: the loopback front-end vs the in-process path.

Two measurements (ISSUE 7):

* **parity** — the same seed-deterministic workload served twice on
  fresh engines: once through :class:`repro.serve.AsyncPadeServer` over
  a loopback socket in deterministic-replay mode (every submit lands
  before round 0), once through the in-process
  :meth:`PadeEngine.serve`.  Asserts byte-identical outputs (sha256 over
  decode outputs and retained sets, plus every streamed token digest)
  and an *identical* round-clock report — the async layer adds wall
  clocks, it must not change the schedule.
* **load** — a closed-loop client drives the live server (no barrier,
  ``arrival="now"``) and the measured wall-clock columns are gated for
  sanity: every request served, zero leaked pool blocks, wall
  TTFT/TPOT/queueing series fully populated (``n_`` counts match),
  non-negative, with monotone p50 <= p95 <= p99 tails, and a positive
  sustained wall-clock token throughput.

    PYTHONPATH=src python benchmarks/bench_async_serve.py [--requests N] [--budget B]
    PYTHONPATH=src python benchmarks/bench_async_serve.py --quick --json-out BENCH_async_serve.json

``--quick`` shrinks the workload for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` archives the measured
dict.  Also runnable under pytest (module-level tests use the reduced
workload).
"""

from __future__ import annotations

import argparse
import json

from repro.core import PadeConfig
from repro.engine import PadeEngine
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_serving_workload
from repro.serve.client import serve_workload_over_loopback
from repro.serve.protocol import array_digest, result_digests

WALL_SERIES = ("wall_ttft_ms", "wall_tpot_ms", "wall_queueing_ms")


def _fresh_engine():
    return PadeEngine(PadeConfig.standard(), policy="pade")


def _workload(num_requests, rate, context, steps, num_heads, head_dim, seed):
    return build_serving_workload(
        num_requests, num_heads, context, steps, head_dim, rate=rate, seed=seed
    )


def check_wall_sanity(report, expect_n=None):
    """Sanity-gate the measured wall columns; returns a list of violations."""
    problems = []
    for series in WALL_SERIES:
        n = report.get(f"n_{series}", 0.0)
        if expect_n is not None and series != "wall_tpot_ms" and n != float(expect_n):
            problems.append(f"{series}: n={n}, expected {expect_n}")
        if n == 0.0:
            continue
        stats = [report[f"{s}_{series}"] for s in ("mean", "p50", "p95", "p99")]
        if any(v < 0 for v in stats):
            problems.append(f"{series}: negative stats {stats}")
        p50, p95, p99 = stats[1:]
        if not (p50 <= p95 <= p99):
            problems.append(f"{series}: non-monotone tails {p50}, {p95}, {p99}")
    if report.get("wall_makespan_ms", -1.0) < 0:
        problems.append("negative wall makespan")
    return problems


def run_parity(
    num_requests: int = 8,
    rate: float = 0.4,
    context: int = 64,
    steps: int = 10,
    num_heads: int = 4,
    head_dim: int = 32,
    budget: int = 512,
    block_size: int = 16,
    max_active: int = 4,
    seed: int = 11,
):
    """Loopback replay vs in-process serve: bytes and round clocks equal."""
    workload = _workload(num_requests, rate, context, steps, num_heads, head_dim, seed)
    serve_kwargs = dict(
        max_active=max_active, token_budget=budget, block_size=block_size, policy="fcfs"
    )

    dones, ack, server = serve_workload_over_loopback(
        _fresh_engine(), workload, barrier=True, **serve_kwargs
    )

    engine = _fresh_engine()
    results = engine.serve(workload, **serve_kwargs)
    scheduler = engine.last_serve
    reference = summarize_serving(results.values(), scheduler=scheduler)

    digest_mismatches = []
    token_mismatches = []
    for rid, res in results.items():
        done = dones[rid]
        expected = result_digests(res)
        if (
            done.get("output_digest") != expected["output_digest"]
            or done.get("retained_digest") != expected["retained_digest"]
        ):
            digest_mismatches.append(rid)
        tokens = done.get("tokens", [])
        if len(tokens) != res.decode_outputs.shape[1] or any(
            tok["digest"] != array_digest(res.decode_outputs[:, tok["step"], :])
            for tok in tokens
        ):
            token_mismatches.append(rid)

    async_report = ack["report"]
    report_diffs = {
        key: (value, async_report.get(key))
        for key, value in reference.items()
        if async_report.get(key) != value
    }
    return {
        "requests": float(num_requests),
        "parity_ok": not (digest_mismatches or token_mismatches or report_diffs),
        "digest_mismatches": digest_mismatches,
        "token_mismatches": token_mismatches,
        "report_diffs": {k: list(v) for k, v in report_diffs.items()},
        "leaked_blocks": ack["leaked_blocks"],
        "wall_problems": check_wall_sanity(async_report, expect_n=len(results)),
        "round_report": {
            k: reference[k]
            for k in ("mean_ttft", "p95_ttft", "mean_tpot", "throughput_tokens_per_round")
        },
        "wall_report": {
            k: async_report[k]
            for k in async_report
            if k.startswith(("wall_", "n_wall_", "mean_wall_", "p50_wall_", "p95_wall_", "p99_wall_"))
        },
    }


def run_load(
    num_requests: int = 16,
    context: int = 48,
    steps: int = 10,
    num_heads: int = 4,
    head_dim: int = 32,
    budget: int = 1024,
    block_size: int = 16,
    max_active: int = 4,
    concurrency: int = 4,
    seed: int = 23,
):
    """Closed-loop live load over loopback: sustained wall throughput."""
    workload = _workload(num_requests, 0.5, context, steps, num_heads, head_dim, seed)
    dones, ack, server = serve_workload_over_loopback(
        _fresh_engine(),
        workload,
        barrier=False,
        concurrency=concurrency,
        max_active=max_active,
        token_budget=budget,
        block_size=block_size,
        policy="fcfs",
    )
    report = ack["report"]
    served = sum(
        1 for d in dones.values() if d.get("type") == "done" and d.get("status") == "ok"
    )
    problems = check_wall_sanity(report, expect_n=served)
    if served != num_requests:
        problems.append(f"served {served}/{num_requests}")
    if ack["leaked_blocks"] != 0:
        problems.append(f"leaked {ack['leaked_blocks']} blocks")
    if report.get("wall_tokens_per_s", 0.0) <= 0:
        problems.append("no sustained wall throughput")
    return {
        "requests": float(num_requests),
        "concurrency": float(concurrency),
        "served": float(served),
        "leaked_blocks": ack["leaked_blocks"],
        "problems": problems,
        "wall_tokens_per_s": report.get("wall_tokens_per_s", 0.0),
        "wall_makespan_ms": report.get("wall_makespan_ms", 0.0),
        "p50_wall_ttft_ms": report.get("p50_wall_ttft_ms", 0.0),
        "p95_wall_ttft_ms": report.get("p95_wall_ttft_ms", 0.0),
        "p99_wall_ttft_ms": report.get("p99_wall_ttft_ms", 0.0),
        "p95_wall_tpot_ms": report.get("p95_wall_tpot_ms", 0.0),
        "p95_wall_queueing_ms": report.get("p95_wall_queueing_ms", 0.0),
        "round_throughput_tokens_per_round": report.get("throughput_tokens_per_round", 0.0),
    }


def test_async_parity():
    """Reduced parity workload: byte-identical outputs, identical report."""
    r = run_parity(num_requests=6, context=48, steps=8, budget=512, max_active=3)
    assert r["parity_ok"], (
        f"async/in-process divergence: digests={r['digest_mismatches']} "
        f"tokens={r['token_mismatches']} report={r['report_diffs']}"
    )
    assert r["leaked_blocks"] == 0
    assert not r["wall_problems"], r["wall_problems"]


def test_async_load_gates():
    """Reduced live load: wall columns populated, sane, zero leaks."""
    r = run_load(num_requests=8, steps=8, concurrency=3)
    assert not r["problems"], r["problems"]
    assert r["wall_tokens_per_s"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--load-requests", type=int, default=16)
    parser.add_argument("--rate", type=float, default=0.4)
    parser.add_argument("--context", type=int, default=64)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--head-dim", type=int, default=32)
    parser.add_argument("--budget", type=int, default=512)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--max-active", type=int, default=4)
    parser.add_argument("--concurrency", type=int, default=4)
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
        args.requests, args.load_requests = 6, 8
        args.context, args.steps, args.max_active = 48, 8, 3
        args.concurrency = 3

    parity = run_parity(
        args.requests, args.rate, args.context, args.steps, args.heads,
        args.head_dim, args.budget, args.block_size, args.max_active,
    )
    print(
        f"parity ({args.requests} requests over loopback, replay mode): "
        f"ok={parity['parity_ok']}  leaked={parity['leaked_blocks']}"
    )
    for key, value in parity["round_report"].items():
        print(f"  {key:32s}: {value:8.3f}")

    load = run_load(
        args.load_requests, args.context, args.steps, args.heads, args.head_dim,
        budget=max(args.budget, 1024), block_size=args.block_size,
        max_active=args.max_active, concurrency=args.concurrency,
    )
    print(
        f"\nclosed-loop load ({args.load_requests} requests, "
        f"concurrency {args.concurrency}):"
    )
    print(f"  sustained throughput     : {load['wall_tokens_per_s']:8.1f} tokens/s (wall)")
    print(f"  wall makespan            : {load['wall_makespan_ms']:8.1f} ms")
    print(
        f"  wall TTFT p50/p95/p99    : {load['p50_wall_ttft_ms']:.2f} / "
        f"{load['p95_wall_ttft_ms']:.2f} / {load['p99_wall_ttft_ms']:.2f} ms"
    )
    print(f"  wall TPOT p95            : {load['p95_wall_tpot_ms']:8.3f} ms/token")
    print(f"  wall queueing p95        : {load['p95_wall_queueing_ms']:8.2f} ms")

    assert parity["parity_ok"], (
        f"async/in-process divergence: {parity['digest_mismatches']} "
        f"{parity['token_mismatches']} {parity['report_diffs']}"
    )
    assert not parity["wall_problems"], parity["wall_problems"]
    assert not load["problems"], load["problems"]
    print(
        "\nPASS: loopback serving is byte-identical to in-process on the round "
        "clock, with sane measured wall-clock tails"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"parity": parity, "load": load}, fh, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
