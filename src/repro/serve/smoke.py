"""Async-serve smoke: start a server, stream a small workload through
the closed-loop client over loopback, assert a clean shutdown.

Exit code 0 requires: every request accepted and completed ``ok`` with
a non-empty token stream, its output/retained digests and every token
digest equal to an in-process :meth:`PadeEngine.serve` of the same
workload (so every run checks that the binary submit frames are
lossless), the shutdown ack reporting zero leaked pool blocks, no id
left in flight after the drain, and wall-clock TTFT populated for every
request.  With
``--open-loop`` the workload instead replays each request's Poisson
arrival schedule against real wall-clock time (``--pace`` seconds per
round unit), and the makespan must additionally cover the paced
submission window — the standing paced-load scenario.  Run by CI as::

    python -m repro.serve.smoke --requests 6
    python -m repro.serve.smoke --requests 6 --open-loop --pace 0.02
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List

from repro.core.config import PadeConfig
from repro.engine import PadeEngine
from repro.eval.workloads import build_serving_workload
from repro.serve.client import serve_workload_over_loopback
from repro.serve.protocol import array_digest, result_digests

__all__ = ["digest_failures", "main"]


def digest_failures(dones: Dict[str, dict], results: Dict[str, object]) -> List[str]:
    """Where served ``dones`` differ from in-process ``results``: each
    request's output and retained digests, and its token stream, one
    digest per decode step in order."""
    failures = []
    for rid, res in sorted(results.items()):
        done = dones.get(rid, {})
        if any(done.get(key) != value for key, value in result_digests(res).items()):
            failures.append(f"{rid}: output/retained digest differs from in-process serve")
        streamed = [(tok["step"], tok["digest"]) for tok in done.get("tokens", [])]
        outputs = res.decode_outputs
        if streamed != [(t, array_digest(outputs[:, t, :])) for t in range(outputs.shape[1])]:
            failures.append(f"{rid}: token digests differ from in-process serve")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Async-serve loopback smoke test.")
    parser.add_argument("--requests", type=int, default=6)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--context", type=int, default=48)
    parser.add_argument("--budget", type=int, default=1536)
    parser.add_argument("--concurrency", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--open-loop", action="store_true",
        help="replay the workload's arrival schedule open-loop instead of "
        "running the closed-loop client",
    )
    parser.add_argument(
        "--pace", type=float, default=0.02,
        help="wall-clock seconds per arrival round unit (open-loop only)",
    )
    args = parser.parse_args(argv)

    workload = build_serving_workload(
        args.requests, 4, args.context, args.steps, 32, rate=0.5, seed=args.seed
    )
    settings = dict(max_active=4, token_budget=args.budget, block_size=16)
    pace = args.pace if args.open_loop else 0.0
    dones, ack, server = serve_workload_over_loopback(
        PadeEngine(PadeConfig.standard(), policy="pade"),
        workload,
        barrier=False,
        concurrency=args.concurrency,
        pace_s_per_round=pace,
        **settings,
    )

    failures = []
    if len(dones) != args.requests:
        failures.append(f"expected {args.requests} dones, got {len(dones)}")
    for rid, done in sorted(dones.items()):
        if done.get("type") != "done" or done.get("status") != "ok":
            failures.append(f"{rid}: not served ok ({done.get('type')}/{done.get('status')})")
        elif not done.get("tokens"):
            failures.append(f"{rid}: no streamed tokens")
    failures += digest_failures(
        dones, PadeEngine(PadeConfig.standard(), policy="pade").serve(workload, **settings)
    )
    if ack.get("leaked_blocks", -1) != 0:
        failures.append(f"leaked_blocks = {ack.get('leaked_blocks')}")
    if server.in_flight:
        failures.append(f"{server.in_flight} ids still in flight after the drain")
    report = ack.get("report", {})
    if report.get("n_wall_ttft_ms", 0.0) != float(args.requests):
        failures.append(f"wall TTFT series incomplete: {report.get('n_wall_ttft_ms')}")
    if pace > 0:
        # The paced replay must actually have taken wall-clock time: the
        # makespan (first submit -> last completion) covers at least the
        # paced span between the first and last arrivals.
        arrivals = [r.arrival_time for r in workload]
        floor_ms = (max(arrivals) - min(arrivals)) * pace * 1000.0
        if report.get("wall_makespan_ms", 0.0) < floor_ms:
            failures.append(
                f"paced makespan {report.get('wall_makespan_ms'):.1f}ms below "
                f"pacing floor {floor_ms:.1f}ms"
            )

    print(
        json.dumps(
            {
                "requests": len(dones),
                "leaked_blocks": ack.get("leaked_blocks"),
                "wall_makespan_ms": report.get("wall_makespan_ms"),
                "p95_wall_ttft_ms": report.get("p95_wall_ttft_ms"),
                "wall_tokens_per_s": report.get("wall_tokens_per_s"),
                "failures": failures,
            },
            indent=2,
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
