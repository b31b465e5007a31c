"""Cluster smoke: boot N replica workers behind the router, stream a
shared-prefix workload through the closed-loop client, assert a clean
drain.

Exit code 0 requires: every request completed ``ok`` with a non-empty
token stream, its output/retained digests and every token digest equal
to an in-process :meth:`PadeEngine.serve` of the same workload, the
cluster shutdown ack reporting zero leaked pool blocks across all
replicas, no id in flight and every replica's router load at 0 after
the drain, and — under ``prefix`` routing — a nonzero cluster
prefix-hit count (the affinity index actually landed requests on warm
replicas).  Run by CI as::

    python -m repro.cluster.smoke --replicas 2 --routing prefix
"""

from __future__ import annotations

import argparse
import json

from repro.cluster.server import serve_workload_over_cluster
from repro.core.config import PadeConfig
from repro.engine import PadeEngine
from repro.eval.workloads import build_cluster_workload
from repro.serve.smoke import digest_failures

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cluster loopback smoke test.")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--routing", default="prefix",
                        choices=("prefix", "random", "least-loaded"))
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument("--per-group", type=int, default=4)
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    workload = build_cluster_workload(
        args.groups, args.per_group, 4, 32, 16, args.steps, 32,
        rate=0.5, seed=args.seed,
    )
    settings = dict(token_budget=1536, max_active=4, block_size=16, prefix_sharing=True)
    dones, ack, cluster = serve_workload_over_cluster(
        workload,
        replicas=args.replicas,
        routing=args.routing,
        barrier=False,
        concurrency=args.concurrency,
        seed=args.seed,
        **settings,
    )

    failures = []
    if len(dones) != len(workload):
        failures.append(f"expected {len(workload)} dones, got {len(dones)}")
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
    loads = {r: cluster.router.load(r) for r in cluster.replicas if cluster.router.load(r)}
    if cluster.in_flight or loads:
        failures.append(f"{cluster.in_flight} ids in flight, router loads {loads} after the drain")
    report = ack.get("report", {})
    if report.get("reporting_replicas", 0.0) < 1.0:
        failures.append("no replica produced a serving report")
    if args.routing == "prefix" and report.get("prefix_hit_blocks", 0.0) <= 0.0:
        failures.append("prefix routing produced zero cluster prefix hits")

    print(
        json.dumps(
            {
                "replicas": args.replicas,
                "routing": args.routing,
                "requests": len(dones),
                "leaked_blocks": ack.get("leaked_blocks"),
                "prefix_hit_blocks": report.get("prefix_hit_blocks"),
                "prefix_hit_rate": report.get("prefix_hit_rate"),
                "jain_replica_index": report.get("jain_replica_index"),
                "cluster_throughput_tokens_per_round": report.get(
                    "cluster_throughput_tokens_per_round"
                ),
                "failures": failures,
            },
            indent=2,
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
