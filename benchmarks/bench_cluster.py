"""Cluster benchmark: sharded multi-replica serving vs a single replica.

Three measurements (ISSUE 8):

* **scaling** — the same shared-prefix workload served in deterministic
  replay mode on 1 replica and on N replicas behind the prefix-affinity
  router, with identical per-replica budgets.  Replicas are independent
  concurrent engines, so the cluster makespan is the *max* per-replica
  round count and aggregate throughput is total tokens over that clock.
  Gate: N-replica aggregate throughput >= 2.5x the single replica.
* **affinity** — prefix-hit-rate under affinity routing vs the honest
  single-replica baseline (one replica scaled *up* to the cluster's
  aggregate ``max_active`` and token budget — a tight single replica
  thrashes interleaved families and hits 0%) and vs ``random`` routing
  (which scatters each family across replicas).  Gates: affinity hit
  rate within 0.10 of the scale-up baseline, and strictly above random.
* **failure** — live mode, N replicas; the busiest replica is hard-killed
  mid-load.  Gates: every request is settled (``ok`` or a synthesized
  ``abort_reason="replica_lost"`` done), at least one request is
  re-routed or aborted, exactly one replica reported lost, and the
  surviving pools leak zero blocks at drain.

    PYTHONPATH=src python benchmarks/bench_cluster.py [--replicas N] [--per-group G]
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick --json-out BENCH_cluster.json

``--quick`` shrinks the workload for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` archives the measured
dict.  Also runnable under pytest (module-level tests use a reduced
2-replica workload).
"""

from __future__ import annotations

import argparse
import asyncio
import json

from repro.cluster.server import ClusterServer, serve_workload_over_cluster
from repro.eval.workloads import build_cluster_workload
from repro.serve.client import ServeConnection

WORKER_KWARGS = dict(token_budget=1536, max_active=4, block_size=16, prefix_sharing=True)


def _workload(groups, per_group, steps, rate, seed):
    return build_cluster_workload(
        groups, per_group, 4, 32, 16, steps, 32, rate=rate, seed=seed
    )


def _replay(workload, replicas, routing, seed, **worker_kwargs):
    """One deterministic-replay cluster run; returns (report, problems)."""
    kwargs = {**WORKER_KWARGS, **worker_kwargs}
    dones, ack, _ = serve_workload_over_cluster(
        workload, replicas=replicas, routing=routing, barrier=True, seed=seed, **kwargs
    )
    problems = []
    not_ok = [
        rid
        for rid, d in dones.items()
        if d.get("type") != "done" or d.get("status") != "ok"
    ]
    if len(dones) != len(workload):
        problems.append(f"{len(dones)}/{len(workload)} dones")
    if not_ok:
        problems.append(f"not served ok: {sorted(not_ok)[:4]}")
    if ack.get("leaked_blocks", -1) != 0:
        problems.append(f"leaked {ack.get('leaked_blocks')} blocks")
    return ack.get("report", {}), problems


def run_scaling(
    groups: int = 4,
    per_group: int = 12,
    steps: int = 10,
    rate: float = 3.0,
    replicas: int = 4,
    seed: int = 11,
    min_speedup: float = 2.5,
):
    """1 vs N replicas, identical per-replica budgets, replay mode."""
    workload = _workload(groups, per_group, steps, rate, seed)
    single, p1 = _replay(workload, 1, "prefix", seed)
    multi, pn = _replay(workload, replicas, "prefix", seed)
    thr_1 = single.get("cluster_throughput_tokens_per_round", 0.0)
    thr_n = multi.get("cluster_throughput_tokens_per_round", 0.0)
    ratio = thr_n / thr_1 if thr_1 > 0 else 0.0
    problems = [f"1x: {p}" for p in p1] + [f"{replicas}x: {p}" for p in pn]
    if ratio < min_speedup:
        problems.append(f"throughput ratio {ratio:.2f} < {min_speedup}")
    return {
        "requests": float(groups * per_group),
        "replicas": float(replicas),
        "throughput_1x": thr_1,
        "throughput_nx": thr_n,
        "throughput_ratio": ratio,
        "makespan_1x": single.get("cluster_makespan_rounds", 0.0),
        "makespan_nx": multi.get("cluster_makespan_rounds", 0.0),
        "jain_replica_index": multi.get("jain_replica_index", 0.0),
        "problems": problems,
    }


def run_affinity(
    groups: int = 4,
    per_group: int = 12,
    steps: int = 10,
    rate: float = 3.0,
    replicas: int = 4,
    seed: int = 11,
    max_hit_drop: float = 0.10,
):
    """Prefix-hit-rate: affinity vs scale-up single replica vs random."""
    workload = _workload(groups, per_group, steps, rate, seed)
    # The honest baseline: one replica with the cluster's aggregate
    # capacity, so interleaved families are not evicted between
    # same-family admissions by a tight max_active.
    scaleup, p0 = _replay(
        workload, 1, "prefix", seed,
        token_budget=WORKER_KWARGS["token_budget"] * replicas,
        max_active=WORKER_KWARGS["max_active"] * replicas,
    )
    affinity, p1 = _replay(workload, replicas, "prefix", seed)
    rand, p2 = _replay(workload, replicas, "random", seed)
    hit_scaleup = scaleup.get("prefix_hit_rate", 0.0)
    hit_affinity = affinity.get("prefix_hit_rate", 0.0)
    hit_random = rand.get("prefix_hit_rate", 0.0)
    problems = (
        [f"scale-up: {p}" for p in p0]
        + [f"affinity: {p}" for p in p1]
        + [f"random: {p}" for p in p2]
    )
    if hit_affinity < hit_scaleup - max_hit_drop:
        problems.append(
            f"affinity hit {hit_affinity:.3f} more than {max_hit_drop} below "
            f"scale-up single replica {hit_scaleup:.3f}"
        )
    if hit_affinity <= hit_random:
        problems.append(
            f"affinity hit {hit_affinity:.3f} <= random routing {hit_random:.3f}"
        )
    return {
        "requests": float(groups * per_group),
        "replicas": float(replicas),
        "hit_scaleup_1x": hit_scaleup,
        "hit_affinity": hit_affinity,
        "hit_random": hit_random,
        "throughput_affinity": affinity.get("cluster_throughput_tokens_per_round", 0.0),
        "throughput_random": rand.get("cluster_throughput_tokens_per_round", 0.0),
        "problems": problems,
    }


async def _failure_flow(workload, replicas, kill_after, seed, worker_kwargs):
    cluster = ClusterServer(
        replicas=replicas,
        routing="prefix",
        queue_limit=max(len(workload), 1),
        seed=seed,
        **worker_kwargs,
    )
    await cluster.start()
    try:
        conn = await ServeConnection.open(cluster.host, cluster.port)
        try:
            accepted = []
            for request in workload:
                reply = await conn.submit(request, arrival="now")
                if reply["type"] == "accepted":
                    accepted.append(request.request_id)
            dones = {}
            victim = None
            pending = {
                asyncio.ensure_future(conn.result(rid)): rid for rid in accepted
            }
            while pending:
                finished, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for fut in finished:
                    dones[pending.pop(fut)] = fut.result()
                if victim is None and len(dones) >= kill_after:
                    live = [r for r, h in cluster.replicas.items() if h.alive]
                    victim = max(live, key=cluster.router.load)
                    await cluster.kill_replica(victim)
            ack = await conn.shutdown()
        finally:
            await conn.close()
    finally:
        await cluster.stop()
    return dones, ack, victim


def run_failure(
    groups: int = 3,
    per_group: int = 6,
    steps: int = 8,
    replicas: int = 3,
    kill_after: int = 3,
    seed: int = 5,
):
    """Kill the busiest replica mid-load; every request must settle."""
    workload = _workload(groups, per_group, steps, 0.5, seed)
    dones, ack, victim = asyncio.run(
        _failure_flow(workload, replicas, kill_after, seed, dict(WORKER_KWARGS))
    )
    ok = sum(
        1 for d in dones.values() if d.get("type") == "done" and d.get("status") == "ok"
    )
    lost = sum(1 for d in dones.values() if d.get("abort_reason") == "replica_lost")
    rerouted = int(ack.get("rerouted_requests", 0))
    problems = []
    if len(dones) != len(workload):
        problems.append(f"{len(dones)}/{len(workload)} requests settled")
    if ok + lost != len(dones):
        problems.append(f"unaccounted statuses: ok={ok} replica_lost={lost}")
    if ack.get("leaked_blocks", -1) != 0:
        problems.append(f"survivors leaked {ack.get('leaked_blocks')} blocks")
    if len(ack.get("lost_replicas", [])) != 1:
        problems.append(f"lost_replicas = {ack.get('lost_replicas')}")
    if rerouted + lost < 1:
        problems.append("victim had no in-flight work: nothing rerouted or aborted")
    return {
        "requests": float(len(workload)),
        "replicas": float(replicas),
        "victim": victim,
        "ok": float(ok),
        "replica_lost_aborts": float(lost),
        "rerouted_requests": float(rerouted),
        "leaked_blocks": float(ack.get("leaked_blocks", -1)),
        "problems": problems,
    }


def test_cluster_scaling():
    """Reduced 2-replica scaling run: clean serves, >= 1.3x aggregate."""
    r = run_scaling(groups=2, per_group=6, steps=8, replicas=2, min_speedup=1.3)
    assert not r["problems"], r["problems"]


def test_cluster_affinity():
    """Reduced affinity comparison: hit rate survives sharding."""
    r = run_affinity(groups=2, per_group=6, steps=8, replicas=2)
    assert not r["problems"], r["problems"]


def test_cluster_failure():
    """Reduced kill scenario: all settled, zero survivor leaks."""
    r = run_failure(groups=2, per_group=4, steps=6, replicas=2, kill_after=2)
    assert not r["problems"], r["problems"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", type=int, default=4)
    parser.add_argument("--per-group", type=int, default=16)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--rate", type=float, default=3.0)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
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
        args.per_group = 12

    scaling = run_scaling(
        args.groups, args.per_group, args.steps, args.rate, args.replicas, args.seed
    )
    print(
        f"scaling ({args.groups}x{args.per_group} shared-prefix requests, "
        f"replay mode):"
    )
    print(f"  1 replica throughput     : {scaling['throughput_1x']:8.3f} tokens/round")
    print(
        f"  {args.replicas} replica throughput     : "
        f"{scaling['throughput_nx']:8.3f} tokens/round"
    )
    print(f"  aggregate speedup        : {scaling['throughput_ratio']:8.2f}x")
    print(f"  jain over replica tokens : {scaling['jain_replica_index']:8.3f}")

    affinity = run_affinity(
        args.groups, args.per_group, args.steps, args.rate, args.replicas, args.seed
    )
    print("\nprefix-hit-rate under sharding:")
    print(f"  scale-up single replica  : {affinity['hit_scaleup_1x']:8.3f}")
    print(f"  {args.replicas} replicas, affinity    : {affinity['hit_affinity']:8.3f}")
    print(f"  {args.replicas} replicas, random      : {affinity['hit_random']:8.3f}")

    failure = run_failure(replicas=min(3, args.replicas), seed=args.seed)
    print(f"\nreplica failure (killed {failure['victim']} mid-load):")
    print(f"  settled ok / replica_lost: {failure['ok']:.0f} / "
          f"{failure['replica_lost_aborts']:.0f}")
    print(f"  rerouted requests        : {failure['rerouted_requests']:.0f}")
    print(f"  survivor leaked blocks   : {failure['leaked_blocks']:.0f}")

    assert not scaling["problems"], scaling["problems"]
    assert not affinity["problems"], affinity["problems"]
    assert not failure["problems"], failure["problems"]
    print(
        f"\nPASS: {args.replicas}-replica sharding scales "
        f"{scaling['throughput_ratio']:.2f}x on the round clock and affinity "
        "routing preserves the single-replica prefix hit rate"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(
                {"scaling": scaling, "affinity": affinity, "failure": failure},
                fh,
                indent=2,
            )
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
