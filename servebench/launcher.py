"""Server process of the serving benchmark.

Starts the repository's :class:`repro.serve.AsyncPadeServer` on a
loopback port with the settings given as one JSON object, prints
``ready <port>`` once it accepts connections, and serves until a client
sends ``shutdown``.  It then prints one JSON line: CPU and wall seconds
after set-up, peak RSS, the kernel backend, leaked pool blocks and the
engine/scheduler/pool counters.  With ``--trace`` the layers' public
calls are wrapped (see ``tracing.py``) and the spans ride along in that
line.  Run from the repository root::

    PYTHONPATH=src python3 servebench/launcher.py --config '{"max_active": 8}'
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time

from tracing import Tracer, install, span_cost


def _counters(server) -> dict:
    """Counts the engine, scheduler and pool made while serving."""
    stats = server.engine.stats
    scheduler = server.scheduler
    pool = scheduler.pool
    results = list(server.results.values())
    active = [a for _, _, a in scheduler.occupancy if a > 0]
    used = [u for _, u, a in scheduler.occupancy if a > 0]
    waits = [r.admit_time - r.arrival_time for r in results if r.admit_time is not None]
    hits, misses = scheduler.prefix_hit_blocks, scheduler.prefix_miss_blocks
    return {
        "bit_ops_ratio": stats.effective_bit_ops / max(1, stats.naive_bit_ops),
        "sparsity": stats.sparsity,
        "lattice_fill": stats.batch_efficiency,
        "rows_reused_share": stats.decomposition_reuse,
        "rounds": scheduler.time,
        "batch_mean": sum(active) / max(1, len(active)),
        "queue_rounds_mean": sum(waits) / max(1, len(waits)),
        "preemptions": sum(r.preemptions for r in results),
        "spills": pool.spill_events if pool is not None else 0,
        "restores": pool.restore_events if pool is not None else 0,
        "prefix_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        # Against the configured budget: a tiered pool's backing store is
        # larger than the budget it is held to.
        "occupancy_mean": sum(used) / (len(used) * scheduler.token_budget) if used else 0.0,
    }


def _peak_rss_mb() -> float:
    """This process's own peak RSS.

    ``ru_maxrss`` keeps the high-water mark of the address space a child
    was forked from, so a launcher started by a large parent would
    report the parent's peak.  ``VmHWM`` restarts at ``exec``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def _serve(config: dict, tracer) -> dict:
    from repro.core.config import PadeConfig
    from repro.engine import PadeEngine
    from repro.engine.cache import TierConfig
    from repro.serve import AsyncPadeServer

    settings = dict(config)
    tiering = settings.pop("tiering", None)
    engine = PadeEngine(PadeConfig.standard(), policy="pade")
    server = AsyncPadeServer(
        engine,
        host="127.0.0.1",
        port=0,
        tiering=TierConfig(**tiering) if tiering else None,
        **settings,
    )
    await server.start()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    print(f"ready {server.port}", flush=True)
    await server.wait_closed()
    out = {
        "cpu_s": time.process_time() - cpu0,
        "wall_s": time.perf_counter() - wall0,
        "peak_rss_mb": _peak_rss_mb(),
        "backend": engine.kernel.name,
        "leaked_blocks": server.leaked_blocks(),
        "counters": _counters(server),
    }
    if tracer is not None:
        out["spans"] = tracer.dump()
        out["span_cost_s"] = span_cost()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="server settings as one JSON object")
    parser.add_argument("--trace", action="store_true", help="record spans at layer boundaries")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    out = asyncio.run(_serve(json.loads(args.config), tracer))
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
