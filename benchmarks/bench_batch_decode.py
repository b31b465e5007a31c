"""Cross-request batched decode benchmark: fused filter round vs loop.

Roofline-style sweep for ISSUE 6: the same decode workload — ``R`` active
requests with ragged context lengths, each advancing one token per round
— is served two ways on each kernel backend:

* **loop** — one ``engine.decode_step`` per active request per round,
  so every filter call is a one-request ``filter_heads`` (what a serve
  with ``max_active=1`` runs each round);
* **fused** — ``engine.decode_step_batch``, the round every served
  decode step runs: every request's K/V token is appended, then
  **one** cross-request ``filter_heads_batch`` call covers the whole
  ragged active set.

Time-per-round is measured at active-set sizes 1→32 (best of
``REPEATS`` runs per mode, fresh engines each run).  The default
workload is the regime cross-request fusion exists for — a busy decode
round over many modest per-request contexts at serving KV-head counts
(GQA models cache 2–8 KV heads; the engine's caches are shaped by
``num_kv_heads``), where the per-request path is dispatch-bound and the
fused round amortizes one dispatch across the set.  Growing ``--context``
moves every size toward the compute-bound roofline where both paths
converge on the same arithmetic and the ratio falls toward 1.

The script asserts (a) retained sets are byte-identical between the two
modes and across backends at every size, (b) on the fast backend the
fused round beats the loop at every active-set size >= 8, and (c) the
fused round is >= 3x faster at active-set 16 (the ISSUE 6 acceptance
bar).

    PYTHONPATH=src python benchmarks/bench_batch_decode.py [--context S] [--steps T]
    PYTHONPATH=src python benchmarks/bench_batch_decode.py --quick --json-out BENCH_batch_decode.json

``--quick`` shrinks the sweep for the CI perf-smoke job (same assertions,
less wall-clock) and ``--json-out`` archives the measured dict.  Also
runnable under pytest (the module-level test uses the reduced sweep).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core import PadeConfig
from repro.engine import PadeEngine
from repro.engine.cache import PagedBitPlaneKVCache, PlaneBlockPool
from repro.eval.workloads import build_engine_request

#: Ragged context pattern: request i's prompt is ``context +
#: RAGGED_STRIDE * (i % RAGGED_PERIOD)`` tokens — a bounded mix of
#: lengths, so the fused lattice always carries real padding but the
#: padded width doesn't grow with the active-set size (which would
#: conflate the roofline's x-axis with per-request problem size).
RAGGED_STRIDE = 5
RAGGED_PERIOD = 4

#: Timing repetitions per (backend, size, mode); the minimum is reported.
REPEATS = 3


def _requests(active, context, steps, num_heads, head_dim):
    return [
        build_engine_request(
            f"r{i}", num_heads, context + RAGGED_STRIDE * (i % RAGGED_PERIOD), steps,
            head_dim=head_dim, seed=200 + i,
        )
        for i in range(active)
    ]


def _prefilled_caches(engine, requests, block_size=16):
    """One paged cache per request, prefilled, over a shared pool."""
    first = np.asarray(requests[0].k)
    num_heads, _, head_dim = first.shape
    v_dim = np.asarray(requests[0].v).shape[2]
    budget = sum(
        block_size * -(-req.total_tokens // block_size) for req in requests
    )
    pool = PlaneBlockPool(
        num_heads, head_dim, v_dim, bits=engine.config.bits,
        block_size=block_size, token_budget=budget,
    )
    caches = []
    for req in requests:
        cache = PagedBitPlaneKVCache(pool)
        engine.prefill(cache, req.k, req.v, total_tokens=req.total_tokens)
        caches.append(cache)
    return caches


def _digest(retained_history):
    return b"".join(
        np.packbits(np.asarray(r, dtype=bool).astype(np.uint8)).tobytes()
        for r in retained_history
    )


def _run_loop(backend, requests, steps):
    """One per-request-loop run on a fresh engine; returns (time, retained, stats)."""
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    caches = _prefilled_caches(engine, requests)
    retained = [[] for _ in requests]
    t0 = time.perf_counter()
    for t in range(steps):
        for i, (cache, req) in enumerate(zip(caches, requests)):
            res = engine.decode_step(
                cache, req.decode_q[:, t, :], req.decode_k[:, t, :], req.decode_v[:, t, :]
            )
            retained[i].append(res.retained[:, 0, :])
    return time.perf_counter() - t0, retained, engine.stats


def _run_fused(backend, requests, steps):
    """One batched-round run on a fresh engine; returns (time, retained, stats)."""
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    caches = _prefilled_caches(engine, requests)
    retained = [[] for _ in requests]
    t0 = time.perf_counter()
    for t in range(steps):
        step_results = engine.decode_step_batch(
            [
                (cache, req.decode_q[:, t, :], req.decode_k[:, t, :], req.decode_v[:, t, :])
                for cache, req in zip(caches, requests)
            ]
        )
        for i, res in enumerate(step_results):
            retained[i].append(res.retained[:, 0, :])
    return time.perf_counter() - t0, retained, engine.stats


def measure_active_set(backend, active, context, steps, num_heads, head_dim):
    """Time `steps` decode rounds over `active` requests, loop vs fused.

    Each mode runs ``REPEATS`` times on fresh engines and reports its best
    wall-clock (single-shot timings on a shared box are too noisy to gate
    CI on); retained sets and stats are identical across repeats by
    construction, so parity is checked on the last run of each.
    """
    requests = _requests(active, context, steps, num_heads, head_dim)
    loop_s = fused_s = float("inf")
    for _ in range(REPEATS):
        t_loop, loop_retained, loop_stats = _run_loop(backend, requests, steps)
        t_fused, fused_retained, fused_stats = _run_fused(backend, requests, steps)
        loop_s = min(loop_s, t_loop)
        fused_s = min(fused_s, t_fused)

    retained_identical = all(
        _digest(a) == _digest(b) for a, b in zip(loop_retained, fused_retained)
    )
    # Shared filter counters must agree exactly — the fused round does the
    # same logical work, just in one dispatch.
    counters_identical = all(
        getattr(loop_stats, f) == getattr(fused_stats, f)
        for f in ("filter_calls", "bit_plane_loads", "effective_bit_ops",
                  "naive_bit_ops", "retained_keys", "candidate_keys")
    )
    return {
        "active": active,
        "loop_round_ms": 1e3 * loop_s / steps,
        "fused_round_ms": 1e3 * fused_s / steps,
        "speedup": loop_s / fused_s,
        "batch_efficiency": fused_stats.batch_efficiency,
        "batched_rounds": fused_stats.batched_rounds,
        "retained_identical": retained_identical,
        "counters_identical": counters_identical,
        "retained_digest": _digest(
            [r for hist in fused_retained for r in hist]
        ).hex()[:32],
    }


def run_roofline(active_sizes, context, steps, num_heads=2, head_dim=48,
                 backends=("fast", "reference")):
    """Sweep time-per-round vs active-set size on every backend."""
    out = {
        "active_sizes": list(active_sizes),
        "context": context,
        "steps": steps,
        "num_heads": num_heads,
        "head_dim": head_dim,
        "backends": {},
    }
    for backend in backends:
        out["backends"][backend] = [
            measure_active_set(backend, a, context, steps, num_heads, head_dim)
            for a in active_sizes
        ]
    _check(out)
    return out


def _check(out) -> None:
    """The acceptance assertions (raise AssertionError on regression)."""
    per_backend = out["backends"]
    for backend, rows in per_backend.items():
        for row in rows:
            assert row["retained_identical"], (
                f"{backend}: fused retained sets diverged from the loop "
                f"at active={row['active']}"
            )
            assert row["counters_identical"], (
                f"{backend}: fused stats diverged from the loop "
                f"at active={row['active']}"
            )
    names = list(per_backend)
    for other in names[1:]:
        for row_a, row_b in zip(per_backend[names[0]], per_backend[other]):
            assert row_a["retained_digest"] == row_b["retained_digest"], (
                f"retained sets differ between {names[0]} and {other} "
                f"at active={row_a['active']}"
            )
    fast = {row["active"]: row for row in per_backend.get("fast", [])}
    for active, row in fast.items():
        if active >= 8:
            assert row["speedup"] > 1.0, (
                f"fused round slower than the loop at active={active} "
                f"({row['speedup']:.2f}x)"
            )
    if 16 in fast:
        assert fast[16]["speedup"] >= 3.0, (
            f"fused speedup at active=16 is {fast[16]['speedup']:.1f}x < 3x"
        )


def test_fused_round_beats_loop():
    """Reduced sweep for the benchmark suite: same assertions, less time."""
    run_roofline((1, 8, 16), context=24, steps=8)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--context", type=int, default=24,
                        help="base prompt length (request i adds "
                        f"{RAGGED_STRIDE}*(i%%{RAGGED_PERIOD}) ragged tokens)")
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--heads", type=int, default=2,
                        help="KV heads per request (GQA serving caches "
                        "num_kv_heads, typically 2-8)")
    parser.add_argument("--head-dim", type=int, default=48)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep for CI perf-smoke (same assertions)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the measured results dict to this JSON file",
    )
    args = parser.parse_args()
    sizes = (1, 2, 4, 8, 16, 32)
    if args.quick:
        sizes = (1, 8, 16)

    print(f"batched decode roofline: {args.heads} KV heads, base context "
          f"{args.context} (+{RAGGED_STRIDE}*(i%{RAGGED_PERIOD}) ragged), "
          f"{args.steps} rounds, active sizes {sizes}")
    out = run_roofline(sizes, args.context, args.steps, args.heads, args.head_dim)
    for backend, rows in out["backends"].items():
        print(f"  [{backend}]")
        for row in rows:
            print(f"    active={row['active']:3d}  loop {row['loop_round_ms']:8.2f} ms/round"
                  f"  fused {row['fused_round_ms']:8.2f} ms/round"
                  f"  ({row['speedup']:4.1f}x, lattice {row['batch_efficiency']:.0%} full)")
    print("  PASS: fused == loop retention on every backend; fast backend "
          "fused round faster at active >= 8"
          + (", >= 3x at 16" if 16 in out["active_sizes"] else ""))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"  wrote {args.json_out}")


if __name__ == "__main__":
    main()
