"""Policy benchmark: every sparse-attention method through one serving engine.

Acceptance workload (ISSUE 4): the same Poisson-arrival serving stream is
served by ``PadeEngine(policy=...)`` for every policy in
:data:`repro.attention.policy.POLICY_REGISTRY` — PADE's bit-plane filter
plus the converted software baselines (Quest, H2O, StreamingLLM,
MInference, double sparsity, top-k oracle) — with continuous batching
over the shared paged pool, so TTFT / TPOT / throughput / occupancy and
achieved sparsity are finally apples-to-apples across methods.

Two regression gates ride along:

* **PADE routing parity** — the policy-routed engine's outputs and
  retained sets are byte-identical to a manual prefill/append/attend
  loop that bypasses the policy layer entirely (the pre-refactor code
  path), on both kernel backends;
* **incremental == one-shot** — for each converted baseline, driving the
  incremental policy step by step through the engine reproduces the
  legacy one-shot function on a fixed seed: same retained mask rows,
  allclose outputs (H2O compares its decode loop; MInference its
  prefill-block selection, which is where its one pattern choice lives).

    PYTHONPATH=src python benchmarks/bench_policies.py [--requests N] [--budget B]
    PYTHONPATH=src python benchmarks/bench_policies.py --quick --json-out BENCH_policies.json

``--quick`` shrinks the workload for the CI perf-smoke job (same
assertions, less wall-clock) and ``--json-out`` archives the measured
dict as a build artifact.  Also runnable under pytest.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.attention.baselines import (
    double_sparsity_attention,
    h2o_decode,
    minference_attention,
    quest_attention,
    streaming_llm_attention,
    topk_oracle_attention,
)
from repro.attention.baselines.double_sparsity import (
    DoubleSparsityPolicy,
    select_heavy_channels,
)
from repro.attention.policy import available_policies, get_policy
from repro.core import PadeConfig
from repro.engine import PadeEngine, PagedBitPlaneKVCache, PlaneBlockPool
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_serving_workload


# ---------------------------------------------------------------------------
# Serving sweep: one workload, every policy
# ---------------------------------------------------------------------------

def policy_sweep(
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
    """Serve the same workload under every registered policy; tabulate."""
    rows = {}
    for name in available_policies():
        workload = build_serving_workload(
            num_requests, num_heads, context, steps, head_dim, rate=rate, seed=seed
        )
        engine = PadeEngine(PadeConfig.standard(), policy=name)
        results = engine.serve(
            workload,
            max_active=max_active,
            token_budget=budget,
            block_size=block_size,
        )
        scheduler = engine.last_serve
        report = summarize_serving(results.values(), scheduler=scheduler)
        rows[name] = {
            "mean_ttft": report["mean_ttft"],
            "p95_ttft": report["p95_ttft"],
            "mean_tpot": report["mean_tpot"],
            "throughput_tokens_per_round": report["throughput_tokens_per_round"],
            "mean_pool_occupancy": report.get("mean_pool_occupancy", 0.0),
            "peak_active_requests": report.get("peak_active_requests", 0.0),
            "preemptions": report["preemptions"],
            "policy_sparsity": report["policy_sparsity"],
            "policy_prediction_cost": report["policy_prediction_cost"],
            "policy_execution_cost": report["policy_execution_cost"],
            "policy_sparsity_level": report["policy_sparsity_level"],
        }
    return rows


# ---------------------------------------------------------------------------
# Gate (a): PADE policy routing is byte-identical to the direct kernel path
# ---------------------------------------------------------------------------

def _reference_pade(workload, backend):
    """Pre-refactor code path: solo caches + direct attend, no policy."""
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    out = {}
    for req in workload:
        num_heads, _, head_dim = np.asarray(req.k).shape
        cache = engine.new_cache(
            num_heads, head_dim, np.asarray(req.v).shape[2], req.total_tokens
        )
        cache.prefill(req.k, req.v)
        prefill = engine.attend(cache, req.q_prompt) if req.q_prompt is not None else None
        retained, outputs = [], []
        for t in range(req.decode_steps):
            cache.append(req.decode_k[:, t, :], req.decode_v[:, t, :])
            res = engine.attend(cache, np.asarray(req.decode_q[:, t, :])[:, None, :])
            retained.append(res.retained[:, 0, :])
            outputs.append(res.output[:, 0, :])
        out[req.request_id] = (
            b"".join(np.packbits(r.astype(np.uint8)).tobytes() for r in retained),
            np.stack(outputs, axis=1) if outputs else None,
            prefill.output if prefill is not None else None,
        )
    return out


def pade_routing_parity(
    num_requests: int = 6,
    context: int = 48,
    steps: int = 8,
    num_heads: int = 4,
    head_dim: int = 32,
    budget: int = 512,
    block_size: int = 16,
    max_active: int = 3,
    seed: int = 7,
) -> bool:
    """Policy-routed serve() == manual attend loop, both kernel backends."""
    for backend in ("fast", "reference"):
        workload = build_serving_workload(
            num_requests, num_heads, context, steps, head_dim, rate=0.35, seed=seed
        )
        engine = PadeEngine(PadeConfig.standard(), backend=backend, policy="pade")
        served = engine.serve(
            workload, max_active=max_active, token_budget=budget, block_size=block_size
        )
        reference = _reference_pade(workload, backend)
        for rid, (ret_bytes, outputs, prefill) in reference.items():
            res = served[rid]
            if res.retained_bytes() != ret_bytes:
                return False
            if outputs is not None and res.decode_outputs.tobytes() != outputs.tobytes():
                return False
            if prefill is not None and res.prefill_output.tobytes() != prefill.tobytes():
                return False
    return True


# ---------------------------------------------------------------------------
# Gate (b): each incremental baseline == its legacy one-shot function
# ---------------------------------------------------------------------------

def _decode_incremental(policy, k, v, q, prompt_len, block_size=16):
    """Single-head engine decode of ``q`` rows over a prompt + step stream.

    The cache's pool has ``block_size``-token blocks: Quest pages snap to
    them, so the Quest verdict passes its page size here.
    """
    steps, head_dim = q.shape
    engine = PadeEngine(PadeConfig.standard(), policy=policy)
    pool = PlaneBlockPool(
        1, head_dim, v.shape[1], block_size=block_size,
        token_budget=-(-k.shape[0] // block_size) * block_size,
    )
    cache = PagedBitPlaneKVCache(pool)
    engine.prefill(cache, k[None, :prompt_len], v[None, :prompt_len],
                   total_tokens=k.shape[0])
    masks, outputs = [], []
    for t in range(steps):
        res = engine.decode_step(
            cache, q[None, t], k[None, prompt_len + t], v[None, prompt_len + t]
        )
        masks.append(res.retained[0, 0])
        outputs.append(res.output[0, 0])
    return masks, outputs


def _rows_match(masks, outputs, legacy, prompt_len):
    for t, (mask, out) in enumerate(zip(masks, outputs)):
        visible = prompt_len + t + 1
        if not np.array_equal(mask, legacy.retained[t, :visible]):
            return False
        if legacy.retained[t, visible:].any():
            return False
        if not np.allclose(out, legacy.output[t]):
            return False
    return True


def baseline_parity(seed: int = 42, prompt_len: int = 37, steps: int = 9,
                    head_dim: int = 16) -> dict:
    """Incremental-vs-one-shot parity verdict per converted baseline."""
    rng = np.random.default_rng(seed)
    total = prompt_len + steps
    k = rng.normal(size=(total, head_dim))
    v = rng.normal(size=(total, head_dim))
    q = rng.normal(size=(steps, head_dim))
    verdicts = {}

    masks, outs = _decode_incremental(
        get_policy("streaming-llm", keep_fraction=0.3), k, v, q, prompt_len
    )
    verdicts["streaming-llm"] = _rows_match(
        masks, outs, streaming_llm_attention(q, k, v, 0.3), prompt_len
    )

    masks, outs = _decode_incremental(
        get_policy("topk-oracle", keep_fraction=0.3), k, v, q, prompt_len
    )
    verdicts["topk-oracle"] = _rows_match(
        masks, outs, topk_oracle_attention(q, k, v, 0.3), prompt_len
    )

    masks, outs = _decode_incremental(
        get_policy("quest", keep_fraction=0.3, page_size=8), k, v, q, prompt_len, block_size=8
    )
    verdicts["quest"] = _rows_match(
        masks, outs, quest_attention(q, k, v, 0.3, page_size=8), prompt_len
    )

    channels = select_heavy_channels(k, 0.25)
    masks, outs = _decode_incremental(
        DoubleSparsityPolicy(0.3, 0.25, channels=channels), k, v, q, prompt_len
    )
    verdicts["double-sparsity"] = _rows_match(
        masks, outs,
        double_sparsity_attention(q, k, v, 0.3, channel_fraction=0.25, channels=channels),
        prompt_len,
    )

    legacy_out, _, _ = h2o_decode(q, k, v, budget_fraction=0.4, recent_tokens=4)
    _, outs = _decode_incremental(
        get_policy("h2o", budget_fraction=0.4, recent_tokens=4), k, v, q, prompt_len
    )
    verdicts["h2o"] = all(np.allclose(outs[t], legacy_out[t]) for t in range(steps))

    policy = get_policy("minference", keep_fraction=0.3)
    legacy = minference_attention(q, k, v, 0.3)
    verdicts["minference"] = bool(
        np.array_equal(policy.one_shot_mask(q, k), legacy.retained)
    )
    return verdicts


# ---------------------------------------------------------------------------
# pytest entry points (reduced workloads, same assertions)
# ---------------------------------------------------------------------------

def test_pade_policy_routing_byte_identical():
    assert pade_routing_parity(num_requests=4, context=32, steps=6, budget=384)


def test_incremental_baselines_match_one_shot():
    verdicts = baseline_parity()
    assert all(verdicts.values()), f"parity failed: {verdicts}"


def test_bounded_policies_admit_more_requests():
    """H2O's charged footprint packs more concurrency than dense PADE."""
    def serve_peak(policy):
        workload = build_serving_workload(6, 2, 32, 8, 16, rate=2.0, seed=4)
        engine = PadeEngine(PadeConfig.standard(), policy=policy)
        engine.serve(workload, max_active=6, token_budget=128, block_size=8)
        return max(active for _, _, active in engine.last_serve.occupancy)

    assert serve_peak("h2o") > serve_peak("pade")


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
        f"policy sweep: {args.requests} requests, Poisson rate {args.rate}/round, "
        f"{args.context}-token prompts, {args.steps} decode steps, "
        f"budget {args.budget} tokens / blocks of {args.block_size}"
    )
    rows = policy_sweep(
        args.requests, args.rate, args.context, args.steps, args.heads,
        args.head_dim, args.budget, args.block_size, args.max_active,
    )
    header = (
        f"  {'policy':16s} {'TTFT':>6s} {'p95':>6s} {'TPOT':>5s} {'tok/rd':>6s} "
        f"{'occ':>5s} {'peak':>4s} {'spars':>6s} {'pred':>5s} {'level':>6s}"
    )
    print(header)
    for name, r in sorted(rows.items()):
        print(
            f"  {name:16s} {r['mean_ttft']:6.2f} {r['p95_ttft']:6.2f} "
            f"{r['mean_tpot']:5.2f} {r['throughput_tokens_per_round']:6.2f} "
            f"{r['mean_pool_occupancy']:5.0%} {r['peak_active_requests']:4.0f} "
            f"{r['policy_sparsity']:6.3f} {r['policy_prediction_cost']:5.2f} "
            f"{r['policy_sparsity_level']:6.3f}"
        )

    routing_ok = pade_routing_parity(
        args.requests, args.context, args.steps, args.heads, args.head_dim,
        args.budget, args.block_size, args.max_active,
    )
    print(f"  PADE routing byte-identical (both backends): {routing_ok}")
    verdicts = baseline_parity()
    print(f"  incremental == one-shot: {verdicts}")

    assert routing_ok, "policy routing changed the PADE engine's bytes"
    assert all(verdicts.values()), f"incremental/one-shot parity failed: {verdicts}"
    print("\nPASS: every policy served; PADE bytes pinned; baselines match one-shot")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(
                {"sweep": rows, "pade_routing_parity": routing_ok,
                 "baseline_parity": verdicts},
                fh, indent=2,
            )
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
