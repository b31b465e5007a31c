"""Command-line interface: regenerate any paper experiment from the shell.

    python -m repro.cli list                 # show available experiments
    python -m repro.cli fig14                # regenerate one figure's data
    python -m repro.cli table2 --json        # machine-readable output
    python -m repro.cli all                  # run everything (slow)
    python -m repro.cli engine               # serving-engine decode profile
    python -m repro.cli serve --rate 0.5 --budget 2048 --policy fcfs
    python -m repro.cli fig4 --backend reference   # pick the kernel backend

``--backend`` selects the fused-filter kernel implementation for the whole
run (``reference`` = Python-loop kernels, ``fast`` = round-vectorized;
results are identical, only wall-clock differs).  Without the flag the
``$REPRO_BACKEND`` environment variable, then the registry default
(``fast``), applies — see :mod:`repro.core.backend`.

The ``serve`` experiment additionally honors ``--rate`` (mean Poisson
arrivals per decode round), ``--budget`` (global KV token budget of the
paged plane pool), ``--sched-policy``/``--policy`` (scheduling policy:
``fcfs`` / ``shortest-prompt`` / ``priority`` / ``edf`` / ``fair``),
``--scenario`` (a named scenario workload — ``bursty`` / ``diurnal`` /
``heavy_tail`` / ``multi_tenant``), ``--tenants`` (tenant count of the
multi-tenant mix), ``--attention`` (the attention policy served
through the engine — PADE or any registered sparse baseline; choices
come from :data:`repro.attention.policy.POLICY_REGISTRY`),
``--prefix-sharing`` (hash-based copy-on-write prompt-prefix sharing on
a shared-system-prompt workload), ``--round-tokens`` (tokens one decode
round can process — activates the prefill cost model), ``--chunk``
(chunked prefill: per-request, per-round prompt chunk size; requires
``--round-tokens``), ``--async`` / ``--port`` (serve the same
workload through the asyncio loopback front-end in
:mod:`repro.serve`: the round-clock report is identical, and measured
wall-clock TTFT/TPOT/queueing columns are added), and ``--replicas`` /
``--routing`` (shard the workload over N engine worker subprocesses
behind the prefix-affinity router in :mod:`repro.cluster`; the report
becomes the cluster roll-up with ``cluster_throughput_tokens_per_round``
and ``jain_replica_index``).  ``--speculative`` / ``--draft-policy`` /
``--draft-tokens`` turn on draft-verify
speculative decoding (a draftable policy proposes tokens on a
copy-on-write forked cache, the PADE verifier accepts a prefix per
round), and ``--parallel-samples N`` serves n-best parallel sampling
(N decode lineages forked off one shared prefill).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.attention.policy import available_draft_policies, available_policies
from repro.cluster.router import ROUTING_MODES
from repro.core.backend import available_backends, set_default_backend
from repro.engine import SCHEDULING_POLICIES
from repro.eval import harness as H
from repro.eval.workloads import SCENARIO_KINDS

#: experiment id -> (callable, one-line description)
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (H.table1_features, "Table I: accelerator feature matrix"),
    "table2": (H.table2_accuracy, "Table II: accuracy across 22 benchmarks"),
    "table3": (H.table3_config, "Table III: PADE hardware configuration"),
    "fig2": (H.fig2_power_breakdown, "Fig.2a: predictor/executor power split"),
    "fig2b": (H.fig2_ratio_vs_seqlen, "Fig.2b: predictor ratio vs sequence length"),
    "fig4": (H.fig4_bsf_reduction, "Fig.4c: BSF vs stage-splitting reductions"),
    "fig5": (H.fig5_untiled_memory, "Fig.5f: untiled memory growth"),
    "fig10": (H.fig10_max_update_overhead, "Fig.10b: head-tail interleaving"),
    "fig14": (H.fig14_comp_mem, "Fig.14: computation/memory across models"),
    "fig15": (H.fig15_accuracy_vs_sparsity, "Fig.15ab: accuracy vs sparsity level"),
    "fig15c": (H.fig15_speedup_energy, "Fig.15c: gains vs software methods"),
    "fig16": (H.fig16_ablation, "Fig.16a: technique ablation"),
    "fig16b": (H.fig16_alpha_tradeoff, "Fig.16b: alpha trade-off"),
    "fig17": (H.fig17_gsat_dse, "Fig.17a: GSAT sub-group DSE"),
    "fig17b": (H.fig17_scoreboard_dse, "Fig.17b: scoreboard DSE"),
    "fig18": (H.fig18_bit_overhead, "Fig.18a: bit-serial overhead"),
    "fig18b": (H.fig18_gpu_comparison, "Fig.18b: PADE vs H100"),
    "fig19": (H.fig19_gain_breakdown, "Fig.19: gain waterfall"),
    "fig20": (H.fig20_area_power, "Fig.20: area/power breakdown"),
    "fig21": (H.fig21_sota_comparison, "Fig.21: SOTA comparison"),
    "fig23": (H.fig23_workload_balance, "Fig.23a: workload balance vs BitWave"),
    "fig23b": (H.fig23_bandwidth, "Fig.23b: bandwidth utilization"),
    "fig24": (H.fig24_system_integration, "Fig.24: GPU+PADE system"),
    "fig25": (H.fig25_mx_example, "Fig.25: MX-format BUI"),
    "fig26": (H.fig26_quantization, "Fig.26a: quantization variants"),
    "fig26b": (H.fig26_decoding, "Fig.26b: long-sequence decoding"),
    "engine": (H.engine_decode_profile, "Serving engine: cached-plane decode profile"),
    "serve": (H.serving_profile, "Serving: continuous batching over the paged plane pool"),
}


def _render(obj, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _render(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v)}")
    elif isinstance(obj, list):
        for v in obj:
            _render(v, indent) if isinstance(v, (dict, list)) else print(f"{pad}- {_fmt(v)}")
    else:
        print(f"{pad}{_fmt(obj)}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _to_jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate PADE (HPCA'26) paper experiments."
    )
    parser.add_argument("experiment", help="experiment id, 'list', or 'all'")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="fused-filter kernel backend (default: $REPRO_BACKEND or 'fast'); "
        "backends are result-identical, only speed differs",
    )
    serve_group = parser.add_argument_group("serve", "flags for the 'serve' experiment")
    serve_group.add_argument(
        "--rate", type=float, default=0.4,
        help="mean Poisson request arrivals per decode round (serve only)",
    )
    serve_group.add_argument(
        "--budget", type=int, default=1536,
        help="global KV token budget of the paged plane pool (serve only)",
    )
    serve_group.add_argument(
        "--policy", "--sched-policy", choices=SCHEDULING_POLICIES, default="fcfs",
        help="scheduling policy of the continuous scheduler: admission "
        "ordering + preemption victim selection (serve only)",
    )
    serve_group.add_argument(
        "--scenario", choices=SCENARIO_KINDS, default=None,
        help="serve a named scenario workload instead of the plain "
        "Poisson stream (serve only)",
    )
    serve_group.add_argument(
        "--tenants", type=int, default=3,
        help="tenant count of the multi_tenant scenario mix (serve only)",
    )
    serve_group.add_argument(
        "--attention", choices=available_policies(), default="pade",
        help="attention policy served through the engine: PADE or any "
        "registered sparse-attention baseline (serve only)",
    )
    serve_group.add_argument(
        "--prefix-sharing", action="store_true",
        help="content-hash copy-on-write prefix sharing over a "
        "shared-system-prompt workload (serve only)",
    )
    serve_group.add_argument(
        "--chunk", type=int, default=0,
        help="chunked prefill: prompt tokens per request per round; "
        "0 = unchunked (serve only, needs --round-tokens)",
    )
    serve_group.add_argument(
        "--round-tokens", type=int, default=0,
        help="tokens one decode round can process — activates the prefill "
        "cost model; 0 = legacy instant prefill (serve only)",
    )
    serve_group.add_argument(
        "--async", dest="async_serve", action="store_true",
        help="serve the workload through the asyncio loopback front-end "
        "(repro.serve): identical round-clock report plus measured "
        "wall-clock TTFT/TPOT columns (serve only)",
    )
    serve_group.add_argument(
        "--port", type=int, default=0,
        help="listening port of the async front-end; 0 = ephemeral "
        "(serve only, needs --async)",
    )
    serve_group.add_argument(
        "--replicas", type=int, default=1,
        help="shard the workload over N engine worker subprocesses behind "
        "the prefix-affinity router (repro.cluster); 1 = single in-process "
        "engine (serve only)",
    )
    serve_group.add_argument(
        "--tiering", action="store_true",
        help="two-tier bit-plane KV memory: spill low-order planes of "
        "cold blocks under pressure instead of preempting; PADE "
        "attention only (serve only)",
    )
    serve_group.add_argument(
        "--tier-min-planes", type=int, default=2,
        help="residency floor: planes a block keeps resident even fully "
        "spilled (serve only, needs --tiering)",
    )
    serve_group.add_argument(
        "--tier-restore-blocks", type=int, default=4,
        help="prefetch-restore cap: degraded blocks restored per decode "
        "round (serve only, needs --tiering)",
    )
    serve_group.add_argument(
        "--speculative", action="store_true",
        help="draft-verify speculative decoding: a cheap draftable policy "
        "proposes tokens on a COW-forked cache, the PADE verifier accepts "
        "a prefix per round; served on a draft-friendly workload; PADE "
        "attention only (serve only)",
    )
    serve_group.add_argument(
        "--parallel-samples", type=int, default=1,
        help="n-best parallel sampling: fork every request into N decode "
        "lineages off one shared prefill; PADE attention only (serve only)",
    )
    serve_group.add_argument(
        "--draft-policy", choices=available_draft_policies(), default="streaming-llm",
        help="draft proposer policy for --speculative; only stateless / "
        "rollback-sound policies are draftable (serve only)",
    )
    serve_group.add_argument(
        "--draft-tokens", type=int, default=4,
        help="draft depth: tokens proposed per speculative round "
        "(serve only, needs --speculative)",
    )
    serve_group.add_argument(
        "--routing", choices=ROUTING_MODES, default="prefix",
        help="replica routing mode: 'prefix' matches chained prompt block "
        "keys against each replica's key index, 'random' and "
        "'least-loaded' are the control arms (serve only, needs "
        "--replicas > 1)",
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        set_default_backend(args.backend)

    if args.experiment == "list":
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:8s} {desc}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if any(n not in EXPERIMENTS for n in names):
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2

    for name in names:
        fn, desc = EXPERIMENTS[name]
        kwargs = (
            {
                "rate": args.rate,
                "budget": args.budget,
                "policy": args.policy,
                "attention": args.attention,
                "prefix_sharing": args.prefix_sharing,
                "chunk": args.chunk,
                "round_tokens": args.round_tokens,
                "scenario": args.scenario,
                "tenants": args.tenants,
                "async_serve": args.async_serve,
                "port": args.port,
                "replicas": args.replicas,
                "routing": args.routing,
                "tiering": args.tiering,
                "tier_min_planes": args.tier_min_planes,
                "tier_restore_blocks": args.tier_restore_blocks,
                "speculative": args.speculative,
                "parallel_samples": args.parallel_samples,
                "draft_policy": args.draft_policy,
                "draft_tokens": args.draft_tokens,
            }
            if name == "serve"
            else {}
        )
        # perf_counter, not time.time: monotonic, so the elapsed span
        # cannot go negative under an NTP clock adjustment.
        t0 = time.perf_counter()
        data = fn(**kwargs)
        elapsed = time.perf_counter() - t0
        if args.json:
            print(json.dumps({name: _to_jsonable(data)}, indent=2))
        else:
            print(f"\n### {desc}  ({elapsed:.1f}s)")
            _render(data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
