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

The ``serve`` experiment (continuous batching over the paged plane pool,
:func:`repro.eval.harness.serving_profile`) takes the flags of the
``serve`` group in ``--help``; a flag left out keeps that function's
default.
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
from repro.engine.scheduler import REFUSED_MODE_PAIRS
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
    refused = "; ".join(" x ".join(pair) for pair in REFUSED_MODE_PAIRS)
    serve_group = parser.add_argument_group(
        "serve",
        "flags for the 'serve' experiment; refused mode pairs (baseline = "
        f"any --attention but pade): {refused}",
        argument_default=argparse.SUPPRESS,
    )
    serve_flags = []

    def serve_flag(*names, **kwargs) -> None:
        serve_flags.append(serve_group.add_argument(*names, **kwargs))

    serve_flag("--rate", type=float, help="mean Poisson request arrivals per decode round")
    serve_flag("--budget", type=int, help="global KV token budget of the paged plane pool")
    serve_flag(
        "--policy", "--sched-policy", choices=SCHEDULING_POLICIES,
        help="scheduling policy: admission ordering + preemption victim selection",
    )
    serve_flag(
        "--scenario", choices=SCENARIO_KINDS,
        help="serve a named scenario workload instead of the plain Poisson stream",
    )
    serve_flag("--tenants", type=int, help="tenant count of the multi_tenant scenario mix")
    serve_flag(
        "--attention", choices=available_policies(),
        help="attention policy: PADE or any registered sparse-attention baseline",
    )
    serve_flag(
        "--prefix-sharing", action="store_true",
        help="content-hash copy-on-write prefix sharing over a shared-system-prompt "
        "workload (the pool knob only under --scenario/--speculative/--parallel-samples)",
    )
    serve_flag(
        "--chunk", type=int,
        help="chunked prefill: prompt tokens per request per round (needs --round-tokens)",
    )
    serve_flag(
        "--round-tokens", type=int,
        help="tokens one decode round can process; activates the prefill cost model",
    )
    serve_flag(
        "--async", dest="async_serve", action="store_true",
        help="serve through the asyncio loopback front-end (repro.serve): identical "
        "round-clock report plus measured wall-clock TTFT/TPOT columns",
    )
    serve_flag(
        "--port", type=int, help="async front-end port; 0 = ephemeral (needs --async)"
    )
    serve_flag(
        "--replicas", type=int,
        help="shard the workload over N engine worker subprocesses behind the "
        "prefix-affinity router (repro.cluster)",
    )
    serve_flag(
        "--tiering", action="store_true",
        help="two-tier bit-plane KV memory: spill low-order planes of cold blocks "
        "under pressure instead of preempting",
    )
    serve_flag(
        "--tier-min-planes", type=int,
        help="planes a block keeps resident even fully spilled (needs --tiering)",
    )
    serve_flag(
        "--tier-restore-blocks", type=int,
        help="degraded blocks restored per decode round (needs --tiering)",
    )
    serve_flag(
        "--speculative", action="store_true",
        help="draft-verify speculative decoding on a draft-friendly workload: a "
        "draftable policy proposes tokens, the PADE verifier accepts a prefix per round",
    )
    serve_flag(
        "--parallel-samples", type=int,
        help="n-best parallel sampling: N decode lineages forked off one shared prefill",
    )
    serve_flag(
        "--draft-policy", choices=available_draft_policies(),
        help="draft proposer policy for --speculative",
    )
    serve_flag(
        "--draft-tokens", type=int,
        help="tokens proposed per speculative round (needs --speculative)",
    )
    serve_flag(
        "--routing", choices=ROUTING_MODES,
        help="replica routing: 'prefix' affinity, or the 'random' and 'least-loaded' "
        "control arms (needs --replicas > 1)",
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
            {a.dest: getattr(args, a.dest) for a in serve_flags if hasattr(args, a.dest)}
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
