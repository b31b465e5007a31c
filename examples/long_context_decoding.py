"""Long-context decoding: where the predictor-free design pays off most.

Decoding streams the whole KV cache every step with no reuse, so memory
dominates (>85% of energy) and a stage-splitting predictor must touch every
key every step.  This script first *runs* a decode loop on the serving
engine (persistent bit-plane cache + head-batched filter — the software
realization of the same reuse argument), then sweeps context lengths from
4k to 1M tokens comparing dense / SOFA (best predictor-based design) /
PADE, plus the GPU+PADE co-processor system of Fig. 24.

    python examples/long_context_decoding.py [backend]
"""

import sys

from repro.accelerators import (
    AttentionWorkload, DenseAccelerator, GPUModel, PadeAnalyticModel, SofaModel,
)
from repro.core import PadeConfig, set_default_backend
from repro.engine import PadeEngine
from repro.eval.harness import fig24_system_integration
from repro.eval.reporting import print_table
from repro.eval.workloads import build_engine_request, measure_pipeline_stats
from repro.model.configs import get_model


def engine_decode_demo(num_heads: int = 8, context: int = 1024, steps: int = 32) -> None:
    """Measured decode loop on the batched engine (not the analytic model)."""
    engine = PadeEngine(PadeConfig.standard())
    results = engine.serve(
        [build_engine_request("demo", num_heads, context, steps, head_dim=64)]
    )
    stats = engine.stats
    res = results["demo"]
    print(f"engine decode ({engine.kernel.name} backend): "
          f"{num_heads} heads, {context}+{steps} tokens")
    print(f"  retained fraction      : {1.0 - stats.sparsity:.3f}")
    print(f"  planes cached / reused : {stats.rows_decomposed:,} / {stats.rows_reused:,} rows "
          f"({stats.decomposition_reuse:.1%} reuse)")
    print(f"  final cache length     : {res.final_length} tokens\n")


def main() -> None:
    engine_decode_demo()

    model = get_model("llama3-8b")
    steps = 256

    rows = []
    for seq in (4_096, 16_384, 65_536, 214_000, 1_000_000):
        stats = measure_pipeline_stats(model, seq)
        w = AttentionWorkload(
            num_queries=steps, seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
            num_layers=model.num_layers, decode=True,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        dense = DenseAccelerator().cost(w)
        sofa = SofaModel().cost(w)
        pade = PadeAnalyticModel().cost(w)
        gpu = GPUModel().cost(w)
        rows.append([
            f"{seq:,}",
            f"{stats.keep_fraction:.4f}",
            f"{pade.latency_s / steps * 1e3:.2f}",
            f"{dense.total_energy_pj / pade.total_energy_pj:.2f}",
            f"{sofa.total_energy_pj / pade.total_energy_pj:.2f}",
            f"{gpu.total_energy_pj / pade.total_energy_pj:.1f}",
        ])
    print_table(
        f"decoding {steps} tokens (energy ratios vs PADE)",
        ["context", "keep frac", "PADE ms/token", "dense x", "SOFA x", "H100 x"],
        rows,
    )

    print("\nGPU + PADE co-processor (Fig. 24):")
    system = fig24_system_integration()
    for name, v in system.items():
        print(f"  {name:20s}: end-to-end speedup {v['speedup']:.2f}x "
              f"(latency {v['gpu_pade_conv']:.2f} of GPU-only)")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        set_default_backend(sys.argv[1])
    main()
