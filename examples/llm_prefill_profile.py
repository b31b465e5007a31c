"""Profile an LLM prefill on the PADE accelerator vs the SOTA designs.

Builds a Llama-2-7B-shaped attention workload, measures the functional
pipeline's sparsity statistics, runs a multi-head prefill on the batched
serving engine, runs the cycle-approximate PADE simulator, and places the
analytic SOTA models (Sanger / SpAtten / Energon / DOTA / SOFA / dense /
H100) on the same workload — the Fig. 14/18/21 methodology in one script.

    python examples/llm_prefill_profile.py [seq_len] [backend]
"""

import sys

import numpy as np

from repro.accelerators import (
    AttentionWorkload, DenseAccelerator, DotaModel, EnergonModel, GPUModel,
    PadeAnalyticModel, SangerModel, SofaModel, SpAttenModel,
)
from repro.core import PadeConfig, set_default_backend
from repro.engine import PadeEngine
from repro.eval.reporting import print_table
from repro.eval.workloads import build_engine_request, measure_pipeline_stats
from repro.model.configs import get_model
from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv
from repro.sim.accelerator import AcceleratorConfig, PadeAccelerator


def main(seq_len: int = 2048) -> None:
    model = get_model("llama2-7b")
    stats = measure_pipeline_stats(model, seq_len)
    print(f"Llama-2-7B prefill @ {seq_len} tokens")
    print(f"  measured keep fraction : {stats.keep_fraction:.3f}")
    print(f"  measured planes/key    : {stats.mean_planes:.2f} / 8")
    print(f"  BS effective-bit ratio : {stats.effective_bit_fraction:.2f}")

    # --- Multi-head prefill on the serving engine --------------------------
    engine = PadeEngine(PadeConfig.standard())
    request = build_engine_request(
        "prefill", num_heads=8, context_len=min(seq_len, 1024), decode_steps=0,
        head_dim=model.head_dim, prompt_queries=8,
    )
    cache = engine.new_cache(8, model.head_dim, model.head_dim, request.total_tokens)
    res = engine.prefill(cache, request.k, request.v, q=request.q_prompt)
    print(f"\nengine prefill ({engine.kernel.name} backend, 8 heads x {cache.length} keys):")
    print(f"  head-batched sparsity  : {res.sparsity:.3f}")
    print(f"  planes decomposed once : {engine.stats.rows_decomposed:,} rows "
          f"(resident for the whole decode phase)")

    # --- Cycle-approximate simulation of one representative head ----------
    rng = np.random.default_rng(1)
    q, k, v = synthesize_qkv(8, min(seq_len, 1024), model.head_dim, PROFILE_PRESETS["nlp"], rng)
    pade_sim = PadeAccelerator(AcceleratorConfig()).run_head(q, k, v)
    dense_sim = PadeAccelerator(AcceleratorConfig().dense_baseline()).run_head(q, k, v)
    print(f"\ncycle simulator (one 8-query head block):")
    print(f"  PADE : {pade_sim.latency_cycles:8.0f} cycles, {pade_sim.energy_pj / 1e3:8.1f} nJ, "
          f"utilization {pade_sim.utilization:.0%}")
    print(f"  dense: {dense_sim.latency_cycles:8.0f} cycles, {dense_sim.energy_pj / 1e3:8.1f} nJ")
    print(f"  -> {dense_sim.latency_cycles / pade_sim.latency_cycles:.1f}x speedup, "
          f"{dense_sim.energy_pj / pade_sim.energy_pj:.1f}x energy saving")

    # --- Full-model analytic comparison ------------------------------------
    w = AttentionWorkload(
        num_queries=seq_len, seq_len=seq_len, head_dim=model.head_dim,
        num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
        num_layers=model.num_layers,
        oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
    )
    designs = [
        GPUModel(), DenseAccelerator(), SangerModel(), SpAttenModel(),
        EnergonModel(), DotaModel(), SofaModel(), PadeAnalyticModel(),
    ]
    reports = {d.name: d.cost(w) for d in designs}
    pade = reports["pade"]
    rows = [
        [name, f"{r.latency_s * 1e3:.1f}", f"{r.total_energy_pj / 1e9:.2f}",
         f"{r.cycles / pade.cycles:.2f}", f"{r.total_energy_pj / pade.total_energy_pj:.2f}",
         f"{r.keep_fraction:.2f}"]
        for name, r in reports.items()
    ]
    print_table(
        f"full attention stack @ {seq_len} tokens",
        ["design", "latency (ms)", "energy (mJ)", "time vs PADE", "energy vs PADE", "keep"],
        rows,
    )


if __name__ == "__main__":
    if len(sys.argv) > 2:
        set_default_backend(sys.argv[2])
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)
