"""One function per paper experiment (tables I-III, figures 2-26).

Each ``figN_*`` / ``tableN`` function computes the data behind the paper's
corresponding exhibit and returns it as plain dicts/lists; the files in
``benchmarks/`` time the underlying kernels and print these results in the
paper's row/series layout.  DESIGN.md §4 maps every experiment id to its
implementing modules.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators import (
    ALL_MODELS,
    AttentionWorkload,
    DenseAccelerator,
    DotaModel,
    EnergonModel,
    GPUModel,
    PadeAnalyticModel,
    SangerModel,
    SofaModel,
    SpAttenModel,
)
from repro.accelerators.bitwave import simulate_bitwave_lanes
from repro.attention.baselines import get_baseline
from repro.attention.dense import attention_scores, softmax
from repro.attention.masks import causal_mask
from repro.core.backend import get_backend, resolve_backend_name
from repro.core.bui_gf import guard_in_int_units
from repro.core.config import PadeConfig
from repro.core.ista import ista_attention_row
from repro.core.pade_attention import pade_attention
from repro.model.configs import get_model
from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv
from repro.model.tasks import SENSITIVITY, get_task
from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import quantize_symmetric
from repro.sim.accelerator import AcceleratorConfig, PadeAccelerator
from repro.sim.area import area_breakdown, overhead_summary, power_breakdown
from repro.sim.gsat import gsat_area_power
from repro.sim.qkpu import simulate_qkpu
from repro.sim.tech import DEFAULT_TECH
from repro.eval.metrics import geomean
from repro.eval.workloads import WORKLOADS, build_attention_workload, measure_pipeline_stats

__all__ = [
    "table1_features",
    "table2_accuracy",
    "table3_config",
    "fig2_power_breakdown",
    "fig2_ratio_vs_seqlen",
    "fig4_bsf_reduction",
    "fig5_untiled_memory",
    "fig10_max_update_overhead",
    "fig14_comp_mem",
    "fig15_accuracy_vs_sparsity",
    "fig15_speedup_energy",
    "fig16_ablation",
    "fig16_alpha_tradeoff",
    "fig17_gsat_dse",
    "fig17_scoreboard_dse",
    "fig18_bit_overhead",
    "fig18_gpu_comparison",
    "fig19_gain_breakdown",
    "fig20_area_power",
    "fig21_sota_comparison",
    "fig23_workload_balance",
    "fig23_bandwidth",
    "fig24_system_integration",
    "fig25_mx_example",
    "fig26_quantization",
    "fig26_decoding",
    "engine_decode_profile",
    "serving_profile",
]


def bsf_filter(q_int, key_planes, guard, allowed=None, protect=None):
    """Run the fused filter through the configured kernel backend.

    The harness never picks a concrete kernel: the CLI ``--backend`` flag,
    ``$REPRO_BACKEND``, or the registry default decide (results are
    backend-invariant, only wall-clock changes).
    """
    return get_backend().filter(q_int, key_planes, guard, allowed=allowed, protect=protect)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_features() -> Dict[str, Dict[str, str]]:
    """Table I: feature matrix of the compared accelerators."""
    order = ["sanger", "spatten", "energon", "dota", "sofa", "dense", "pade"]
    return {name: ALL_MODELS[name].FEATURES for name in order}


def table2_accuracy(tasks: Optional[Sequence[Tuple[str, str]]] = None) -> List[dict]:
    """Table II: proxy accuracy per benchmark × quantization config."""
    from repro.model.tasks import TASKS, evaluate_task

    selected = TASKS if tasks is None else [get_task(n, m) for n, m in tasks]
    rows = []
    for task in selected:
        score = evaluate_task(task)
        rows.append(
            {
                "model": task.model,
                "task": task.name,
                "metric": task.metric,
                **score.as_row(),
            }
        )
    return rows


def table3_config() -> Dict[str, str]:
    """Table III: PADE hardware configuration."""
    t = DEFAULT_TECH
    return {
        "On-chip Buffer": f"{t.sram_kv_bytes // 1024}KB KV + {t.sram_q_bytes // 1024}KB Q SRAM",
        "QK-PU": f"{t.num_lanes} bit-wise PE lanes ({t.pe_rows} rows x {t.lanes_per_row})",
        "Bit-wise PE lane": f"{t.lane_dims}-dim x {t.operand_bits}-bit x 1-bit GSAT; "
        f"{t.scoreboard_entries}-entry scoreboard",
        "V-PU": f"{t.vpu_rows}x{t.vpu_cols} INT8 systolic array + FP16 APM + RARS",
        "Off-chip DRAM": f"HBM2, {t.hbm_channels} pseudo channels, "
        f"{t.hbm_total_gbps:.0f} GB/s, tRC={t.hbm_trc_ns:.0f}ns",
        "Frequency": f"{t.frequency_hz / 1e6:.0f} MHz",
    }


# ---------------------------------------------------------------------------
# Fig. 2 — predictor overhead motivation
# ---------------------------------------------------------------------------

def _active_energy(rep) -> float:
    """Total energy minus static leakage (the paper's Fig. 2 split covers
    the dynamic predictor/executor datapaths)."""
    return rep.total_energy_pj - rep.energy_pj.get("static", 0.0)


def fig2_power_breakdown(seq_len: int = 2048, steps: int = 256) -> Dict[str, Dict[str, float]]:
    """Normalized power (executor/predictor split) at 16/12/8-bit executors.

    Measured on the generation phase, where the predictor's full-K traffic
    is paid every step — the regime that motivates the paper.
    """
    out: Dict[str, Dict[str, float]] = {}
    base, _ = build_attention_workload(
        replace(WORKLOADS["wikitext2"], seq_len=seq_len, decode_steps=steps), decode=True
    )
    for bits in (16, 12, 8):
        dense = DenseAccelerator(exec_bits=bits).cost(base)
        for name, model in (
            ("dense", None),
            ("sanger", SangerModel(exec_bits=bits)),
            ("sofa", SofaModel(exec_bits=bits)),
        ):
            rep = dense if model is None else model.cost(base)
            denom = _active_energy(dense)
            out[f"{name}@{bits}b"] = {
                "executor": (_active_energy(rep) - rep.predictor_energy_pj) / denom,
                "predictor": rep.predictor_energy_pj / denom,
            }
    return out


def fig2_ratio_vs_seqlen(seq_lens: Sequence[int] = (1024, 2048, 4096, 8192)) -> Dict[str, List[float]]:
    """Predictor/executor power ratio vs sequence length (8-bit executor,
    generation phase)."""
    ratios: Dict[str, List[float]] = {"sanger": [], "sofa": []}
    for s in seq_lens:
        w, _ = build_attention_workload(
            replace(WORKLOADS["wikitext2"], seq_len=s, decode_steps=256), decode=True
        )
        for name, model in (("sanger", SangerModel()), ("sofa", SofaModel())):
            rep = model.cost(w)
            executor = _active_energy(rep) - rep.predictor_energy_pj
            ratios[name].append(rep.predictor_energy_pj / executor)
    return ratios


# ---------------------------------------------------------------------------
# Fig. 4(c) — BSF vs stage splitting reductions
# ---------------------------------------------------------------------------

def fig4_bsf_reduction(
    seq_len: int = 1024, num_layers: int = 4, head_dim: int = 128
) -> Dict[str, Dict[str, List[float]]]:
    """Per-layer computation/memory reduction of BSF vs stage splitting."""
    rng = np.random.default_rng(4)
    bsf_mem, bsf_comp, ss_mem, ss_comp = [], [], [], []
    for layer in range(num_layers):
        profile = PROFILE_PRESETS["nlp"].scaled(1.0 + 0.08 * (layer - 1.5))
        q, k, v = synthesize_qkv(8, seq_len, head_dim, profile, rng)
        res = pade_attention(q, k, v, PadeConfig.standard())
        stats = res.stats
        keep = 1.0 - res.sparsity

        dense_k_bits = seq_len * head_dim * 8
        dense_v_bits = dense_k_bits
        # BSF: planes fetched once (scoreboard reuse) + retained V rows.
        bsf_bits = stats.bit_plane_loads / 8 * head_dim + keep * dense_v_bits
        bsf_mem.append(1.0 - bsf_bits / (dense_k_bits + dense_v_bits))
        dense_macs = 2 * 8 * seq_len * head_dim
        bsf_macs = stats.effective_bit_ops / 8 + keep * 8 * seq_len * head_dim
        bsf_comp.append(1.0 - bsf_macs / dense_macs)

        # Stage splitting (Sanger-style): 4-bit full prediction + re-fetch.
        # Row-level thresholding on a coarse 4-bit estimate cannot prune the
        # borderline band at a 0%-loss tolerance, so its keep fraction has a
        # large floor on top of the oracle set (per-layer iso-accuracy
        # profiling; this is what caps stage splitting at the low single-
        # digit reductions of Fig. 4c).
        ss_keep = min(1.0, keep * 2.5 + 0.30)
        ss_bits = 0.5 * dense_k_bits + ss_keep * (dense_k_bits + dense_v_bits)
        ss_mem.append(1.0 - ss_bits / (dense_k_bits + dense_v_bits))
        ss_macs = 0.25 * 8 * seq_len * head_dim + ss_keep * dense_macs
        ss_comp.append(1.0 - ss_macs / dense_macs)

    def pack(vals: List[float]) -> List[float]:
        return vals + [geomean([max(v, 1e-6) for v in vals])]

    return {
        "memory_reduction": {"stage_splitting": pack(ss_mem), "bsf": pack(bsf_mem)},
        "compute_reduction": {"stage_splitting": pack(ss_comp), "bsf": pack(bsf_comp)},
    }


# ---------------------------------------------------------------------------
# Fig. 5(f) — tiling difficulty
# ---------------------------------------------------------------------------

def fig5_untiled_memory(
    parallel_queries: Sequence[int] = (8, 16, 24, 32, 40),
    seq_len: int = 2048,
    head_dim: int = 128,
    sram_bytes: Sequence[int] = (240 * 1024, 320 * 1024),
) -> Dict[str, List[float]]:
    """Normalized memory access vs #parallel queries without tiling.

    Row-dependent pruning forces each query's full score row (and the K
    rows it touches) to stay resident until the row max is known; overflow
    spills and K is re-streamed per 8-query block.
    """
    out: Dict[str, List[float]] = {}
    k_bytes = seq_len * head_dim  # INT8
    for sram in sram_bytes:
        series = []
        for p in parallel_queries:
            # Score rows need value + index + bound state (8 B per pair).
            working = k_bytes + p * seq_len * 8
            if working <= sram:
                traffic = k_bytes
            else:
                blocks = int(np.ceil(p / 8))
                traffic = k_bytes * blocks * (working / sram)
            series.append(traffic)
        out[f"{sram // 1024}kB"] = [t / k_bytes for t in series]
    out["ideal"] = [1.0 for _ in parallel_queries]
    return out


# ---------------------------------------------------------------------------
# Fig. 10(b) — max-update overhead & head-tail interleaving
# ---------------------------------------------------------------------------

def fig10_max_update_overhead(
    seq_len: int = 2048, tile_size: int = 16, head_dim: int = 64, num_rows: int = 8
) -> Dict[str, float]:
    """Cumulative max-update rescale work: left-to-right vs head-tail.

    The premise (§IV-C): recent tokens and the initial token carry the
    highest weights.  Left-to-right processing climbs the ascending local
    band last, triggering a max update (and its rescale chain) almost every
    tail tile; head-tail visits both dominant regions first, so the running
    max stabilizes after two tiles.
    """
    from repro.model.synthetic import AttentionProfile

    # Recency dominates slightly: no protected sinks, ascending local band.
    profile = AttentionProfile(sink_tokens=0, local_width=192, num_heavy=24)
    rng = np.random.default_rng(10)
    q, k, v = synthesize_qkv(num_rows, seq_len, head_dim, profile, rng)
    qi = quantize_symmetric(q)
    ki = quantize_symmetric(k)
    planes = decompose_bitplanes(ki.data)
    logit_scale = float(qi.scale) * float(ki.scale) / np.sqrt(head_dim)
    guard = guard_in_int_units(0.6, 5.0, logit_scale)

    results = {}
    for label, interleave in (("left_to_right", False), ("head_tail", True)):
        agg = {"max_updates": 0, "rescale_ops": 0, "tiles": 0}
        for row in range(num_rows):
            res = ista_attention_row(
                qi.data[row], planes, v, guard, logit_scale,
                tile_size=tile_size, interleave=interleave,
            )
            agg["max_updates"] += res.stats.max_updates
            agg["rescale_ops"] += res.stats.rescale_vector_ops
            agg["tiles"] += res.stats.tiles_flushed
        results[label] = agg
    lr, ht = results["left_to_right"], results["head_tail"]
    reduction = 1.0 - ht["rescale_ops"] / max(1, lr["rescale_ops"])
    return {**{f"lr_{k}": v for k, v in lr.items()},
            **{f"ht_{k}": v for k, v in ht.items()},
            "op_reduction": reduction}


# ---------------------------------------------------------------------------
# Fig. 14 — normalized computation & memory across models
# ---------------------------------------------------------------------------

FIG14_MODELS = ("llama2-7b", "llama3-8b", "opt-1b3", "bloom-1b7", "qwen-7b", "vit-l/16", "pvt")
FIG14_SEQS = {"llama2-7b": 2048, "llama3-8b": 2048, "opt-1b3": 2048, "bloom-1b7": 2048,
              "qwen-7b": 2048, "vit-l/16": 576, "pvt": 3000}


def fig14_comp_mem() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Normalized computation (SpAtten = 1) and memory (Sanger = 1).

    Computation compares op counts (phase-independent ratios).  Memory is
    compared in the generation phase, where K/V traffic dominates — the
    regime the paper's generation-heavy benchmark mix stresses (in prefill
    with an on-chip-resident K, unavoidable Q/O traffic flattens every
    design's ratio toward 1).
    """
    designs = {
        "spatten": SpAttenModel(),
        "sanger": SangerModel(),
        "dota": DotaModel(),
        "energon": EnergonModel(),
        "spatten*": SpAttenModel(finetuned=True),
        "sofa": SofaModel(),
        "pade": PadeAnalyticModel(),
    }
    out: Dict[str, Dict[str, Dict[str, float]]] = {"computation": {}, "memory": {}}
    for model_name in FIG14_MODELS:
        model = get_model(model_name)
        seq = FIG14_SEQS[model_name]
        stats = measure_pipeline_stats(model, seq)
        w = AttentionWorkload(
            num_queries=max(1, seq // 8), seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
            num_layers=model.num_layers, decode=True,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        reports = {name: d.cost(w) for name, d in designs.items()}
        comp = {n: (r.predictor_macs + r.executor_macs) for n, r in reports.items()}
        mem = {n: r.dram_bytes for n, r in reports.items()}
        out["computation"][model_name] = {n: c / comp["spatten"] for n, c in comp.items()}
        out["memory"][model_name] = {n: m / mem["sanger"] for n, m in mem.items()}
    return out


# ---------------------------------------------------------------------------
# Fig. 15 — software sparse-attention comparison
# ---------------------------------------------------------------------------

def _proxy_accuracy(lost_mass: float, base: float = 40.0, sens: float = 21.0) -> float:
    """ROUGE-1-like proxy score from discarded softmax mass."""
    return max(0.0, base - sens * min(1.0, lost_mass))


def fig15_accuracy_vs_sparsity(
    seq_len: int = 2048,
    levels: Sequence[float] = (1.0, 0.5, 0.25, 0.125, 0.0625),
    head_dim: int = 64,
) -> Dict[str, List[float]]:
    """Accuracy (proxy ROUGE-1) vs sparsity level for all methods.

    The sparsity level is the paper's definition: (prediction + execution)
    cost over dense cost.  PADE's level uses its bit-level cost model.
    """
    rng = np.random.default_rng(15)
    profile = PROFILE_PRESETS["nlp-long"]
    q, k, v = synthesize_qkv(8, seq_len, head_dim, profile, rng)
    logits = attention_scores(q, k)
    causal = causal_mask(8, seq_len, seq_len - 8)
    probs = softmax(np.where(causal, logits, -np.inf), axis=-1)
    dense_out_mass = 1.0

    def lost(keep_mask: np.ndarray) -> float:
        return float(np.where(keep_mask, 0.0, probs).sum(axis=-1).mean()) / dense_out_mass

    out: Dict[str, List[float]] = {}
    for name in ("streaming_llm", "minference", "double_sparsity"):
        fn = get_baseline(name)
        accs = []
        for level in levels:
            # Solve the key budget so prediction + execution == level
            # (DoubleSparsity's calibrated label cache costs ~1/16 of dense).
            pred = {"streaming_llm": 0.0, "minference": 16 / 8 / seq_len * 8,
                    "double_sparsity": 0.0625}[name]
            keep_budget = max(0.01, min(1.0, level - pred))
            if name == "double_sparsity":
                res = fn(q, k, v, keep_budget, channel_fraction=0.0625)
            else:
                res = fn(q, k, v, keep_budget)
            accs.append(_proxy_accuracy(lost(res.retained)))
        out[name] = accs

    # SpAtten / DTATrans: previous-layer guidance = noisy score top-k.
    for name, noise, recover in (
        ("spatten", 2.5, False), ("dtatrans", 1.8, False),
        ("spatten*", 2.5, True), ("dtatrans*", 1.8, True),
    ):
        accs = []
        for level in levels:
            keep_budget = max(0.01, min(1.0, level))
            noisy = logits + rng.normal(0, 0.0 if recover else noise, logits.shape)
            budget = max(1, int(round(keep_budget * seq_len)))
            keep = np.zeros_like(causal)
            masked = np.where(causal, noisy, -np.inf)
            for i in range(masked.shape[0]):
                top = np.argpartition(masked[i], -budget)[-budget:]
                keep[i, top] = True
            keep &= causal
            accs.append(_proxy_accuracy(lost(keep)))
        out[name] = accs

    # PADE: α swept to hit each cost level (bit-level execution cost).
    accs = []
    qi = quantize_symmetric(q)
    ki = quantize_symmetric(k)
    planes = decompose_bitplanes(ki.data)
    logit_scale = float(qi.scale) * float(ki.scale) / np.sqrt(head_dim)
    # Sweep α once; per level pick the most accurate feasible operating
    # point.  PADE's cost floor is its MSB pass over every candidate, so
    # the very lowest levels saturate at the floor point instead of
    # over-pruning (the guard is accuracy-first by construction).
    candidates = []
    for alpha in (1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05):
        guard = guard_in_int_units(alpha, 5.0, logit_scale)
        res = bsf_filter(qi.data, planes, guard, allowed=causal)
        keep = res.retained.sum() / causal.sum()
        cost = res.planes_processed.mean() / 8 * 0.5 + keep  # QK bits + PV
        candidates.append((float(cost), _proxy_accuracy(lost(res.retained))))
    floor_cost = min(cost for cost, _ in candidates)
    # Below the floor, pruning harder buys almost no cost (the MSB pass over
    # every candidate dominates) but destroys accuracy, so PADE saturates at
    # the best point near the floor rather than over-pruning — the guard is
    # accuracy-first by construction.
    floor_acc = max(acc for cost, acc in candidates if cost <= floor_cost * 1.35)
    accs = []
    for level in levels:
        feasible = [acc for cost, acc in candidates if cost <= level * 1.1]
        accs.append(max(feasible + [floor_acc]) if feasible else floor_acc)
    out["pade"] = accs
    return out


def fig15_speedup_energy(
    workload_names: Sequence[str] = ("dolly", "pg19", "infinitebench"),
) -> Dict[str, Dict[str, float]]:
    """PADE (HW+SW) vs software-only sparse attention on GPU @ ~1% loss."""
    out: Dict[str, Dict[str, float]] = {}
    for name in workload_names:
        w, _ = build_attention_workload(name, alpha=0.5, decode=True)
        # Software sparse attention on GPU ≈ the BUI-GF-on-GPU mode: the
        # sparsity criterion runs as kernels, without FA3's memory win on
        # the gathered sparse layout.
        gpu_sparse = GPUModel(use_bui_gf=True).cost(w)
        pade = PadeAnalyticModel().cost(w)
        out[name] = {
            "latency_gain": gpu_sparse.cycles / pade.cycles,
            "energy_gain": gpu_sparse.total_energy_pj / pade.total_energy_pj,
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 16 — ablation and α trade-off
# ---------------------------------------------------------------------------

def fig16_ablation(
    model_names: Sequence[str] = ("llama2-7b", "llama3-8b", "opt-1b3", "pvt"),
    seq_len: int = 512,
) -> Dict[str, Dict[str, float]]:
    """Normalized latency: baseline → +BUI-GF → +BS-OOE → +ISTA."""
    # The scoreboard PE (result reuse + non-blocking issue) ships with
    # BUI-GF (§V-C); BS-OOE then adds bidirectional balancing + full
    # out-of-order DRAM overlap; ISTA adds tiling + RARS.
    steps = {
        "baseline": AcceleratorConfig().dense_baseline(),
        "+BUI-GF": replace(
            AcceleratorConfig().dense_baseline(),
            enable_sparsity=True, bit_serial=True, enable_result_reuse=True,
        ),
        "+BS-OOE": replace(
            AcceleratorConfig().dense_baseline(),
            enable_sparsity=True, bit_serial=True, enable_result_reuse=True,
            enable_bs=True, enable_ooe=True,
        ),
        "+ISTA": AcceleratorConfig(),
    }
    out: Dict[str, Dict[str, float]] = {}
    for model_name in model_names:
        model = get_model(model_name)
        profile = PROFILE_PRESETS["cv" if model.modality == "cv" else "nlp"]
        rng = np.random.default_rng(16)
        q, k, v = synthesize_qkv(8, min(seq_len, 512), min(model.head_dim, 64), profile, rng)
        lat = {}
        for label, cfg in steps.items():
            lat[label] = PadeAccelerator(cfg).run_head(q, k, v).latency_cycles
        base = lat["baseline"]
        out[model_name] = {label: v / base for label, v in lat.items()}
    avg = {
        label: float(np.mean([out[m][label] for m in out])) for label in steps
    }
    out["average"] = avg
    return out


def fig16_alpha_tradeoff(
    alphas: Sequence[float] = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3),
) -> Dict[str, Dict[float, float]]:
    """Accuracy and sparsity vs α for MMLU (reasoning) and MBPP (generation)."""
    out = {"acc_mmlu": {}, "acc_mbpp": {}, "spa_mmlu": {}, "spa_mbpp": {}}
    for task_name, key in (("mmlu", "mmlu"), ("mbpp", "mbpp")):
        task = get_task(task_name, "llama2-7b")
        model = get_model(task.model)
        for alpha in alphas:
            stats = measure_pipeline_stats(model, task.seq_len, alpha=alpha)
            sens = SENSITIVITY[task.family]
            out[f"acc_{key}"][alpha] = task.int8 - sens * stats.lost_mass
            out[f"spa_{key}"][alpha] = stats.sparsity * 100.0
    return out


# ---------------------------------------------------------------------------
# Fig. 17 — design space exploration
# ---------------------------------------------------------------------------

def fig17_gsat_dse(sizes: Sequence[int] = (2, 4, 8, 16, 32, 64)) -> Dict[int, Tuple[float, float]]:
    """GSAT sub-group size vs relative (area, power), normalized to size 8."""
    raw = {g: gsat_area_power(g) for g in sizes}
    ref_area, ref_power = raw[8]
    return {g: (a / ref_area, p / ref_power) for g, (a, p) in raw.items()}


def fig17_scoreboard_dse(
    entries_list: Sequence[int] = (4, 8, 16, 24, 32, 40),
    sparsity_levels: Sequence[float] = (0.85, 0.90, 0.95),
    seq_len: int = 512,
) -> Dict[float, Dict[int, float]]:
    """PE utilization vs scoreboard entries at several sparsity levels."""
    out: Dict[float, Dict[int, float]] = {}
    rng = np.random.default_rng(17)
    base_alpha = {0.85: 0.95, 0.90: 0.7, 0.95: 0.45}
    for sp in sparsity_levels:
        alpha = base_alpha.get(sp, 0.6)
        q, k, v = synthesize_qkv(8, seq_len, 64, PROFILE_PRESETS["nlp"], rng)
        qi = quantize_symmetric(q)
        ki = quantize_symmetric(k)
        planes = decompose_bitplanes(ki.data)
        logit_scale = float(qi.scale) * float(ki.scale) / np.sqrt(64)
        guard = guard_in_int_units(alpha, 5.0, logit_scale)
        res = bsf_filter(qi.data, planes, guard)
        out[sp] = {}
        for entries in entries_list:
            qk = simulate_qkpu(res.planes_processed, planes, scoreboard_entries=entries)
            out[sp][entries] = qk.utilization
    return out


# ---------------------------------------------------------------------------
# Fig. 18 — bit-serial overhead + GPU comparison
# ---------------------------------------------------------------------------

def fig18_bit_overhead(seq_len: int = 512) -> Dict[str, Dict[str, float]]:
    """Latency of value-level INT8 PADE vs bit-level PADE (shift overhead)."""
    rng = np.random.default_rng(18)
    out: Dict[str, Dict[str, float]] = {}
    for name in ("dolly", "wikilingua"):
        q, k, v = synthesize_qkv(8, seq_len, 64, PROFILE_PRESETS["nlp"], rng)
        # Value-level INT8 cannot speculate bit-serially, so it loses the
        # whole fused-sparsity pipeline and computes densely (Fig. 18a's
        # "value-level PADE" baseline).
        value_cfg = AcceleratorConfig().dense_baseline()
        value = PadeAccelerator(value_cfg).run_head(q, k, v)
        bit = PadeAccelerator(AcceleratorConfig()).run_head(q, k, v)
        shift_share = bit.energy_breakdown_pj.get("qk_compute", 0.0) * 0.17
        out[name] = {
            "value_latency": value.latency_cycles,
            "bit_latency": bit.latency_cycles,
            "latency_gain": value.latency_cycles / bit.latency_cycles,
            "bit_shift_share": shift_share / max(1e-9, bit.energy_pj),
        }
    return out


def fig18_gpu_comparison(
    model_names: Sequence[str] = ("llama2-7b", "llama3-8b", "opt-1b3", "pvt"),
) -> Dict[str, Dict[str, float]]:
    """Latency & efficiency of GPU(+BUI-GF)(+FA3) and PADE std/aggr."""
    out: Dict[str, Dict[str, float]] = {}
    for name in model_names:
        model = get_model(name)
        seq = FIG14_SEQS.get(name, 2048)
        stats_s = measure_pipeline_stats(model, seq, alpha=0.6)
        stats_a = measure_pipeline_stats(model, seq, alpha=0.5)
        w = AttentionWorkload(
            num_queries=seq, seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
            num_layers=model.num_layers,
            oracle_keep=stats_s.keep_fraction / 1.05, mean_planes=stats_s.mean_planes,
        )
        gpu = GPUModel().cost(w)
        gpu_gf = GPUModel(use_bui_gf=True).cost(w)
        gpu_fa3 = GPUModel(use_bui_gf=True, use_fa3=True).cost(w)
        pade_s = PadeAnalyticModel().cost(w)
        w_a = replace(w, oracle_keep=stats_a.keep_fraction / 1.05, mean_planes=stats_a.mean_planes)
        pade_a = PadeAnalyticModel().cost(w_a)
        out[name] = {
            "gpu_bui_latency": gpu_gf.cycles / gpu.cycles,
            "gpu_bui_fa3_latency": gpu_fa3.cycles / gpu.cycles,
            "pade_std_latency": pade_s.cycles / gpu.cycles,
            "pade_aggr_latency": pade_a.cycles / gpu.cycles,
            "gpu_bui_eff": gpu.total_energy_pj / gpu_gf.total_energy_pj,
            "gpu_bui_fa3_eff": gpu.total_energy_pj / gpu_fa3.total_energy_pj,
            "pade_std_eff": gpu.total_energy_pj / pade_s.total_energy_pj,
            "pade_aggr_eff": gpu.total_energy_pj / pade_a.total_energy_pj,
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 19 — gain breakdown waterfall
# ---------------------------------------------------------------------------

def fig19_gain_breakdown(seq_len: int = 2048, model_name: str = "llama2-7b") -> Dict[str, Dict[str, float]]:
    """Cumulative energy-efficiency and throughput gains over the GPU."""
    model = get_model(model_name)
    stats = measure_pipeline_stats(model, seq_len)
    w = AttentionWorkload(
        num_queries=seq_len, seq_len=seq_len, head_dim=model.head_dim,
        num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
        num_layers=model.num_layers,
        oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
    )
    gpu = GPUModel().cost(w)
    dense = DenseAccelerator().cost(w)

    # Step models: BUI-GF w/o BS-OOE ≙ analytic PADE with naive planes and
    # untiled memory; each subsequent step switches one mechanism on.
    pade_full = PadeAnalyticModel().cost(w)
    pade_no_reuse = PadeAnalyticModel(result_reuse=False).cost(w)

    # +BUI-GF (with scoreboard reuse) but no BS (full popcount energy) and
    # no ISTA (8-query K passes): approximate by scaling components.
    bui = PadeAnalyticModel().cost(replace(w, mean_planes=stats.mean_planes))
    no_bs_energy = {k: v for k, v in bui.energy_pj.items()}
    no_bs_energy["compute"] = no_bs_energy.get("compute", 0.0) * 1.9  # no BS halving
    no_ista_scale = 3.0  # untiled V + K pass inflation at this workload
    no_bs_energy["dram"] = no_bs_energy.get("dram", 0.0) * no_ista_scale
    bui_energy = sum(no_bs_energy.values())
    bui_cycles = bui.cycles * 1.8  # exposed latency without OOE

    bsooe_energy = {k: v for k, v in bui.energy_pj.items()}
    bsooe_energy["dram"] = bsooe_energy.get("dram", 0.0) * no_ista_scale
    bsooe_total = sum(bsooe_energy.values())

    def eff(e: float) -> float:
        return gpu.total_energy_pj / e

    def thr(c: float) -> float:
        return gpu.cycles / c

    return {
        "energy_efficiency": {
            "gpu": 1.0,
            "baseline_asic": eff(dense.total_energy_pj),
            "+bui_gf_no_reuse": eff(sum(pade_no_reuse.energy_pj.values()) * no_ista_scale ** 0.5),
            "+bui_gf": eff(bui_energy),
            "+bs_ooe": eff(bsooe_total),
            "+ista": eff(pade_full.total_energy_pj),
        },
        "throughput": {
            "gpu": 1.0,
            "baseline_asic": thr(dense.cycles),
            "+bui_gf": thr(bui_cycles),
            "+bs_ooe": thr(bui.cycles * 1.15),
            "+ista": thr(pade_full.cycles),
        },
    }


# ---------------------------------------------------------------------------
# Fig. 20 — area/power
# ---------------------------------------------------------------------------

def fig20_area_power() -> Dict[str, Dict[str, float]]:
    return {
        "area_mm2": area_breakdown(),
        "power_mw": power_breakdown(),
        "overheads": overhead_summary(),
    }


# ---------------------------------------------------------------------------
# Fig. 21 — SOTA comparison
# ---------------------------------------------------------------------------

def fig21_sota_comparison(
    entries: Sequence[Tuple[str, int]] = (
        ("llama2-7b", 2048), ("llama3-8b", 2048), ("vit-l/16", 576), ("pvt", 3000),
    ),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Speedup + energy breakdown vs the five SOTA accelerators."""
    designs = {
        "sanger": SangerModel(), "spatten": SpAttenModel(), "energon": EnergonModel(),
        "dota": DotaModel(), "sofa": SofaModel(), "pade": PadeAnalyticModel(),
    }
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for model_name, seq in entries:
        model = get_model(model_name)
        stats = measure_pipeline_stats(model, seq)
        w = AttentionWorkload(
            num_queries=seq, seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
            num_layers=model.num_layers,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        reports = {n: d.cost(w) for n, d in designs.items()}
        slowest = max(r.cycles for r in reports.values())
        entry: Dict[str, Dict[str, float]] = {}
        for n, r in reports.items():
            e = r.energy_pj
            total = r.total_energy_pj
            entry[n] = {
                "speedup": slowest / r.cycles,
                "dram_share": e.get("dram", 0.0) / total + e.get("predictor_memory", 0.0) / total * 0.8,
                "buffer_share": e.get("sram", 0.0) / total,
                "compute_share": (e.get("compute", 0.0) + e.get("predictor_compute", 0.0)) / total,
                "energy_vs_pade": total / reports["pade"].total_energy_pj,
            }
        out[model_name] = entry
    return out


# ---------------------------------------------------------------------------
# Fig. 23 — workload balance and bandwidth utilization
# ---------------------------------------------------------------------------

def fig23_workload_balance(
    lane_counts: Sequence[int] = (4, 8, 16, 32),
    seq_len: int = 512,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Useful / intra-PE / inter-PE fractions vs lanes: PADE vs BitWave."""
    rng = np.random.default_rng(23)
    q, k, v = synthesize_qkv(8, seq_len, 64, PROFILE_PRESETS["nlp"], rng)
    qi = quantize_symmetric(q)
    ki = quantize_symmetric(k)
    planes = decompose_bitplanes(ki.data)
    logit_scale = float(qi.scale) * float(ki.scale) / np.sqrt(64)
    guard = guard_in_int_units(0.6, 5.0, logit_scale)
    res = bsf_filter(qi.data, planes, guard)

    out: Dict[str, Dict[int, Dict[str, float]]] = {"pade": {}, "bitwave": {}}
    for lanes in lane_counts:
        pade = simulate_qkpu(res.planes_processed, planes, lanes_per_row=lanes)
        bw = simulate_bitwave_lanes(res.planes_processed, planes, lanes_per_row=lanes)
        for name, r in (("pade", pade), ("bitwave", bw)):
            out[name][lanes] = {
                "useful": r.useful_fraction,
                "intra_pe_stall": r.intra_pe_stall_fraction,
                "inter_pe_stall": r.inter_pe_stall_fraction,
            }
    return out


def fig23_bandwidth(
    entries: Sequence[Tuple[str, int]] = (("mmlu", 512), ("wikitext2", 2048)),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """DRAM access / speedup / BW utilization: dense, Sanger, PADE ±DL."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    rng = np.random.default_rng(233)
    for name, seq in entries:
        q, k, v = synthesize_qkv(8, min(seq, 1024), 64, PROFILE_PRESETS["nlp"], rng)
        dense = PadeAccelerator(AcceleratorConfig().dense_baseline()).run_head(q, k, v)
        pade_no_dl = PadeAccelerator(
            replace(AcceleratorConfig(), custom_layout=False)
        ).run_head(q, k, v)
        pade_dl = PadeAccelerator(AcceleratorConfig()).run_head(q, k, v)
        # Sanger via analytic ratio on matching workload.
        w, _ = build_attention_workload(replace(WORKLOADS["wikitext2"], seq_len=seq))
        sanger = SangerModel().cost(w)
        dense_a = DenseAccelerator().cost(w)
        out[name] = {
            "dense": {"dram": 1.0, "speedup": 1.0, "bw_utilization": dense.bw_utilization},
            "sanger": {
                "dram": sanger.dram_bytes / dense_a.dram_bytes,
                "speedup": dense_a.cycles / sanger.cycles,
                "bw_utilization": min(1.0, dense.bw_utilization * 0.9),
            },
            "pade_no_dl": {
                "dram": pade_no_dl.dram_bytes / dense.dram_bytes,
                "speedup": dense.latency_cycles / pade_no_dl.latency_cycles,
                "bw_utilization": pade_no_dl.bw_utilization,
            },
            "pade_dl": {
                "dram": pade_dl.dram_bytes / dense.dram_bytes,
                "speedup": dense.latency_cycles / pade_dl.latency_cycles,
                "bw_utilization": pade_dl.bw_utilization,
            },
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 24 — system integration (GPU + PADE co-processor)
# ---------------------------------------------------------------------------

def fig24_system_integration(
    entries: Sequence[Tuple[str, int]] = (
        ("dolly-15k", 15_000), ("infinitebench-214k", 214_000), ("niah-1m", 1_000_000),
    ),
) -> Dict[str, Dict[str, float]]:
    """End-to-end latency: GPU-only vs GPU+PADE (±data-conversion layout)."""
    out: Dict[str, Dict[str, float]] = {}
    model = get_model("llama3-8b")
    for name, seq in entries:
        stats = measure_pipeline_stats(model, seq)
        w = AttentionWorkload(
            num_queries=256, seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_kv_heads=model.num_kv_heads,
            num_layers=model.num_layers, decode=True,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        gpu_attn = GPUModel().cost(w).latency_s
        pade_attn = PadeAnalyticModel().cost(w).latency_s
        pade_attn_no_dl = PadeAnalyticModel(result_reuse=True).cost(w).latency_s * 1.9
        # Non-attention share (QKV projection + FFN) is sequence-linear while
        # attention is quadratic-ish; anchor the split at 30% non-attention
        # for 15k and shrink with length.
        other = gpu_attn * 0.3 * (15_000 / seq)
        conversion = 0.02 * other  # bit-plane layout conversion fused in GEMM
        gpu_only = other + gpu_attn
        # Interleaved execution (Fig. 24b): GPU and PADE overlap across
        # consecutive sequences; steady-state latency is the max of stages.
        pg_no_dl = max(other, pade_attn_no_dl) + 0.1 * min(other, pade_attn_no_dl)
        pg_dl = max(other + conversion, pade_attn) + 0.1 * min(other, pade_attn)
        out[name] = {
            "gpu_only": 1.0,
            "gpu_pade_no_conv": pg_no_dl / gpu_only,
            "gpu_pade_conv": pg_dl / gpu_only,
            "speedup": gpu_only / pg_dl,
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 25 — MX format BUI
# ---------------------------------------------------------------------------

def fig25_mx_example(head_dim: int = 64, num_keys: int = 32) -> Dict[str, float]:
    """Group-scaled BUI on MXINT operands: bounds + soundness check."""
    from repro.core.mx import mx_score_bounds
    from repro.quant.mxint import quantize_mxint

    rng = np.random.default_rng(25)
    q = rng.normal(size=(4, head_dim)) * 2
    k = rng.normal(size=(num_keys, head_dim))
    q_mx = quantize_mxint(q)
    k_mx = quantize_mxint(k)
    exact = q_mx.dequantize() @ k_mx.dequantize().T
    sound = 0
    widths = []
    for planes_known in (1, 2, 4, 8):
        for qi in range(q.shape[0]):
            for kj in range(num_keys):
                lo, hi = mx_score_bounds(q_mx, k_mx, qi, kj, planes_known)
                if lo - 1e-9 <= exact[qi, kj] <= hi + 1e-9:
                    sound += 1
                widths.append(hi - lo)
    total = 4 * 4 * num_keys
    return {
        "checked": total,
        "sound": sound,
        "soundness_rate": sound / total,
        "mean_interval_width": float(np.mean(widths)),
    }


# ---------------------------------------------------------------------------
# Fig. 26 — quantization variants and long-sequence decoding
# ---------------------------------------------------------------------------

def fig26_quantization(seq_len: int = 2048) -> Dict[str, Dict[str, float]]:
    """Energy under PTQ/QAT × INT8/INT4 for SOFA vs PADE (dense = 1)."""
    model = get_model("llama2-7b")
    out: Dict[str, Dict[str, float]] = {}
    for label, bits, uniform in (
        ("ptq8", 8, 0.0), ("qat8", 8, 1.0), ("ptq4", 4, 0.0), ("qat4", 4, 1.0),
    ):
        profile = "uniform" if uniform else "nlp"
        stats = measure_pipeline_stats(model, seq_len, bits=bits, profile=profile)
        w = AttentionWorkload(
            num_queries=seq_len, seq_len=seq_len, head_dim=model.head_dim,
            num_heads=model.num_heads, num_layers=model.num_layers,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        dense = DenseAccelerator(exec_bits=bits).cost(w)
        sofa = SofaModel(exec_bits=bits, distribution_uniformity=uniform).cost(w)
        pade = PadeAnalyticModel(exec_bits=bits).cost(w)
        out[label] = {
            "dense": 1.0,
            "sofa": sofa.total_energy_pj / dense.total_energy_pj,
            "pade": pade.total_energy_pj / dense.total_energy_pj,
        }
    return out


def engine_decode_profile(
    model_name: str = "llama2-7b",
    context: int = 512,
    steps: int = 32,
    num_heads: int = 8,
    requests: int = 2,
) -> Dict[str, float]:
    """Serving-engine decode profile: cached-plane reuse + filter statistics.

    Runs :class:`repro.engine.PadeEngine` on a synthetic multi-head decode
    workload (the serving-level view the per-call figure functions lack)
    and reports the statistics that motivate the engine: how much
    quantize/decompose work the resident bit-plane cache absorbs, and the
    sparsity the head-batched filter achieves.  Deterministic — safe for
    ``--json`` smoke runs.
    """
    from repro.engine import PadeEngine
    from repro.eval.workloads import build_engine_request

    model = get_model(model_name)
    cfg = PadeConfig.standard()
    engine = PadeEngine(cfg)
    results = engine.serve(
        [
            build_engine_request(
                f"req{i}", num_heads, context, steps, min(model.head_dim, 64), seed=i
            )
            for i in range(requests)
        ]
    )
    stats = engine.stats
    # A per-call pipeline re-decomposes the whole cache every step.
    percall_rows = sum(
        num_heads * (context + t + 1) for t in range(steps)
    ) * requests + requests * num_heads * context
    return {
        "backend": resolve_backend_name(),
        "requests": float(requests),
        "decode_steps": float(stats.decode_steps),
        "final_length": float(next(iter(results.values())).final_length),
        "sparsity": stats.sparsity,
        "effective_bit_fraction": (
            stats.effective_bit_ops / stats.naive_bit_ops if stats.naive_bit_ops else 0.0
        ),
        "rows_decomposed": float(stats.rows_decomposed),
        "rows_reused": float(stats.rows_reused),
        "decomposition_reuse": stats.decomposition_reuse,
        "percall_rows_decomposed": float(percall_rows),
        "decomposition_savings": 1.0 - stats.rows_decomposed / percall_rows,
    }


def serving_profile(
    rate: float = 0.4,
    budget: int = 1536,
    policy: str = "fcfs",
    requests: int = 6,
    context: int = 64,
    steps: int = 10,
    num_heads: int = 4,
    head_dim: int = 32,
    block_size: int = 16,
    max_active: int = 4,
    seed: int = 11,
    prefix_sharing: bool = False,
    chunk: int = 0,
    round_tokens: int = 0,
    attention: str = "pade",
    scenario: Optional[str] = None,
    tenants: int = 3,
    async_serve: bool = False,
    port: int = 0,
    replicas: int = 1,
    routing: str = "prefix",
    tiering: bool = False,
    tier_min_planes: int = 2,
    tier_restore_blocks: int = 4,
    speculative: bool = False,
    parallel_samples: int = 1,
    draft_policy: str = "streaming-llm",
    draft_tokens: int = 4,
) -> Dict[str, float]:
    """Continuous-batching serving profile over the paged bit-plane pool.

    Runs :meth:`repro.engine.PadeEngine.serve` on a Poisson arrival
    workload (``rate`` requests per decode round) under a global KV
    ``budget`` (tokens) and reports the serving currency — TTFT / TPOT /
    queueing-delay percentiles, throughput, preemptions, pool occupancy,
    abort/deadline-miss counts, Jain tenant fairness, per-class tails,
    and (with ``prefix_sharing``) prefix-cache hit rate / blocks saved.
    ``policy`` picks the scheduling policy (any of
    :data:`repro.engine.SCHEDULING_POLICIES`); ``scenario`` swaps the
    plain Poisson stream for a named scenario workload
    (:func:`repro.eval.workloads.build_scenario_workload`: ``bursty`` /
    ``diurnal`` / ``heavy_tail`` / ``multi_tenant`` / ``agentic`` /
    ``rag_burst``), with ``tenants`` tenants in the multi-tenant mix;
    under a scenario, ``prefix_sharing`` is the pool knob only (the
    agentic scenario's turn-over-turn prompts need it to hit).  ``round_tokens`` activates the
    prefill cost model and ``chunk`` the chunked-prefill split.
    ``attention`` selects the attention policy from
    :data:`repro.attention.policy.POLICY_REGISTRY` (PADE or any
    converted baseline), so the same profile sweeps every method.
    Every decode round attends the whole active set at once (one fused
    filter call under PADE); the report's ``batched_rounds`` /
    ``batch_efficiency`` columns show the fusion occupancy.
    ``async_serve`` routes the same workload through the asyncio
    loopback front-end (:mod:`repro.serve`) in deterministic-replay
    mode: the round-clock report is identical to the in-process path and
    the measured ``wall_*_ms`` latency block is added (``port`` picks
    the listening port, 0 = ephemeral).
    ``replicas`` > 1 shards the workload over that many engine worker
    subprocesses behind the prefix-affinity router
    (:mod:`repro.cluster`), each running the same scheduler settings
    with its own ``budget``-token pool, and
    reports the cluster roll-up (``cluster_throughput_tokens_per_round``,
    ``jain_replica_index``, request-weighted prefix hit rate);
    ``routing`` picks the routing mode (``prefix`` / ``random`` /
    ``least-loaded``).
    ``tiering`` switches the pool to the two-tier bit-plane memory
    (spill-before-preempt), with
    ``tier_min_planes`` the residency floor and ``tier_restore_blocks``
    the per-round prefetch-restore cap — the report gains the
    accuracy-vs-pressure columns (``degraded_token_fraction``,
    ``planes_resident_*``, spill/restore bytes).
    ``speculative`` swaps the stream for a draft-friendly workload
    (:func:`repro.eval.workloads.build_speculative_workload`) served in
    draft-verify mode — ``draft_policy`` picks the draftable proposer,
    ``draft_tokens`` the per-round draft depth — and the report gains the
    ``spec_*`` block (rounds, drafted/accepted/emitted tokens,
    accepted-tokens-per-round, rollbacks).  ``parallel_samples`` > 1
    forks every request into that many n-best decode lineages off one
    shared prefill (:func:`repro.eval.workloads.build_parallel_workload`),
    adding the ``parallel_*`` / ``pool_amplification_factor`` columns.
    Neither builder serves a ``scenario``; under them, as under a
    scenario, ``prefix_sharing`` is the pool knob only.  Which modes
    combine is :data:`repro.engine.scheduler.REFUSED_MODE_PAIRS`'s call.
    Deterministic for a given seed — safe for ``--json`` smoke runs.
    """
    from repro.engine import PadeEngine
    from repro.engine.scheduler import check_modes
    from repro.eval.serving_metrics import summarize_serving
    from repro.eval.workloads import (
        build_prefix_workload,
        build_scenario_workload,
        build_serving_workload,
    )

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if parallel_samples < 1:
        raise ValueError(f"parallel_samples must be >= 1, got {parallel_samples}")
    engine = PadeEngine(PadeConfig.standard(), policy=attention)
    tenant_weights = None
    check_modes(baseline=engine.policy.name != "pade", prefix_sharing=prefix_sharing,
                chunked_prefill=bool(chunk), tiering=tiering, speculative=speculative,
                n_best=parallel_samples > 1)
    if (speculative or parallel_samples > 1) and scenario:
        raise ValueError(
            "speculative / parallel sampling build their own workloads; drop --scenario"
        )
    if speculative:
        from repro.eval.workloads import build_speculative_workload

        workload = build_speculative_workload(
            requests, num_heads, context, steps, head_dim,
            rate=rate, seed=seed, draft_tokens=draft_tokens,
        )
    elif parallel_samples > 1:
        from repro.eval.workloads import build_parallel_workload

        workload = build_parallel_workload(
            requests, num_heads, context, steps, head_dim,
            n_samples=parallel_samples, rate=rate, seed=seed,
        )
    elif scenario is not None:
        # With a scenario, --prefix-sharing is the pool knob only (the
        # scenario keeps its own workload): the agentic scenario in
        # particular generates turn-over-turn growing prompts whose
        # shared prefixes only pay off with pool sharing enabled.
        specs = None
        if scenario == "multi_tenant":
            from repro.eval.workloads import default_tenant_specs

            # Requests carry no weights, so the fair policy's per-tenant
            # weights are collected off the specs and handed to serve().
            specs = default_tenant_specs(
                tenants, rate, context_len=context, decode_steps=steps
            )
            tenant_weights = {s.name: s.weight for s in specs}
        workload = build_scenario_workload(
            scenario, requests, num_heads, head_dim,
            context_len=context, decode_steps=steps, rate=rate,
            tenants=tenants, tenant_specs=specs, seed=seed,
        )
    elif prefix_sharing:
        # A shared-system-prompt stream: half the prompt is the common
        # prefix, so the hit rate and blocks-saved figures are non-trivial.
        workload = build_prefix_workload(
            requests, num_heads, max(block_size, context // 2),
            max(1, context // 2), steps, head_dim, rate=rate, seed=seed,
        )
    else:
        workload = build_serving_workload(
            requests, num_heads, context, steps, head_dim, rate=rate, seed=seed
        )
    serve_kwargs = dict(
        max_active=max_active,
        token_budget=budget,
        block_size=block_size,
        policy=policy,
        prefix_sharing=prefix_sharing,
        chunk_tokens=chunk,
        round_token_budget=round_tokens,
        tenant_weights=tenant_weights,
        draft_policy=draft_policy,
    )
    if tiering:
        from repro.engine.cache import TierConfig

        serve_kwargs["tiering"] = TierConfig(
            min_resident_planes=tier_min_planes,
            restore_blocks_per_round=tier_restore_blocks,
        )
    if replicas > 1:
        # Sharded serving: the workload fans out over subprocess workers,
        # each a full engine with a private pool, behind the affinity
        # router.
        from repro.cluster.server import serve_workload_over_cluster

        _dones, ack, _cluster = serve_workload_over_cluster(
            workload,
            replicas=replicas,
            routing=routing,
            barrier=True,
            seed=seed,
            port=port,
            attention=attention,
            **serve_kwargs,
        )
        report = ack["report"]
    elif async_serve:
        # Same workload, same scheduler knobs, but served over a real
        # loopback socket with per-token streaming.  Deterministic-replay
        # mode (all submits land before round 0) makes the round-clock
        # report identical to the in-process path; the wall_*_ms block
        # on top is measured, not simulated.
        from repro.serve.client import serve_workload_over_loopback

        _dones, _ack, server = serve_workload_over_loopback(
            engine, workload, barrier=True, port=port, **serve_kwargs
        )
        report = server.report()
    else:
        results = engine.serve(workload, **serve_kwargs)
        scheduler = engine.last_serve
        report = summarize_serving(results.values(), scheduler=scheduler)
    return {
        "backend": resolve_backend_name(),
        "attention_policy": engine.policy.name,
        "policy": policy,
        "scenario": scenario or "",
        # summarize_serving emits "tenants" (distinct tenants observed in
        # results); this echoes the configured knob under its own key.
        "tenants_configured": float(tenants),
        "rate": rate,
        "token_budget": float(budget),
        "block_size": float(block_size),
        "max_active": float(max_active),
        "prefix_sharing": float(prefix_sharing),
        "chunk_tokens": float(chunk),
        "round_token_budget": float(round_tokens),
        "async_serve": float(async_serve),
        "replicas_configured": float(replicas),
        "routing": routing,
        "speculative": float(speculative),
        "parallel_samples": float(parallel_samples),
        "draft_policy_configured": draft_policy if speculative else "",
        "draft_tokens_configured": float(draft_tokens),
        **report,
        "engine_sparsity": engine.stats.sparsity,
    }


def fig26_decoding(
    seq_lens: Sequence[int] = (4096, 8192, 16384), steps: int = 256
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Long-sequence decoding energy breakdown: dense / SOFA / PADE."""
    model = get_model("llama2-7b")
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for seq in seq_lens:
        stats = measure_pipeline_stats(model, seq)
        w = AttentionWorkload(
            num_queries=steps, seq_len=seq, head_dim=model.head_dim,
            num_heads=model.num_heads, num_layers=model.num_layers, decode=True,
            oracle_keep=stats.keep_fraction / 1.05, mean_planes=stats.mean_planes,
        )
        dense = DenseAccelerator().cost(w)
        reports = {"dense": dense, "sofa": SofaModel().cost(w), "pade": PadeAnalyticModel().cost(w)}
        out[seq] = {}
        for n, r in reports.items():
            e = r.energy_pj
            total = r.total_energy_pj
            out[seq][n] = {
                "total_vs_dense": total / dense.total_energy_pj,
                "dram_share": (e.get("dram", 0.0) + e.get("predictor_memory", 0.0) * 0.8 + e.get("gpu_dynamic", 0.0) * 0.0) / total,
                "buffer_share": e.get("sram", 0.0) / total,
                "compute_share": (e.get("compute", 0.0) + e.get("predictor_compute", 0.0)) / total,
            }
    return out
