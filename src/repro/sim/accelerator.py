"""Full-accelerator simulation of PADE with ablation switches.

``PadeAccelerator.run_head`` simulates one attention head end to end:

1. the functional pipeline (quantize → BSF guarded filtering → ISTA) gives
   exact retention/plane statistics;
2. :func:`repro.sim.qkpu.simulate_qkpu` turns them into QK-phase timing with
   BS/OOE on or off;
3. the DRAM/SRAM models convert traffic into cycles and energy, honouring
   the bit-plane-first layout (Fig. 22) and the scoreboard's result reuse;
4. :func:`repro.sim.vpu.simulate_vpu` times the V phase with or without
   RARS.

Every paper ablation is a switch here: ``enable_sparsity`` (BUI-GF),
``enable_bs`` / ``enable_ooe`` (BS-OOE), ``enable_ista`` (tiling),
``enable_result_reuse`` (scoreboard), ``enable_rars``, ``custom_layout``
(DL).  Disabling everything yields the dense baseline ASIC of Fig. 16(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.core.backend import get_backend
from repro.core.bui_gf import guard_in_int_units
from repro.core.config import PadeConfig
from repro.core.ista import ista_attention
from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import quantize_symmetric
from repro.sim.dram import DramStats, HBMModel
from repro.sim.qkpu import simulate_qkpu
from repro.sim.sram import SramBuffer
from repro.sim.tech import DEFAULT_TECH, TechConfig
from repro.sim.vpu import simulate_vpu

__all__ = ["AcceleratorConfig", "SimReport", "PadeAccelerator"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Feature switches + algorithm config for one simulation."""

    pade: PadeConfig = field(default_factory=PadeConfig.standard)
    enable_sparsity: bool = True  # BUI-GF guarded filtering
    enable_bs: bool = True  # bidirectional bit sparsity
    enable_ooe: bool = True  # out-of-order bit-plane execution
    enable_ista: bool = True  # sparsity-tiled attention
    enable_result_reuse: bool = True  # scoreboard partial-score caching
    enable_rars: bool = True  # reuse-aware V scheduling
    custom_layout: bool = True  # bit-plane-first DRAM layout (DL)
    bit_serial: bool = True  # False = value-level INT8 QK (Fig. 18a)

    def dense_baseline(self) -> "AcceleratorConfig":
        """The no-sparse-modules baseline of Figs. 16(a)/19."""
        return replace(
            self,
            enable_sparsity=False,
            enable_bs=False,
            enable_ooe=False,
            enable_ista=False,
            enable_result_reuse=False,
            enable_rars=False,
            bit_serial=False,
        )


@dataclass
class SimReport:
    """Latency + energy + utilization summary of one simulated workload."""

    latency_cycles: float
    energy_breakdown_pj: Dict[str, float]
    dense_equivalent_ops: float
    sparsity: float = 0.0
    mean_planes: float = 0.0
    utilization: float = 1.0
    bw_utilization: float = 0.0
    dram_bytes: float = 0.0
    dram_activations: float = 0.0
    useful_fraction: float = 1.0
    intra_pe_stall_fraction: float = 0.0
    inter_pe_stall_fraction: float = 0.0
    v_reload_overhead: float = 0.0
    tech: TechConfig = field(default=DEFAULT_TECH, repr=False)

    @property
    def energy_pj(self) -> float:
        return float(sum(self.energy_breakdown_pj.values()))

    @property
    def latency_s(self) -> float:
        return self.latency_cycles * self.tech.cycle_time_s

    @property
    def throughput_gops(self) -> float:
        """Dense-equivalent GOPS (paper's convention: sparsity counts as
        useful work avoided, so the dense op count is the numerator)."""
        if self.latency_s <= 0:
            return 0.0
        return self.dense_equivalent_ops / self.latency_s / 1e9

    @property
    def gops_per_watt(self) -> float:
        if self.energy_pj <= 0:
            return 0.0
        return self.dense_equivalent_ops / (self.energy_pj * 1e-12) / 1e9

    def scaled(self, factor: float) -> "SimReport":
        """Scale latency/energy/traffic linearly (heads × layers extrapolation)."""
        return SimReport(
            latency_cycles=self.latency_cycles * factor,
            energy_breakdown_pj={k: v * factor for k, v in self.energy_breakdown_pj.items()},
            dense_equivalent_ops=self.dense_equivalent_ops * factor,
            sparsity=self.sparsity,
            mean_planes=self.mean_planes,
            utilization=self.utilization,
            bw_utilization=self.bw_utilization,
            dram_bytes=self.dram_bytes * factor,
            dram_activations=self.dram_activations * factor,
            useful_fraction=self.useful_fraction,
            intra_pe_stall_fraction=self.intra_pe_stall_fraction,
            inter_pe_stall_fraction=self.inter_pe_stall_fraction,
            v_reload_overhead=self.v_reload_overhead,
            tech=self.tech,
        )


class PadeAccelerator:
    """Cycle-approximate model of the PADE accelerator."""

    def __init__(
        self, config: Optional[AcceleratorConfig] = None, tech: TechConfig = DEFAULT_TECH
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.tech = tech
        self.hbm = HBMModel(tech)

    # ------------------------------------------------------------------
    def run_head(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> SimReport:
        """Simulate one attention head (a block of queries vs S keys)."""
        cfg = self.config
        tech = self.tech
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        num_queries, head_dim = q.shape
        num_keys = k.shape[0]
        bits = cfg.pade.bits

        q_int = quantize_symmetric(q, bits=bits)
        k_int = quantize_symmetric(k, bits=bits)
        key_planes = decompose_bitplanes(k_int.data, bits=bits)
        logit_scale = float(q_int.scale) * float(k_int.scale)
        if cfg.pade.scale_logits:
            logit_scale /= np.sqrt(head_dim)

        # --- Functional pass: retention + plane statistics ---------------
        kernel = get_backend(cfg.pade.backend)
        if cfg.enable_sparsity:
            guard = guard_in_int_units(cfg.pade.alpha, cfg.pade.radius, logit_scale)
            if cfg.enable_ista:
                func = ista_attention(
                    q_int.data, key_planes, np.asarray(v, dtype=np.float64),
                    guard, logit_scale,
                    tile_size=cfg.pade.tile_size,
                    interleave=cfg.pade.head_tail_interleave,
                    backend=kernel,
                )
                retained = func.retained
                rescale_ops = func.stats.rescale_vector_ops
                # Re-derive per-pair plane counts from a row-wise pass (the
                # ISTA pass shares them; loads differ only by window order).
                bsf = kernel.filter(q_int.data, key_planes, guard)
                planes = bsf.planes_processed
                effective_ops = bsf.effective_bit_ops
            else:
                bsf = kernel.filter(q_int.data, key_planes, guard)
                retained = bsf.retained
                planes = bsf.planes_processed
                effective_ops = bsf.effective_bit_ops
                rescale_ops = 0
        else:
            retained = np.ones((num_queries, num_keys), dtype=bool)
            planes = np.full((num_queries, num_keys), bits, dtype=np.int64)
            pc = key_planes.popcounts.astype(np.int64)
            eff = np.minimum(pc, head_dim - pc) if cfg.enable_bs else pc
            effective_ops = int(eff.sum()) * num_queries
            rescale_ops = 0

        sparsity = 1.0 - float(retained.sum()) / retained.size
        mean_planes = float(planes.mean())

        # --- QK phase timing ---------------------------------------------
        if cfg.bit_serial:
            qk = simulate_qkpu(
                planes,
                key_planes,
                tech=tech,
                bidirectional=cfg.enable_bs,
                out_of_order=cfg.enable_ooe,
                effective_bit_ops=effective_ops,
            )
            qk_cycles = qk.cycles
            qk_energy = qk.energy_pj
        else:
            # Value-level INT8: a lane computes a 64-dim MAC per cycle but
            # pays no bit-shift pipeline; retained pairs only when sparse.
            pairs = int(retained.sum()) if cfg.enable_sparsity else num_queries * num_keys
            qk_cycles = pairs / tech.num_lanes * (head_dim / tech.lane_dims)
            qk_energy = pairs * head_dim * tech.int8_mac_pj
            qk = None

        # --- DRAM traffic ---------------------------------------------------
        # Bit planes are broadcast to the 8 PE rows: one fetch serves every
        # query in the block, so the load count is the per-token max.
        if cfg.bit_serial:
            shared_planes = planes.max(axis=0)  # (S,)
            plane_loads = int(shared_planes.sum())
            if not cfg.enable_result_reuse:
                # Without the scoreboard, round r must re-fetch planes 0..r.
                tri = (shared_planes * (shared_planes + 1)) // 2
                plane_loads = int(tri.sum())
            k_dram = self.hbm.read_bit_planes(
                plane_loads, head_dim, custom_layout=cfg.custom_layout
            )
        else:
            k_dram = self.hbm.read_rows(num_keys, head_dim * bits / 8)
            plane_loads = num_keys * bits

        q_dram = self.hbm.read_rows(num_queries, head_dim * bits / 8)

        # --- V phase -------------------------------------------------------
        vpu = simulate_vpu(
            retained,
            head_dim,
            tech=tech,
            use_rars=cfg.enable_rars,
            rescale_vector_ops=rescale_ops,
        )
        if cfg.enable_ista:
            v_loads = vpu.v_vector_loads
        else:
            # Without tiling, V fetches are shared only within one PE-row
            # block of 8 queries (hardware broadcast); each block loads the
            # union of its rows' retained V vectors.
            v_loads = 0
            for start in range(0, num_queries, tech.pe_rows):
                block = retained[start : start + tech.pe_rows]
                v_loads += int(block.any(axis=0).sum())
        v_dram = self.hbm.read_rows(v_loads, head_dim * bits / 8)
        out_dram = self.hbm.write_rows(num_queries, head_dim * 2)  # FP16 out

        # Untiled spill: full K + score rows must stay resident; overflow of
        # the KV buffer is re-fetched once per query block of 8.
        spill_dram = DramStats()
        if not cfg.enable_ista:
            kv_buffer = SramBuffer("kv", tech.sram_kv_bytes, tech)
            working = num_keys * head_dim * bits / 8 + num_queries * num_keys * 4
            spill = kv_buffer.allocate(working)
            if spill > 0:
                blocks = max(1, num_queries // tech.pe_rows)
                spill_dram = self.hbm.read_rows(
                    int(spill / (head_dim * bits / 8)) * blocks, head_dim * bits / 8
                )

        dram = k_dram.merge(q_dram).merge(v_dram).merge(out_dram).merge(spill_dram)

        # --- SRAM traffic ----------------------------------------------------
        kv_sram = SramBuffer("kv", tech.sram_kv_bytes, tech)
        q_sram = SramBuffer("q", tech.sram_q_bytes, tech)
        kv_sram.write(k_dram.bytes_transferred + v_dram.bytes_transferred)
        # Each plane byte is read once per consuming PE row.
        if cfg.bit_serial:
            per_row_reads = float((planes * (head_dim / 8)).sum())
        else:
            per_row_reads = float(retained.sum()) * head_dim
        kv_sram.read(per_row_reads + v_loads * head_dim)
        q_sram.write(num_queries * head_dim)
        q_sram.read(num_queries * head_dim * bits)  # Q consumed per plane round

        # --- BUI support energy ---------------------------------------------
        bui_gen = num_queries * head_dim * tech.bit_serial_add_pj * 2  # pos/neg masses
        bui_gf = float(planes.sum()) * tech.comparator_pj

        energy = {
            "qk_compute": float(qk_energy),
            "v_compute": vpu.compute_energy_pj + vpu.apm_energy_pj,
            "sram": kv_sram.energy_pj + q_sram.energy_pj,
            "dram": dram.energy_pj,
            "bui": float(bui_gen + bui_gf),
            "scheduler": vpu.scheduler_energy_pj,
        }

        # --- Latency composition ---------------------------------------------
        # QK-PU and V-PU run as a staggered pipeline; DRAM streaming overlaps
        # compute when OOE is on, otherwise it serializes with the QK phase.
        if cfg.bit_serial or cfg.enable_ooe:
            # The bit-serial QK simulation already charges exposed per-plane
            # DRAM latency to the lanes; the dram term here is the bulk
            # streaming bandwidth bound.
            latency = max(qk_cycles, vpu.cycles, dram.cycles)
        else:
            latency = max(qk_cycles + dram.cycles, vpu.cycles)

        # Static power burns for the whole duration, stalls included — this
        # is why utilization gains (BS-OOE) translate into energy gains.
        energy["static"] = float(latency) * tech.cycle_time_s * tech.static_power_w * 1e12

        ops = 4.0 * num_queries * num_keys * head_dim  # dense MACs x2 (QK+PV), x2 ops/MAC

        report = SimReport(
            latency_cycles=float(latency),
            energy_breakdown_pj=energy,
            dense_equivalent_ops=ops,
            sparsity=sparsity,
            mean_planes=mean_planes,
            utilization=qk.utilization if qk is not None else 0.85,
            bw_utilization=min(1.0, dram.bytes_transferred / max(1e-9, latency * tech.hbm_bytes_per_cycle)),
            dram_bytes=dram.bytes_transferred,
            dram_activations=dram.activations,
            useful_fraction=qk.useful_fraction if qk is not None else 0.85,
            intra_pe_stall_fraction=qk.intra_pe_stall_fraction if qk is not None else 0.0,
            inter_pe_stall_fraction=qk.inter_pe_stall_fraction if qk is not None else 0.15,
            v_reload_overhead=vpu.reload_overhead,
            tech=tech,
        )
        return report

    # ------------------------------------------------------------------
    def run_decode(
        self,
        model,
        context_len: int,
        steps: int = 64,
        alpha: Optional[float] = None,
        resident_fraction: float = 0.0,
    ) -> SimReport:
        """Simulate autoregressive decoding over an existing context.

        Each step appends one token per KV head and streams the cache
        through the fused filter; per-step plane/keep statistics come from
        the functional pipeline (measured at a capped length, extrapolated
        by :func:`repro.eval.workloads.measure_pipeline_stats`).  Decoding
        has no query-side reuse, so this is the memory-dominated regime of
        Figs. 15(c)/26(b).
        """
        from repro.eval.workloads import measure_pipeline_stats
        from repro.sim.kv_cache import KVCache

        cfg = self.config
        tech = self.tech
        a = alpha if alpha is not None else cfg.pade.alpha
        stats = measure_pipeline_stats(model, context_len, alpha=a, bits=cfg.pade.bits)
        mean_planes = stats.mean_planes if cfg.enable_sparsity else float(cfg.pade.bits)
        keep = stats.keep_fraction if cfg.enable_sparsity else 1.0
        if not cfg.bit_serial:
            mean_planes = float(cfg.pade.bits)

        cache = KVCache(head_dim=model.head_dim, bits=cfg.pade.bits, length=context_len, tech=tech)
        heads_layers = model.num_kv_heads * model.num_layers

        k_bytes = v_bytes = append_bytes = 0.0
        for _ in range(steps):
            t = cache.step_traffic(mean_planes, keep, resident_fraction)
            k_bytes += t.k_bytes * heads_layers
            v_bytes += t.v_bytes * heads_layers
            append_bytes += t.append_bytes * heads_layers
            cache.append()

        plane_loads = k_bytes / cache.plane_bytes
        k_dram = self.hbm.read_bit_planes(
            int(plane_loads), model.head_dim, custom_layout=cfg.custom_layout
        )
        v_dram = self.hbm.read_rows(int(v_bytes / cache.row_bytes), cache.row_bytes)
        a_dram = self.hbm.write_rows(int(append_bytes / cache.row_bytes), cache.row_bytes)
        dram = k_dram.merge(v_dram).merge(a_dram)

        # Compute: bit adds for the streamed planes (BS halves), PV MACs for
        # retained rows; per-step query count is heads (one token per head).
        pairs = float(steps) * context_len * model.num_heads * model.num_layers
        bit_adds = pairs * mean_planes * model.head_dim * (0.5 if cfg.enable_bs else 1.0)
        pv_macs = keep * pairs * model.head_dim
        qk_cycles = pairs * mean_planes * max(1.0, model.head_dim / tech.lane_dims) / (
            tech.num_lanes * 0.78
        )
        vpu_cycles = pv_macs / (tech.vpu_rows * tech.vpu_cols * 0.85)
        if cfg.enable_ooe:
            latency = max(qk_cycles, vpu_cycles, dram.cycles)
        else:
            latency = qk_cycles + dram.cycles

        energy = {
            "qk_compute": bit_adds * tech.bit_serial_add_pj + pairs * mean_planes * tech.shift_pj,
            "v_compute": pv_macs * tech.int8_mac_pj + keep * pairs * tech.fp16_exp_pj,
            "sram": (k_bytes + v_bytes) * (tech.sram_read_pj_per_byte + tech.sram_write_pj_per_byte),
            "dram": dram.energy_pj,
            "bui": pairs * mean_planes * tech.comparator_pj,
            "scheduler": 0.0,
            "static": float(latency) * tech.cycle_time_s * tech.static_power_w * 1e12,
        }
        ops = 4.0 * pairs * model.head_dim
        return SimReport(
            latency_cycles=float(latency),
            energy_breakdown_pj=energy,
            dense_equivalent_ops=ops,
            sparsity=1.0 - keep,
            mean_planes=mean_planes,
            utilization=0.78,
            bw_utilization=min(1.0, dram.bytes_transferred / max(1e-9, latency * tech.hbm_bytes_per_cycle)),
            dram_bytes=dram.bytes_transferred,
            dram_activations=dram.activations,
            tech=tech,
        )

    # ------------------------------------------------------------------
    def run_model_attention(
        self,
        model,
        seq_len: int,
        profile=None,
        num_queries: int = 8,
        seq_cap: int = 1024,
        rng: Optional[np.random.Generator] = None,
    ) -> SimReport:
        """Simulate a model's full attention stack at a sequence length.

        A representative head is simulated at ``min(seq_len, seq_cap)`` keys
        and scaled to the full sequence length, head count, query count and
        layer count (traffic and work in attention scale linearly in each).
        """
        from repro.model.synthetic import PROFILE_PRESETS, synthesize_qkv

        rng = rng or np.random.default_rng(11)
        profile = profile or (
            PROFILE_PRESETS["cv"] if model.modality == "cv" else PROFILE_PRESETS["nlp"]
        )
        sim_keys = int(min(seq_len, seq_cap))
        q, k, v = synthesize_qkv(num_queries, sim_keys, model.head_dim, profile, rng)
        head = self.run_head(q, k, v)
        key_scale = seq_len / sim_keys
        query_scale = seq_len / num_queries
        factor = key_scale * query_scale * model.num_heads * model.num_layers
        return head.scaled(factor)
