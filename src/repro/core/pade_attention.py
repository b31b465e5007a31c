"""End-to-end functional PADE attention operator.

This is the public entry point a downstream user calls: float Q/K/V in,
attention output out, with the full predictor-free pipeline in between —
symmetric INT8 quantization, bit-plane decomposition of K, BUI-guarded
bit-serial filtering fused with execution, and ISTA tiling with head-tail
interleaved updates.  Timing/energy simulation consumes the statistics this
operator returns (see :mod:`repro.sim.accelerator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bui_gf import causal_allowed, guard_in_int_units, protection_mask
from repro.core.config import PadeConfig
from repro.core.ista import ISTAResult, ISTAStats, ista_attention
from repro.quant.bitplane import BitPlanes, decompose_bitplanes
from repro.quant.integer import QuantizedTensor, quantize_symmetric

__all__ = ["PadeAttentionResult", "pade_attention", "causal_allowed", "protection_mask"]


@dataclass(frozen=True)
class PadeAttentionResult:
    """Everything the fused pipeline produces for one attention head.

    Attributes
    ----------
    output:
        Attention output, shape ``(P, Hv)``.
    retained:
        Bool mask ``(P, S)`` of keys that survived guarded filtering.
    stats:
        Aggregated :class:`~repro.core.ista.ISTAStats` counters.
    q_int / k_int:
        The quantized operands actually processed (useful for the simulator
        and for audit).
    guard_int:
        The guard used, in integer-score units.
    logit_scale:
        Factor mapping integer scores to logits.
    """

    output: np.ndarray
    retained: np.ndarray
    stats: ISTAStats
    q_int: QuantizedTensor
    k_int: QuantizedTensor
    guard_int: float
    logit_scale: float

    @property
    def sparsity(self) -> float:
        """Fraction of candidate (query, key) pairs pruned."""
        return self.stats.sparsity

    @property
    def mean_planes_per_candidate(self) -> float:
        """Average bit planes fetched per candidate key (≤ bits)."""
        if self.stats.candidate_keys == 0:
            return 0.0
        return self.stats.bit_plane_loads / self.stats.candidate_keys


def pade_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    config: Optional[PadeConfig] = None,
    query_offset: int = 0,
) -> PadeAttentionResult:
    """Compute PADE sparse attention for one head.

    Parameters
    ----------
    q:
        Float queries, shape ``(P, H)`` (or ``(H,)`` for a single decode row).
    k:
        Float keys, shape ``(S, H)``.
    v:
        Float values, shape ``(S, Hv)``.
    config:
        :class:`PadeConfig`; defaults to the paper's standard point.
    query_offset:
        Position of the first query within the key sequence (for causal
        masking during decode).
    """
    cfg = config or PadeConfig.standard()
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"head dims differ: Q has {q.shape[1]}, K has {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError("K and V must have the same sequence length")
    num_queries, head_dim = q.shape
    num_keys = k.shape[0]

    q_int = quantize_symmetric(q, bits=cfg.bits)
    k_int = quantize_symmetric(k, bits=cfg.bits)
    key_planes: BitPlanes = decompose_bitplanes(k_int.data, bits=cfg.bits)

    logit_scale = float(q_int.scale) * float(k_int.scale)
    if cfg.scale_logits:
        logit_scale /= np.sqrt(head_dim)
    guard = guard_in_int_units(cfg.alpha, cfg.radius, logit_scale)

    allowed = causal_allowed(num_queries, num_keys, query_offset) if cfg.causal else None
    protect = protection_mask(
        num_queries, num_keys, cfg.sink_tokens, cfg.recent_tokens, query_offset
    )

    res: ISTAResult = ista_attention(
        q_int.data,
        key_planes,
        v,
        guard,
        logit_scale,
        tile_size=cfg.tile_size,
        interleave=cfg.head_tail_interleave,
        allowed=allowed,
        protect=protect,
        backend=cfg.backend,
    )
    return PadeAttentionResult(
        output=res.output,
        retained=res.retained,
        stats=res.stats,
        q_int=q_int,
        k_int=k_int,
        guard_int=guard,
        logit_scale=logit_scale,
    )
