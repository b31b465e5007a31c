"""FP-format queries via exponent alignment (paper §VI-F, FP extension).

K/V quantize safely to INT8 (softmax normalization suppresses their
quantization noise), but a deployment may keep Q in floating point.  PADE
handles this by *exponent alignment* (following BitMod/FIGNA-style FP-INT
units): the FP query row is decomposed into a shared power-of-two exponent
and an integer mantissa row, the bit-serial pipeline runs unchanged on the
mantissas, and results/intervals are rescaled by the shared exponent.

Because the alignment is exact up to mantissa truncation, the BUI bounds
computed on the aligned mantissas remain sound for the *aligned* product,
and the truncation error is bounded by ``2^(exp) * n * |k|_max`` — accounted
here by widening the guard, so no false pruning is introduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.bsf import BSFRowResult
from repro.quant.bitplane import BitPlanes

__all__ = ["AlignedQuery", "align_query", "fp_bsf_filter_row"]


@dataclass(frozen=True)
class AlignedQuery:
    """An FP query row expressed as ``mantissa * 2^exponent``."""

    mantissa: np.ndarray  # int64, fits the mantissa bit width
    exponent: int  # shared power-of-two scale
    truncation_error: float  # max |q - mantissa * 2^exponent| per element

    def reconstruct(self) -> np.ndarray:
        return self.mantissa.astype(np.float64) * (2.0 ** self.exponent)


def align_query(q_row: np.ndarray, mantissa_bits: int = 12) -> AlignedQuery:
    """Align one FP query row to a shared exponent + integer mantissas.

    The shared exponent is chosen so the largest |q| fills the mantissa
    range; smaller elements lose their sub-ulp fraction (the truncation the
    guard widening covers).
    """
    q = np.asarray(q_row, dtype=np.float64)
    max_abs = float(np.max(np.abs(q))) if q.size else 0.0
    if max_abs == 0.0:
        return AlignedQuery(np.zeros(q.shape, dtype=np.int64), 0, 0.0)
    qmax = (1 << (mantissa_bits - 1)) - 1
    # ceil(log2(max_abs / qmax)) with max_abs split as frac * 2^exp2, so
    # a subnormal row never underflows the ratio to 0; the clamp keeps
    # 2^exponent at or above the smallest subnormal.
    frac, exp2 = np.frexp(max_abs)
    exponent = max(int(exp2) + int(np.ceil(np.log2(frac / qmax))), -1074)
    scale = 2.0 ** exponent
    mantissa = np.floor(q / scale + 0.5).astype(np.int64)
    mantissa = np.clip(mantissa, -qmax - 1, qmax)
    err = float(np.max(np.abs(q - mantissa * scale)))
    return AlignedQuery(mantissa=mantissa, exponent=exponent, truncation_error=err)


def fp_bsf_filter_row(
    q_row_fp: np.ndarray,
    key_planes: BitPlanes,
    guard_logits: float,
    logit_scale_k: float,
    mantissa_bits: int = 12,
    backend=None,
) -> Tuple[BSFRowResult, AlignedQuery]:
    """Run the fused filter with an FP query row.

    Parameters
    ----------
    q_row_fp:
        Float query row (no prior quantization).
    key_planes:
        INT-K bit planes.
    guard_logits:
        Guard in logit units.
    logit_scale_k:
        Factor mapping (aligned-int score) × 2^exponent to logits, i.e. the
        K scale divided by sqrt(H) — the query side is exact by alignment.
    mantissa_bits:
        Mantissa width of the alignment (wider = less truncation).
    backend:
        Kernel backend name or instance; ``None`` resolves via the
        registry (:mod:`repro.core.backend`).
    """
    from repro.core.backend import get_backend

    aligned = align_query(np.asarray(q_row_fp, dtype=np.float64), mantissa_bits)
    head_dim = key_planes.value_shape[1]
    scale = (2.0 ** aligned.exponent) * logit_scale_k
    if scale <= 0:
        guard_int = float("inf")
    else:
        guard_int = guard_logits / scale
        # Widen by the worst-case truncation contribution (sum over dims of
        # |k|_max x per-element truncation, expressed in aligned-int units)
        # so the FP-exact score still respects the pruning guarantee.
        k_max = (1 << (key_planes.bits - 1)) - 1
        trunc_int = aligned.truncation_error / (2.0 ** aligned.exponent)
        guard_int += 2.0 * head_dim * k_max * trunc_int
    res = get_backend(backend).filter_row(aligned.mantissa, key_planes, guard_int)
    return res, aligned
