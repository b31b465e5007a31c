"""Vectorized fast path for the fused filter (batch of query rows at once).

:func:`repro.core.bsf.bsf_filter` loops query rows in Python; this variant
runs the whole query block per bit round with one matmul, trading the exact
per-row "observe then decide within a round" interleaving for a synchronous
round barrier across the block.  The two produce identical results because
the threshold is row-private either way — only the loop structure differs.

The kernels read the keys in integer form (``BitPlanes.ints``): by the
truncation identity the running partial after round ``r`` is
``q · (k & prefix_masks(bits)[r])``, so each round is one product of the
query with a masked-integer slab and no plane is ever weighted or summed.
The matmuls run in the float dtype :func:`exact_dot_dtype` picks, in which
every such product is exact (:func:`plane_products`), and the op counters
read the planes' cached popcounts.  Used by the harness and benches where
the functional pass dominates runtime (~5-8× faster on 8×2048 problems).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bsf import BSFResult
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import BitPlanes, prefix_masks

__all__ = ["bsf_filter_fast", "bsf_filter_fast_heads", "exact_dot_dtype", "plane_products"]

#: Largest integer magnitudes float32 / float64 represent exactly.
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53


def exact_dot_dtype(q: np.ndarray, head_dim: int, bits: int) -> type:
    """Float dtype in which every masked-key product ``q · (k & mask)`` is exact.

    A masked ``bits``-wide key entry has magnitude at most
    ``2^(bits-1)``, so every partial sum of a ``head_dim``-long product
    has magnitude at most ``head_dim · max|q| · 2^(bits-1)``.  While that
    bound stays below the mantissa limit every partial sum is an exactly
    representable integer, so a BLAS matmul returns the int64 result
    bit for bit whatever its summation order (DESIGN.md §13).
    """
    qa = np.asarray(q)
    q_max = max(int(qa.max()), -int(qa.min())) if qa.size else 0
    bound = head_dim * q_max << (bits - 1)
    if bound < _FLOAT32_EXACT:
        return np.float32
    if bound < _FLOAT64_EXACT:
        return np.float64
    raise ValueError(
        f"query magnitude {q_max} x head_dim {head_dim} x 2^{bits - 1} reaches 2^53: "
        "bit-round products would not be exact in float64"
    )


def plane_products(q_dot: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """Exact ``q · slab`` of every query row with every slab row, as int64.

    ``q_dot`` has shape ``(..., P, D)`` in the dtype :func:`exact_dot_dtype`
    chose; ``slab`` has shape ``(..., S, D)`` with masked-key entries
    (``k & prefix_masks(bits)[r]``).  Returns ``(..., P, S)``.  One
    batched ``np.matmul`` runs a matrix-vector product per query row:
    BLAS gemm on a few rows can wake sleeping worker threads and take
    milliseconds (up to 100x a gemv on a busy 2-core host), while gemv
    stays fast at every row count.
    """
    products = np.matmul(slab.astype(q_dot.dtype, copy=False)[..., None, :, :], q_dot[..., None])
    return products[..., 0].astype(np.int64)


def _masked(keys: np.ndarray, mask: np.integer, dtype: type) -> np.ndarray:
    """``keys & mask`` converted to the product dtype in one pass."""
    out = np.empty(keys.shape, dtype=dtype)
    np.bitwise_and(keys, mask, out=out, casting="unsafe")
    return out


def bsf_filter_fast(
    q_int: np.ndarray,
    key_planes: BitPlanes,
    guard: float,
    allowed: Optional[np.ndarray] = None,
    protect: Optional[np.ndarray] = None,
) -> BSFResult:
    """Drop-in vectorized equivalent of :func:`repro.core.bsf.bsf_filter`."""
    q = np.atleast_2d(np.asarray(q_int, dtype=np.int64))
    num_rows = q.shape[0]
    bits = key_planes.bits
    num_keys, head_dim = key_planes.value_shape
    q_dot = q.astype(exact_dot_dtype(q, head_dim, bits))
    lut = build_bui_lut(q, bits=bits)
    keys = key_planes.ints
    masks = prefix_masks(bits).astype(keys.dtype)

    if allowed is None:
        alive = np.ones((num_rows, num_keys), dtype=bool)
    else:
        arr = np.asarray(allowed, dtype=bool)
        alive = np.broadcast_to(arr, (num_rows, num_keys)).copy()
    if protect is None:
        protected = np.zeros((num_rows, num_keys), dtype=bool)
    else:
        arr = np.asarray(protect, dtype=bool)
        protected = np.broadcast_to(arr, (num_rows, num_keys))

    # Running partial of every cell: alive cells read it, dead ones never
    # do, and a cell still alive at the end was alive in every round.
    partial = np.zeros((num_rows, num_keys), dtype=np.int64)
    planes_processed = np.zeros((num_rows, num_keys), dtype=np.int64)
    max_lb = np.full(num_rows, -np.inf)

    loads = 0
    eff_ops = 0
    naive_ops = 0
    guard_vec = guard if np.isfinite(guard) else np.inf

    for r in range(bits):
        if not alive.any():
            break
        partial = plane_products(q_dot, _masked(keys, masks[r], q_dot.dtype))  # (P, S)
        planes_processed = np.where(alive, r + 1, planes_processed)
        loads += int(alive.sum())
        pc = key_planes.popcounts[r].astype(np.int64)
        eff = np.minimum(pc, head_dim - pc)
        eff_ops += int((eff[None, :] * alive).sum())
        naive_ops += int((pc[None, :] * alive).sum())

        lb = partial + lut.i_min[:, r + 1][:, None]
        ub = partial + lut.i_max[:, r + 1][:, None]
        # Row-private running max over all alive tokens' lower bounds.
        lb_masked = np.where(alive, lb, -np.inf)
        max_lb = np.maximum(max_lb, lb_masked.max(axis=1, initial=-np.inf))
        threshold = max_lb - guard_vec if np.isfinite(guard_vec) else np.full(num_rows, -np.inf)
        keep = (ub >= threshold[:, None]) | protected
        alive &= keep

    retained = alive
    scores = np.where(retained, partial, 0)
    return BSFResult(
        retained=retained,
        planes_processed=planes_processed,
        scores=scores,
        bit_plane_loads=loads,
        effective_bit_ops=eff_ops,
        naive_bit_ops=naive_ops,
    )


def bsf_filter_fast_heads(
    q_int: np.ndarray,
    key_planes: BitPlanes,
    guards: np.ndarray,
    allowed: Optional[np.ndarray] = None,
    protect: Optional[np.ndarray] = None,
) -> BSFResult:
    """Head-batched fused filter: one batched matmul covers every head per round.

    The multi-head extension of :func:`bsf_filter_fast` the serving engine
    dispatches on.  ``q_int`` has shape ``(Hh, P, H)``, ``key_planes``
    value shape ``(Hh, S, H)`` (one Key matrix per head), and ``guards``
    one integer-unit guard per head (heads quantize independently, so the
    logit→integer conversion differs per head).  ``allowed`` / ``protect``
    may be ``(Hh, P, S)`` or any shape broadcastable to it (e.g. a shared
    causal ``(P, S)`` mask).

    The per-(head, row) threshold recursion is exactly the single-head fast
    path's, so the result fields match a per-head loop over
    :func:`bsf_filter_fast` bit for bit; the returned :class:`BSFResult`
    carries ``(Hh, P, S)`` arrays.  The products are exact float matmuls
    (:func:`exact_dot_dtype`) and the op counters read
    ``key_planes.popcounts``.
    """
    q = np.asarray(q_int, dtype=np.int64)
    if q.ndim != 3:
        raise ValueError(f"expected (heads, rows, dim) queries, got shape {q.shape}")
    num_heads, num_rows, head_dim = q.shape
    vshape = key_planes.value_shape
    if len(vshape) != 3 or vshape[0] != num_heads or vshape[2] != head_dim:
        raise ValueError(
            f"key planes value shape {vshape} does not match "
            f"({num_heads}, S, {head_dim}) queries"
        )
    bits = key_planes.bits
    num_keys = key_planes.value_shape[1]
    guards = np.broadcast_to(np.asarray(guards, dtype=np.float64), (num_heads,))
    q_dot = q.astype(exact_dot_dtype(q, head_dim, bits))
    popcounts = key_planes.popcounts
    keys = key_planes.ints
    masks = prefix_masks(bits).astype(keys.dtype)

    lut = build_bui_lut(q.reshape(num_heads * num_rows, head_dim), bits=bits)
    i_min = lut.i_min.reshape(num_heads, num_rows, bits + 1)
    i_max = lut.i_max.reshape(num_heads, num_rows, bits + 1)

    shape = (num_heads, num_rows, num_keys)
    if allowed is None:
        alive = np.ones(shape, dtype=bool)
    else:
        alive = np.broadcast_to(np.asarray(allowed, dtype=bool), shape).copy()
    if protect is None:
        protected = np.zeros(shape, dtype=bool)
    else:
        protected = np.broadcast_to(np.asarray(protect, dtype=bool), shape)

    partial = np.zeros(shape, dtype=np.int64)
    planes_processed = np.zeros(shape, dtype=np.int64)
    max_lb = np.full((num_heads, num_rows), -np.inf)
    finite_guard = np.isfinite(guards)

    loads = 0
    eff_ops = 0
    naive_ops = 0

    # Column compaction: once a key is pruned for every (head, row) it can
    # never contribute again, so later rounds gather only the surviving
    # candidate columns — the vectorized analogue of the reference row
    # kernel's shrinking alive-index set.  Results are unaffected; only the
    # dead-column work is skipped.
    cols = np.arange(num_keys)
    for r in range(bits):
        active_cols = np.flatnonzero(alive[:, :, cols].any(axis=(0, 1)))
        if active_cols.size == 0:
            break
        if active_cols.size < cols.size:
            cols = cols[active_cols]
        alive_c = alive[:, :, cols]
        slab = _masked(keys[:, cols, :], masks[r], q_dot.dtype)  # (Hh, S', H)
        sub = plane_products(q_dot, slab)  # (Hh, P, S') running partials
        partial[:, :, cols] = sub
        planes_processed[:, :, cols] = np.where(alive_c, r + 1, planes_processed[:, :, cols])
        loads += int(alive_c.sum())
        pc = popcounts[r][:, cols].astype(np.int64)  # (Hh, S')
        eff = np.minimum(pc, head_dim - pc)
        eff_ops += int((eff[:, None, :] * alive_c).sum())
        naive_ops += int((pc[:, None, :] * alive_c).sum())

        lb = sub + i_min[:, :, r + 1][:, :, None]
        ub = sub + i_max[:, :, r + 1][:, :, None]
        lb_masked = np.where(alive_c, lb, -np.inf)
        max_lb = np.maximum(max_lb, lb_masked.max(axis=2, initial=-np.inf))
        threshold = np.where(finite_guard[:, None], max_lb - guards[:, None], -np.inf)
        keep = (ub >= threshold[:, :, None]) | protected[:, :, cols]
        alive[:, :, cols] = alive_c & keep

    retained = alive
    scores = np.where(retained, partial, 0)
    return BSFResult(
        retained=retained,
        planes_processed=planes_processed,
        scores=scores,
        bit_plane_loads=loads,
        effective_bit_ops=eff_ops,
        naive_bit_ops=naive_ops,
    )
