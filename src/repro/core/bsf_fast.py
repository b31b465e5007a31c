"""Vectorized fast path for the fused filter: one kernel for every shape.

:func:`repro.core.bsf.bsf_filter` loops query rows in Python;
:func:`bsf_filter_fast_batch` runs the per-(request, head, row) threshold
recursion over one ragged ``(R, Hh, P, S_max)`` state, so each bit round
is a handful of array ops covering a whole continuous-batching round.
The fast backend's ``filter`` (``(P, D)`` queries) and ``filter_heads``
(``(Hh, P, D)``) are reshapes into the same call with one request (and
one head), so every fast-backend filter runs this one round loop.

Equivalence rule (DESIGN.md §13): the threshold recursion is row-private
— ``max_lb`` folds only over that (request, head, row)'s alive keys — and
the ragged tail columns past a request's ``S_i`` start dead and can never
be revived (``protect`` is ``False`` there), so they contribute neither
bounds nor counters.  Every per-request slice of the fused state is
therefore *bit for bit* the reference backend's result for that request
alone, including the ``bit_plane_loads`` / ``effective_bit_ops`` /
``naive_bit_ops`` counters, which keep the request axis separate.  The
same rule lets the kernel run query rows in blocks (:data:`BLOCK_CELLS`):
a row's result never reads another row's state.

The products come first, all bit rounds at once.  By the truncation
identity (DESIGN.md §6) the running partial after round ``r`` is
``q · (k & prefix_masks(bits)[r])``, so per (request, head) one gemv
pass (:func:`plane_products`, exact in the float dtype
:func:`exact_dot_dtype` picks) multiplies the query rows with a reused
``(bits·S_i, D)`` float slab of masked integer keys, filled straight
from the head's key rows; the slab stays cache-resident, so the masked
copy never round-trips through memory.  The products *are* the running
partials — no plane weight, no accumulation — and stay in that float
dtype (float32 for every served shape): one ``(R, Hh, rows, bits,
S_max)`` lattice per row block, each gemv writing straight into its
slice.

The rounds then read round ``r``'s partial for every cell, alive or
not.  Dead cells are never read: only alive cells feed the max and the
outputs, and a cell alive at the end was alive in every round, so its
last partial is its exact score.  No column is ever gathered or
compacted — on decode rounds nearly every column stays alive for most
rounds, so compaction saved little and cost gathers and scatters.
Every partial is an integer of
magnitude at most the product bound ``B`` (:func:`_partial_bound`), so
the float compare ``partial + i_max >= max_lb - guard`` is the lattice-
dtype compare ``partial >= ceil(max_lb - guard) - i_max`` — the per-row
cut is formed in float64 on the small ``(R, Hh, rows)`` state, and only
the cell test runs over the lattice.  The op counters
never sum planes: the cells alive at the start of round ``r`` are
exactly those that read plane ``r``, so each round adds their cached
:class:`BitPlanes` popcounts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.bsf import BSFResult
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import BitPlanes, popcount_dtype, prefix_masks

__all__ = ["BSFRound", "bsf_filter_fast_batch", "exact_dot_dtype", "plane_products", "round_arrays"]

#: Largest integer magnitudes float32 / float64 represent exactly.
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53

#: Cells in one row block's ``(R, Hh, rows, bits, S_max)`` product
#: lattice (1 MiB of float32).  Query rows run in blocks of as many rows
#: as fit, at least one, so a large offline ``(P, D)`` call holds one
#: block's lattice instead of ``bits`` full ``(P, S)`` arrays; a decode
#: round (one query row) is always a single block.
BLOCK_CELLS = 1 << 18


class BSFRound(list):
    """The per-request :class:`BSFResult` list of one fused round.

    A plain list of results, which also carries the round's
    ``(R, Hh, P, S_max)`` ``retained`` and ``scores`` arrays: each
    result's ``retained`` / ``scores`` is the view ``[i, :, :, :S_i]`` of
    them, and the ragged tail columns are ``False`` / zero.  Consumers
    that fold the whole round at once read these instead of re-stacking
    the results (:func:`round_arrays`).
    """

    def __init__(self, results, retained: np.ndarray, scores: np.ndarray) -> None:
        super().__init__(results)
        self.retained = retained
        self.scores = scores


def round_arrays(results: Sequence[BSFResult]):
    """``(retained, scores)`` of a round as ``(R, Hh, P, S_max)`` arrays.

    A :class:`BSFRound` hands out the arrays its results view; any other
    result list (the reference backend's per-request loop, a one-request
    ``filter_heads`` call) is zero-padded into fresh ones, so a round's
    consumer has one layout whichever backend filtered it.
    """
    if isinstance(results, BSFRound):
        return results.retained, results.scores
    s_max = max(res.retained.shape[-1] for res in results)
    shape = (len(results),) + results[0].retained.shape[:-1] + (s_max,)
    retained = np.zeros(shape, dtype=bool)
    scores = np.zeros(shape, dtype=np.int64)
    for i, res in enumerate(results):
        s = res.retained.shape[-1]
        retained[i, ..., :s] = res.retained
        scores[i, ..., :s] = res.scores
    return retained, scores


def _partial_bound(q: np.ndarray, head_dim: int, bits: int) -> int:
    """Largest magnitude of any masked-key partial ``q · (k & mask)``.

    A masked ``bits``-wide key entry has magnitude at most
    ``2^(bits-1)``, so every partial sum of a ``head_dim``-long product
    has magnitude at most ``head_dim · max|q| · 2^(bits-1)``.
    """
    qa = np.asarray(q)
    q_max = max(int(qa.max()), -int(qa.min())) if qa.size else 0
    return head_dim * q_max << (bits - 1)


def exact_dot_dtype(q: np.ndarray, head_dim: int, bits: int) -> type:
    """Float dtype in which every masked-key product ``q · (k & mask)`` is exact.

    While :func:`_partial_bound` stays below the mantissa limit every
    partial sum is an exactly representable integer, so a BLAS matmul
    returns the integer result bit for bit whatever its summation order
    (DESIGN.md §13).  float64 also needs the BUI bounds ``partial ±
    i`` (up to twice the bound) below 2^53, where the scalar kernel's
    float64 compare of them is exact too.
    """
    bound = _partial_bound(q, head_dim, bits)
    if bound < _FLOAT32_EXACT:
        return np.float32
    if 2 * bound < _FLOAT64_EXACT:
        return np.float64
    q_max = (bound >> (bits - 1)) // head_dim
    raise ValueError(
        f"query magnitude {q_max} x head_dim {head_dim} x 2^{bits - 1}, doubled for the "
        "BUI bounds, reaches 2^53: bit rounds would not be exact in float64"
    )


def plane_products(q_dot: np.ndarray, slab: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact ``q · slab`` of every query row with every slab row.

    ``q_dot`` has shape ``(P, D)`` in the dtype :func:`exact_dot_dtype`
    chose; ``slab`` has shape ``(..., S, D)`` with masked-key entries
    (``k & prefix_masks(bits)[r]``).  Returns ``(P, ..., S)`` in
    ``q_dot``'s dtype, every entry an exact integer, written into ``out``
    when given (any strided view of that shape, e.g. a lattice slice).
    One broadcast ``np.matmul`` runs a matrix-vector product per query
    row and leading slab index: BLAS gemm on a few rows can wake sleeping
    worker threads and take milliseconds (up to 100x a gemv on a busy
    2-core host), while gemv stays fast at every row count.
    """
    q_col = q_dot.reshape(q_dot.shape[:1] + (1,) * (slab.ndim - 2) + q_dot.shape[1:] + (1,))
    products = np.matmul(
        slab.astype(q_dot.dtype, copy=False), q_col, out=None if out is None else out[..., None]
    )
    return products[..., 0]


def bsf_filter_fast_batch(
    q_ints: Sequence[np.ndarray],
    key_planes: Sequence[BitPlanes],
    guards: Sequence[np.ndarray],
    alloweds: Optional[Sequence[Optional[np.ndarray]]] = None,
    protects: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[BSFResult]:
    """Fused filter round over a ragged batch of requests.

    Parameters
    ----------
    q_ints:
        One integer query block per request, each of shape ``(Hh, P, D)``
        — all requests must share ``(Hh, P, D)`` (one model, one decode
        step per round).
    key_planes:
        One :class:`BitPlanes` per request with value shape
        ``(Hh, S_i, D)``; the ``S_i`` may differ (ragged active set).
    guards:
        One per-head guard vector per request (anything broadcastable to
        ``(Hh,)`` — heads quantize independently per request).
    alloweds / protects:
        Optional per-request masks, each ``None`` or broadcastable to
        ``(Hh, P, S_i)``.

    Returns one :class:`BSFResult` per request, bit for bit equal to the
    reference backend's ``filter_heads`` on that request alone, as a
    :class:`BSFRound` over the round's arrays.
    """
    num_requests = len(key_planes)
    if num_requests == 0:
        return []
    if len(q_ints) != num_requests or len(guards) != num_requests:
        raise ValueError("q_ints, key_planes and guards must have equal lengths")
    if alloweds is None:
        alloweds = [None] * num_requests
    if protects is None:
        protects = [None] * num_requests

    qs = [np.asarray(qi, dtype=np.int64) for qi in q_ints]
    if any(qi.ndim != 3 for qi in qs):
        raise ValueError("each request's queries must have shape (heads, rows, dim)")
    if len({qi.shape for qi in qs}) != 1:
        raise ValueError(f"requests must share (heads, rows, dim); got {[qi.shape for qi in qs]}")
    num_heads, num_rows, head_dim = qs[0].shape
    bits = key_planes[0].bits
    seq_lens = []
    for i, kp in enumerate(key_planes):
        vshape = kp.value_shape
        if kp.bits != bits:
            raise ValueError("all requests must share the plane bit width")
        if len(vshape) != 3 or vshape[0] != num_heads or vshape[2] != head_dim:
            raise ValueError(
                f"request {i} key planes value shape {vshape} does not match "
                f"({num_heads}, S, {head_dim}) queries"
            )
        seq_lens.append(vshape[1])
    s_max = max(seq_lens)

    q = np.stack(qs)  # (R, Hh, P, D)
    q_dot = q.astype(exact_dot_dtype(q, head_dim, bits))
    guard_mat = np.stack(
        [np.broadcast_to(np.asarray(g, dtype=np.float64), (num_heads,)) for g in guards]
    )  # (R, Hh)

    shape = (num_requests, num_heads, num_rows, s_max)
    alive = np.zeros(shape, dtype=bool)
    protected = np.zeros(shape, dtype=bool)
    # Per-round op weights: plane popcounts and their bidirectional cost.
    pcs = np.zeros((bits, 2, num_requests, num_heads, s_max), dtype=popcount_dtype(head_dim))
    for i, (kp, s) in enumerate(zip(key_planes, seq_lens)):
        pcs[:, 0, i, :, :s] = kp.popcounts
        sub = (num_heads, num_rows, s)
        if alloweds[i] is None:
            alive[i, :, :, :s] = True
        else:
            alive[i, :, :, :s] = np.broadcast_to(np.asarray(alloweds[i], dtype=bool), sub)
        if protects[i] is not None:
            protected[i, :, :, :s] = np.broadcast_to(np.asarray(protects[i], dtype=bool), sub)

    lut = build_bui_lut(q.reshape(num_requests * num_heads * num_rows, head_dim), bits=bits)
    i_min = lut.i_min.reshape(num_requests, num_heads, num_rows, bits + 1)
    i_max = lut.i_max.reshape(num_requests, num_heads, num_rows, bits + 1)
    bound = _partial_bound(q, head_dim, bits)
    np.minimum(pcs[:, 0], head_dim - pcs[:, 0], out=pcs[:, 1])

    # Row blocks: each block fills its own product lattice (zero ragged
    # tails) from one slab buffer reused for every head and request — at
    # decode sizes one head's slab fits a core's L2 where a whole
    # request's would not — then its rounds update its slice of
    # ``alive`` / ``pp`` / ``scores`` in place (basic slices are views).
    pp = np.zeros(shape, dtype=np.uint8)  # bits < 256; widened after the loop
    ops = np.zeros((2, num_requests), dtype=np.int64)  # naive, effective bit ops
    scores = np.zeros(shape, dtype=np.int64)
    masks = prefix_masks(bits)[:, None, None]
    slab_buf = np.empty(bits * s_max * head_dim, dtype=q_dot.dtype)
    block = max(1, BLOCK_CELLS // max(1, bits * num_requests * num_heads * s_max))
    for start in range(0, num_rows, block):
        rows = slice(start, start + block)
        block_rows = min(block, num_rows - start)
        lattice = np.zeros((num_requests, num_heads, block_rows, bits, s_max), q_dot.dtype)
        for i, (kp, s) in enumerate(zip(key_planes, seq_lens)):
            keys = np.asarray(kp.ints)
            key_masks = masks.astype(keys.dtype)
            slab = slab_buf[: bits * s * head_dim].reshape(bits, s, head_dim)
            for h in range(num_heads):
                np.bitwise_and(keys[h], key_masks, out=slab, casting="unsafe")
                plane_products(q_dot[i, h, rows], slab, out=lattice[i, h, :, :, :s])
        scores[:, :, rows] = _run_rounds(
            lattice, alive[:, :, rows], protected[:, :, rows], pp[:, :, rows],
            i_min[:, :, rows], i_max[:, :, rows], guard_mat, bound, pcs, ops,
        )
    pp = pp.astype(np.int64)
    loads = pp.sum(axis=(1, 2, 3))  # bit_plane_loads == sum of rounds processed

    results = [
        BSFResult(
            retained=alive[i, :, :, :s],
            planes_processed=pp[i, :, :, :s],
            scores=scores[i, :, :, :s],
            bit_plane_loads=int(loads[i]),
            effective_bit_ops=int(ops[1, i]),
            naive_bit_ops=int(ops[0, i]),
        )
        for i, s in enumerate(seq_lens)
    ]
    return BSFRound(results, alive, scores)


def _run_rounds(
    lattice: np.ndarray,
    alive: np.ndarray,
    protected: np.ndarray,
    pp: np.ndarray,
    i_min: np.ndarray,
    i_max: np.ndarray,
    guard_mat: np.ndarray,
    bound: int,
    pcs: np.ndarray,
    ops: np.ndarray,
) -> np.ndarray:
    """The bit rounds of one row block; returns the block's scores.

    Updates ``alive`` (the block's allowed mask on entry, its retained
    mask on exit), ``pp`` (rounds processed) and ``ops`` (the
    ``(naive, effective)`` bit-op counters per request, weighted by
    ``pcs``) in place.  ``bound`` is :func:`_partial_bound`.
    """
    # Masked-max penalty: an alive cell adds 0 (exact), a dead one lands
    # below every partial.  Multiply-and-add is branch-free, where
    # ``np.where`` or a ``where=`` reduction slows several-fold on a
    # mixed alive mask.  A row with no alive key folds in a hugely
    # negative (not -inf) bound; its cut then keeps everything, and the
    # row is permanently dead anyway.
    sink = lattice.dtype.type(-4 * (bound + 1))
    lifted = np.empty(alive.shape, dtype=lattice.dtype)
    # A non-finite guard keeps everything: an infinite guard puts the
    # threshold at -inf.
    guard = np.where(np.isfinite(guard_mat), guard_mat, np.inf)[:, :, None]
    max_lb = np.full(alive.shape[:3], -np.inf)
    # Running-partial invariant: ``lattice[..., r, :]`` holds round r's
    # partial for every cell, but only alive cells are ever read, and
    # alive cells have been alive since round 0 — so a retained cell's
    # last partial is its exact score.
    for r in range(lattice.shape[3]):
        if not alive.any():
            break
        partial = lattice[:, :, :, r]
        pp += alive  # processed rounds are consecutive from round 0
        # The cells alive now are exactly the cells that read plane r.
        cells = alive[:, :, 0] if alive.shape[2] == 1 else alive.sum(axis=2)
        ops += (cells * pcs[r]).sum(axis=(2, 3), dtype=np.int64)
        # Row-private threshold fold: the per-round BUI addend i_min[r+1]
        # is constant per (request, head, row), so folding max over the
        # alive partials first and adding it after is exact.
        np.multiply(alive, sink, out=lifted)
        np.subtract(sink, lifted, out=lifted)
        np.add(lifted, partial, out=lifted)
        # The lattice float + int64 addend computes in float64: one
        # rounding of the exact integer sum, as in the scalar kernel.
        max_lb = np.maximum(max_lb, lifted.max(axis=-1) + i_min[..., r + 1])
        # Integer partials: ``partial + i_max >= threshold`` exactly when
        # ``partial >= ceil(threshold) - i_max``.  Rounding that cut to the
        # lattice dtype flips no comparison: every integer in
        # [-(bound + 1), bound + 1] is exact there, and rounding is
        # monotone, so a cut outside that range stays outside it.
        cut = np.ceil(max_lb - guard) - i_max[..., r + 1]
        alive &= (partial >= cut.astype(lattice.dtype)[..., None]) | protected
    # A cell alive here survived every round, so its partial is the last.
    return lattice[:, :, :, -1] * alive
