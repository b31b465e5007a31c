"""Cross-request fused filter round: every active request × head at once.

:func:`repro.core.bsf_fast.bsf_filter_fast_heads` fuses one request's
filter round across its heads; a busy continuous-batching round still
dispatches it once *per request*, so at an active-set size of 16+ the
engine pays 16 small round loops where one would do.
:func:`bsf_filter_fast_batch` runs the per-(request, head, row) threshold
recursion over one ragged ``(R, Hh, P, S_max)`` state: each round is a
handful of array ops covering the whole active set.

Equivalence rule (DESIGN.md §13): the threshold recursion is row-private
— ``max_lb`` folds only over that (request, head, row)'s alive keys — and
the ragged tail columns past a request's ``S_i`` start dead and can never
be revived (``protect`` is ``False`` there), so they contribute neither
bounds nor counters.  Every per-request slice of the fused state is
therefore *bit for bit* the :func:`bsf_filter_fast_heads` result for that
request alone, including the ``bit_plane_loads`` / ``effective_bit_ops``
/ ``naive_bit_ops`` counters, which keep the request axis separate.

The products come first, all bit rounds at once.  By the truncation
identity (DESIGN.md §6) the running partial after round ``r`` is
``q · (k & prefix_masks(bits)[r])``, so per (request, head) one gemv
pass (:func:`repro.core.bsf_fast.plane_products`, exact in the float
dtype :func:`repro.core.bsf_fast.exact_dot_dtype` picks) multiplies the
query rows with a reused ``(bits·S_i, D)`` float slab of masked integer
keys, filled straight from the head's key rows; the slab stays
cache-resident, so the masked copy never round-trips through memory.
The products *are* the running partials — no plane weight, no
accumulation — and land in one ``(bits, R, Hh, P, S_max)`` int64
lattice.

The rounds then read round ``r``'s partial for every cell, alive or
not.  Dead cells are never read: only alive cells feed the max and the
outputs, and a cell alive at the end was alive in every round, so its
last partial is its exact score.  No column is ever gathered or
compacted — on decode rounds nearly every column stays alive for most
rounds, so compaction saved little and cost gathers and scatters.  The
op counters never sum planes: they read the popcounts the
:class:`BitPlanes` carry, counting a (request, head, row, key) cell in
round ``r`` exactly when its final ``planes_processed > r``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.bsf import BSFResult
from repro.core.bsf_fast import exact_dot_dtype, plane_products
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import BitPlanes, popcount_dtype, prefix_masks

__all__ = ["bsf_filter_fast_batch"]


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
        ``(Hh, P, S_i)``, exactly as :func:`bsf_filter_fast_heads` takes
        them.

    Returns one :class:`BSFResult` per request, bit for bit equal to
    calling :func:`bsf_filter_fast_heads` per request.
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
    masks = prefix_masks(bits)[:, None, None]

    # Running partials of every bit round, with zero ragged tails.  One
    # (bits·S_i, D) slab per head, reused across heads and requests: at
    # decode sizes one head's slab fits a core's L2 where a whole
    # request's would not, so the masked copy is read back from L2.
    shape = (num_requests, num_heads, num_rows, s_max)
    prods = np.zeros((bits,) + shape, dtype=np.int64)
    slab_buf = np.empty(bits * s_max * head_dim, dtype=q_dot.dtype)
    alive = np.zeros(shape, dtype=bool)
    protected = np.zeros(shape, dtype=bool)
    pc = np.zeros((bits, num_requests, num_heads, s_max), dtype=popcount_dtype(head_dim))
    for i, (kp, s) in enumerate(zip(key_planes, seq_lens)):
        pc[:, i, :, :s] = kp.popcounts
        keys = np.asarray(kp.ints)
        key_masks = masks.astype(keys.dtype)
        slab = slab_buf[: bits * s * head_dim].reshape(bits, s, head_dim)
        for h in range(num_heads):
            np.bitwise_and(keys[h], key_masks, out=slab, casting="unsafe")
            products = plane_products(q_dot[i, h], slab.reshape(bits * s, head_dim))
            prods[:, i, h, :, :s] = products.reshape(num_rows, bits, s).transpose(1, 0, 2)
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
    max_lb = np.full(shape[:3], -np.inf)
    finite_guard = np.isfinite(guard_mat)[:, :, None]
    # Masked-max sentinel: far below any reachable partial sum but finite,
    # so the int-only fold below never needs a float lattice.  A (head,
    # row) with no alive keys gets a hugely negative (not -inf) max_lb;
    # its threshold then keeps everything, exactly like -inf would, and
    # the row is permanently dead anyway.
    int_floor = np.int64(-(2**62))

    # Running-partial invariant: ``prods[r]`` holds round r's partial
    # for every cell, but only alive cells are ever read, and alive cells
    # have been alive since round 0 — so a retained cell's last partial
    # is its exact score.
    pp = np.zeros(shape, dtype=np.uint8)  # bits < 256; widened after the loop
    for r in range(bits):
        if not alive.any():
            break
        partial = prods[r]
        pp += alive  # processed rounds are consecutive from round 0
        # Row-private threshold fold, all-integer until the last step: the
        # per-round BUI addend i_min[r+1] is constant per (request, head,
        # row), so folding max over the alive partials first and adding it
        # after is exact (int64 throughout, no float rounding).
        part_max = np.where(alive, partial, int_floor).max(axis=-1)
        max_lb = np.maximum(max_lb, part_max + i_min[..., r + 1])
        threshold = np.where(finite_guard, max_lb - guard_mat[:, :, None], -np.inf)
        ub = partial + i_max[..., r + 1][..., None]
        alive &= (ub >= threshold[..., None]) | protected
    # A cell alive here survived every round, so its partial is prods[-1].
    scores = np.where(alive, prods[-1], 0)
    pp = pp.astype(np.int64)

    # Counters from the planes' cached popcounts: processed rounds are
    # consecutive from round 0, so a cell consumed plane r exactly when
    # its final ``pp > r``.  Ragged tail columns have ``pp == 0`` and zero
    # popcounts, so they count nothing.
    eff_pc = np.minimum(pc, head_dim - pc)
    loads = pp.sum(axis=(1, 2, 3))  # bit_plane_loads == sum of rounds processed
    naive_ops = np.zeros(num_requests, dtype=np.int64)
    eff_ops = np.zeros(num_requests, dtype=np.int64)
    for r in range(int(pp.max(initial=0))):
        cells = (pp > r).sum(axis=2)  # (R, Hh, s_max): rows that read plane r
        naive_ops += (cells * pc[r]).sum(axis=(1, 2))
        eff_ops += (cells * eff_pc[r]).sum(axis=(1, 2))

    results = []
    for i, s in enumerate(seq_lens):
        results.append(
            BSFResult(
                retained=alive[i, :, :, :s],
                planes_processed=pp[i, :, :, :s],
                scores=scores[i, :, :, :s],
                bit_plane_loads=int(loads[i]),
                effective_bit_ops=int(eff_ops[i]),
                naive_bit_ops=int(naive_ops[i]),
            )
        )
    return results
