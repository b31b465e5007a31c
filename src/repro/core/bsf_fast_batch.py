"""Cross-request fused filter round: every active request × head at once.

:func:`repro.core.bsf_fast.bsf_filter_fast_heads` fuses one request's
filter round across its heads; a busy continuous-batching round still
dispatches it once *per request*, so at an active-set size of 16+ the
engine pays 16 small matmuls (and their Python round loops) where one big
one would do.  :func:`bsf_filter_fast_batch` closes that gap: the ragged
per-request key sequences are padded to a shared ``S_max`` with a
**validity mask** and the per-(request, head, row) threshold recursion
runs over one ``(R, Hh, P, S_max)`` lattice — one batched matmul per bit
round covers the whole active set.

Equivalence rule (DESIGN.md §13): the threshold recursion is row-private
— ``max_lb`` folds only over that (request, head, row)'s alive keys — and
padding columns start dead (``alive = False``) and can never be revived
(``protect`` is forced ``False`` on padding), so they contribute neither
bounds nor counters.  Every per-request slice of the fused lattice is
therefore *bit for bit* the :func:`bsf_filter_fast_heads` result for that
request alone, including the ``bit_plane_loads`` / ``effective_bit_ops``
/ ``naive_bit_ops`` counters, which are accumulated with the request axis
kept separate.

Two choices keep each round cheap without giving up exactness.  The
per-round ``q · plane`` products run as one batched BLAS matmul in the
float dtype :func:`repro.core.bsf_fast.exact_dot_dtype` picks: every
partial sum is an integer below that dtype's mantissa limit, so the
result equals the int64 one bit for bit.  The op counters never sum
planes: they read the popcounts the :class:`BitPlanes` carry, counting a
(request, head, row, key) cell in round ``r`` exactly when its final
``planes_processed > r``.

The column-compaction trick carries over **per request**, not batch-wide:
requests retain different token positions, so the union of alive columns
across a busy active set stays dense even when every request's own set is
sparse — compacting on the union would throw the trick away exactly when
it matters.  Instead, every request's own alive columns (any head/row)
fill a dense prefix of a shared-width compacted lattice; rows whose
request has fewer alive columns than the batch maximum point their tail
at a **dead sentinel column** appended past ``S_max``, which is never
alive, never protected, and never read back — so tail cells mask
themselves out of every update and the matmul width per round is
``max_i |alive_i|``, the same per-request compaction
:func:`bsf_filter_fast_heads` enjoys.

All mutable state is *compact-resident*: because a request's alive
column set only ever shrinks, the recursion never needs to scatter state
back to the padded lattice each round.  When a column goes dead in every
(head, row) it is dropped from the compacted lattice, writing its final
``planes_processed`` (its death round) to the output lattice exactly
once; survivors scatter their retained/score/processed state once after
the last round.  Compaction only skips provably dead work, so it never
affects results — and the ragged requests' padding columns are dead from
round 0, so they fall out of the very first shrink.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.bsf import BSFResult
from repro.core.bsf_fast import exact_dot_dtype, plane_products
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import BitPlanes, plane_weights, popcount_dtype

__all__ = ["bsf_filter_fast_batch"]


def _columns_alive(alive: np.ndarray) -> np.ndarray:
    """``alive.any(axis=(2, 3))`` for an ``(R, W, Hh, P)`` mask.

    numpy reduces the few trailing cells of each column slowly.  When a
    column's ``Hh * P`` flags fill one 1/2/4/8-byte word, viewing them as
    that unsigned integer tests them all with one comparison.
    """
    cells = alive.shape[2] * alive.shape[3]
    if cells in (1, 2, 4, 8):
        words = np.ascontiguousarray(alive).reshape(alive.shape[:2] + (cells,))
        return words.view(f"u{cells}")[:, :, 0] != 0
    return alive.any(axis=(2, 3))


def _max_over_columns(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` by pairwise halving of axis 1 (max is order-free).

    numpy's reduction over the middle axis of an ``(R, W, Hh, P)`` array
    walks a few trailing cells per step; folding halves keeps every step
    one wide elementwise ``maximum``.
    """
    while x.shape[1] > 1:
        half = x.shape[1] // 2
        folded = np.maximum(x[:, :half], x[:, half : 2 * half])
        if x.shape[1] % 2:
            np.maximum(folded[:, 0], x[:, -1], out=folded[:, 0])
        x = folded
    return x[:, 0]


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
    q_dot = q.astype(exact_dot_dtype(q, head_dim))
    guard_mat = np.stack(
        [np.broadcast_to(np.asarray(g, dtype=np.float64), (num_heads,)) for g in guards]
    )  # (R, Hh)

    # Pad the ragged planes into one lattice, laid out (bits, R, S, Hh, D)
    # so the per-round column gather is leading-axis fancy indexing (the
    # fast path — contiguous (Hh, D) blocks per picked column).  Each
    # request's padding gap and the shared sentinel column (index s_max,
    # where compaction tails point) are zero, like the dead tail slots
    # that read them.
    s_pad = s_max + 1
    planes = np.empty((bits, num_requests, s_pad, num_heads, head_dim), dtype=np.uint8)
    for i, kp in enumerate(key_planes):
        planes[:, i, : seq_lens[i]] = np.asarray(kp.planes).transpose(0, 2, 1, 3)
        planes[:, i, seq_lens[i] :] = 0

    # Compact-resident state, laid out (R, W, Hh, P) so per-request column
    # gathers are plain leading-axis fancy indexing.  ``orig_cols`` maps
    # compact slots back to original key positions; tail slots carry the
    # sentinel id ``s_max`` and are permanently dead.
    width = s_max
    orig_cols = np.full((num_requests, width), s_max, dtype=np.int64)
    alive_c = np.zeros((num_requests, width, num_heads, num_rows), dtype=bool)
    prot_c = np.zeros((num_requests, width, num_heads, num_rows), dtype=bool)
    for i, s in enumerate(seq_lens):
        orig_cols[i, :s] = np.arange(s)
        sub = (num_heads, num_rows, s)
        if alloweds[i] is None:
            alive_c[i, :s] = True
        else:
            alive_c[i, :s] = np.broadcast_to(
                np.asarray(alloweds[i], dtype=bool), sub
            ).transpose(2, 0, 1)
        if protects[i] is not None:
            prot_c[i, :s] = np.broadcast_to(
                np.asarray(protects[i], dtype=bool), sub
            ).transpose(2, 0, 1)
    partial_c = np.zeros((num_requests, width, num_heads, num_rows), dtype=np.int64)
    pp_c = np.zeros((num_requests, width, num_heads, num_rows), dtype=np.int64)

    lut = build_bui_lut(q.reshape(num_requests * num_heads * num_rows, head_dim), bits=bits)
    i_min = lut.i_min.reshape(num_requests, num_heads, num_rows, bits + 1)
    i_max = lut.i_max.reshape(num_requests, num_heads, num_rows, bits + 1)
    weights = plane_weights(bits)

    max_lb = np.full((num_requests, num_heads, num_rows), -np.inf)
    finite_guard = np.isfinite(guard_mat)
    # Masked-max sentinel: far below any reachable partial sum but finite,
    # so the int-only fold below never needs a float lattice.  A (head,
    # row) with no alive keys gets a hugely negative (not -inf) max_lb;
    # its threshold then keeps everything, exactly like -inf would, and
    # the row is permanently dead anyway.
    int_floor = np.int64(-(2**62))

    # Output lattices in original column space; dropped columns scatter
    # their death-round ``planes_processed`` here exactly once, survivors
    # scatter everything once after the final round.
    retained_out = np.zeros((num_requests, num_heads, num_rows, s_max), dtype=bool)
    pp_out = np.zeros((num_requests, num_heads, num_rows, s_max), dtype=np.int64)
    scores_out = np.zeros((num_requests, num_heads, num_rows, s_max), dtype=np.int64)

    req_ix = np.arange(num_requests)[:, None]
    compacted = False
    for r in range(bits):
        # Per-request compaction: shrink the shared width to the busiest
        # request's alive column count.  A column dropped here died in an
        # earlier round, so its frozen ``pp_c`` is its death round — write
        # it out now, it leaves the compact lattice for good.  Compaction
        # only skips provably dead (masked) work, so *when* it runs is
        # pure tuning: small shrinks are skipped because five gathers
        # cost more than the matmul columns they would save.
        col_alive = _columns_alive(alive_c)  # (R, width)
        n_cols = col_alive.sum(axis=1)
        new_w = int(n_cols.max())
        if new_w == 0:
            break
        if new_w < width - (width >> 3):
            if r > 0:  # at r == 0 dropped columns were never alive: pp is 0
                dropped = ~col_alive & (orig_cols < s_max)
                if dropped.any():
                    ri, ci = np.nonzero(dropped)
                    pp_out[ri, :, :, orig_cols[ri, ci]] = pp_c[ri, ci]
            sel = np.zeros((num_requests, new_w), dtype=np.int64)
            for i in range(num_requests):
                cols_i = np.flatnonzero(col_alive[i])
                sel[i, : cols_i.size] = cols_i
            tail = np.arange(new_w)[None, :] >= n_cols[:, None]
            orig_cols = np.where(tail, s_max, orig_cols[req_ix, sel])
            alive_c = alive_c[req_ix, sel]
            alive_c[tail] = False  # tail slots duplicate slot data; kill them
            prot_c = prot_c[req_ix, sel]
            partial_c = partial_c[req_ix, sel]
            pp_c = pp_c[req_ix, sel]
            width = new_w
            compacted = True

        # Leading-axis fancy gather (not take_along_axis — broadcasting
        # ids over the D axis makes numpy walk cell by cell).  Result is
        # (R, width, Hh, D); tail slots read zeros and are dead anyway.
        # Before the first compaction every request's slots are its own
        # columns in order, then its zero gap, so the gather is the
        # identity on the lattice prefix and is skipped.
        plane = planes[r][req_ix, orig_cols] if compacted else planes[r][:, :s_max]
        delta = plane_products(q_dot, plane.transpose(0, 2, 1, 3))  # (R, Hh, P, width)
        delta = delta.transpose(0, 3, 1, 2)  # (R, width, Hh, P)
        delta *= weights[r]
        delta *= alive_c  # only alive cells accumulate
        partial_c += delta
        pp_c += alive_c  # processed rounds are consecutive from round 0

        # Row-private threshold fold, all-integer until the last step: the
        # per-round BUI addend i_min[r+1] is constant per (request, head,
        # row), so folding max over the alive partials first and adding it
        # after is exact (int64 throughout, no float rounding).
        part_max = _max_over_columns(np.where(alive_c, partial_c, int_floor))
        max_lb = np.maximum(max_lb, part_max + i_min[:, :, :, r + 1])
        threshold = np.where(finite_guard[:, :, None], max_lb - guard_mat[:, :, None], -np.inf)
        ub = partial_c + i_max[:, :, :, r + 1][:, None]
        alive_c &= (ub >= threshold[:, None]) | prot_c

    # Columns still resident (alive or died in the final rounds without a
    # shrink) scatter their state back to original positions in one shot.
    resident = orig_cols < s_max
    if resident.any():
        ri, ci = np.nonzero(resident)
        oc = orig_cols[ri, ci]
        retained_out[ri, :, :, oc] = alive_c[ri, ci]
        pp_out[ri, :, :, oc] = pp_c[ri, ci]
        scores_out[ri, :, :, oc] = np.where(alive_c[ri, ci], partial_c[ri, ci], 0)

    # Counters from the planes' cached popcounts: processed rounds are
    # consecutive from round 0, so a cell consumed plane r exactly when
    # its final ``pp > r``.  Padding columns have ``pp == 0`` and zero
    # popcounts, so they count nothing.
    pc = np.zeros((bits, num_requests, num_heads, s_max), dtype=popcount_dtype(head_dim))
    for i, kp in enumerate(key_planes):
        pc[:, i, :, : seq_lens[i]] = kp.popcounts
    eff_pc = np.minimum(pc, head_dim - pc)
    loads = pp_out.sum(axis=(1, 2, 3))  # bit_plane_loads == sum of rounds processed
    naive_ops = np.zeros(num_requests, dtype=np.int64)
    eff_ops = np.zeros(num_requests, dtype=np.int64)
    for r in range(int(pp_out.max(initial=0))):
        cells = (pp_out > r).sum(axis=2)  # (R, Hh, s_max): rows that read plane r
        naive_ops += (cells * pc[r]).sum(axis=(1, 2))
        eff_ops += (cells * eff_pc[r]).sum(axis=(1, 2))

    results = []
    for i, s in enumerate(seq_lens):
        results.append(
            BSFResult(
                retained=retained_out[i, :, :, :s],
                planes_processed=pp_out[i, :, :, :s],
                scores=scores_out[i, :, :, :s],
                bit_plane_loads=int(loads[i]),
                effective_bit_ops=int(eff_ops[i]),
                naive_bit_ops=int(naive_ops[i]),
            )
        )
    return results
