"""The fast backend's one filter kernel: closed-form oracle, row blocks, memory.

For guards ``>= 0`` the fused filter's decision has a closed form
(DESIGN.md §5 invariant 3, §6): the last bit round's bounds collapse to
the exact score, every earlier round's threshold is at or below the
last one, and the best allowed key can never be pruned, so

    retained == allowed & (protect | exact >= max_allowed(exact) - guard)

per (request, head, query row), with ``scores == exact`` where retained
and ``0`` elsewhere.  Both backends must equal it exactly — guard safety
as an equality rather than an inequality.

The fast kernel runs query rows in blocks of ``BLOCK_CELLS`` product
lattice cells; a 2-D call spanning several blocks must be result-
identical to the reference backend, a decode round must stay one block,
and the block bound must keep a large 2-D call's peak memory in check.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.bsf_fast as bsf_fast
from repro.core.backend import get_backend
from repro.core.bui import build_bui_lut
from repro.quant.bitplane import decompose_bitplanes, prefix_masks

GUARDS = (0.0, 0.5, 1.0, 5.0, 50.0, np.inf)


def _closed_form(q, ints, guards, allowed, protect):
    """``(retained, scores)`` of the closed-form decision, ``(Hh, P, S)``."""
    exact = np.einsum("hpd,hsd->hps", q, ints)
    allowed = np.broadcast_to(True if allowed is None else allowed, exact.shape)
    protect = np.broadcast_to(False if protect is None else protect, exact.shape)
    floor = np.iinfo(np.int64).min
    best = np.where(allowed, exact, floor).max(axis=-1, keepdims=True)
    threshold = best - np.asarray(guards, dtype=np.float64)[:, None, None]
    retained = allowed & (protect | (exact >= threshold))
    return retained, np.where(retained, exact, 0)


def _assert_identical(got, want, label):
    assert np.array_equal(got.retained, want.retained), label
    assert np.array_equal(got.planes_processed, want.planes_processed), label
    assert np.array_equal(got.scores, want.scores), label
    assert got.bit_plane_loads == want.bit_plane_loads, label
    assert got.effective_bit_ops == want.effective_bit_ops, label
    assert got.naive_bit_ops == want.naive_bit_ops, label


def _assert_closed_form(res, q, ints, guards, allowed, protect, label):
    retained, scores = _closed_form(q, ints, guards, allowed, protect)
    assert np.array_equal(res.retained, retained.reshape(res.retained.shape)), label
    assert np.array_equal(res.scores, scores.reshape(res.scores.shape)), label


@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(2, 8),
    num_requests=st.integers(1, 4),
    num_heads=st.integers(1, 3),
    num_rows=st.sampled_from([1, 3]),
    head_dim=st.integers(2, 16),
    masks=st.booleans(),
)
def test_fast_reference_and_closed_form_agree(
    seed, bits, num_requests, num_heads, num_rows, head_dim, masks
):
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    qs, planes, guards, alloweds, protects = [], [], [], [], []
    for _ in range(num_requests):
        seq_len = int(rng.integers(1, 40))
        qs.append(rng.integers(lo, hi + 1, size=(num_heads, num_rows, head_dim)))
        keys = rng.integers(lo, hi + 1, size=(num_heads, seq_len, head_dim))
        planes.append(decompose_bitplanes(keys, bits=bits))
        guards.append(rng.choice(GUARDS, size=num_heads))
        shape = (num_heads, num_rows, seq_len)
        alloweds.append(rng.random(shape) < 0.8 if masks else None)
        protects.append(rng.random(shape) < 0.1 if masks else None)

    kwargs = dict(alloweds=alloweds, protects=protects)
    fast = get_backend("fast").filter_heads_batch(qs, planes, guards, **kwargs)
    ref = get_backend("reference").filter_heads_batch(qs, planes, guards, **kwargs)
    for i in range(num_requests):
        _assert_identical(fast[i], ref[i], f"request {i}: fast vs reference")
        _assert_closed_form(
            fast[i], qs[i], planes[i].ints, guards[i], alloweds[i], protects[i],
            f"request {i}: closed form",
        )


def _product_rows(monkeypatch):
    """Query rows of every ``plane_products`` call: one call per
    (request, head) per row block."""
    rows = []
    products = bsf_fast.plane_products

    def counting(q_dot, slab, out=None):
        rows.append(q_dot.shape[-2])
        return products(q_dot, slab, out=out)

    monkeypatch.setattr(bsf_fast, "plane_products", counting)
    return rows


@pytest.mark.parametrize("guard", GUARDS)
def test_2d_filter_spanning_several_row_blocks(guard, monkeypatch):
    """A ``(P, D)`` call whose rows run in three blocks (8, 8, 4 rows)
    equals the reference backend and the closed form."""
    bits, head_dim, block_rows, num_rows = 8, 16, 8, 20
    num_keys = bsf_fast.BLOCK_CELLS // (bits * block_rows)
    rng = np.random.default_rng(int(guard) if np.isfinite(guard) else 99)
    q = rng.integers(-128, 128, size=(num_rows, head_dim))
    planes = decompose_bitplanes(rng.integers(-128, 128, size=(num_keys, head_dim)), bits=bits)
    allowed = rng.random((num_rows, num_keys)) < 0.9
    protect = rng.random((num_rows, num_keys)) < 0.02  # per row: blocks must not mix rows

    rows = _product_rows(monkeypatch)
    fast = get_backend("fast").filter(q, planes, guard, allowed=allowed, protect=protect)
    assert rows == [8, 8, 4]
    ref = get_backend("reference").filter(q, planes, guard, allowed=allowed, protect=protect)
    _assert_identical(fast, ref, "fast vs reference")
    _assert_closed_form(
        fast, q[None], planes.ints[None], [guard], allowed[None], protect[None], "closed form"
    )


def test_decode_round_runs_as_one_block(monkeypatch):
    """A decode_long-sized fused round (16 requests, 4 heads, one query
    row) is a single block even though its row alone exceeds
    ``BLOCK_CELLS``."""
    rng = np.random.default_rng(5)
    num_requests, num_heads, head_dim, bits = 16, 4, 32, 8
    seq_lens = rng.integers(480, 800, size=num_requests)
    assert bits * num_requests * num_heads * seq_lens.max() > bsf_fast.BLOCK_CELLS
    qs = [rng.integers(-128, 128, size=(num_heads, 1, head_dim)) for _ in seq_lens]
    planes = [
        decompose_bitplanes(rng.integers(-128, 128, size=(num_heads, s, head_dim)), bits=bits)
        for s in seq_lens
    ]
    guards = [np.full(num_heads, 300.0)] * num_requests
    rows = _product_rows(monkeypatch)
    get_backend("fast").filter_heads_batch(qs, planes, guards)
    assert rows == [1] * (num_requests * num_heads)  # one pass per (request, head)


def test_2d_filter_peak_memory_is_bounded(monkeypatch):
    """``filter`` at P = S = 512 (D=64, 8 bits) peaks at or below the
    14.1 MiB tracemalloc peak of the deleted per-shape ``(P, D)`` kernel
    on these inputs (2-core Xeon, numpy 2.4.6; 11.2 MiB in blocks);
    holding the whole ``(bits, P, S)`` lattice at once takes 44 MiB."""
    rng = np.random.default_rng(3)
    num, head_dim = 512, 64
    q = rng.integers(-128, 128, size=(num, head_dim))
    planes = decompose_bitplanes(rng.integers(-128, 128, size=(num, head_dim)), bits=8)
    fast = get_backend("fast")
    fast.filter(q, planes, 500.0)  # derive the lazy ints / popcounts first
    rows = _product_rows(monkeypatch)
    tracemalloc.start()
    try:
        fast.filter(q, planes, 500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) > 1  # several row blocks
    assert peak <= 14.1 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _tie_guards(q, ints, bits):
    """Guards that put keys of one query row exactly on, and 0.5 above
    and below, a bit round's threshold.

    Round 0: key ``j`` meets the threshold when ``guard == max_lb - ub_j``
    (the BUI bounds after the MSB plane).  Last round: bounds collapse to
    the exact score, so ``guard == max(exact) - exact_j`` puts ``j`` on
    the final threshold.
    """
    lut = build_bui_lut(q[None], bits=bits)
    first = (ints & prefix_masks(bits)[0]) @ q
    lb, ub = first + lut.i_min[0, 1], first + lut.i_max[0, 1]
    exact = ints @ q
    gaps = np.concatenate([lb.max() - ub, exact.max() - exact])
    gaps = np.unique(gaps[gaps >= 0]).astype(np.float64)
    return np.unique(np.concatenate([gaps, gaps + 0.5, np.maximum(gaps - 0.5, 0.0)]))


@pytest.mark.parametrize("bits, q_bits", [(8, 8), (12, 12)])  # float32 / float64 lattice
def test_threshold_ties_match_the_reference(bits, q_bits):
    """Keys exactly on a round's threshold are kept, keys 0.5 below are
    pruned, in both lattice dtypes: the integer-ceiled cut agrees with the
    reference's float compare at every tie."""
    rng = np.random.default_rng(bits)
    head_dim, num_keys = 16, 48
    q = rng.integers(-(1 << (q_bits - 1)), 1 << (q_bits - 1), size=head_dim)
    ints = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), size=(num_keys, head_dim))
    ints[::7] = ints[0]  # duplicate keys: several cells share one tie
    planes = decompose_bitplanes(ints, bits=bits)
    dtype = bsf_fast.exact_dot_dtype(q[None], head_dim, bits)
    assert dtype is (np.float32 if bits == 8 else np.float64)
    fast, ref = get_backend("fast"), get_backend("reference")
    guards = _tie_guards(q, ints, bits)
    on_threshold = 0
    for guard in guards:
        want = ref.filter(q[None], planes, guard)
        _assert_identical(fast.filter(q[None], planes, guard), want, f"guard {guard}")
        on_threshold += guard.is_integer()
    assert on_threshold > 10


def test_rows_and_requests_with_no_allowed_key():
    """A request with nothing allowed, and rows with nothing allowed next
    to live rows, exit their rounds early with zero counters, exactly as
    the reference does."""
    rng = np.random.default_rng(21)
    num_heads, num_rows, head_dim, bits = 2, 3, 8, 8
    qs, planes, alloweds = [], [], []
    for seq_len in (12, 30, 5):
        qs.append(rng.integers(-128, 128, size=(num_heads, num_rows, head_dim)))
        planes.append(decompose_bitplanes(
            rng.integers(-128, 128, size=(num_heads, seq_len, head_dim)), bits=bits))
        alloweds.append(rng.random((num_heads, num_rows, seq_len)) < 0.7)
    alloweds[0][:] = False  # a whole request with no candidate
    alloweds[1][0, 1] = False  # one (head, row) with none
    alloweds[1][1] = False  # one head with none
    guards = [np.array([3.0, 40.0])] * 3
    fast = get_backend("fast").filter_heads_batch(qs, planes, guards, alloweds=alloweds)
    ref = get_backend("reference").filter_heads_batch(qs, planes, guards, alloweds=alloweds)
    for i in range(3):
        _assert_identical(fast[i], ref[i], f"request {i}")
    assert fast[0].bit_plane_loads == fast[0].naive_bit_ops == 0
    assert not fast[0].planes_processed.any()
    assert not fast[1].planes_processed[0, 1].any() and not fast[1].planes_processed[1].any()
    assert fast[1].bit_plane_loads > 0
    # Nothing allowed anywhere: the round loop exits before round 0.
    (alone,) = get_backend("fast").filter_heads_batch(qs[:1], planes[:1], guards[:1],
                                                     alloweds=alloweds[:1])
    _assert_identical(alone, ref[0], "all-masked call")


def test_decode_round_peak_memory_is_bounded():
    """The decode_long-shaped round of ``test_decode_round_runs_as_one_block``
    peaks at or below 4.5 MiB under tracemalloc (4.1 MiB with the
    float32 lattice on a 2-core Xeon, numpy 2.4.6; an int64 lattice and
    a separate counter pass took 6.5 MiB)."""
    rng = np.random.default_rng(5)
    num_requests, num_heads, head_dim, bits = 16, 4, 32, 8
    seq_lens = rng.integers(480, 800, size=num_requests)
    qs = [rng.integers(-128, 128, size=(num_heads, 1, head_dim)) for _ in seq_lens]
    planes = [
        decompose_bitplanes(rng.integers(-128, 128, size=(num_heads, s, head_dim)), bits=bits)
        for s in seq_lens
    ]
    guards = [np.full(num_heads, 300.0)] * num_requests
    fast = get_backend("fast")
    fast.filter_heads_batch(qs, planes, guards)  # derive the lazy ints / popcounts first
    tracemalloc.start()
    try:
        fast.filter_heads_batch(qs, planes, guards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_float64_rounds_reach_up_to_bounds_of_2_52():
    """float64 rounds serve while twice the partial bound stays below
    2^53 (so do the BUI bounds the reference compares in float64), and
    agree with the reference at ties just below that limit."""
    bits, head_dim = 25, 16
    q_max = (1 << 24) - 1  # bound 16 · (2^24 − 1) · 2^24 < 2^52
    rng = np.random.default_rng(52)
    q = rng.choice([q_max, -q_max, 1, 0], size=head_dim)
    q[0] = -q_max
    ints = rng.integers(-(1 << 24), 1 << 24, size=(24, head_dim))
    ints[::5] = -(1 << 24)
    assert bsf_fast.exact_dot_dtype(q[None], head_dim, bits) is np.float64
    planes = decompose_bitplanes(ints, bits=bits)
    fast, ref = get_backend("fast"), get_backend("reference")
    for guard in _tie_guards(q, ints, bits)[::4]:
        want = ref.filter(q[None], planes, guard)
        _assert_identical(fast.filter(q[None], planes, guard), want, f"guard {guard}")
    with pytest.raises(ValueError, match="2\\^53"):
        bsf_fast.exact_dot_dtype(np.array([[-(1 << 24)]]), head_dim, bits)
