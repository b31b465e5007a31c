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
from repro.quant.bitplane import decompose_bitplanes

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

    def counting(q_dot, slab):
        rows.append(q_dot.shape[-2])
        return products(q_dot, slab)

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
