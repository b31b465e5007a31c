"""Persistent multi-head bit-plane KV caches for the serving engine.

The per-call operator (:func:`repro.core.pade_attention.pade_attention`)
re-quantizes K and re-decomposes its bit planes on every invocation — fine
for one-shot figure generation, ruinous for decode serving where the same
cache is filtered thousands of times.  This module keeps the quantized
keys *resident*: keys are quantized exactly once when they enter the cache
(prefill bulk, decode appends), and every subsequent filter round reads the
stored integer rows directly.

Two storage strategies share one interface
(``planes/values/k_int/scales/length/prefill/append``):

* :class:`BitPlaneKVCache` — one dense, privately owned buffer per
  sequence, capacity doubling on growth.  Simple, but every request
  reserves up to 2x its live footprint and nothing bounds the *sum* of
  footprints across concurrent requests.
* :class:`PagedBitPlaneKVCache` — rows live in fixed-size token blocks
  allocated from a shared :class:`PlaneBlockPool` under a global token
  budget (the PagedAttention/vLLM memory shape).  Views are gathered
  through the cache's block table, so consumers — ``PadeEngine.attend``
  and both kernel backends — are untouched; allocation failure raises
  :class:`PoolExhausted`, the signal the continuous scheduler turns into
  preemption.

Two sharing mechanisms ride on the paged pool (both off by default):

* **Hash-based prefix sharing** — with ``prefix_sharing=True``, full
  prompt blocks are content-addressed by a chained key
  ``sha256(parent ‖ k_int_block ‖ k_block ‖ v_block)`` rooted at a
  digest of the cache config *and the frozen per-head scales*.  Because
  the stored rows are a pure function of those tensors, a key match
  guarantees the shared block is byte-identical to what this request
  would have written, so retained sets are provably unchanged by
  sharing.  Matched blocks are attached by reference count instead of
  re-allocated and re-quantized (pool budget *and* prefill compute saved).
* **Copy-on-write forking** — :meth:`PagedBitPlaneKVCache.fork` clones a
  cache onto the same ref-counted blocks (parallel sampling / beam
  forking); the first divergent ``append`` into a shared partial tail
  block copies it (:meth:`PlaneBlockPool.fork_block`) before writing.

With a :class:`TierConfig`, the pool becomes a **two-tier plane
memory**: under pressure, low-order bit planes of cold blocks are
*spilled* — their low bits cleared from the stored key rows and stashed
byte-exact in a side store — so the same plane budget keeps more
sequences resident at degraded precision instead of preempting one (the
filter transparently scores the partial reconstruction; spilled planes
are restored byte-identical on touch or by the scheduler's prefetch
pass).  See DESIGN.md §16.

Chunked prefill is supported at cache level by the
``begin_prefill`` / ``extend_prefill`` / ``finish_prefill`` triple:
scales are calibrated on the *full* prompt up front, so chunk-by-chunk
quantization stays byte-identical to one-shot :meth:`prefill`.

Two serving-specific choices apply to both:

* **Frozen scales.**  Per-head quantization scales are calibrated on the
  prefill keys and frozen; decode appends are quantized with the same
  scale (clipping outliers).  This matches static-scale deployment and is
  what makes incremental storage sound — a rescale would invalidate
  every stored key row.
* **One stored integer K.**  Each key row is stored once, head-major
  ``(H, rows, D)`` in ``signed_dtype(bits)`` (int8 up to 8 bits), next to
  the popcount of every (plane, head, row) written when it is quantized.
  The first ``r`` planes of a key are the key with its low ``bits - r``
  bits cleared (``prefix_masks``, DESIGN.md §6), which is what the fast
  kernels read; ``planes`` returns an integer-backed ``BitPlanes`` whose
  uint8 planes are built only if a consumer reads them.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.quant.bitplane import (
    BitPlanes,
    decompose_bitplanes,
    popcount_dtype,
    prefix_masks,
    signed_dtype,
)
from repro.quant.integer import int_range

__all__ = [
    "quantize_heads",
    "chain_block_keys",
    "BitPlaneKVCache",
    "PlaneBlockPool",
    "PagedBitPlaneKVCache",
    "PoolExhausted",
    "TierConfig",
]


def chain_block_keys(
    k_int: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scales: np.ndarray,
    *,
    bits: int,
    block_size: int,
    num_heads: int,
    head_dim: int,
    v_dim: int,
) -> List[bytes]:
    """Chained content keys of every *full* prompt block.

    The root digest covers the cache config and the frozen per-head
    scales, so two prompts only chain together when their quantized
    rows are byte-identical; each block key then folds in the block's
    ``k_int``, raw ``k`` and value rows on top of its parent's key.
    (Raw K participates because the baseline attention policies score
    against the float keys — a hit must be byte-identical for *every*
    consumer, not just the plane-reading PADE kernels.)

    Module-level so out-of-process consumers — the cluster router's
    prefix-affinity index — compute the exact keys a replica's
    :class:`PagedBitPlaneKVCache` will register, without holding a pool.
    """
    root = hashlib.sha256()
    root.update(repr((bits, block_size, num_heads, head_dim, v_dim)).encode())
    root.update(scales.tobytes())
    parent = root.digest()
    keys: List[bytes] = []
    bs = block_size
    for b in range(k_int.shape[1] // bs):
        h = hashlib.sha256(parent)
        h.update(np.ascontiguousarray(k_int[:, b * bs : (b + 1) * bs, :]).tobytes())
        h.update(np.ascontiguousarray(k[:, b * bs : (b + 1) * bs, :]).tobytes())
        h.update(np.ascontiguousarray(v[:, b * bs : (b + 1) * bs, :]).tobytes())
        parent = h.digest()
        keys.append(parent)
    return keys


def quantize_heads(
    k: np.ndarray, bits: int, scales: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-head quantization, vectorized over the head axis.

    ``k`` has shape ``(H, ...)``; the scale is computed (or applied) per
    head over all trailing axes.  Byte-identical to calling
    :func:`repro.quant.integer.quantize_symmetric` once per head — same
    max-abs scale resolution, same round-to-nearest-even, same clip —
    without the ``H × S`` Python-loop dispatch (regression-pinned by
    ``tests/test_paged_cache.py``).

    Returns ``(k_int, scales)`` with ``k_int`` int64 of ``k``'s shape and
    ``scales`` float64 of shape ``(H,)``.
    """
    k = np.asarray(k, dtype=np.float64)
    qmin, qmax = int_range(bits)
    if scales is None:
        flat = np.abs(k).reshape(k.shape[0], -1)
        # Zero-length sequences calibrate to the unit scale, matching the
        # scalar quantizer's empty-input fallback.
        max_abs = flat.max(axis=1) if flat.shape[1] else np.zeros(k.shape[0])
        # Floor at the smallest normal double: subnormal max_abs can make
        # the quotient underflow to a zero scale (see quant.integer).
        scales = np.where(
            max_abs > 0, np.maximum(max_abs / qmax, np.finfo(np.float64).tiny), 1.0
        )
    else:
        scales = np.asarray(scales, dtype=np.float64)
    expand = (slice(None),) + (None,) * (k.ndim - 1)
    q = np.rint(k / scales[expand])
    k_int = np.clip(q, qmin, qmax).astype(np.int64)
    return k_int, scales


def _key_rows(k_int: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Storage form of quantized keys: ``signed_dtype`` rows + popcounts."""
    bp = decompose_bitplanes(k_int, bits=bits)
    return bp.ints, bp.popcounts


def _check_prefill(cache, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shared prefill validation for both cache implementations."""
    if cache.length:
        raise RuntimeError("prefill() may only be called on an empty cache")
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if k.shape[:1] + k.shape[2:] != (cache.num_heads, cache.head_dim):
        raise ValueError(f"expected K shape ({cache.num_heads}, S, {cache.head_dim}), got {k.shape}")
    if v.shape != (cache.num_heads, k.shape[1], cache.v_dim):
        raise ValueError(f"expected V shape ({cache.num_heads}, {k.shape[1]}, {cache.v_dim}), got {v.shape}")
    return k, v


def _check_step(cache, k_step: np.ndarray, v_step: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shared append validation for both cache implementations."""
    if cache._scales is None:
        raise RuntimeError("append() requires a prefilled cache")
    k_step = np.asarray(k_step, dtype=np.float64)
    v_step = np.asarray(v_step, dtype=np.float64)
    if k_step.shape != (cache.num_heads, cache.head_dim):
        raise ValueError(f"expected K step shape ({cache.num_heads}, {cache.head_dim}), got {k_step.shape}")
    if v_step.shape != (cache.num_heads, cache.v_dim):
        raise ValueError(f"expected V step shape ({cache.num_heads}, {cache.v_dim}), got {v_step.shape}")
    return k_step, v_step


class BitPlaneKVCache:
    """Appendable per-head integer Keys + float Values for one sequence.

    Attributes
    ----------
    num_heads / head_dim / v_dim:
        Shapes of the cached tensors.
    bits:
        Operand bit width of the stored keys.
    rows_decomposed:
        Total (head, token) rows ever quantized and stored — the work a
        per-call pipeline would redo every step, counted once here.
    appends:
        Number of incremental ``append`` calls since prefill.
    """

    def __init__(self, num_heads: int, head_dim: int, v_dim: int, bits: int = 8) -> None:
        if num_heads < 1 or head_dim < 1 or v_dim < 1:
            raise ValueError("num_heads, head_dim and v_dim must be positive")
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.v_dim = v_dim
        self.bits = bits
        self._length = 0
        self._capacity = 0
        self._keys: Optional[np.ndarray] = None  # (H, cap, D) signed_dtype(bits)
        self._popcounts: Optional[np.ndarray] = None  # (bits, H, cap) per-plane set bits
        self._k: Optional[np.ndarray] = None  # (H, cap, D) float64 raw keys
        self._values: Optional[np.ndarray] = None  # (H, cap, Dv) float64
        self._scales: Optional[np.ndarray] = None  # (H,) frozen at prefill
        self.rows_decomposed = 0
        self.appends = 0
        self.policy_state = None  # per-request AttentionPolicy state

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of cached tokens."""
        return self._length

    @property
    def scales(self) -> np.ndarray:
        """Frozen per-head K quantization scales (set by :meth:`prefill`)."""
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self._scales

    @property
    def planes(self) -> BitPlanes:
        """Integer-backed view of the cached keys, value shape ``(H, length, D)``."""
        if self._keys is None:
            raise RuntimeError("cache is empty; call prefill() first")
        n = self._length
        return BitPlanes(
            ints=self._keys[:, :n, :], bits=self.bits, popcounts=self._popcounts[:, :, :n]
        )

    @property
    def values(self) -> np.ndarray:
        """View of the cached V rows, shape ``(H, length, Dv)``."""
        if self._values is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self._values[:, : self._length, :]

    @property
    def k_int(self) -> np.ndarray:
        """The cached integer keys as int64, shape ``(H, length, D)``."""
        if self._keys is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self._keys[:, : self._length, :].astype(np.int64)

    @property
    def k_float(self) -> np.ndarray:
        """View of the raw (pre-quantization) keys, shape ``(H, length, D)``.

        The software baseline policies score against the exact float keys
        the caller handed over — quantization is a PADE implementation
        detail, not part of their selection semantics.
        """
        if self._k is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self._k[:, : self._length, :]

    # ------------------------------------------------------------------
    def prefill(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and store the prompt keys/values.

        ``k`` has shape ``(H, S, D)`` and ``v`` shape ``(H, S, Dv)``.  May
        only be called once per cache; per-head scales are calibrated here
        and frozen for all later appends.
        """
        k, v = _check_prefill(self, k, v)
        seq_len = k.shape[1]
        k_int, scales = quantize_heads(k, bits=self.bits)  # (H, S, D)
        self._scales = scales

        self._reserve(max(seq_len, 1))
        self._keys[:, :seq_len, :], self._popcounts[:, :, :seq_len] = _key_rows(k_int, self.bits)
        self._k[:, :seq_len, :] = k
        self._values[:, :seq_len, :] = v
        self._length = seq_len
        self.rows_decomposed += self.num_heads * seq_len

    def append(self, k_step: np.ndarray, v_step: np.ndarray) -> None:
        """Add one token per head, quantizing only the new rows.

        ``k_step`` has shape ``(H, D)`` and ``v_step`` shape ``(H, Dv)``.
        Uses the frozen prefill scales, so the stored rows of earlier
        tokens stay valid untouched.
        """
        k_step, v_step = _check_step(self, k_step, v_step)
        self._reserve(self._length + 1)
        k_int, _ = quantize_heads(k_step, bits=self.bits, scales=self._scales)  # (H, D)
        pos = self._length
        self._keys[:, pos, :], self._popcounts[:, :, pos] = _key_rows(k_int, self.bits)
        self._k[:, pos, :] = k_step
        self._values[:, pos, :] = v_step
        self._length = pos + 1
        self.rows_decomposed += self.num_heads
        self.appends += 1

    # ------------------------------------------------------------------
    def _reserve(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        new_cap = max(needed, max(1, self._capacity) * 2)
        keys = np.zeros((self.num_heads, new_cap, self.head_dim), dtype=signed_dtype(self.bits))
        popcounts = np.zeros(
            (self.bits, self.num_heads, new_cap), dtype=popcount_dtype(self.head_dim)
        )
        k = np.zeros((self.num_heads, new_cap, self.head_dim), dtype=np.float64)
        values = np.zeros((self.num_heads, new_cap, self.v_dim), dtype=np.float64)
        if self._length:
            keys[:, : self._length, :] = self._keys[:, : self._length, :]
            popcounts[:, :, : self._length] = self._popcounts[:, :, : self._length]
            k[:, : self._length, :] = self._k[:, : self._length, :]
            values[:, : self._length, :] = self._values[:, : self._length, :]
        self._keys = keys
        self._popcounts = popcounts
        self._k = k
        self._values = values
        self._capacity = new_cap


@dataclass(frozen=True)
class TierConfig:
    """Policy knobs for the two-tier (primary / spill) plane memory.

    ``min_resident_planes`` is the floor of the spill ladder: the sign
    plane plus at least one magnitude plane must stay in the primary
    tier, so a degraded block still yields a usable (if coarse) partial
    reconstruction — the score error of a block at residency ``r`` is
    bounded by ``unknown_weight_sum(bits, r) * scale * sum|q|`` per head
    (DESIGN.md §16).  ``restore_blocks_per_round`` caps how many spilled
    blocks the scheduler's prefetch pass restores per round (0 disables
    prefetch; writers still restore on touch).
    """

    min_resident_planes: int = 2
    restore_blocks_per_round: int = 4

    def __post_init__(self) -> None:
        if self.min_resident_planes < 1:
            raise ValueError("min_resident_planes must be >= 1")
        if self.restore_blocks_per_round < 0:
            raise ValueError("restore_blocks_per_round must be >= 0")

    def ladder(self, bits: int) -> List[int]:
        """Target residencies of the spill ladder, shallow to deep.

        Halves the plane count per level down to the floor — for 8-bit
        operands with the default floor this is ``[4, 2]``: shed half
        the planes of a cold block first, halve again only under
        continued pressure, preempt only when even the floor cannot
        make room.
        """
        if self.min_resident_planes >= bits:
            raise ValueError(
                f"min_resident_planes {self.min_resident_planes} leaves no "
                f"spillable planes at {bits}-bit operands"
            )
        levels: List[int] = []
        level = bits // 2
        while level > self.min_resident_planes:
            levels.append(level)
            level //= 2
        levels.append(self.min_resident_planes)
        return levels


class PoolExhausted(RuntimeError):
    """A block allocation would exceed the pool's global token budget.

    The continuous scheduler catches this to trigger preemption; anything
    else letting it propagate means the budget cannot even hold the
    requesting sequence alone.
    """


class _Spilled(NamedTuple):
    """Spill-tier entry of a block at residency ``r``."""

    low: np.ndarray  # (H, block_size, D) the cleared low bits of its keys
    popcounts: np.ndarray  # (bits - r, H, block_size) the spilled planes' counts


class PlaneBlockPool:
    """Fixed-size token blocks of key/value rows under one budget.

    The pool owns four backing stores shaped for ``num_blocks × block_size``
    token rows — integer keys ``(H, rows, D)`` in ``signed_dtype(bits)``,
    their per-plane popcounts ``(bits, H, rows)``, raw float keys
    ``(H, rows, D)`` float64 and values ``(H, rows, Dv)`` float64 — and
    hands out block indices.  Block ``b`` owns physical rows
    ``[b * block_size, (b + 1) * block_size)``; a
    :class:`PagedBitPlaneKVCache` maps its logical token positions onto
    those rows through its block table.

    ``token_budget`` is rounded *down* to a whole number of blocks — the
    pool never over-commits the budget it was given.

    Blocks are *ref-counted*: :meth:`allocate` hands out a block with one
    reference, :meth:`share` adds references (prefix hits, cache forks),
    and :meth:`release` drops one reference per call — the block returns
    to the free list only when the last reference is gone.  Full prompt
    blocks may additionally be *registered* under a content key
    (:meth:`register_prefix`), making them discoverable by later
    requests with the same prompt prefix; registration is removed when
    the block is freed or forked, so the index never points at stale or
    mutable content.
    """

    def __init__(
        self,
        num_heads: int,
        head_dim: int,
        v_dim: int,
        bits: int = 8,
        block_size: int = 16,
        token_budget: int = 4096,
        tiering: Optional[TierConfig] = None,
        plane_budget_blocks: Optional[int] = None,
    ) -> None:
        if num_heads < 1 or head_dim < 1 or v_dim < 1:
            raise ValueError("num_heads, head_dim and v_dim must be positive")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if token_budget < block_size:
            raise ValueError(f"token_budget {token_budget} below one block ({block_size} tokens)")
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.v_dim = v_dim
        self.bits = bits
        self.block_size = block_size
        self.num_blocks = token_budget // block_size
        rows = self.num_blocks * block_size
        key_dtype = signed_dtype(bits)
        self._keys = np.zeros((num_heads, rows, head_dim), dtype=key_dtype)
        self._popcounts = np.zeros((bits, num_heads, rows), dtype=popcount_dtype(head_dim))
        self._masks = prefix_masks(bits).astype(key_dtype)  # [r]: keep planes 0..r
        self._k = np.zeros((num_heads, rows, head_dim), dtype=np.float64)
        self._values = np.zeros((num_heads, rows, v_dim), dtype=np.float64)
        # LIFO free list seeded so the first allocations come out 0, 1, 2...
        self._free: List[int] = list(range(self.num_blocks - 1, -1, -1))
        self._allocated: set = set()
        self._refcounts: Dict[int, int] = {}
        self._prefix_index: Dict[bytes, int] = {}  # content key -> block
        self._block_key: Dict[int, bytes] = {}  # block -> content key
        # Content-derived per-block policy state (e.g. Quest page summaries):
        # entries are pure functions of the block's frozen rows, so sharers
        # may reuse them; invalidated when the block frees or is forked.
        self.block_meta: Dict[int, Dict[str, object]] = {}
        self.peak_used_blocks = 0  # high-water mark of concurrently live blocks
        self.allocations = 0  # cumulative allocate() grants
        self.prefix_shares = 0  # cumulative share() grants
        self.forks = 0  # cumulative copy-on-write block copies
        # Eviction notifications for the cluster router's affinity index:
        # chain keys whose registered block was freed or forked since the
        # last drain.  Bounded — an undrained backlog only means a router
        # entry goes stale until its next miss, never unbounded memory.
        self._evicted_keys: Deque[bytes] = deque(maxlen=4096)
        # --- two-tier plane memory (None = flat pool, byte-identical to
        # the pre-tiering behavior; see TierConfig / DESIGN.md §16) -----
        self.tiering = tiering
        if tiering is not None:
            if tiering.min_resident_planes >= bits:
                raise ValueError(
                    f"min_resident_planes {tiering.min_resident_planes} leaves "
                    f"no spillable planes at {bits}-bit operands"
                )
            budget_blocks = self.num_blocks if plane_budget_blocks is None else int(plane_budget_blocks)
            if budget_blocks < 1:
                raise ValueError("plane_budget_blocks must be >= 1")
            self.plane_budget_blocks = min(budget_blocks, self.num_blocks)
        else:
            self.plane_budget_blocks = self.num_blocks
        self._resident: Dict[int, int] = {}  # block -> planes in primary tier
        self._spill_store: Dict[int, _Spilled] = {}  # block -> planes [r, bits)
        self._plane_units_used = 0  # sum of residencies of live blocks
        self._touch_clock = 0
        self._last_touch: Dict[int, int] = {}
        self._protected: set = set()  # blocks the scheduler pinned this round
        self.spill_events = 0  # cumulative spill_block() calls
        self.restore_events = 0  # cumulative restore_block() calls that moved planes
        self.spilled_plane_bytes = 0  # modeled packed bytes moved to the spill tier
        self.restored_plane_bytes = 0  # modeled packed bytes moved back
        self._tier_plane_writes = 0  # (plane, key) rows spilled, for the DRAM model
        self._tier_plane_reads = 0  # (plane, key) rows restored

    # ------------------------------------------------------------------
    @property
    def token_budget(self) -> int:
        """Total token rows the pool can hold (budget rounded to blocks)."""
        return self.num_blocks * self.block_size

    @property
    def free_block_count(self) -> int:
        return len(self._free)

    @property
    def used_block_count(self) -> int:
        return len(self._allocated)

    @property
    def free_tokens(self) -> int:
        return self.free_block_count * self.block_size

    @property
    def used_tokens(self) -> int:
        """Token rows reserved by live block tables (block granularity)."""
        return self.used_block_count * self.block_size

    @property
    def occupancy(self) -> float:
        """Fraction of the token budget currently reserved."""
        return self.used_block_count / self.num_blocks

    @property
    def bytes_per_block(self) -> int:
        """Backing-store bytes of one block: integer K, popcounts, float K, values."""
        h, d, dv = self.num_heads, self.head_dim, self.v_dim
        per_row = h * d * self._keys.itemsize + self.bits * h * self._popcounts.itemsize
        return self.block_size * (per_row + 8 * h * (d + dv))

    # ------------------------------------------------------------------
    # Two-tier accounting.  The primary tier's capacity is denominated in
    # *plane units*: one unit = one bit plane of one block.  A fully
    # resident block consumes ``bits`` units; spilling planes frees units
    # the allocator can hand to new blocks — that is the whole point of
    # tiering: the same plane budget admits more sequences at degraded
    # precision instead of preempting one.
    @property
    def plane_capacity_units(self) -> int:
        """Primary-tier capacity in plane units (budget blocks × bits)."""
        return self.plane_budget_blocks * self.bits

    @property
    def plane_units_used(self) -> int:
        """Plane units held by live blocks (residency-weighted)."""
        return self._plane_units_used

    @property
    def plane_units_free(self) -> int:
        return self.plane_capacity_units - self._plane_units_used

    @property
    def degraded_block_count(self) -> int:
        """Live blocks with at least one plane in the spill tier."""
        return len(self._spill_store)

    def _plane_block_bytes(self, num_planes: int) -> int:
        """Modeled packed bytes of ``num_planes`` planes of one block."""
        row_bytes = (self.head_dim + 7) // 8  # one plane of one key, packed
        return num_planes * self.block_size * self.num_heads * row_bytes

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Take one free block (refcount 1); :class:`PoolExhausted` when full.

        Under tiering the primary tier must also have ``bits`` plane
        units free — a fresh block is always written at full precision.
        The scheduler turns this failure into the spill ladder before
        falling back to preemption.
        """
        if not self._free:
            raise PoolExhausted(
                f"pool exhausted: all {self.num_blocks} blocks "
                f"({self.token_budget} tokens) in use"
            )
        if self.tiering is not None and self._plane_units_used + self.bits > self.plane_capacity_units:
            raise PoolExhausted(
                f"plane budget exhausted: {self._plane_units_used}/"
                f"{self.plane_capacity_units} units in the primary tier"
            )
        block = self._free.pop()
        self._allocated.add(block)
        self._refcounts[block] = 1
        self.allocations += 1
        self.peak_used_blocks = max(self.peak_used_blocks, len(self._allocated))
        if self.tiering is not None:
            self._resident[block] = self.bits
            self._plane_units_used += self.bits
            self._touch(block)
        return block

    def allocate_many(self, count: int) -> List[int]:
        """Take ``count`` blocks atomically: all of them or none.

        The free-list check happens before any block is claimed, so a
        failed compound allocation can never leak a partial set — the
        pool is byte-for-byte as it was before the call.
        """
        if count > len(self._free):
            raise PoolExhausted(
                f"allocation of {count} blocks exceeds the {len(self._free)} free "
                f"({self.num_blocks} total, {self.token_budget} tokens)"
            )
        if self.tiering is not None and self._plane_units_used + count * self.bits > self.plane_capacity_units:
            raise PoolExhausted(
                f"allocation of {count} blocks exceeds the primary tier's "
                f"{self.plane_units_free} free plane units"
            )
        return [self.allocate() for _ in range(count)]

    def share(self, block: int) -> int:
        """Add one reference to an allocated block (prefix hit / fork)."""
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        self._refcounts[block] += 1
        self.prefix_shares += 1
        if self.tiering is not None:
            self._touch(block)
        return block

    def ref_count(self, block: int) -> int:
        """Live references to ``block`` (0 if free)."""
        return self._refcounts.get(block, 0)

    def release(self, blocks) -> None:
        """Drop one reference per block; free those reaching zero.

        Releasing a block that is not allocated raises ``ValueError``
        (the double-free guard — a block freed by its last holder leaves
        ``_allocated`` immediately, so a stale second release is loud).
        """
        for block in blocks:
            if block not in self._allocated:
                raise ValueError(f"block {block} is not allocated")
            self._decref(block)

    def _decref(self, block: int) -> None:
        self._refcounts[block] -= 1
        if self._refcounts[block] == 0:
            self._unregister(block)
            self.block_meta.pop(block, None)
            del self._refcounts[block]
            self._allocated.remove(block)
            self._free.append(block)
            if self.tiering is not None:
                self._plane_units_used -= self._resident.pop(block)
                self._spill_store.pop(block, None)
                self._last_touch.pop(block, None)
                self._protected.discard(block)

    # ------------------------------------------------------------------
    def register_prefix(self, key: bytes, block: int) -> bool:
        """Publish ``block`` under content ``key`` for later prefix hits.

        First writer wins: if ``key`` is already registered (two requests
        raced the same prompt), the existing entry is kept and ``False``
        is returned — the caller's block simply stays private.
        """
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        if key in self._prefix_index:
            return False
        self._prefix_index[key] = block
        self._block_key[block] = key
        return True

    def lookup_prefix(self, key: bytes) -> Optional[int]:
        """Find the live block registered under ``key`` (None on miss)."""
        return self._prefix_index.get(key)

    def is_registered(self, block: int) -> bool:
        return block in self._block_key

    def _unregister(self, block: int) -> None:
        key = self._block_key.pop(block, None)
        if key is not None and self._prefix_index.get(key) == block:
            del self._prefix_index[key]
            self._evicted_keys.append(key)

    def drain_evicted_prefix_keys(self) -> List[bytes]:
        """Chain keys dropped from the prefix index since the last drain.

        The serving front-end forwards these to the cluster router so a
        replica whose pool freed a prefix stops attracting affinity
        routes for it (the router mirrors the pool's index instead of
        growing forever).
        """
        keys = list(self._evicted_keys)
        self._evicted_keys.clear()
        return keys

    def fork_block(self, block: int, rows_used: int) -> int:
        """Make ``block`` privately writable (copy-on-write).

        If this caller holds the only reference, the block is simply
        unregistered (its content is about to diverge from the published
        key) and returned unchanged.  Otherwise a fresh block is
        allocated — *before* any mutation, so :class:`PoolExhausted`
        leaves everything untouched — the first ``rows_used`` rows are
        copied, and the shared block loses one reference.
        """
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        # The caller is about to write into the result: spilled planes
        # must come home first, or a later restore would clobber the
        # fresh rows with stale spill-tier bytes.
        self.ensure_resident(block)
        if self._refcounts[block] == 1:
            self._unregister(block)
            self.block_meta.pop(block, None)  # content is about to diverge
            return block
        fresh = self.allocate()
        src = self.rows_of(block)[:rows_used]
        dst = self.rows_of(fresh)[:rows_used]
        self._keys[:, dst, :] = self._keys[:, src, :]
        self._popcounts[:, :, dst] = self._popcounts[:, :, src]
        self._k[:, dst, :] = self._k[:, src, :]
        self._values[:, dst, :] = self._values[:, src, :]
        self._decref(block)
        self.forks += 1
        return fresh

    def rows_of(self, block: int) -> np.ndarray:
        """Physical row indices owned by ``block``."""
        start = block * self.block_size
        return np.arange(start, start + self.block_size)

    def gather_keys(self, blocks: List[int], length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Integer key rows ``(H, length, D)`` and per-plane popcounts
        ``(bits, H, length)`` of the first ``length`` tokens of a block
        table, gathered a whole block (one run of rows) at a time."""
        table = np.asarray(blocks, dtype=np.intp)
        h, d, nb, bs = self.num_heads, self.head_dim, self.num_blocks, self.block_size
        rows = len(table) * bs
        keys = np.take(self._keys.reshape(h, nb, bs, d), table, axis=1)
        counts = np.take(self._popcounts.reshape(self.bits, h, nb, bs), table, axis=2)
        keys, counts = keys.reshape(h, rows, d), counts.reshape(self.bits, h, rows)
        return keys[:, :length], counts[:, :, :length]

    # ------------------------------------------------------------------
    # Plane-granular spill / restore (the two-tier extension).  Spilling
    # planes [r, bits) of a block clears the low bits of its key rows and
    # zeroes those planes' popcounts, stashing both byte-exact in a
    # per-block side store — so every consumer of the gathered keys
    # transparently scores a partial reconstruction with the unknown
    # low-order planes contributing zero, exactly ``partial_reconstruct``
    # (error bound: ``unknown_weight_sum(bits, r)``).  Restore ORs both
    # back, so a round-trip is the identity; the tier model still prices
    # the moved planes as packed bit planes.
    def _require_tiering(self) -> TierConfig:
        if self.tiering is None:
            raise RuntimeError("pool was built without tiering (TierConfig)")
        return self.tiering

    def _touch(self, block: int) -> None:
        self._touch_clock += 1
        self._last_touch[block] = self._touch_clock

    def touch(self, blocks) -> None:
        """Mark blocks recently used (spill victims are chosen cold-first)."""
        if self.tiering is None:
            return
        for block in blocks:
            self._touch(block)

    def set_protected(self, blocks) -> None:
        """Pin blocks against spilling for the current round.

        The scheduler pins every active sequence's write tail plus its
        sink/recent attention window each round, so the protected
        positions of :func:`protection_mask` are never degraded — the
        divergence bound only ever applies to prunable middle context.
        """
        if self.tiering is None:
            return
        self._protected = {b for b in blocks if b in self._allocated}

    def resident_planes(self, block: int) -> int:
        """Planes of ``block`` in the primary tier (``bits`` when flat)."""
        if self.tiering is None:
            return self.bits
        return self._resident[block]

    def spill_candidates(self) -> List[int]:
        """Live blocks eligible for (deeper) spilling, coldest first."""
        tc = self._require_tiering()
        eligible = [
            b
            for b in self._allocated
            if b not in self._protected and self._resident[b] > tc.min_resident_planes
        ]
        eligible.sort(key=lambda b: (self._last_touch.get(b, 0), b))
        return eligible

    def spill_block(self, block: int, target_planes: int) -> int:
        """Move planes ``[target_planes, resident)`` of ``block`` to the
        spill tier; returns the number of planes moved (plane units freed).
        """
        tc = self._require_tiering()
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        current = self._resident[block]
        if target_planes < tc.min_resident_planes:
            raise ValueError(
                f"target {target_planes} below the residency floor "
                f"{tc.min_resident_planes}"
            )
        if target_planes >= current:
            return 0
        start = block * self.block_size
        rows = slice(start, start + self.block_size)
        keys = self._keys[:, rows]
        keep = self._masks[target_planes - 1]
        low = keys & ~keep
        counts = self._popcounts[target_planes:current, :, rows].copy()
        store = self._spill_store.get(block)
        if store is not None:  # planes [current, bits) are already stashed
            low |= store.low
            counts = np.concatenate([counts, store.popcounts], axis=0)
        self._spill_store[block] = _Spilled(low, counts)
        keys &= keep
        self._popcounts[target_planes:current, :, rows] = 0
        self._resident[block] = target_planes
        moved = current - target_planes
        self._plane_units_used -= moved
        self.spill_events += 1
        self.spilled_plane_bytes += self._plane_block_bytes(moved)
        self._tier_plane_writes += moved * self.block_size * self.num_heads
        return moved

    def restore_block(self, block: int, target_planes: Optional[int] = None) -> int:
        """Bring planes of ``block`` back from the spill tier, byte-exact.

        Restores up to ``target_planes`` residency (full precision when
        omitted); returns the number of planes moved.  Restore never
        raises for capacity — the backing rows physically exist — so a
        transient overshoot of the plane budget is possible; the
        scheduler's pressure ladder spills colder blocks to pay it back.
        """
        self._require_tiering()
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        current = self._resident[block]
        target = self.bits if target_planes is None else int(target_planes)
        if target <= current:
            return 0
        store = self._spill_store[block]
        moved = target - current
        start = block * self.block_size
        rows = slice(start, start + self.block_size)
        band = self._masks[target - 1] & ~self._masks[current - 1]  # planes [current, target)
        self._keys[:, rows] |= store.low & band
        self._popcounts[current:target, :, rows] = store.popcounts[:moved]
        if moved == store.popcounts.shape[0]:
            del self._spill_store[block]
        else:
            self._spill_store[block] = _Spilled(store.low & ~band, store.popcounts[moved:].copy())
        self._resident[block] = target
        self._plane_units_used += moved
        self.restore_events += 1
        self.restored_plane_bytes += self._plane_block_bytes(moved)
        self._tier_plane_reads += moved * self.block_size * self.num_heads
        self._touch(block)
        return moved

    def ensure_resident(self, block: int) -> int:
        """Restore ``block`` to full precision if degraded (no-op when flat)."""
        if self.tiering is None or self._resident.get(block, self.bits) == self.bits:
            return 0
        return self.restore_block(block)

    def degraded_blocks(self) -> List[int]:
        """Blocks with spilled planes, least-recently-touched first."""
        if self.tiering is None:
            return []
        out = sorted(
            self._spill_store, key=lambda b: (self._last_touch.get(b, 0), b)
        )
        return out

    def resident_plane_histogram(self) -> Dict[int, int]:
        """Live-block count per residency level (``{bits: n}`` when flat)."""
        hist: Dict[int, int] = {}
        if self.tiering is None:
            if self._allocated:
                hist[self.bits] = len(self._allocated)
            return hist
        for block in self._allocated:
            level = self._resident[block]
            hist[level] = hist.get(level, 0) + 1
        return hist

    def tier_dram_stats(self):
        """Modeled DRAM cost of the tier traffic so far.

        Returns ``{"spill": DramStats, "restore": DramStats}`` from the
        bit-plane-first HBM layout model — one plane of one key per
        access, the same custom layout the accelerator's filter reads
        use (``sim/dram``).  Lazy import keeps the engine package free of
        a hard ``sim`` dependency for non-tiered serving.
        """
        from repro.sim.dram import HBMModel

        model = HBMModel()
        return {
            "spill": model.read_bit_planes(self._tier_plane_writes, self.head_dim),
            "restore": model.read_bit_planes(self._tier_plane_reads, self.head_dim),
        }


class PagedBitPlaneKVCache:
    """Block-table KV cache over a shared :class:`PlaneBlockPool`.

    Presents exactly the :class:`BitPlaneKVCache` interface —
    ``planes/values/k_int/scales/length/prefill/append`` plus the
    ``rows_decomposed``/``appends`` counters — so ``PadeEngine.attend`` and
    both kernel backends consume it unchanged.  Any number of sequences
    interleave allocation from one pool, and :meth:`release` returns a
    sequence's blocks for immediate reuse (completion or preemption).

    Every view is a gather through the block table (DESIGN.md §9):
    ``planes`` gathers the sequence's integer key rows and their stored
    popcounts into a fresh integer-backed :class:`BitPlanes` each call,
    so a view already handed out is never mutated by later writes,
    spills or restores; ``values``, ``k_int`` and ``k_float`` gather the
    same way.

    Raises :class:`PoolExhausted` from ``prefill``/``append`` *before*
    mutating any state, so a failed allocation is always safe to retry
    after the scheduler frees blocks.  (``prefill`` with sharing enabled
    may transiently take prefix references, but it releases them before
    re-raising — pool state is net unchanged on failure.)

    With ``prefix_sharing=True``, full prompt blocks whose chained
    content key is already registered in the pool are *attached* (shared,
    ref-counted) instead of allocated and re-decomposed; blocks this
    cache writes itself are registered for later requests.  Sharing is
    invisible to every consumer: a hit block is byte-identical to what
    this cache would have written (the key covers config, frozen scales,
    integer and raw keys and values), so gathers — and therefore
    retained sets — are unchanged.
    """

    def __init__(self, pool: PlaneBlockPool, prefix_sharing: bool = False) -> None:
        self.pool = pool
        self.prefix_sharing = bool(prefix_sharing)
        self.num_heads = pool.num_heads
        self.head_dim = pool.head_dim
        self.v_dim = pool.v_dim
        self.bits = pool.bits
        self._blocks: List[int] = []
        self._length = 0
        self._scales: Optional[np.ndarray] = None
        self.rows_decomposed = 0
        self.appends = 0
        self.prefix_hit_blocks = 0  # full prompt blocks attached from the index
        self.prefix_miss_blocks = 0  # shareable full prompt blocks written fresh
        self._prefill_target = 0  # prompt length once begin_prefill ran
        self._block_keys: List[bytes] = []  # chain keys of full prompt blocks
        self._next_register = 0  # first full prompt block not yet registered
        self._pending_keys: Optional[np.ndarray] = None  # (H, S, D) int64 during prefill
        self._pending_k: Optional[np.ndarray] = None  # (H, S, D) raw, during prefill
        self._pending_v: Optional[np.ndarray] = None  # (H, S, Dv) during prefill
        self.policy_state = None  # per-request AttentionPolicy state

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of cached tokens."""
        return self._length

    @property
    def block_table(self) -> Tuple[int, ...]:
        """Pool block indices backing this sequence, in token order."""
        return tuple(self._blocks)

    @property
    def tokens_reserved(self) -> int:
        """Token rows this cache holds in the pool (block granularity)."""
        return len(self._blocks) * self.pool.block_size

    @property
    def scales(self) -> np.ndarray:
        """Frozen per-head K quantization scales (set by :meth:`prefill`)."""
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self._scales

    @property
    def prefill_remaining(self) -> int:
        """Prompt tokens still to be written by :meth:`extend_prefill`."""
        if self._pending_keys is None:
            return 0
        return self._prefill_target - self._length

    def _rows_for(self, start: int, end: int) -> np.ndarray:
        """Physical pool rows of token positions ``start .. end-1``."""
        bs = self.pool.block_size
        table = np.asarray(self._blocks[start // bs : -(-end // bs)], dtype=np.int64)
        rows = (table[:, None] * bs + np.arange(bs, dtype=np.int64)).reshape(-1)
        return rows[start % bs : start % bs + end - start]

    @property
    def planes(self) -> BitPlanes:
        """This sequence's keys as integer-backed planes, value shape ``(H, length, D)``.

        One gather of the integer key rows and their stored per-plane
        popcounts through the block table, into fresh arrays.  Rows of
        degraded blocks read with their spilled low bits cleared and
        those planes' popcounts zero.
        """
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        keys, counts = self.pool.gather_keys(self._blocks, self._length)
        return BitPlanes(ints=keys, bits=self.bits, popcounts=counts)

    @property
    def values(self) -> np.ndarray:
        """Gathered V rows, shape ``(H, length, Dv)``."""
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self.pool._values[:, self._rows_for(0, self._length), :]

    @property
    def k_int(self) -> np.ndarray:
        """Gathered integer keys as int64, shape ``(H, length, D)``.

        Rows of degraded blocks read with their spilled low bits cleared.
        """
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self.pool.gather_keys(self._blocks, self._length)[0].astype(np.int64)

    @property
    def k_float(self) -> np.ndarray:
        """Gathered raw (pre-quantization) keys, shape ``(H, length, D)``."""
        if self._scales is None:
            raise RuntimeError("cache is empty; call prefill() first")
        return self.pool._k[:, self._rows_for(0, self._length), :]

    # ------------------------------------------------------------------
    def _chain_keys(
        self, k_int: np.ndarray, k: np.ndarray, v: np.ndarray, scales: np.ndarray
    ) -> List[bytes]:
        """Chained content keys of every *full* prompt block.

        Delegates to the module-level :func:`chain_block_keys` so any
        out-of-process consumer (the cluster router's affinity index)
        computes byte-identical keys from the same prompt tensors.
        """
        return chain_block_keys(
            k_int,
            k,
            v,
            scales,
            bits=self.bits,
            block_size=self.pool.block_size,
            num_heads=self.num_heads,
            head_dim=self.head_dim,
            v_dim=self.v_dim,
        )

    def begin_prefill(self, k: np.ndarray, v: np.ndarray) -> int:
        """Calibrate scales on the full prompt and attach shared prefix blocks.

        Quantizes the whole prompt up front (so chunked prefill is
        byte-identical to one-shot :meth:`prefill`), looks the leading
        full blocks up in the pool's prefix index, and attaches every hit
        by reference.  Returns the number of tokens already resident;
        the rest are written by :meth:`extend_prefill`.
        """
        k, v = _check_prefill(self, k, v)
        seq_len = k.shape[1]
        k_int, scales = quantize_heads(k, bits=self.bits)
        hits: List[int] = []
        keys: List[bytes] = []
        if self.prefix_sharing:
            keys = self._chain_keys(k_int, k, v, scales)
            for key in keys:
                block = self.pool.lookup_prefix(key)
                if block is None:
                    break
                hits.append(block)
        self._blocks = [self.pool.share(b) for b in hits]
        self._scales = scales
        self._length = len(hits) * self.pool.block_size
        self._prefill_target = seq_len
        self._block_keys = keys
        self._next_register = len(hits)
        self._pending_keys = k_int
        self._pending_k = k
        self._pending_v = v
        self.prefix_hit_blocks += len(hits)
        self.prefix_miss_blocks += len(keys) - len(hits)
        return self._length

    def extend_prefill(self, max_tokens: Optional[int] = None) -> int:
        """Write up to ``max_tokens`` more prompt rows.

        Blocks for the chunk are claimed atomically before any write
        (:meth:`PlaneBlockPool.allocate_many`), so :class:`PoolExhausted`
        leaves both the cache and the pool exactly as they were — the
        scheduler preempts a victim and retries the same chunk.  Returns
        the number of tokens *written* — the compute actually spent, the
        quantity a round token budget should be charged for; full prompt
        blocks completed by the chunk are registered in the prefix index
        (sharing mode only).

        Sharing probes are *late-binding*: at every block-aligned
        position the prefix index is re-checked before writing, so a
        request admitted in the same round as its donor — before the
        donor had written anything — still attaches the donor's blocks
        as they appear, chunk by chunk.  Attached blocks are free: they
        advance the prefill without counting against ``max_tokens``.
        """
        if self._pending_keys is None:
            raise RuntimeError("no prefill in progress; call begin_prefill() first")
        if self.prefix_sharing:
            bs_probe = self.pool.block_size
            while (
                self._length % bs_probe == 0
                and self._length // bs_probe < len(self._block_keys)
                and len(self._blocks) == self._length // bs_probe
            ):
                idx = self._length // bs_probe
                block = self.pool.lookup_prefix(self._block_keys[idx])
                if block is None:
                    break
                self._blocks.append(self.pool.share(block))
                self._length += bs_probe
                self.prefix_hit_blocks += 1
                self.prefix_miss_blocks -= 1  # begin_prefill counted it a miss
                self._next_register = idx + 1
        remaining = self._prefill_target - self._length
        take = remaining if max_tokens is None else min(int(max_tokens), remaining)
        if take <= 0:
            return 0
        bs = self.pool.block_size
        start = self._length
        end = start + take
        prior_blocks = len(self._blocks)
        needed = -(-end // bs) - prior_blocks
        if needed > 0:
            self._blocks.extend(self.pool.allocate_many(needed))
        # A chunk resuming inside an existing partial tail block writes
        # into it: spilled planes must be restored first so the side
        # store never holds stale bits for freshly written rows.
        if start // bs < prior_blocks:
            self.pool.ensure_resident(self._blocks[start // bs])
        rows = self._rows_for(start, end)
        self.pool._keys[:, rows, :], self.pool._popcounts[:, :, rows] = _key_rows(
            self._pending_keys[:, start:end, :], self.bits
        )
        self.pool._k[:, rows, :] = self._pending_k[:, start:end, :]
        self.pool._values[:, rows, :] = self._pending_v[:, start:end, :]
        self._length = end
        self.rows_decomposed += self.num_heads * take
        if self.prefix_sharing:
            for i in range(self._next_register, min(end // bs, len(self._block_keys))):
                self.pool.register_prefix(self._block_keys[i], self._blocks[i])
                self._next_register = i + 1
        return take

    def finish_prefill(self) -> None:
        """Seal the prompt: drop staging buffers, enable ``append``."""
        if self._pending_keys is None:
            raise RuntimeError("no prefill in progress")
        if self._length < self._prefill_target:
            raise RuntimeError(
                f"prefill incomplete: {self._length}/{self._prefill_target} tokens resident"
            )
        self._pending_keys = None
        self._pending_k = None
        self._pending_v = None

    def prefill(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and scatter the prompt into pool blocks.

        One-shot path: prefix hits attach shared blocks, the rest is
        claimed atomically before any write.  On :class:`PoolExhausted`
        any prefix references taken are released before re-raising, so
        the pool is net untouched and the call is safe to retry after the
        scheduler frees blocks.
        """
        hits, misses = self.prefix_hit_blocks, self.prefix_miss_blocks
        self.begin_prefill(k, v)
        try:
            self.extend_prefill()
        except PoolExhausted:
            # Free the partially attached prefix references before
            # re-raising — a failed admission must not squat on the pool —
            # and roll back the hit/miss counters of the aborted attempt.
            self.release()
            self.prefix_hit_blocks, self.prefix_miss_blocks = hits, misses
            raise
        self.finish_prefill()

    def _ensure_tail_private(self) -> None:
        """Copy-on-write guard: make the tail block safe to write into.

        A tail shared with a forked sibling (refcount > 1) — or still
        published in the prefix index — is forked/unregistered before the
        first divergent write, so sharers and index entries never observe
        a mutation.  May raise :class:`PoolExhausted` (pre-mutation).
        """
        tail = self._blocks[-1]
        if self.pool.ref_count(tail) == 1 and not self.pool.is_registered(tail):
            return
        rows_used = self._length - (len(self._blocks) - 1) * self.pool.block_size
        self._blocks[-1] = self.pool.fork_block(tail, rows_used)

    def append(self, k_step: np.ndarray, v_step: np.ndarray) -> None:
        """Add one token per head, growing the block table on demand.

        A new block (if the tail block is full) is allocated — or a
        shared tail is copy-on-write forked — before any state changes;
        on :class:`PoolExhausted` the cache is exactly as it was, so the
        scheduler can preempt a victim and retry.
        """
        k_step, v_step = _check_step(self, k_step, v_step)
        if self._pending_keys is not None:
            raise RuntimeError("append() during an unfinished chunked prefill")
        bs = self.pool.block_size
        if self._length == len(self._blocks) * bs:
            self._blocks.append(self.pool.allocate())
        else:
            self._ensure_tail_private()
            # The write below lands in an existing block: degraded planes
            # must come home first (see PlaneBlockPool.spill_block).
            self.pool.ensure_resident(self._blocks[-1])
        k_int, _ = quantize_heads(k_step, bits=self.bits, scales=self._scales)
        pos = self._length
        row = self._blocks[pos // bs] * bs + pos % bs
        self.pool._keys[:, row, :], self.pool._popcounts[:, :, row] = _key_rows(k_int, self.bits)
        self.pool._k[:, row, :] = k_step
        self.pool._values[:, row, :] = v_step
        self._length = pos + 1
        self.rows_decomposed += self.num_heads
        self.appends += 1

    def fork(self) -> "PagedBitPlaneKVCache":
        """Clone this cache onto the same ref-counted blocks (zero copy).

        The clone shares every block — including a partial tail — and the
        frozen scales; the first divergent :meth:`append` on either side
        copy-on-write forks the tail, so both sequences stay byte-exact.
        Forking mid-prefill is rejected (the staging buffers are not
        shareable).
        """
        if self._scales is None:
            raise RuntimeError("cannot fork an empty cache")
        if self._pending_keys is not None:
            raise RuntimeError("cannot fork during an unfinished chunked prefill")
        clone = PagedBitPlaneKVCache(self.pool, prefix_sharing=self.prefix_sharing)
        clone._blocks = [self.pool.share(b) for b in self._blocks]
        clone._length = self._length
        clone._scales = self._scales.copy()
        clone._prefill_target = self._prefill_target
        clone._block_keys = list(self._block_keys)
        clone._next_register = len(clone._block_keys)  # clone registers nothing
        return clone

    def release(self) -> None:
        """Drop this cache's block references and reset to the empty state.

        Shared blocks merely lose one reference; privately held blocks
        return to the pool.  After release the cache may be prefilled
        again — the path a preempted request takes on re-admission.
        """
        self.pool.release(self._blocks)
        self._blocks = []
        self._length = 0
        self._scales = None
        self._prefill_target = 0
        self._block_keys = []
        self._next_register = 0
        self._pending_keys = None
        self._pending_k = None
        self._pending_v = None
        self.policy_state = None
