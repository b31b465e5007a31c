"""2's-complement bit-plane decomposition (the substrate of BSF).

PADE's bit-serial stage fusion processes each Key vector one *bit plane* at a
time, MSB first.  For a ``p``-bit 2's-complement integer ``b_{p-1} ... b_0``
(paper Eq. 2):

    x = -b_{p-1} * 2^(p-1) + sum_{i=0}^{p-2} b_i * 2^i

We index planes MSB-first: plane 0 is the sign bit with weight ``-2^(p-1)``
and plane ``i >= 1`` has weight ``+2^(p-1-i)``.  Because every non-sign bit
contributes a non-negative amount, knowing a *prefix* of planes bounds the
value from below (all unknown bits zero) and above (all unknown bits one) —
the property the bit-wise uncertainty interval (BUI, §IV-A) is built on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BitPlanes",
    "plane_weights",
    "unknown_weight_sum",
    "decompose_bitplanes",
    "reconstruct_from_planes",
    "partial_reconstruct",
    "popcount_per_plane",
    "popcount_dtype",
    "prefix_masks",
    "signed_dtype",
]


def plane_weights(bits: int) -> np.ndarray:
    """Weights of each MSB-first plane of a ``bits``-wide 2's-complement int.

    >>> plane_weights(4).tolist()
    [-8, 4, 2, 1]
    """
    if bits < 2:
        raise ValueError(f"need at least 2 bits, got {bits}")
    weights = np.array([1 << (bits - 1 - i) for i in range(bits)], dtype=np.int64)
    weights[0] = -weights[0]
    return weights


def unknown_weight_sum(bits: int, planes_known: int) -> int:
    """Total positive weight of the planes *not yet* processed.

    After the first ``planes_known`` MSB-first planes are known, the unknown
    planes are ``planes_known .. bits-1``, all with positive weights summing
    to ``2^(bits - planes_known) - 1`` (for ``planes_known >= 1``).  This is
    the ``W(r)`` of DESIGN.md §6 and the magnitude the BUI scales the
    positive/negative query mass by.

    >>> unknown_weight_sum(8, 1)
    127
    >>> unknown_weight_sum(8, 8)
    0
    """
    if not 1 <= planes_known <= bits:
        raise ValueError(f"planes_known must be in [1, {bits}], got {planes_known}")
    return (1 << (bits - planes_known)) - 1


def popcount_dtype(length: int) -> type:
    """Smallest unsigned dtype holding a popcount over ``length`` bits."""
    if length <= 0xFF:
        return np.uint8
    if length <= 0xFFFF:
        return np.uint16
    return np.uint32


def signed_dtype(bits: int) -> type:
    """Smallest signed integer dtype holding a ``bits``-wide 2's-complement int."""
    for dtype in (np.int8, np.int16, np.int32):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    return np.int64


def prefix_masks(bits: int) -> np.ndarray:
    """Masks that keep the first ``r + 1`` MSB-first planes of an integer.

    In 2's complement, knowing planes ``0 .. r`` of a key and treating the
    rest as zero is exactly the key with its low ``bits - 1 - r`` bits
    cleared, so ``values & prefix_masks(bits)[r] ==
    partial_reconstruct(decompose_bitplanes(values), r + 1)`` (the
    truncation identity, DESIGN.md §6).  The masks are negative, so the
    sign extension above bit ``bits - 1`` survives in any wider dtype.

    >>> prefix_masks(4).tolist()
    [-8, -4, -2, -1]
    """
    return -(np.int64(1) << np.arange(bits - 1, -1, -1, dtype=np.int64))


def _split_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """MSB-first 0/1 planes of in-range integers, shape ``(bits,) + shape``."""
    # 2's complement: reinterpret as unsigned bits-wide, then slice bits.
    unsigned = values.astype(np.int64) & ((1 << bits) - 1)
    planes = np.empty((bits,) + values.shape, dtype=np.uint8)
    for i in range(bits):
        shift = bits - 1 - i  # plane 0 = MSB
        planes[i] = (unsigned >> shift) & 1
    return planes


class BitPlanes:
    """MSB-first bit planes of an integer tensor.

    Holds one of two equivalent forms and derives the other on first
    read:

    * ``planes`` — shape ``(bits,) + value_shape`` with entries in {0, 1};
      ``planes[0]`` is the sign plane;
    * ``ints`` — the 2's-complement integers themselves, ``value_shape``.

    The serving caches store only the integers and hand out integer-backed
    views: the fast kernels read ``ints`` (bit round ``r`` is
    ``ints & prefix_masks(bits)[r]``), so the uint8 plane array is built
    only when a consumer — the reference backend, the simulator, the
    exhibits — reads ``planes``.

    ``popcounts`` holds the set bits of every plane along the last value
    axis, shape ``(bits,) + value_shape[:-1]`` in :func:`popcount_dtype`
    of that axis.  A plane's popcount depends on the stored plane only,
    never on the query, so the fast kernels read it instead of re-summing
    planes every filter call.  Producers that already know the counts
    pass them in; otherwise they are computed on first read.  The field
    is derived data, so it takes no part in equality, which compares
    ``bits`` and the planes.
    """

    __slots__ = ("bits", "_plane_array", "_ints", "_popcounts")

    def __init__(
        self,
        planes: Optional[np.ndarray] = None,
        *,
        bits: int,
        popcounts: Optional[np.ndarray] = None,
        ints: Optional[np.ndarray] = None,
    ) -> None:
        if planes is None and ints is None:
            raise ValueError("BitPlanes needs planes or ints")
        self.bits = bits
        self._plane_array = planes
        self._ints = ints
        self._popcounts = popcounts

    @property
    def planes(self) -> np.ndarray:
        if self._plane_array is None:
            self._plane_array = _split_bits(np.asarray(self._ints), self.bits)
        return self._plane_array

    @property
    def ints(self) -> np.ndarray:
        if self._ints is None:
            self._ints = partial_reconstruct(self, self.bits)
        return self._ints

    @property
    def popcounts(self) -> np.ndarray:
        if self._popcounts is None:
            if len(self.value_shape) < 1:  # scalar values: one bit per plane
                self._popcounts = np.asarray(self.planes, dtype=np.uint8)
            else:
                length = self.value_shape[-1]
                self._popcounts = popcount_per_plane(
                    self, axis=-1, dtype=popcount_dtype(length)
                )
        return self._popcounts

    @property
    def value_shape(self) -> Tuple[int, ...]:
        if self._ints is not None:
            return np.shape(self._ints)
        return np.shape(self._plane_array)[1:]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitPlanes):
            return NotImplemented
        return self.bits == other.bits and np.array_equal(self.planes, other.planes)

    __hash__ = None  # mutable arrays inside

    def __repr__(self) -> str:
        return f"BitPlanes(bits={self.bits}, value_shape={self.value_shape})"

    def plane(self, index: int) -> np.ndarray:
        """Return plane ``index`` (0 = MSB)."""
        return self.planes[index]

    def reconstruct(self, planes_known: int | None = None) -> np.ndarray:
        """Rebuild integers from the first ``planes_known`` planes.

        Unknown planes are treated as zero — the "conservative value"
        ``S^r`` of paper Eq. (3) when applied inside a dot product.
        """
        known = self.bits if planes_known is None else planes_known
        return partial_reconstruct(self, known)


def decompose_bitplanes(values: np.ndarray, bits: int = 8) -> BitPlanes:
    """Split an integer tensor into MSB-first 2's-complement bit planes.

    ``values`` must fit in a signed ``bits``-wide integer.  The result
    carries both forms: the planes and a :func:`signed_dtype` copy of the
    integers.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"expected an integer tensor, got dtype {values.dtype}")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        raise ValueError(f"values out of int{bits} range [{lo}, {hi}]")
    return BitPlanes(
        planes=_split_bits(values, bits), bits=bits, ints=values.astype(signed_dtype(bits))
    )


def reconstruct_from_planes(bp: BitPlanes) -> np.ndarray:
    """Exact inverse of :func:`decompose_bitplanes` (returns int64)."""
    return partial_reconstruct(bp, bp.bits)


def partial_reconstruct(bp: BitPlanes, planes_known: int) -> np.ndarray:
    """Reconstruct with only the first ``planes_known`` planes, rest zeroed.

    With ``planes_known == bits`` this is the exact value; with fewer planes
    it is the lower-magnitude "all unknown bits = 0" value used as the
    conservative partial score in BUI-GF.
    """
    if not 0 <= planes_known <= bp.bits:
        raise ValueError(f"planes_known must be in [0, {bp.bits}], got {planes_known}")
    weights = plane_weights(bp.bits)
    out = np.zeros(bp.value_shape, dtype=np.int64)
    for i in range(planes_known):
        out += weights[i] * bp.planes[i].astype(np.int64)
    return out


def popcount_per_plane(
    bp: BitPlanes, axis: int | None = None, dtype: type = np.int64
) -> np.ndarray:
    """Number of set bits in each plane (optionally along one value axis).

    ``axis`` indexes the value shape, so ``-1`` is its last axis.  This
    drives the bidirectional-sparsity load model: a plane's *effective*
    work under BS is ``min(popcount, N - popcount)``.
    """
    planes = np.asarray(bp.planes)
    if axis is None:
        return planes.reshape(bp.bits, -1).sum(axis=1, dtype=dtype)
    return planes.sum(axis=axis % (planes.ndim - 1) + 1, dtype=dtype)
