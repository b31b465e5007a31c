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

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class BitPlanes:
    """MSB-first bit planes of an integer tensor.

    ``planes`` has shape ``(bits,) + value_shape`` with entries in {0, 1};
    ``planes[0]`` is the sign plane.

    ``popcounts`` holds the set bits of every plane along the last value
    axis, shape ``planes.shape[:-1]`` in :func:`popcount_dtype` of that
    axis.  A plane's popcount depends on the stored plane only, never on
    the query, so the fast kernels read it instead of re-summing planes
    every filter call.  Producers that already know the counts pass them
    in; otherwise they are computed once here.  The field is derived
    data, so it takes no part in equality.
    """

    planes: np.ndarray
    bits: int
    popcounts: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.popcounts is None:
            if np.ndim(self.planes) < 2:  # scalar values: one bit per plane
                counts = np.asarray(self.planes, dtype=np.uint8)
            else:
                length = np.shape(self.planes)[-1]
                counts = popcount_per_plane(self, axis=-1, dtype=popcount_dtype(length))
            object.__setattr__(self, "popcounts", counts)

    @property
    def value_shape(self) -> Tuple[int, ...]:
        return self.planes.shape[1:]

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

    ``values`` must fit in a signed ``bits``-wide integer.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"expected an integer tensor, got dtype {values.dtype}")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if values.size and (values.min() < lo or values.max() > hi):
        raise ValueError(f"values out of int{bits} range [{lo}, {hi}]")
    # 2's complement: reinterpret as unsigned bits-wide, then slice bits.
    unsigned = values.astype(np.int64) & ((1 << bits) - 1)
    planes = np.empty((bits,) + values.shape, dtype=np.uint8)
    for i in range(bits):
        shift = bits - 1 - i  # plane 0 = MSB
        planes[i] = (unsigned >> shift) & 1
    return BitPlanes(planes=planes, bits=bits)


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
