"""Process-wide heap settings for serving (glibc malloc thresholds)."""

from __future__ import annotations

import ctypes

#: glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    glibc starts serving blocks of 128 KiB and up with a fresh ``mmap``
    and raises that threshold only when such a block is freed.  A
    decode round's per-call arrays (~3.5 MB in the fused filter) would
    then be mapped and page-faulted anew every round, unless something
    larger happened to be freed first.  The thresholds are pinned to
    glibc's own 64-bit maximum for mmap (32 MiB) and twice that for
    trimming, so those arrays come from a heap that stays warm.  A libc
    without ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
