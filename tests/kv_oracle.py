"""Independent oracle for the contents of a KV cache.

The expected views are computed without any of the cache's own code:
per-head ``quantize_symmetric`` calls (scales calibrated on the prompt,
then frozen for every row) and ``decompose_bitplanes`` — not the
vectorized ``quantize_heads``/``_key_rows`` the cache stores with.
"""

from __future__ import annotations

import numpy as np

from repro.quant.bitplane import decompose_bitplanes
from repro.quant.integer import quantize_symmetric


def assert_cache_holds(cache, k, v, prompt_len):
    """``cache`` holds ``k``/``v`` ``(H, S, ·)``: the first ``prompt_len``
    tokens prefilled, the rest appended one at a time."""
    heads = k.shape[0]
    prompt = [quantize_symmetric(k[h, :prompt_len], bits=cache.bits) for h in range(heads)]
    scales = np.array([float(q.scale) for q in prompt])
    k_int = np.stack(
        [quantize_symmetric(k[h], bits=cache.bits, scale=scales[h]).data for h in range(heads)]
    )
    expected = decompose_bitplanes(k_int, bits=cache.bits)
    planes = cache.planes
    assert cache.length == k.shape[1]
    assert cache.scales.tobytes() == scales.tobytes()
    assert cache.k_int.tobytes() == k_int.tobytes()
    assert planes.planes.tobytes() == expected.planes.tobytes()
    assert planes.popcounts.tobytes() == expected.popcounts.tobytes()
    assert cache.values.tobytes() == np.asarray(v, dtype=np.float64).tobytes()
    assert cache.k_float.tobytes() == np.asarray(k, dtype=np.float64).tobytes()
