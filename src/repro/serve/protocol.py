"""Wire protocol of the async serving front-end.

Newline-delimited JSON (NDJSON) over a stream socket: every message is
one JSON object on one line, so framing is ``readline`` and the protocol
stays debuggable with ``nc``.  Tensors travel as base64-encoded little-
endian float64 buffers next to their shape; requests carry their full
prompt/decode tensors exactly as :class:`EngineRequest` holds them, so
any workload the in-process path can serve can be replayed over the
socket byte for byte.

Client → server message types::

    {"type": "submit", "request": {...}, "arrival": "now" | <float>}
    {"type": "cancel", "request_id": "r3"}
    {"type": "shutdown"}

Server → client::

    {"type": "accepted" | "rejected", "request_id": ..., ["error": ...]}
    {"type": "token", "request_id", "step", "digest", "output": {...}}
    {"type": "done", "request_id", "status", "abort_reason", "timing",
     "wall", "output_digest", "retained_digest", ...}
    {"type": "shutdown_ack", "leaked_blocks", "served", "report"}

Scheduler settings cross a process boundary the same way: the server
entry point takes them as one JSON object (``--config``, built by
:func:`encode_settings`) and passes it to
:class:`~repro.engine.scheduler.ContinuousScheduler` unchanged.

``arrival: "now"`` asks the server to stamp the request's round-clock
arrival at the moment the engine loop picks it up (live traffic);
omitting it (or sending a number) keeps the workload's own arrival
schedule — the open-loop / deterministic-replay mode.

Digests are sha256 over the canonical (C-contiguous float64) byte
encoding; :func:`array_digest` and :func:`result_digests` are shared
with the in-process side so parity checks compare like with like.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, is_dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.engine.scheduler import EngineRequest

__all__ = [
    "MAX_LINE_BYTES",
    "encode_message",
    "decode_message",
    "encode_settings",
    "encode_array",
    "decode_array",
    "encode_request",
    "decode_request",
    "array_digest",
    "result_digests",
]

#: Stream-reader line limit: a submit line carries a request's full
#: prompt + decode tensors (base64), far past asyncio's 64 KiB default.
MAX_LINE_BYTES = 1 << 24


def encode_message(msg: Dict) -> bytes:
    """One protocol message as one NDJSON line."""
    return (json.dumps(msg, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict:
    msg = json.loads(line.decode("utf-8"))
    if not isinstance(msg, dict) or "type" not in msg:
        raise ValueError("protocol message must be a JSON object with a 'type'")
    return msg


def encode_settings(settings: Dict) -> str:
    """Scheduler keyword arguments as one JSON object.

    A :class:`~repro.engine.cache.TierConfig` travels as its field dict
    (the scheduler's ``tiering`` accepts that back); anything else JSON
    cannot carry — a :class:`SchedulingPolicy` instance, say — raises
    :class:`TypeError`.
    """
    def default(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            return asdict(obj)
        raise TypeError(
            f"scheduler setting {obj!r} cannot cross a process boundary as "
            f"JSON; pass it by name"
        )

    return json.dumps(settings, default=default)


def encode_array(arr: np.ndarray) -> Dict:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj: Optional[Dict]) -> Optional[np.ndarray]:
    if obj is None:
        return None
    buf = base64.b64decode(obj["data"])
    return np.frombuffer(buf, dtype=np.float64).reshape(obj["shape"]).copy()


def array_digest(arr: np.ndarray) -> str:
    """sha256 over the canonical float64 byte encoding of ``arr``."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def result_digests(result) -> Dict[str, str]:
    """Canonical digests of a :class:`RequestResult`'s outputs.

    ``output`` covers the stacked decode outputs, ``retained`` the
    per-step retained-set encoding (:meth:`RequestResult.retained_bytes`)
    — byte-identical serving paths must agree on both.
    """
    return {
        "output_digest": array_digest(result.decode_outputs),
        "retained_digest": hashlib.sha256(result.retained_bytes()).hexdigest(),
    }


_TENSOR_FIELDS = (
    "k",
    "v",
    "q_prompt",
    "decode_q",
    "decode_k",
    "decode_v",
    "sample_decode_q",
    "sample_decode_k",
    "sample_decode_v",
)
_SCALAR_FIELDS = (
    "arrival_time",
    "tenant",
    "priority",
    "deadline_ms",
    "max_queue_ms",
    "speculative",
    "draft_tokens",
)


def encode_request(request: EngineRequest) -> Dict:
    """An :class:`EngineRequest` as a JSON-safe dict (tensors base64)."""
    obj: Dict = {"request_id": request.request_id}
    for name in _TENSOR_FIELDS:
        value = getattr(request, name)
        obj[name] = None if value is None else encode_array(value)
    for name in _SCALAR_FIELDS:
        obj[name] = getattr(request, name)
    return obj


def decode_request(obj: Dict, arrival_time: Optional[float] = None) -> EngineRequest:
    """Rebuild an :class:`EngineRequest`; ``arrival_time`` overrides the
    encoded one (the server's ``arrival: "now"`` stamping)."""
    kwargs = {name: decode_array(obj.get(name)) for name in _TENSOR_FIELDS}
    kwargs["arrival_time"] = float(obj.get("arrival_time", 0.0))
    kwargs["tenant"] = str(obj.get("tenant", "default"))
    kwargs["priority"] = int(obj.get("priority", 0))
    kwargs["deadline_ms"] = obj.get("deadline_ms")
    kwargs["max_queue_ms"] = obj.get("max_queue_ms")
    kwargs["speculative"] = bool(obj.get("speculative", False))
    kwargs["draft_tokens"] = int(obj.get("draft_tokens", 4))
    request = EngineRequest(request_id=str(obj["request_id"]), **kwargs)
    if arrival_time is not None:
        request = replace(request, arrival_time=float(arrival_time))
    return request
