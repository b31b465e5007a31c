"""Wire protocol of the async serving front-end.

Newline-delimited JSON (NDJSON) over a stream socket.  Every message is
one JSON object on one line (a *header*), so framing is ``readline`` and
the protocol stays debuggable with ``nc``.  A message that carries
tensors — a submit — is followed by their raw bytes::

    {"binary_bytes": N, "type": "submit", "request": {..., "k": SPAN, ...}}\n
    <N bytes: the tensors' little-endian float64 values, back to back>

Each tensor in the header is a span ``{"shape", "offset", "nbytes"}``
of that payload.  The spans must tile it exactly: ``nbytes`` is
``8 * prod(shape)``, each span starts where the previous one ends, and
the last one ends at ``N``.  The reader takes the line, then exactly
``binary_bytes`` more; this is the shape of Triton's binary tensor
extension.  Decoding is one ``json.loads`` of a small header and one
copy per tensor.  Base64 float64 in the JSON cost ~0.3 s of server CPU
per 32-request replay and is no longer accepted in a submit.

Limits and framing errors:

* a line may be at most :data:`MAX_LINE_BYTES`, and so may a payload;
* ``binary_bytes`` that is not an int, is negative or is past the limit
  raises :class:`FrameError`.  The stream has lost its framing, so the
  server answers ``error`` and closes, as for an over-long line;
* EOF inside a payload is a disconnect;
* spans that do not tile the payload make the request ``invalid``; the
  payload was read in full, so the connection stays usable.

Client → server message types::

    {"type": "submit", "request": {...}, "arrival": "now" | <float>}
    {"type": "cancel", "request_id": "r3"}
    {"type": "shutdown"}

Server → client (always pure NDJSON: clients read replies with
``readline`` + ``json.loads``, and one decode step's output is too small
for base64 to cost anything)::

    {"type": "accepted" | "rejected", "request_id": ..., ["error": ...]}
    {"type": "token", "request_id", "step", "digest", "output": {...}}
    {"type": "done", "request_id", "status", "abort_reason", "timing",
     "wall", "output_digest", "retained_digest", ...}
    {"type": "shutdown_ack", "leaked_blocks", "served", "report"}

A ``rejected`` id was never taken and may be submitted again.  An
accepted id stays taken after its ``done``: submitting it again is
``duplicate``.

A token's ``output`` is :func:`encode_array`'s ``{"shape", "data"}``
with the float64 bytes in base64.  Messages without tensors are the
same bytes they were before binary frames existed.

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
import math
from dataclasses import asdict, is_dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.engine.scheduler import EngineRequest

__all__ = [
    "MAX_LINE_BYTES",
    "FrameError",
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

#: Stream-reader line limit, and the largest payload one message may
#: announce in ``binary_bytes``.
MAX_LINE_BYTES = 1 << 24

#: The payload's element type.
_WIRE_FLOAT = np.dtype("<f8")


class FrameError(ValueError):
    """A header whose ``binary_bytes`` cannot be read: framing is lost."""


def encode_message(msg: Dict) -> bytes:
    """One protocol message as one frame.

    Every numpy array in ``msg`` becomes a span of the binary payload
    that follows the header line; a message without arrays is just its
    NDJSON line.
    """
    arrays = []
    size = 0

    def span(obj):
        nonlocal size
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        arr = np.ascontiguousarray(obj, dtype=_WIRE_FLOAT)
        arrays.append(arr)
        out = {"shape": list(arr.shape), "offset": size, "nbytes": arr.nbytes}
        size += arr.nbytes
        return out

    text = json.dumps(msg, separators=(",", ":"), default=span)
    if not arrays:
        return (text + "\n").encode("utf-8")
    header = f'{{"binary_bytes":{size},{text[1:]}\n'.encode("utf-8")
    return b"".join([header, *arrays])


def decode_message(line: bytes) -> Dict:
    """Parse one header line.

    Raises :class:`ValueError` for a line that is not a message, and its
    subclass :class:`FrameError` when ``binary_bytes`` cannot be read.
    """
    msg = json.loads(line.decode("utf-8"))
    if not isinstance(msg, dict) or "type" not in msg:
        raise ValueError("protocol message must be a JSON object with a 'type'")
    size = msg.get("binary_bytes", 0)
    if type(size) is not int or not 0 <= size <= MAX_LINE_BYTES:
        raise FrameError(f"binary_bytes must be an int in [0, {MAX_LINE_BYTES}]")
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
    """An :class:`EngineRequest` as a message body; its tensors stay
    arrays, which :func:`encode_message` moves into the payload."""
    obj: Dict = {"request_id": request.request_id}
    for name in _TENSOR_FIELDS + _SCALAR_FIELDS:
        obj[name] = getattr(request, name)
    return obj


def _decode_tensors(obj: Dict, payload: bytes) -> Dict[str, Optional[np.ndarray]]:
    """The request's tensors, each an owned float64 copy of its span.

    The spans, in offset order, must tile ``payload`` exactly.
    """
    spans = [(obj[name]["offset"], name) for name in _TENSOR_FIELDS if obj.get(name) is not None]
    tensors: Dict[str, Optional[np.ndarray]] = dict.fromkeys(_TENSOR_FIELDS)
    cursor = 0
    for offset, name in sorted(spans):
        span = obj[name]
        shape = span["shape"]
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"{name}: shape must be a list of non-negative ints")
        nbytes = span["nbytes"]
        if nbytes != _WIRE_FLOAT.itemsize * math.prod(shape):
            raise ValueError(f"{name}: nbytes does not match shape {shape}")
        if offset != cursor or cursor + nbytes > len(payload):
            raise ValueError(f"{name}: span does not follow the previous one in the payload")
        view = np.frombuffer(payload, _WIRE_FLOAT, count=math.prod(shape), offset=offset)
        tensors[name] = view.reshape(shape).astype(np.float64)
        cursor += nbytes
    if cursor != len(payload):
        raise ValueError(f"spans cover {cursor} of {len(payload)} payload bytes")
    return tensors


def decode_request(
    obj: Dict, payload: bytes = b"", arrival_time: Optional[float] = None
) -> EngineRequest:
    """Rebuild an :class:`EngineRequest` from a submit's body and payload;
    ``arrival_time`` overrides the encoded one."""
    kwargs = _decode_tensors(obj, payload)
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
