"""Asyncio serving front-end over the continuous-batching engine.

The in-process stack simulates time in decode rounds; this package puts
a real wall clock (and real sockets) in front of it without forking the
scheduling logic:

* :mod:`repro.serve.protocol` — newline-delimited JSON over a stream
  socket: submits whose tensors follow the header line as raw float64
  bytes, per-token streaming replies, done / cancel / shutdown control
  messages, canonical sha256 digests.
* :mod:`repro.serve.server` — :class:`AsyncPadeServer`: an
  ``asyncio.start_server`` service whose engine loop drives
  :meth:`ContinuousScheduler.step` one round at a time, with a bounded
  accept queue for backpressure, client disconnect mapped onto the
  round-boundary abort path, and measured wall-clock marks
  (``time.perf_counter``) stamped next to every round-clock mark.
* :mod:`repro.serve.client` — :class:`ServeConnection` plus closed-loop
  and open-loop load generators and the
  :func:`serve_workload_over_loopback` harness entry point.
* :mod:`repro.serve.smoke` — the CI smoke: serve a small workload over
  loopback, assert clean shutdown and zero leaked pool blocks.

Because the server drives the *same* :meth:`ContinuousScheduler.step`
the in-process :meth:`PadeEngine.serve` loop runs, a deterministic
workload served over loopback produces byte-identical outputs and an
identical round-clock report (see ``benchmarks/bench_async_serve.py``).
"""

from repro.serve.client import (
    ServeConnection,
    run_closed_loop,
    run_open_loop,
    serve_workload_over_loopback,
)
from repro.serve.protocol import array_digest, decode_message, encode_message
from repro.serve.server import AsyncPadeServer

__all__ = [
    "AsyncPadeServer",
    "ServeConnection",
    "run_closed_loop",
    "run_open_loop",
    "serve_workload_over_loopback",
    "array_digest",
    "encode_message",
    "decode_message",
]
