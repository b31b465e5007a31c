"""Asyncio serving front-end: :class:`AsyncPadeServer`.

One engine task drives :meth:`ContinuousScheduler.step` — the *same*
round implementation :meth:`PadeEngine.serve` runs in-process — so the
schedule a workload gets over the socket is identical to the one it gets
in-process.  Everything wall-clock lives out here: arrivals are stamped
when a submit is read off the socket, admissions when the scheduler's
timed event trace records them, first tokens when the scheduler's
``token_sink`` fires, finishes when the done message is built.  All
marks come from ``time.perf_counter()`` (monotonic — NTP adjustments
cannot produce negative latencies) relative to one server epoch.

Flow control, cancellation, shutdown:

* **Backpressure** — accepted submits wait in a bounded queue the engine
  loop drains at round boundaries; a submit past ``queue_limit`` is
  rejected with ``overloaded`` instead of buffering without bound.
  Requests that could never fit the token budget are rejected up front
  (``too-large``) via :meth:`ContinuousScheduler.fits_budget`, and
  requests that fail validation (non-finite tensors, a mode this engine
  cannot serve; :meth:`ContinuousScheduler.check_request`) as
  ``invalid``, so one bad submit never reaches the engine loop.
* **Cancellation** — a ``cancel`` message or a client disconnect marks
  the request via :meth:`ContinuousScheduler.cancel`; the next round
  boundary aborts it (blocks, staging and prefix refs freed) and the
  result surfaces ``abort_reason="cancelled"``.  A cancel for an id
  that was never accepted or has already finished is ignored.
* **Shutdown** — a ``shutdown`` message stops new admissions, drains
  everything in flight, then answers with ``shutdown_ack`` carrying the
  serving report and the pool-leak counter (0 on a clean run).

``start_barrier`` holds the engine loop until that many submits are
queued before the first round runs — the deterministic-replay mode the
parity benchmark uses (every request is in the scheduler before round 0,
exactly like a batch :meth:`PadeEngine.serve` call).  A ``barrier``
message re-arms it at runtime: the cluster spawns replay-mode replicas
with an unreachable barrier, routes every submit, then lowers each
replica's barrier to its routed count.

Run standalone (also how the cluster spawns each replica)::

    python -m repro.serve.server --port 0 --config '{"token_budget": 1536}'

``--config`` is one JSON object of :class:`ContinuousScheduler` keyword
arguments (see :func:`repro.serve.protocol.encode_settings`); once the
socket is bound the process prints one JSON line
``{"type": "ready", "host": ..., "port": ...}`` (port 0 = ephemeral, so
a parent reads the real port from it).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.engine.scheduler import ContinuousScheduler, EngineRequest
from repro.eval.serving_metrics import (
    summarize_serving,
    timing_from_result,
    with_wall_clock,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    FrameError,
    array_digest,
    decode_message,
    decode_request,
    encode_array,
    encode_message,
    result_digests,
)

__all__ = ["AsyncPadeServer", "main"]

class _Connection:
    """One client: its writer, the ids it owns, its outbox."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.owned: Set[str] = set()
        self.outbox: Deque[bytes] = deque()
        self.alive = True


class AsyncPadeServer:
    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        start_barrier: int = 0,
        **scheduler_kwargs,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.queue_limit = int(queue_limit)
        self.start_barrier = int(start_barrier)
        self.scheduler = ContinuousScheduler(engine, **scheduler_kwargs)
        self.scheduler.token_sink = self._on_token
        self.results: Dict[str, object] = {}
        self.epoch = time.perf_counter()
        # Accepted submits, decoded once on receipt: (request, arrival).
        self._accept_queue: Deque[Tuple[EngineRequest, Any]] = deque()
        self._connections: List[_Connection] = []
        self._owners: Dict[str, _Connection] = {}
        self._wall: Dict[str, Dict[str, float]] = {}
        self._done_sent: Set[str] = set()
        self._events_seen = 0
        self._started = False
        self._draining = False
        self._shutdown_conns: List[_Connection] = []
        self._wake = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._engine_task: Optional[asyncio.Task] = None
        self.closed = asyncio.Event()

    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.perf_counter() - self.epoch) * 1000.0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.results = self.scheduler.start()
        self._engine_task = asyncio.create_task(self._engine_loop())

    async def wait_closed(self) -> None:
        await self.closed.wait()

    async def stop(self) -> None:
        """Force shutdown (the graceful path is the ``shutdown`` message)."""
        self._draining = True
        self._wake.set()
        await self.closed.wait()

    def leaked_blocks(self) -> int:
        pool = self.scheduler.pool
        return 0 if pool is None else int(pool.used_block_count)

    # ------------------------------------------------------------------
    def timings(self):
        """Round-clock timings with the measured wall marks stamped on."""
        out = []
        for rid, res in self.results.items():
            wall = self._wall.get(rid, {})
            out.append(
                with_wall_clock(
                    timing_from_result(res),
                    arrival_ms=wall.get("arrival"),
                    admit_ms=wall.get("admit"),
                    first_token_ms=wall.get("first_token"),
                    finish_ms=wall.get("finish"),
                )
            )
        return out

    def report(self) -> Dict[str, float]:
        """The serving report over everything finished so far: the exact
        round-clock report the in-process path produces, plus the
        measured ``wall_*_ms`` latency block."""
        scheduler = self.scheduler
        return summarize_serving(
            self.timings(),
            occupancy=scheduler.occupancy,
            token_budget=scheduler.token_budget,
            scheduler=scheduler,
        )

    # ------------------------------------------------------------------
    def _send(self, conn: _Connection, msg: Dict) -> None:
        if conn.alive:
            conn.outbox.append(encode_message(msg))

    def _on_token(self, request_id: str, step: int, output) -> None:
        wall = self._wall.setdefault(request_id, {})
        if "first_token" not in wall:
            now = self._now_ms()
            # The admit event is only scanned after step() returns; a
            # request admitted and streamed in the same round must still
            # read admit <= first_token on the wall clock.
            wall.setdefault("admit", now)
            wall["first_token"] = now
        conn = self._owners.get(request_id)
        if conn is not None and conn.alive:
            self._send(
                conn,
                {
                    "type": "token",
                    "request_id": request_id,
                    "step": step,
                    "digest": array_digest(output),
                    "output": encode_array(output),
                },
            )

    def _stamp_admits(self) -> None:
        events = self.scheduler.events
        while self._events_seen < len(events):
            _, event, ids = events[self._events_seen]
            self._events_seen += 1
            if event in ("admit", "prefill"):
                for rid in ids:
                    self._wall.setdefault(rid, {}).setdefault("admit", self._now_ms())

    def _dispatch_done(self) -> None:
        # The scheduler only appends to ``results``, in finishing order,
        # and every dispatch sends all it finds: the unsent ids are the
        # tail after the last sent one, so a round never rescans the past.
        fresh = []
        for rid in reversed(self.results):
            if rid in self._done_sent:
                break
            fresh.append(rid)
        for rid in reversed(fresh):
            res = self.results[rid]
            self._done_sent.add(rid)
            self._wall.setdefault(rid, {})["finish"] = self._now_ms()
            conn = self._owners.get(rid)
            if conn is None or not conn.alive:
                continue  # orphaned by a disconnect; the result stands
            msg = {
                "type": "done",
                "request_id": rid,
                "status": res.status,
                "abort_reason": res.abort_reason,
                "decode_tokens": int(res.decode_outputs.shape[1]),
                "preemptions": int(res.preemptions),
                "timing": {
                    "arrival_time": res.arrival_time,
                    "admit_time": res.admit_time,
                    "first_token_time": res.first_token_time,
                    "finish_time": res.finish_time,
                },
                "wall": dict(self._wall[rid]),
            }
            msg.update(result_digests(res))
            self._send(conn, msg)

    async def _flush_outboxes(self) -> None:
        for conn in self._connections:
            if not conn.alive or not conn.outbox:
                continue
            data = b"".join(conn.outbox)
            conn.outbox.clear()
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                self._drop_connection(conn)

    def _drop_connection(self, conn: _Connection) -> None:
        """Map a client disconnect onto the round-boundary abort path."""
        if not conn.alive:
            return
        conn.alive = False
        conn.outbox.clear()
        for rid in conn.owned:
            if rid not in self._done_sent:
                self.scheduler.cancel(rid)
        self._wake.set()

    # ------------------------------------------------------------------
    def _barrier_open(self) -> bool:
        if self._started or self._draining:
            return True
        if len(self._accept_queue) >= self.start_barrier:
            self._started = True
            return True
        return False

    def _drain_accepts(self) -> int:
        """Hand accepted submits to the scheduler (round-boundary work)."""
        if not self._barrier_open():
            return 0
        drained = 0
        while self._accept_queue:
            request, arrival = self._accept_queue.popleft()
            if arrival == "now":  # stamp the round-clock arrival at pickup
                request = replace(request, arrival_time=float(self.scheduler.time))
            self.scheduler.submit(request)
            drained += 1
        return drained

    def _on_submit(self, conn: _Connection, msg: Dict, payload: bytes) -> None:
        body = msg.get("request")
        if not isinstance(body, dict) or body.get("request_id") is None:
            self._send(conn, {"type": "rejected", "request_id": None, "error": "invalid"})
            return
        rid = str(body["request_id"])
        if self._draining:
            self._send(conn, {"type": "rejected", "request_id": rid, "error": "shutting-down"})
            return
        if rid in self._owners:
            self._send(conn, {"type": "rejected", "request_id": rid, "error": "duplicate"})
            return
        if len(self._accept_queue) >= self.queue_limit:
            self._send(conn, {"type": "rejected", "request_id": rid, "error": "overloaded"})
            return
        arrival = msg.get("arrival")
        # A malformed request must not reach, and kill, the engine loop —
        # nor this connection: a missing field or a mistyped scalar is
        # rejected to its sender like any other invalid request.
        try:
            request = decode_request(body, payload)
            if arrival not in (None, "now"):
                request, arrival = replace(request, arrival_time=float(arrival)), None
            self.scheduler.check_request(request)
        except (KeyError, TypeError, ValueError):
            self._send(conn, {"type": "rejected", "request_id": rid, "error": "invalid"})
            return
        if not self.scheduler.fits_budget(request):
            self._send(conn, {"type": "rejected", "request_id": rid, "error": "too-large"})
            return
        self._owners[rid] = conn
        conn.owned.add(rid)
        self._wall.setdefault(rid, {})["arrival"] = self._now_ms()
        self._accept_queue.append((request, arrival))
        self._send(conn, {"type": "accepted", "request_id": rid})
        self._wake.set()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.append(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # past MAX_LINE_BYTES: the stream lost its framing
                    self._send(conn, {"type": "error", "error": "line too long"})
                    await self._flush_outboxes()
                    break
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except FrameError:  # the payload's length is unknown
                    self._send(conn, {"type": "error", "error": "bad binary_bytes"})
                    await self._flush_outboxes()
                    break
                except ValueError:
                    self._send(conn, {"type": "error", "error": "malformed message"})
                    await self._flush_outboxes()
                    continue
                size = msg.get("binary_bytes", 0)
                payload = await reader.readexactly(size) if size else b""
                kind = msg["type"]
                if kind == "submit":
                    self._on_submit(conn, msg, payload)
                elif kind == "cancel":
                    if msg.get("request_id") is None:
                        self._send(conn, {"type": "error", "error": "cancel needs a request_id"})
                    else:
                        rid = str(msg["request_id"])
                        # An id never accepted, or whose done went out,
                        # would sit in the scheduler's cancel set for good.
                        if rid in self._owners and rid not in self._done_sent:
                            self.scheduler.cancel(rid)
                            self._wake.set()
                elif kind == "shutdown":
                    self._draining = True
                    self._shutdown_conns.append(conn)
                    self._wake.set()
                elif kind == "stats":
                    self._send(
                        conn,
                        {
                            "type": "stats",
                            "load": self.scheduler.load_stats(),
                            "accept_queued": len(self._accept_queue),
                            "served": len(self.results),
                            # Prefix chain keys whose blocks the pool has
                            # recycled since the last poll — the cluster
                            # router unindexes them so dropped prefixes
                            # stop attracting affinity routes (hex, since
                            # the wire format is JSON).
                            "evicted_prefix_keys": [
                                key.hex()
                                for key in self.scheduler.drain_evicted_prefix_keys()
                            ],
                        },
                    )
                elif kind == "barrier":
                    # Re-arm the start barrier at runtime: the cluster
                    # front-end spawns replay-mode workers with an
                    # unreachable barrier, routes every submit, then
                    # lowers each replica's barrier to its routed count
                    # so all replicas start their round 0 fully loaded.
                    try:
                        self.start_barrier = int(msg.get("count", 0))
                    except (TypeError, ValueError):
                        self._send(
                            conn, {"type": "error", "error": "barrier needs an integer count"}
                        )
                    else:
                        self._send(conn, {"type": "barrier_ack", "count": self.start_barrier})
                        self._wake.set()
                else:
                    self._send(conn, {"type": "error", "error": f"unknown type {kind!r}"})
                await self._flush_outboxes()
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            self._drop_connection(conn)
            writer.close()  # the client sees EOF, never a silent socket

    # ------------------------------------------------------------------
    async def _engine_loop(self) -> None:
        try:
            while True:
                drained = self._drain_accepts()
                progressed = self.scheduler.step()
                self._stamp_admits()
                self._dispatch_done()
                await self._flush_outboxes()
                if progressed or drained:
                    # Yield between rounds so submits/cancels land at the
                    # next round boundary instead of after the whole run.
                    await asyncio.sleep(0)
                    continue
                if self._draining and not self._accept_queue:
                    break
                await self._wake.wait()
                self._wake.clear()
            self.scheduler.finish()
            ack = {
                "type": "shutdown_ack",
                "served": len(self.results),
                "leaked_blocks": self.leaked_blocks(),
                "report": self.report() if self.results else {},
            }
            for conn in self._shutdown_conns:
                self._send(conn, ack)
            await self._flush_outboxes()
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for conn in self._connections:
                if conn.alive:
                    conn.alive = False
                    try:
                        conn.writer.close()
                    except RuntimeError:
                        pass
            self.closed.set()


async def _amain(args) -> int:
    from repro.core.config import PadeConfig
    from repro.engine import PadeEngine

    engine = PadeEngine(PadeConfig.standard(), policy=args.attention)
    server = AsyncPadeServer(
        engine,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        start_barrier=args.start_barrier,
        **json.loads(args.config),
    )
    await server.start()
    print(
        json.dumps({"type": "ready", "host": server.host, "port": server.port}),
        flush=True,
    )
    await server.wait_closed()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Standalone async PADE server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--start-barrier", type=int, default=0)
    parser.add_argument("--attention", default="pade")
    parser.add_argument(
        "--config", default="{}",
        help="scheduler settings as one JSON object of ContinuousScheduler "
        "keyword arguments, e.g. '{\"token_budget\": 1536, \"max_active\": 4}'",
    )
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    raise SystemExit(main())
