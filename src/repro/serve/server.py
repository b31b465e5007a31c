"""Asyncio serving front-end: :class:`FrontEnd` and :class:`AsyncPadeServer`.

:class:`FrontEnd` is the client-facing half of every server — this one
and :class:`~repro.cluster.server.ClusterServer` — so one place decides
what the wire protocol accepts, rejects and replies: framing errors,
the submit gate, the in-flight ledger, cancel-on-disconnect.

In :class:`AsyncPadeServer` one engine task drives :meth:`ContinuousScheduler.step` — the *same*
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
  that was never accepted or has already finished is ignored.  A
  rejected id may be submitted again; a finished one may not.
* **Shutdown** — a ``shutdown`` message stops new admissions, drains
  everything in flight while its connection is still read (a later
  ``cancel`` lands), then answers with ``shutdown_ack`` carrying the
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
from itertools import takewhile
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

__all__ = ["AsyncPadeServer", "FrontEnd", "main"]

class _Connection:
    """One client: its writer and its outbox."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: Deque[bytes] = deque()
        self.alive = True


class FrontEnd:
    """The client-facing half of a server speaking the wire protocol.

    It owns the listening socket, one :class:`_Connection` per client,
    the read loop and its framing errors, the submit gate (``invalid``,
    ``shutting-down``, ``duplicate``, ``overloaded``), the in-flight
    ledger, cancel-on-disconnect and :meth:`stop`.  ``_in_flight`` maps
    an id, from its acceptance to its last reply (:meth:`_settle`), to
    the connection its replies go to and a disconnect cancels.  A
    rejection releases the id, so it may be submitted again; an id whose
    ``done`` went out joins ``_finished`` and stays taken.

    A subclass supplies what differs:

    * ``_accept(conn, rid, msg, line, payload)`` serves a submit that
      passed the gate and returns ``None`` once it is taken on (the id
      is then in flight for ``conn``), or the rejection's error;
    * ``_backlog()``: the accepted submits that count against
      ``queue_limit``;
    * ``_cancel(rid)``: take a cancel to the work;
    * ``_stats()``: the ``stats`` reply;
    * ``_drain()``: start draining after a ``shutdown``, then answer
      through :meth:`_acknowledge`;
    * ``_halt()``: what :meth:`stop` stops before the sockets close.
    """

    def __init__(self, host: str, port: int, queue_limit: int, start_barrier: int) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.host = host
        self.port = port
        self.queue_limit = int(queue_limit)
        self.start_barrier = int(start_barrier)
        self._connections: List[_Connection] = []
        self._handlers: Set[asyncio.Task] = set()
        self._in_flight: Dict[str, _Connection] = {}
        self._finished: Set[str] = set()
        self._draining = False
        self._shutdown_conns: List[_Connection] = []
        self._ack: Optional[Dict] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.closed = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        await self.closed.wait()

    @property
    def in_flight(self) -> int:
        """Accepted ids whose last reply has not gone out."""
        return len(self._in_flight)

    async def stop(self) -> None:
        """Force shutdown (the graceful path is the ``shutdown`` message)."""
        self._draining = True
        await self._halt()
        await self._close()

    async def _close(self) -> None:
        """Close the listening socket and every connection; set ``closed``."""
        if self.closed.is_set():
            return
        if self._server is not None:
            self._server.close()
        for conn in self._connections:
            conn.alive = False
            try:
                conn.writer.close()
            except RuntimeError:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        # Let the client handlers observe EOF and return on their own:
        # cancelling them trips asyncio's stream-server done callback
        # into logging the cancellation.  Only a handler still stuck
        # after the grace period gets cancelled.
        handlers = self._handlers - {asyncio.current_task()}
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=5.0)
            for task in stuck:
                task.cancel()
            if stuck:
                await asyncio.gather(*stuck, return_exceptions=True)
        self.closed.set()

    # ------------------------------------------------------------------
    def _send(self, conn: _Connection, msg: Dict) -> None:
        if conn.alive:
            conn.outbox.append(encode_message(msg))

    def _write(self, conn: _Connection) -> None:
        """Hand a connection's outbox to its transport in one write."""
        if not conn.alive or not conn.outbox:
            return
        data = b"".join(conn.outbox)
        conn.outbox.clear()
        try:
            conn.writer.write(data)
        except (ConnectionError, RuntimeError):
            self._drop_connection(conn)

    async def _flush_outboxes(self) -> None:
        for conn in tuple(self._connections):
            if not conn.alive or not conn.outbox:
                continue
            self._write(conn)
            try:
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                self._drop_connection(conn)

    def _drop_connection(self, conn: _Connection) -> None:
        """Map a client disconnect onto the cancel path."""
        if not conn.alive:
            return
        conn.alive = False
        conn.outbox.clear()
        for rid in [rid for rid, owner in self._in_flight.items() if owner is conn]:
            self._cancel(rid)

    def _settle(self, rid: str, release: bool = False) -> _Connection:
        """The id's last reply is going out: drop it from the ledger.  A
        ``done`` leaves the id taken; ``release`` (a rejection) frees it
        for a new submit.  Returns the connection the reply goes to."""
        if not release:
            self._finished.add(rid)
        return self._in_flight.pop(rid)

    async def _acknowledge(self, ack: Dict) -> None:
        """The drain is over: answer every ``shutdown`` sender, and any
        later one at once."""
        self._ack = ack
        for conn in self._shutdown_conns:
            self._send(conn, ack)
        await self._flush_outboxes()

    # ------------------------------------------------------------------
    def _on_submit(self, conn: _Connection, msg: Dict, line: bytes, payload: bytes) -> None:
        body = msg.get("request")
        if not isinstance(body, dict) or body.get("request_id") is None:
            self._send(conn, {"type": "rejected", "request_id": None, "error": "invalid"})
            return
        rid = str(body["request_id"])
        if self._draining:
            error = "shutting-down"
        elif rid in self._in_flight or rid in self._finished:
            error = "duplicate"
        elif self._backlog() >= self.queue_limit:
            error = "overloaded"
        else:
            error = self._accept(conn, rid, msg, line, payload)
        if error is None:
            self._in_flight[rid] = conn
        else:
            self._send(conn, {"type": "rejected", "request_id": rid, "error": error})

    def _on_message(self, conn: _Connection, msg: Dict, line: bytes, payload: bytes) -> None:
        kind = msg["type"]
        if kind == "submit":
            self._on_submit(conn, msg, line, payload)
        elif kind == "cancel":
            if msg.get("request_id") is None:
                self._send(conn, {"type": "error", "error": "cancel needs a request_id"})
            else:
                # An id never accepted, or whose done went out, would sit
                # in the scheduler's cancel set for good.
                rid = str(msg["request_id"])
                if rid in self._in_flight:
                    self._cancel(rid)
        elif kind == "shutdown":
            if self._ack is not None:
                self._send(conn, self._ack)
            else:
                # The drain runs beside this connection's reader, so a
                # cancel sent after the shutdown still lands.
                self._draining = True
                self._shutdown_conns.append(conn)
                self._drain()
        elif kind == "stats":
            self._send(conn, self._stats())
        else:
            self._send(conn, {"type": "error", "error": f"unknown type {kind!r}"})

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.append(conn)
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # past MAX_LINE_BYTES: the stream lost its framing
                    self._send(conn, {"type": "error", "error": "line too long"})
                    break
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except FrameError:  # the payload's length is unknown
                    self._send(conn, {"type": "error", "error": "bad binary_bytes"})
                    break
                except ValueError:
                    self._send(conn, {"type": "error", "error": "malformed message"})
                else:
                    size = msg.get("binary_bytes", 0)
                    payload = await reader.readexactly(size) if size else b""
                    self._on_message(conn, msg, line, payload)
                await self._flush_outboxes()
            await self._flush_outboxes()
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.discard(task)
            self._connections.remove(conn)
            self._drop_connection(conn)
            writer.close()  # the client sees EOF, never a silent socket


class AsyncPadeServer(FrontEnd):
    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        start_barrier: int = 0,
        **scheduler_kwargs,
    ) -> None:
        super().__init__(host, port, queue_limit, start_barrier)
        self.engine = engine
        self.scheduler = ContinuousScheduler(engine, **scheduler_kwargs)
        self.scheduler.token_sink = self._on_token
        self.results: Dict[str, object] = {}
        self.epoch = time.perf_counter()
        # Accepted submits, decoded once on receipt: (request, arrival).
        self._accept_queue: Deque[Tuple[EngineRequest, Any]] = deque()
        self._wall: Dict[str, Dict[str, float]] = {}
        self._events_seen = 0
        self._started = False
        self._wake = asyncio.Event()
        self._engine_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.perf_counter() - self.epoch) * 1000.0

    async def start(self) -> None:
        await super().start()
        self.results = self.scheduler.start()
        self._engine_task = asyncio.create_task(self._engine_loop())

    async def _halt(self) -> None:
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
        return summarize_serving(self.timings(), scheduler=scheduler)

    # ------------------------------------------------------------------
    def _on_token(self, request_id: str, step: int, output) -> None:
        wall = self._wall.setdefault(request_id, {})
        if "first_token" not in wall:
            now = self._now_ms()
            # The admit event is only scanned after step() returns; a
            # request admitted and streamed in the same round must still
            # read admit <= first_token on the wall clock.
            wall.setdefault("admit", now)
            wall["first_token"] = now
        self._send(
            self._in_flight[request_id],
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
        # and every dispatch settles all it finds: the unsent ids are the
        # tail still in flight, so a round never rescans the past.  A done
        # for a disconnected client is dropped; the result stands.
        fresh = list(takewhile(self._in_flight.__contains__, reversed(self.results)))
        for rid in reversed(fresh):
            res = self.results[rid]
            self._wall.setdefault(rid, {})["finish"] = self._now_ms()
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
            self._send(self._settle(rid), msg)

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

    def _accept(self, conn, rid, msg, line, payload) -> Optional[str]:
        arrival = msg.get("arrival")
        # A malformed request must not reach, and kill, the engine loop —
        # nor this connection: a missing field or a mistyped scalar is
        # rejected to its sender like any other invalid request.
        try:
            request = decode_request(msg["request"], payload)
            if arrival not in (None, "now"):
                request, arrival = replace(request, arrival_time=float(arrival)), None
            self.scheduler.check_request(request)
        except (KeyError, TypeError, ValueError):
            return "invalid"
        if not self.scheduler.fits_budget(request):
            return "too-large"
        self._wall.setdefault(rid, {})["arrival"] = self._now_ms()
        self._accept_queue.append((request, arrival))
        self._send(conn, {"type": "accepted", "request_id": rid})
        self._wake.set()
        return None

    def _backlog(self) -> int:
        return len(self._accept_queue)

    def _cancel(self, rid: str) -> None:
        self.scheduler.cancel(rid)
        self._wake.set()

    def _drain(self) -> None:
        self._wake.set()

    def _stats(self) -> Dict:
        return {
            "type": "stats",
            "load": self.scheduler.load_stats(),
            "accept_queued": len(self._accept_queue),
            "served": len(self.results),
            # Prefix chain keys whose blocks the pool has recycled since
            # the last poll — the cluster router unindexes them so
            # dropped prefixes stop attracting affinity routes (hex,
            # since the wire format is JSON).
            "evicted_prefix_keys": [
                key.hex() for key in self.scheduler.drain_evicted_prefix_keys()
            ],
        }

    def _on_message(self, conn, msg, line, payload) -> None:
        if msg["type"] != "barrier":
            super()._on_message(conn, msg, line, payload)
            return
        # Re-arm the start barrier at runtime: the cluster front-end
        # spawns replay-mode workers with an unreachable barrier, routes
        # every submit, then lowers each replica's barrier to its routed
        # count so all replicas start their round 0 fully loaded.
        try:
            self.start_barrier = int(msg.get("count", 0))
        except (TypeError, ValueError):
            self._send(conn, {"type": "error", "error": "barrier needs an integer count"})
        else:
            self._send(conn, {"type": "barrier_ack", "count": self.start_barrier})
            self._wake.set()

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
            await self._acknowledge(
                {
                    "type": "shutdown_ack",
                    "served": len(self.results),
                    "leaked_blocks": self.leaked_blocks(),
                    "report": self.report() if self.results else {},
                }
            )
        finally:
            await self._close()


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
