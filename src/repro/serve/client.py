"""Clients for the async serving front-end: a connection wrapper and the
closed-loop / open-loop load generators.

* :class:`ServeConnection` — one socket to an :class:`AsyncPadeServer`;
  a background reader routes per-token streams and done/ack messages to
  awaitable futures, so callers just ``await conn.result(rid)``.
* :func:`run_closed_loop` — N workers, each submit → await done → next
  request (``arrival="now"``): concurrency is fixed, arrival rate adapts
  to service rate.  The classic saturation load.
* :func:`run_open_loop` — submits every request up front with its own
  arrival schedule (the workload's round-clock arrival times are
  honored by the scheduler); optionally paced on the wall clock.
  Arrival rate is fixed, concurrency floats — the tail-latency load.
* :func:`serve_over_socket` — spin a front-end (one server or a
  cluster) up in-process, push a workload through it, return the
  per-request done messages and the server (scheduler, report, leak
  counters all inspectable); :func:`serve_workload_over_loopback` is
  its single-server form.  With
  ``barrier=True`` every submit lands before round 0 runs, which makes
  the socket path's schedule — and therefore its outputs and round-clock
  report — identical to a batch :meth:`PadeEngine.serve` call.

All wall timing uses ``time.perf_counter()``; nothing here reads the
NTP-adjustable wall clock.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_message,
    encode_message,
    encode_request,
)
from repro.serve.server import AsyncPadeServer

__all__ = [
    "ServeConnection",
    "run_closed_loop",
    "run_open_loop",
    "serve_over_socket",
    "serve_workload_over_loopback",
]


class ServeConnection:
    """One client connection with a background message router."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._accept: Dict[str, asyncio.Future] = {}
        self._done: Dict[str, asyncio.Future] = {}
        self.tokens: Dict[str, List[dict]] = {}
        self._shutdown_ack: asyncio.Future = asyncio.get_running_loop().create_future()
        self._router = asyncio.create_task(self._route())

    @classmethod
    async def open(cls, host: str, port: int) -> "ServeConnection":
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        return cls(reader, writer)

    async def _route(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                msg = decode_message(line)
                kind = msg["type"]
                rid = msg.get("request_id")
                if kind in ("accepted", "rejected"):
                    fut = self._accept.pop(rid, None)
                    if fut is not None and not fut.done():
                        fut.set_result(msg)
                elif kind == "token":
                    self.tokens.setdefault(rid, []).append(msg)
                elif kind == "done":
                    msg["tokens"] = self.tokens.get(rid, [])
                    fut = self._done.get(rid)
                    if fut is not None and not fut.done():
                        fut.set_result(msg)
                elif kind == "shutdown_ack" and not self._shutdown_ack.done():
                    self._shutdown_ack.set_result(msg)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            for fut in [*self._accept.values(), *self._done.values(), self._shutdown_ack]:
                if not fut.done():
                    fut.set_exception(ConnectionError("server connection closed"))
                    # Mark it retrieved: a caller that awaits it still
                    # gets the error, one that never does is not logged.
                    fut.exception()

    async def submit(self, request, arrival=None) -> dict:
        """Send one request; returns the ``accepted``/``rejected`` reply.

        ``arrival="now"`` stamps the round-clock arrival server-side at
        pickup; ``None`` keeps ``request.arrival_time``.
        """
        rid = request.request_id
        loop = asyncio.get_running_loop()
        self._accept[rid] = loop.create_future()
        self._done.setdefault(rid, loop.create_future())
        msg = {"type": "submit", "request": encode_request(request)}
        if arrival is not None:
            msg["arrival"] = arrival
        self._writer.write(encode_message(msg))
        await self._writer.drain()
        reply = await self._accept[rid]
        if reply["type"] == "rejected":
            self._done.pop(rid, None)
        return reply

    async def result(self, request_id: str) -> dict:
        """Await the done message (token stream attached as ``tokens``)."""
        fut = self._done.get(request_id)
        if fut is None:
            raise KeyError(f"request {request_id!r} was never submitted here")
        return await fut

    async def cancel(self, request_id: str) -> None:
        self._writer.write(encode_message({"type": "cancel", "request_id": request_id}))
        await self._writer.drain()

    async def shutdown(self) -> dict:
        """Graceful drain; resolves with the ``shutdown_ack`` (report +
        leak counter) once everything in flight has finished."""
        self._writer.write(encode_message({"type": "shutdown"}))
        await self._writer.drain()
        return await self._shutdown_ack

    async def close(self) -> None:
        self._router.cancel()
        try:
            await self._router
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


async def run_closed_loop(
    host: str,
    port: int,
    requests: Sequence,
    concurrency: int = 4,
) -> Dict[str, dict]:
    """Closed-loop load: ``concurrency`` workers, submit → await → next."""
    conn = await ServeConnection.open(host, port)
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)
    dones: Dict[str, dict] = {}

    async def worker() -> None:
        while True:
            try:
                request = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            reply = await conn.submit(request, arrival="now")
            if reply["type"] == "accepted":
                dones[request.request_id] = await conn.result(request.request_id)
            else:
                dones[request.request_id] = reply

    try:
        await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    finally:
        await conn.close()
    return dones


async def run_open_loop(
    host: str,
    port: int,
    requests: Sequence,
    pace_s_per_round: float = 0.0,
) -> Dict[str, dict]:
    """Open-loop load: every request keeps its own arrival schedule.

    Submits in arrival order; the scheduler honors the round-clock
    ``arrival_time`` carried by each request.  ``pace_s_per_round``
    additionally paces the *wall-clock* submission (seconds per round
    unit, 0 = submit as fast as the socket allows).
    """
    conn = await ServeConnection.open(host, port)
    ordered = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    start = time.perf_counter()
    accepted: List[str] = []
    dones: Dict[str, dict] = {}
    try:
        for request in ordered:
            if pace_s_per_round > 0:
                due = start + request.arrival_time * pace_s_per_round
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            reply = await conn.submit(request)
            if reply["type"] == "accepted":
                accepted.append(request.request_id)
            else:
                dones[request.request_id] = reply
        for rid in accepted:
            dones[rid] = await conn.result(rid)
    finally:
        await conn.close()
    return dones


def serve_over_socket(
    make_server,
    requests: Sequence,
    barrier: bool = True,
    concurrency: int = 4,
    queue_limit: Optional[int] = None,
    pace_s_per_round: float = 0.0,
):
    """Serve ``requests`` through ``make_server(queue_limit=...,
    start_barrier=...)``, a front-end started here and stopped after a
    graceful ``shutdown``.

    Returns ``(dones, ack, server)``.  ``barrier=True`` holds round 0
    until every request is submitted (the open-loop client, unpaced);
    ``barrier=False`` serves live with a closed-loop client at
    ``concurrency``, or — with ``pace_s_per_round`` > 0 — with the
    open-loop client replaying each request's arrival schedule against
    real wall-clock time.  ``queue_limit`` defaults to the workload size.
    """
    limit = queue_limit if queue_limit is not None else max(len(requests), 1)

    async def _run():
        server = make_server(queue_limit=limit, start_barrier=len(requests) if barrier else 0)
        await server.start()
        try:
            if barrier or pace_s_per_round > 0:
                dones = await run_open_loop(
                    server.host, server.port, requests,
                    pace_s_per_round=0.0 if barrier else pace_s_per_round,
                )
            else:
                dones = await run_closed_loop(
                    server.host, server.port, requests, concurrency=concurrency
                )
            conn = await ServeConnection.open(server.host, server.port)
            try:
                ack = await conn.shutdown()
            finally:
                await conn.close()
        finally:
            await server.stop()
        return dones, ack, server

    return asyncio.run(_run())


def serve_workload_over_loopback(
    engine,
    requests: Sequence,
    barrier: bool = True,
    concurrency: int = 4,
    queue_limit: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    pace_s_per_round: float = 0.0,
    **scheduler_kwargs,
):
    """Serve ``requests`` through a loopback :class:`AsyncPadeServer`.

    Returns ``(dones, ack, server)``: the per-request done messages, the
    ``shutdown_ack`` (serving report + leaked-block counter), and the
    (stopped) server for deeper inspection.  ``barrier=True`` holds the
    engine loop until every request is submitted, making the run a
    deterministic replay of the equivalent in-process
    :meth:`PadeEngine.serve` call; the other modes are
    :func:`serve_over_socket`'s.
    """
    return serve_over_socket(
        partial(AsyncPadeServer, engine, host=host, port=port, **scheduler_kwargs),
        requests, barrier=barrier, concurrency=concurrency,
        queue_limit=queue_limit, pace_s_per_round=pace_s_per_round,
    )
