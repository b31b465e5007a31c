"""The benchmark's load generator: one process, one loopback connection.

Submit lines are encoded before the clock starts.  Each request has a
due time relative to the start of the replay; the sender writes it at
that time (or as soon after as it can, recording how late it was) and a
reader stamps every server message the moment its line arrives.  All
times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: A submit line carries a request's whole prompt; match the server.
LINE_LIMIT = 1 << 24


@dataclass
class Sent:
    """One request as the client saw it."""

    due: float = 0.0  # absolute perf_counter time it was due
    sent: float = 0.0
    token_times: List[float] = field(default_factory=list)
    token_digests: List[tuple] = field(default_factory=list)  # (step, digest)
    end: Optional[float] = None  # done / rejected arrival time
    final: Optional[dict] = None  # the done or rejected message


@dataclass
class Replay:
    requests: Dict[str, Sent]
    ack: Optional[dict] = None
    error: Optional[str] = None


async def _replay(
    port: int, lines: Sequence[bytes], ids: Sequence[str], offsets: Sequence[float],
    timeout: float,
) -> Replay:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
    loop = asyncio.get_running_loop()
    sent = {rid: Sent() for rid in ids}
    outstanding = len(ids)
    all_done = asyncio.Event()
    if not outstanding:
        all_done.set()
    ack: asyncio.Future = loop.create_future()

    async def read() -> None:
        nonlocal outstanding
        try:
            while True:
                line = await reader.readline()
                now = time.perf_counter()
                if not line:
                    break
                msg = json.loads(line)
                kind = msg["type"]
                if kind == "token":
                    rec = sent[msg["request_id"]]
                    rec.token_times.append(now)
                    rec.token_digests.append((msg["step"], msg["digest"]))
                elif kind in ("done", "rejected"):
                    rec = sent[msg["request_id"]]
                    rec.end, rec.final = now, msg
                    outstanding -= 1
                    if outstanding == 0:
                        all_done.set()
                elif kind == "shutdown_ack":
                    ack.set_result(msg)
        finally:
            # A closed or broken connection ends the wait for stragglers.
            all_done.set()
            if not ack.done():
                ack.set_exception(ConnectionError("connection closed before shutdown_ack"))

    reader_task = asyncio.create_task(read())
    start = time.perf_counter()
    result = Replay(requests=sent)
    try:
        for rid, line, offset in zip(ids, lines, offsets):
            rec = sent[rid]
            rec.due = start + offset
            delay = rec.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            rec.sent = time.perf_counter()
            writer.write(line)
            await writer.drain()
        await asyncio.wait_for(all_done.wait(), timeout)
        if outstanding:
            raise ConnectionError(f"{outstanding} requests unfinished")
        writer.write(b'{"type":"shutdown"}\n')
        await writer.drain()
        result.ack = await asyncio.wait_for(ack, timeout)
    except (ConnectionError, asyncio.TimeoutError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
        except (ConnectionError, ValueError, KeyError) as exc:
            result.error = result.error or f"reader: {type(exc).__name__}: {exc}"
        if ack.done() and not ack.cancelled():
            ack.exception()  # retrieved: an unread failure is already in result.error
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return result


def replay(
    port: int, lines: Sequence[bytes], ids: Sequence[str], offsets: Sequence[float],
    timeout: float,
) -> Replay:
    """Send ``lines`` at ``offsets`` seconds after the start, wait for
    every request to finish, then shut the server down.

    The collector stays off while the replay runs, so a collection
    pause cannot land between a line's arrival and its time stamp.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_replay(port, lines, ids, offsets, timeout))
    finally:
        gc.enable()
