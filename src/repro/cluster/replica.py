"""One replica from the cluster front-end's point of view.

:class:`ReplicaHandle` pairs the worker subprocess with the control
socket the cluster keeps to it, and surfaces the two events the cluster
reacts to:

* ``on_message(handle, msg)`` — every decoded protocol message the
  worker sends (accepted / rejected / token / done / stats /
  shutdown_ack), called from the handle's reader task.
* ``on_lost(handle)`` — the socket hit EOF or errored while the replica
  was still supposed to be alive.  Fired at most once; a handle whose
  ``expect_close`` flag is set (graceful shutdown acked, or an injected
  kill the caller owns) does not fire it.

What was routed to a replica is not kept here: the cluster's route
for each in-flight id names its replica, and the route's token count
decides the one thing a replica loss needs to know.  Requests with
**zero** streamed tokens are safe to re-route (the client saw nothing;
restart-from-scratch is the engine's own preemption semantics), while
requests that already streamed must surface
``abort_reason="replica_lost"`` — silently replaying them could hand
the client duplicate tokens.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path
from typing import Optional, Union

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_message,
    encode_message,
    encode_settings,
)

__all__ = ["BARRIER_HOLD", "ReplicaHandle"]

#: A start barrier no workload reaches: replay-mode workers hold their
#: engine loop until the cluster lowers the barrier to the routed count
#: over the socket.
BARRIER_HOLD = 1 << 30


class ReplicaHandle:
    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.alive = False
        self.expect_close = False
        self.on_message = None
        self.on_lost = None
        self.accepted_count = 0
        self.ack: Optional[dict] = None  # shutdown_ack once received
        self.ack_event = asyncio.Event()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pump_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    async def spawn(
        self,
        *,
        start_barrier: int = 0,
        queue_limit: int = 64,
        attention: str = "pade",
        **scheduler_kwargs,
    ) -> None:
        """Start the worker subprocess, read its ready line, connect.

        The worker is the standalone server (``python -m
        repro.serve.server``); ``scheduler_kwargs`` reach its
        :class:`ContinuousScheduler` as one ``--config`` JSON object.
        """
        import repro

        # The worker must import `repro` regardless of how the parent was
        # launched (pytest sets pythonpath via pytest.ini, which does not
        # propagate to subprocesses), so prepend the package root.
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable,
            # `repro.serve` imports its server module, so runpy warns that
            # the module it is about to execute is already loaded.
            "-W", "ignore::RuntimeWarning:runpy",
            "-m",
            "repro.serve.server",
            "--port", "0",
            "--queue-limit", str(queue_limit),
            "--start-barrier", str(start_barrier),
            "--attention", str(attention),
            "--config", encode_settings(scheduler_kwargs),
        ]
        self.process = await asyncio.create_subprocess_exec(
            *cmd, stdout=asyncio.subprocess.PIPE, env=env
        )
        line = await self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"replica {self.replica_id}: worker exited before ready")
        ready = json.loads(line)
        if ready.get("type") != "ready":
            raise RuntimeError(f"replica {self.replica_id}: bad ready line {ready!r}")
        self.port = int(ready["port"])
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=MAX_LINE_BYTES
        )
        self.alive = True
        self._pump_task = asyncio.create_task(self._pump())

    async def _pump(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                msg = decode_message(line)
                if self.on_message is not None:
                    self.on_message(self, msg)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            was_alive = self.alive
            self.alive = False
            if was_alive and not self.expect_close and self.on_lost is not None:
                self.on_lost(self)

    # ------------------------------------------------------------------
    def send_nowait(self, msg: Union[dict, bytes]) -> None:
        """Queue one message, or one already-encoded frame, on the socket
        (transport-buffered).

        Safe from synchronous callbacks; a dead transport is ignored —
        the pump's EOF is the authoritative failure signal.
        """
        if self._writer is None or self._writer.is_closing():
            return
        try:
            self._writer.write(msg if isinstance(msg, bytes) else encode_message(msg))
        except (ConnectionError, RuntimeError):
            pass

    async def send(self, msg: Union[dict, bytes]) -> None:
        self.send_nowait(msg)
        if self._writer is not None and not self._writer.is_closing():
            try:
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    # ------------------------------------------------------------------
    async def kill(self) -> None:
        """Hard-kill the worker (failure injection; ``on_lost`` fires)."""
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()

    async def close(self) -> None:
        """Tear the handle down quietly (no ``on_lost``)."""
        self.expect_close = True
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
        if self.process is not None and self.process.returncode is None:
            self.process.terminate()
            try:
                await asyncio.wait_for(self.process.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
