"""Multi-replica sharded serving: :class:`ClusterServer`.

N replica workers (one subprocess + private pool each, spawned via
:class:`~repro.cluster.replica.ReplicaHandle`) behind one client-facing
socket speaking the *same* NDJSON protocol as a single
:class:`~repro.serve.server.AsyncPadeServer` — every existing client
(:class:`ServeConnection`, the closed/open-loop load generators) works
against a cluster unchanged.

**Routing.**  Each accepted submit is routed once by the
:class:`PrefixAffinityRouter` (``prefix`` computes the prompt's chained
block keys and matches the per-replica key index; ``random`` /
``least-loaded`` are the control arms) and forwarded verbatim; replies
(accepted / rejected / token / done) are relayed back to the owning
client as they arrive.

**Admission.**  Two layers: the cluster rejects with ``overloaded`` when
total in-flight reaches ``queue_limit`` (global admission), and each
replica still applies its own queue bound and ``fits_budget`` check —
a replica-level rejection is relayed like any other reply.

**Replica failure.**  When a replica's socket dies unexpectedly, it is
drained from the router (its key index dies with its pool) and every
request routed there is settled: requests with zero streamed tokens are
re-submitted to a surviving replica (restart-from-scratch is the
engine's own preemption semantics, so the client observes nothing but
latency), requests that already streamed get a synthesized done with
``abort_reason="replica_lost"`` — replaying those could duplicate
tokens.  Survivor pools are untouched: their leak counters still read 0
at shutdown.

**Deterministic replay.**  With ``start_barrier=N`` the workers are
spawned holding their engine loops (an unreachable barrier); once N
routed submits have their accept/reject replies, the cluster lowers
each replica's barrier to its accepted count over the socket.  Every
replica then starts round 0 fully loaded, so the whole cluster run is a
deterministic function of the workload — the mode the scaling and
affinity benchmarks use.

**Shutdown.**  A client ``shutdown`` drains every live replica
(forwarded ``shutdown``, which finishes all in-flight work), then
answers with a cluster ``shutdown_ack``: summed ``leaked_blocks``, the
roll-up report (:func:`repro.eval.serving_metrics.summarize_cluster`)
and the per-replica reports under ``replica_reports``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.replica import BARRIER_HOLD, ReplicaHandle
from repro.cluster.router import (
    NoReplicaAvailable,
    PrefixAffinityRouter,
    request_chain_keys,
)
from repro.eval.serving_metrics import summarize_cluster
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    FrameError,
    decode_message,
    decode_request,
    encode_message,
    encode_settings,
)

__all__ = ["ClusterServer", "serve_workload_over_cluster"]


class _ClientConn:
    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.owned: Set[str] = set()
        self.alive = True

    def send(self, msg: dict) -> None:
        if not self.alive:
            return
        try:
            self.writer.write(encode_message(msg))
        except (ConnectionError, RuntimeError):
            self.alive = False


class ClusterServer:
    """``replicas`` workers behind one socket; see the module docstring.

    ``attention`` is each replica engine's attention policy and
    ``scheduler_kwargs`` its :class:`ContinuousScheduler` settings,
    forwarded verbatim (as one JSON object) to every worker.  They are
    validated here, before anything is spawned: a bad combination
    raises :class:`ValueError` — and a setting JSON cannot carry
    :class:`TypeError` — in the caller rather than surfacing as a
    worker that died before its ready line.
    """

    def __init__(
        self,
        replicas: int = 2,
        routing: str = "prefix",
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        start_barrier: int = 0,
        seed: int = 0,
        attention: str = "pade",
        **scheduler_kwargs,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        from repro.engine import ContinuousScheduler, PadeEngine

        probe = ContinuousScheduler(PadeEngine(policy=attention), **scheduler_kwargs)
        encode_settings(scheduler_kwargs)
        self.num_replicas = int(replicas)
        self.routing = routing
        self.host = host
        self.port = port
        self.queue_limit = int(queue_limit)
        self.start_barrier = int(start_barrier)
        # Routing hashes prompt blocks exactly as every worker's pool does.
        self.block_size = probe.block_size
        self.bits = probe.engine.config.bits
        self._worker_kwargs = dict(
            queue_limit=queue_limit, attention=attention, **scheduler_kwargs
        )
        self.router = PrefixAffinityRouter(
            [f"r{i}" for i in range(self.num_replicas)], mode=routing, seed=seed
        )
        self.replicas: Dict[str, ReplicaHandle] = {}
        self.rerouted_requests = 0
        self.lost_aborts = 0
        self.lost_replicas: List[str] = []
        self._owners: Dict[str, _ClientConn] = {}
        self._rid_replica: Dict[str, str] = {}
        self._rid_keys: Dict[str, List[bytes]] = {}
        self._done: Set[str] = set()
        self._rejected: Set[str] = set()
        self._connections: List[_ClientConn] = []
        self._draining = False
        self._replies = 0  # accepted+rejected replies seen (barrier bookkeeping)
        self._barrier_lowered = False
        self._drain_task: Optional[asyncio.Task] = None
        self._handler_tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self.closed = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        barrier = BARRIER_HOLD if self.start_barrier else 0
        for i in range(self.num_replicas):
            handle = ReplicaHandle(f"r{i}")
            handle.on_message = self._on_replica_message
            handle.on_lost = self._on_replica_lost
            await handle.spawn(start_barrier=barrier, **self._worker_kwargs)
            self.replicas[handle.replica_id] = handle
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Force teardown (the graceful path is the ``shutdown`` message)."""
        for handle in self.replicas.values():
            await handle.close()
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
        # Let the client-handler tasks observe EOF and return on their
        # own — cancelling them trips asyncio's stream-server done
        # callback into logging the cancellation.  Only a handler still
        # stuck after the grace period gets cancelled.
        if self._handler_tasks:
            _, stuck = await asyncio.wait(set(self._handler_tasks), timeout=5.0)
            for task in stuck:
                task.cancel()
            if stuck:
                await asyncio.gather(*stuck, return_exceptions=True)
        self.closed.set()

    async def kill_replica(self, replica_id: str) -> None:
        """Failure injection: hard-kill one worker (``on_lost`` settles it)."""
        await self.replicas[replica_id].kill()

    @property
    def in_flight(self) -> int:
        return sum(h.in_flight for h in self.replicas.values())

    # ------------------------------------------------------------------
    def _on_replica_message(self, handle: ReplicaHandle, msg: dict) -> None:
        kind = msg.get("type")
        rid = msg.get("request_id")
        if kind == "accepted":
            handle.accepted_count += 1
            self._replies += 1
            self._relay(rid, msg)
            self._maybe_lower_barrier()
        elif kind == "rejected":
            self._replies += 1
            handle.assigned.pop(rid, None)
            self.router.sub_load(handle.replica_id)
            self._rejected.add(rid)
            self._relay(rid, msg)
            self._maybe_lower_barrier()
        elif kind == "token":
            handle.streamed[rid] = handle.streamed.get(rid, 0) + 1
            self._relay(rid, msg)
        elif kind == "done":
            handle.done.add(rid)
            self._done.add(rid)
            self.router.sub_load(handle.replica_id)
            self._relay(rid, msg)
            # A finished request is when the replica's pool recycles
            # blocks, so poll its stats (fire-and-forget) to learn which
            # prefix keys died — the reply unindexes them below.
            if handle.alive and not handle.expect_close:
                handle.send_nowait({"type": "stats"})
        elif kind == "stats":
            # Mirror pool-side block eviction into the router: a key the
            # replica recycled can never hit there again, so drop it from
            # the index before it attracts another affinity route.
            evicted = msg.get("evicted_prefix_keys") or []
            if evicted and not self.router.is_drained(handle.replica_id):
                self.router.unregister(
                    handle.replica_id, [bytes.fromhex(k) for k in evicted]
                )
        elif kind == "shutdown_ack":
            handle.ack = msg
            handle.expect_close = True
            handle.ack_event.set()
        # barrier_ack replies need no action here

    def _relay(self, rid: Optional[str], msg: dict) -> None:
        conn = self._owners.get(rid)
        if conn is not None:
            conn.send(msg)

    def _maybe_lower_barrier(self) -> None:
        if (
            self.start_barrier
            and not self._barrier_lowered
            and self._replies >= self.start_barrier
        ):
            self._barrier_lowered = True
            for handle in self.replicas.values():
                if handle.alive:
                    handle.send_nowait(
                        {"type": "barrier", "count": handle.accepted_count}
                    )

    # ------------------------------------------------------------------
    def _on_replica_lost(self, handle: ReplicaHandle) -> None:
        """Unexpected replica death: drain it, settle its assignments."""
        handle.ack_event.set()  # nothing further will arrive
        self.router.drain(handle.replica_id)
        self.lost_replicas.append(handle.replica_id)
        for rid, frame in list(handle.assigned.items()):
            if rid in handle.done:
                continue
            if handle.streamed.get(rid, 0) == 0:
                try:
                    self._reroute(rid, frame)
                    continue
                except NoReplicaAvailable:
                    pass  # nowhere left: fall through to the abort
            self._abort_lost(rid, handle.streamed.get(rid, 0))

    def _reroute(self, rid: str, frame: bytes) -> None:
        keys = self._rid_keys.get(rid, [])
        target = self.router.route(keys)
        self.router.register(target, keys)
        self.router.add_load(target)
        new_handle = self.replicas[target]
        new_handle.assigned[rid] = frame
        self._rid_replica[rid] = target
        new_handle.send_nowait(frame)
        self.rerouted_requests += 1

    def _abort_lost(self, rid: str, streamed: int) -> None:
        self._done.add(rid)
        self.lost_aborts += 1
        self._relay(
            rid,
            {
                "type": "done",
                "request_id": rid,
                "status": "aborted",
                "abort_reason": "replica_lost",
                "decode_tokens": streamed,
                "preemptions": 0,
                "timing": {},
                "wall": {},
            },
        )

    # ------------------------------------------------------------------
    async def _on_submit(
        self, conn: _ClientConn, msg: dict, line: bytes, payload: bytes
    ) -> None:
        body = msg.get("request")
        if not isinstance(body, dict) or body.get("request_id") is None:
            conn.send({"type": "rejected", "request_id": None, "error": "invalid"})
            return
        rid = str(body["request_id"])
        if self._draining:
            conn.send({"type": "rejected", "request_id": rid, "error": "shutting-down"})
            return
        if rid in self._owners:
            conn.send({"type": "rejected", "request_id": rid, "error": "duplicate"})
            return
        if self.in_flight >= self.queue_limit:
            conn.send({"type": "rejected", "request_id": rid, "error": "overloaded"})
            return
        keys: List[bytes] = []
        if self.routing == "prefix":
            # A malformed request must not end this connection, which
            # would cancel every request its client owns: it is rejected
            # to its sender, as a replica rejects one it cannot decode.
            try:
                keys = request_chain_keys(
                    decode_request(body, payload), bits=self.bits, block_size=self.block_size
                )
            except (KeyError, TypeError, ValueError, IndexError):
                conn.send({"type": "rejected", "request_id": rid, "error": "invalid"})
                return
        try:
            target = self.router.route(keys)
        except NoReplicaAvailable:
            conn.send({"type": "rejected", "request_id": rid, "error": "no-replica"})
            return
        self.router.register(target, keys)
        self.router.add_load(target)
        self._owners[rid] = conn
        conn.owned.add(rid)
        self._rid_replica[rid] = target
        self._rid_keys[rid] = keys
        # The submit travels on verbatim: its header line and payload.
        frame = line + payload
        handle = self.replicas[target]
        handle.assigned[rid] = frame
        await handle.send(frame)

    def _cluster_stats(self) -> dict:
        return {
            "type": "stats",
            "routing": self.routing,
            "in_flight": self.in_flight,
            "rerouted_requests": self.rerouted_requests,
            "lost_aborts": self.lost_aborts,
            "lost_replicas": list(self.lost_replicas),
            "replicas": {
                rid: {
                    "alive": handle.alive,
                    "drained": self.router.is_drained(rid),
                    "load": self.router.load(rid),
                    "in_flight": handle.in_flight,
                    "indexed_keys": self.router.indexed_keys(rid),
                    "assigned": len(handle.assigned),
                    "done": len(handle.done),
                }
                for rid, handle in self.replicas.items()
            },
        }

    def _drop_connection(self, conn: _ClientConn) -> None:
        if not conn.alive:
            return
        conn.alive = False
        for rid in conn.owned:
            if rid in self._done or rid in self._rejected:
                continue
            target = self._rid_replica.get(rid)
            if target is not None and self.replicas[target].alive:
                self.replicas[target].send_nowait({"type": "cancel", "request_id": rid})

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _ClientConn(writer)
        self._connections.append(conn)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # past MAX_LINE_BYTES: the stream lost its framing
                    conn.send({"type": "error", "error": "line too long"})
                    break
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except FrameError:  # the payload's length is unknown
                    conn.send({"type": "error", "error": "bad binary_bytes"})
                    break
                except ValueError:
                    conn.send({"type": "error", "error": "malformed message"})
                    continue
                size = msg.get("binary_bytes", 0)
                payload = await reader.readexactly(size) if size else b""
                kind = msg["type"]
                if kind == "submit":
                    await self._on_submit(conn, msg, line, payload)
                elif kind == "cancel":
                    if msg.get("request_id") is None:
                        conn.send({"type": "error", "error": "cancel needs a request_id"})
                    else:
                        target = self._rid_replica.get(str(msg["request_id"]))
                        if target is not None and self.replicas[target].alive:
                            await self.replicas[target].send(msg)
                elif kind == "stats":
                    conn.send(self._cluster_stats())
                elif kind == "shutdown":
                    ack = await self._drain_all()
                    conn.send(ack)
                else:
                    conn.send({"type": "error", "error": f"unknown type {kind!r}"})
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            self._drop_connection(conn)
            writer.close()  # the client sees EOF, never a silent socket

    # ------------------------------------------------------------------
    async def _drain_all(self) -> dict:
        """Drain every replica once; all shutdown clients share the ack."""
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain_flow())
        return await self._drain_task

    async def _drain_flow(self) -> dict:
        self._draining = True
        live = [h for h in self.replicas.values() if h.alive]
        for handle in live:
            await handle.send({"type": "shutdown"})
        if live:
            await asyncio.gather(*(h.ack_event.wait() for h in live))
        acks = {rid: (h.ack or {}) for rid, h in self.replicas.items()}
        report = summarize_cluster(
            [ack.get("report", {}) for ack in acks.values()]
        )
        report["rerouted_requests"] = float(self.rerouted_requests)
        report["lost_aborts"] = float(self.lost_aborts)
        report["lost_replicas"] = float(len(self.lost_replicas))
        ack_msg = {
            "type": "shutdown_ack",
            "served": sum(int(ack.get("served", 0)) for ack in acks.values()),
            "leaked_blocks": sum(int(ack.get("leaked_blocks", 0)) for ack in acks.values()),
            "report": report,
            "replica_reports": {rid: ack.get("report", {}) for rid, ack in acks.items()},
            "rerouted_requests": self.rerouted_requests,
            "lost_aborts": self.lost_aborts,
            "lost_replicas": list(self.lost_replicas),
        }
        for handle in self.replicas.values():
            await handle.close()
        return ack_msg


def serve_workload_over_cluster(
    requests: Sequence,
    replicas: int = 2,
    routing: str = "prefix",
    barrier: bool = True,
    concurrency: int = 4,
    queue_limit: Optional[int] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    seed: int = 0,
    attention: str = "pade",
    **scheduler_kwargs,
):
    """Serve ``requests`` through a loopback cluster; mirror of
    :func:`repro.serve.client.serve_workload_over_loopback`.

    Returns ``(dones, ack, cluster)``.  ``barrier=True`` runs the
    deterministic-replay mode (every replica starts round 0 fully
    loaded); ``barrier=False`` serves live with the closed-loop client.
    ``scheduler_kwargs`` configure every replica's scheduler.
    """
    from repro.serve.client import ServeConnection, run_closed_loop, run_open_loop

    limit = queue_limit if queue_limit is not None else max(len(requests), 1)

    async def _run():
        cluster = ClusterServer(
            replicas=replicas,
            routing=routing,
            host=host,
            port=port,
            queue_limit=limit,
            start_barrier=len(requests) if barrier else 0,
            seed=seed,
            attention=attention,
            **scheduler_kwargs,
        )
        await cluster.start()
        try:
            if barrier:
                dones = await run_open_loop(cluster.host, cluster.port, requests)
            else:
                dones = await run_closed_loop(
                    cluster.host, cluster.port, requests, concurrency=concurrency
                )
            conn = await ServeConnection.open(cluster.host, cluster.port)
            try:
                ack = await conn.shutdown()
            finally:
                await conn.close()
        finally:
            await cluster.stop()
        return dones, ack, cluster

    return asyncio.run(_run())
