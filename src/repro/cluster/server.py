"""Multi-replica sharded serving: :class:`ClusterServer`.

N replica workers (one subprocess + private pool each, spawned via
:class:`~repro.cluster.replica.ReplicaHandle`) behind one client-facing
socket.  :class:`ClusterServer` is a :class:`~repro.serve.server.FrontEnd`,
like a single :class:`~repro.serve.server.AsyncPadeServer`: the framing,
the submit gate, the in-flight ledger and cancel-on-disconnect are
that class's, so every existing client (:class:`ServeConnection`, the
closed/open-loop load generators) works against a cluster unchanged.

**Routing.**  Each accepted submit is assigned once by the
:class:`PrefixAffinityRouter` (``prefix`` computes the prompt's chained
block keys and matches the per-replica key index; ``random`` /
``least-loaded`` are the control arms) and forwarded verbatim; replies
(accepted / rejected / token / done) are relayed back to the owning
client as they arrive.  One :class:`_Route` per in-flight id holds its
replica, its chain keys, its submit frame (until its first token) and
its streamed-token count; it is dropped with the id's last reply, and a
replica's router load is its number of routes.

**Admission.**  Two layers: the cluster rejects with ``overloaded`` when
total in-flight reaches ``queue_limit`` (global admission), and each
replica still applies its own queue bound and ``fits_budget`` check —
a replica-level rejection is relayed like any other reply, frees
the id for a new submit, and takes back the index keys its routing
added (those no other route to that replica carries).

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
(forwarded ``shutdown``, which finishes all in-flight work) in a task
of its own, so the connection is still read, then answers with a
cluster ``shutdown_ack``: summed ``leaked_blocks``, the roll-up report
(:func:`repro.eval.serving_metrics.summarize_cluster`) and the
per-replica reports under ``replica_reports``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.cluster.replica import BARRIER_HOLD, ReplicaHandle
from repro.cluster.router import (
    NoReplicaAvailable,
    PrefixAffinityRouter,
    request_chain_keys,
)
from repro.eval.serving_metrics import summarize_cluster
from repro.serve.client import serve_over_socket
from repro.serve.protocol import decode_request, encode_settings
from repro.serve.server import FrontEnd

__all__ = ["ClusterServer", "serve_workload_over_cluster"]


@dataclass
class _Route:
    """Where an in-flight id went: its replica, its prompt's chain keys
    and those of them its routing added to the replica's index, the
    submit frame a re-route re-sends (``None`` once a token streamed),
    and the tokens it has streamed."""

    replica: str
    keys: List[bytes]
    added: List[bytes]
    frame: Optional[bytes]
    streamed: int = 0


class ClusterServer(FrontEnd):
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
        super().__init__(host, port, queue_limit, start_barrier)
        from repro.engine import ContinuousScheduler, PadeEngine

        probe = ContinuousScheduler(PadeEngine(policy=attention), **scheduler_kwargs)
        encode_settings(scheduler_kwargs)
        self.num_replicas = int(replicas)
        self.routing = routing
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
        self._routes: Dict[str, _Route] = {}  # in-flight id -> its route
        self._replies = 0  # accepted+rejected replies seen (barrier bookkeeping)
        self._barrier_lowered = False
        self._drain_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        barrier = BARRIER_HOLD if self.start_barrier else 0
        for i in range(self.num_replicas):
            handle = ReplicaHandle(f"r{i}")
            handle.on_message = self._on_replica_message
            handle.on_lost = self._on_replica_lost
            await handle.spawn(start_barrier=barrier, **self._worker_kwargs)
            self.replicas[handle.replica_id] = handle
        await super().start()

    async def _halt(self) -> None:
        for handle in self.replicas.values():
            await handle.close()

    async def kill_replica(self, replica_id: str) -> None:
        """Failure injection: hard-kill one worker (``on_lost`` settles it)."""
        await self.replicas[replica_id].kill()

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
            self._finish(rid, msg)
            self._maybe_lower_barrier()
        elif kind == "token":
            route = self._routes.get(rid)
            if route is not None:
                route.streamed += 1
                route.frame = None  # _on_replica_lost re-sends only unstreamed routes
            self._relay(rid, msg)
        elif kind == "done":
            self._finish(rid, msg)
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
        """Pass a reply on to the connection of the id in flight."""
        conn = self._in_flight.get(rid)
        if conn is not None:
            self._send(conn, msg)
            self._write(conn)

    def _finish(self, rid: Optional[str], msg: dict) -> None:
        """Relay the id's last reply, a ``done`` or a ``rejected``, and drop
        its route.  A rejection frees the id and takes back the index keys
        its routing added; a key another route there carries passes to that
        route instead, to be taken back if it is rejected too."""
        route = self._routes.pop(rid, None)
        if route is None:
            return
        self.router.sub_load(route.replica)
        rejected = msg["type"] == "rejected"
        if rejected:
            added = set(route.added)
            for other in self._routes.values():
                if other.replica == route.replica:
                    carried = added.intersection(other.keys)
                    other.added += carried
                    added -= carried
            self.router.unregister(route.replica, added)
        self._relay(rid, msg)
        self._settle(rid, release=rejected)

    def _maybe_lower_barrier(self) -> None:
        if (
            self.start_barrier
            and not self._barrier_lowered
            and self._replies >= self.start_barrier
        ):
            self._barrier_lowered = True
            for handle in self.replicas.values():  # a dead one ignores it
                handle.send_nowait({"type": "barrier", "count": handle.accepted_count})

    # ------------------------------------------------------------------
    def _on_replica_lost(self, handle: ReplicaHandle) -> None:
        """Unexpected replica death: drain it, settle its routes."""
        handle.ack_event.set()  # nothing further will arrive
        self.router.drain(handle.replica_id)
        self.lost_replicas.append(handle.replica_id)
        lost = [(rid, r) for rid, r in self._routes.items() if r.replica == handle.replica_id]
        for rid, route in lost:
            if route.streamed == 0 and self.router.live_replicas:
                self._reroute(route)
            else:
                self._abort_lost(rid, route.streamed)

    def _reroute(self, route: _Route) -> None:
        target, added = self.router.assign(route.keys)
        self.router.sub_load(route.replica)
        route.replica, route.added = target, added
        self.replicas[target].send_nowait(route.frame)
        self.rerouted_requests += 1

    def _abort_lost(self, rid: str, streamed: int) -> None:
        self.lost_aborts += 1
        self._finish(
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
    def _accept(self, conn, rid, msg, line, payload) -> Optional[str]:
        keys: List[bytes] = []
        if self.routing == "prefix":
            # A malformed request must not end this connection, which
            # would cancel every request its client owns: it is rejected
            # to its sender, as a replica rejects one it cannot decode.
            try:
                keys = request_chain_keys(
                    decode_request(msg["request"], payload),
                    bits=self.bits, block_size=self.block_size,
                )
            except (KeyError, TypeError, ValueError, IndexError):
                return "invalid"
        try:
            target, added = self.router.assign(keys)
        except NoReplicaAvailable:
            return "no-replica"
        # The submit travels on verbatim: its header line and payload.
        # The replica answers accepted or rejected; both are relayed.
        route = self._routes[rid] = _Route(target, keys, added, line + payload)
        self.replicas[target].send_nowait(route.frame)
        return None

    def _backlog(self) -> int:
        return self.in_flight

    def _cancel(self, rid: str) -> None:
        # A dead replica's transport ignores it; its loss settles the id.
        self.replicas[self._routes[rid].replica].send_nowait({"type": "cancel", "request_id": rid})

    def _stats(self) -> dict:
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
                    "in_flight": int(self.router.load(rid)),
                    "indexed_keys": self.router.indexed_keys(rid),
                }
                for rid, handle in self.replicas.items()
            },
        }

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Drain every replica once, beside the client connections."""
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain_flow())

    async def _drain_flow(self) -> None:
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
        await self._acknowledge(ack_msg)


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
    return serve_over_socket(
        partial(
            ClusterServer, replicas=replicas, routing=routing, host=host, port=port,
            seed=seed, attention=attention, **scheduler_kwargs,
        ),
        requests, barrier=barrier, concurrency=concurrency, queue_limit=queue_limit,
    )
