"""Prefix-affinity request routing across engine replicas.

Each replica owns a private :class:`~repro.engine.cache.PlaneBlockPool`,
so a prefix-cache hit is only possible on the replica that already wrote
the prompt's blocks.  The router keeps a per-replica *key index* — the
chained sha256 block keys (:func:`repro.engine.cache.chain_block_keys`)
of every prompt it has routed there — and sends a new request to the
replica with the longest consecutive leading match against its index.
No match (or a non-prefix mode) falls back to least-loaded.

The index is *optimistic*: keys are recorded at routing time, before the
replica has written anything.  That is safe because the pool's prefix
index is itself late-binding (a request admitted in the same round as
its donor still attaches blocks as they appear) and a miss merely costs
the prefill the request would have paid anyway — affinity is a
performance hint, never a correctness dependency.

Invariants (property-tested in ``tests/test_cluster_router.py``):

* :meth:`route` is a pure function of the router state — no hidden
  clocks; two routers with equal state route identically (``random``
  mode draws from a seeded private RNG, so equal seeds + equal call
  sequences also replay identically).
* A drained replica is never routed to, and draining drops its key
  index, so dead replicas cannot attract affinity traffic.
* The index is bounded: each replica holds at most
  ``max_keys_per_replica`` keys (oldest-registered evicted first), and
  :meth:`unregister` mirrors pool-side block eviction so recycled
  prefixes stop attracting routes to a guaranteed miss.
* A full-prefix match always beats the least-loaded fallback, whatever
  the loads are — affinity is worth a longer queue because a hit saves
  both pool blocks and prefill compute on the target.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.engine.cache import chain_block_keys, quantize_heads

__all__ = [
    "ROUTING_MODES",
    "NoReplicaAvailable",
    "PrefixAffinityRouter",
    "request_chain_keys",
]

#: Supported routing modes, in CLI order.
ROUTING_MODES = ("prefix", "random", "least-loaded")


class NoReplicaAvailable(RuntimeError):
    """Every replica is drained — there is nowhere to route."""


def request_chain_keys(request, bits: int, block_size: int) -> List[bytes]:
    """Chained block keys of a request's prompt, as its replica will compute them.

    Mirrors :meth:`PagedBitPlaneKVCache.begin_prefill` exactly: quantize
    the *full* prompt per head (scale calibration included), then chain
    the full blocks with :func:`chain_block_keys` under the same config
    tuple.  A prompt shorter than one block yields no keys — such
    requests can never share, so they route by load alone.
    """
    k = np.asarray(request.k, dtype=np.float64)
    v = np.asarray(request.v, dtype=np.float64)
    k_int, scales = quantize_heads(k, bits=bits)
    return chain_block_keys(
        k_int,
        k,
        v,
        scales,
        bits=bits,
        block_size=block_size,
        num_heads=k.shape[0],
        head_dim=k.shape[2],
        v_dim=v.shape[2],
    )


class PrefixAffinityRouter:
    """Greedy longest-prefix-match routing with a least-loaded fallback.

    ``load`` is whatever unit the caller charges (the cluster front-end
    charges in-flight requests); ties break toward the lower load, then
    toward replica declaration order, so routing is fully deterministic.
    """

    def __init__(self, replica_ids: Sequence[str], mode: str = "prefix", seed: int = 0,
                 max_keys_per_replica: int = 65536):
        ids = list(replica_ids)
        if not ids:
            raise ValueError("need at least one replica")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate replica ids in {ids!r}")
        if mode not in ROUTING_MODES:
            raise ValueError(f"mode must be one of {ROUTING_MODES}, got {mode!r}")
        if max_keys_per_replica < 1:
            raise ValueError("max_keys_per_replica must be >= 1")
        self.mode = mode
        self.max_keys_per_replica = int(max_keys_per_replica)
        self._ids = ids
        self._order = {rid: i for i, rid in enumerate(ids)}
        # Insertion-ordered (dict) so the cap evicts oldest-registered
        # first — the keys most likely already recycled by the pool.
        self._keys: Dict[str, Dict[bytes, None]] = {rid: {} for rid in ids}
        self._loads: Dict[str, float] = {rid: 0.0 for rid in ids}
        self._drained: Set[str] = set()
        self._rng = random.Random(seed)

    # -- state ---------------------------------------------------------
    @property
    def replica_ids(self) -> List[str]:
        return list(self._ids)

    @property
    def live_replicas(self) -> List[str]:
        return [rid for rid in self._ids if rid not in self._drained]

    def load(self, replica_id: str) -> float:
        return self._loads[replica_id]

    def add_load(self, replica_id: str, amount: float = 1.0) -> None:
        self._loads[replica_id] += amount

    def sub_load(self, replica_id: str, amount: float = 1.0) -> None:
        self._loads[replica_id] = max(0.0, self._loads[replica_id] - amount)

    def indexed_keys(self, replica_id: str) -> int:
        return len(self._keys[replica_id])

    def is_drained(self, replica_id: str) -> bool:
        return replica_id in self._drained

    def drain(self, replica_id: str) -> None:
        """Remove a replica from rotation and forget its key index.

        Idempotent; used both for graceful drain and for failure — in
        either case no further request may land there, and its keys must
        stop attracting affinity traffic (the blocks died with the pool).
        """
        if replica_id not in self._order:
            raise KeyError(f"unknown replica {replica_id!r}")
        self._drained.add(replica_id)
        self._keys[replica_id] = {}

    def register(self, replica_id: str, keys: Sequence[bytes]) -> List[bytes]:
        """Record that ``keys`` were routed to ``replica_id`` (optimistic);
        returns the keys that were not indexed there before.

        Re-registering an existing key refreshes its age (moves it to the
        back of the eviction order); past ``max_keys_per_replica`` the
        oldest keys are evicted so the index cannot grow without bound.
        """
        if replica_id in self._drained:
            raise ValueError(f"replica {replica_id!r} is drained")
        index = self._keys[replica_id]
        added = []
        for key in keys:
            if index.pop(key, True):  # an indexed key's value is None
                added.append(key)
            index[key] = None
        while len(index) > self.max_keys_per_replica:
            index.pop(next(iter(index)))
        return added

    def unregister(self, replica_id: str, keys: Sequence[bytes]) -> int:
        """Drop ``keys`` from a replica's index; returns how many were present.

        Mirrors pool-side block eviction: when a replica's pool recycles
        a registered prefix block, the chain key stops matching there, so
        keeping it indexed only attracts affinity traffic to a guaranteed
        miss.  Unknown keys and drained replicas are ignored (the drain
        already emptied the index).
        """
        if replica_id not in self._order:
            raise KeyError(f"unknown replica {replica_id!r}")
        index = self._keys[replica_id]
        dropped = 0
        for key in keys:
            if key in index:
                del index[key]
                dropped += 1
        return dropped

    # -- routing -------------------------------------------------------
    def match_length(self, replica_id: str, keys: Sequence[bytes]) -> int:
        """Longest consecutive leading run of ``keys`` in the replica's index.

        Consecutive-from-the-root is what the pool's prefix lookup can
        actually attach (``begin_prefill`` stops at the first miss), so
        an interior match is worth nothing and scores nothing.
        """
        index = self._keys[replica_id]
        n = 0
        for key in keys:
            if key not in index:
                break
            n += 1
        return n

    def _least_loaded(self, live: List[str]) -> str:
        return min(live, key=lambda rid: (self._loads[rid], self._order[rid]))

    def route(self, keys: Sequence[bytes] = ()) -> str:
        """Pick the replica for a request with prompt block ``keys``.

        Pure decision — the caller applies it with :meth:`register` /
        :meth:`add_load` once the request is actually dispatched.
        """
        live = self.live_replicas
        if not live:
            raise NoReplicaAvailable("all replicas drained")
        if self.mode == "random":
            return live[self._rng.randrange(len(live))]
        if self.mode == "prefix" and keys:
            best = max(self.match_length(rid, keys) for rid in live)
            if best > 0:
                matched = [rid for rid in live if self.match_length(rid, keys) == best]
                return self._least_loaded(matched)
        return self._least_loaded(live)

    def assign(self, keys: Sequence[bytes] = ()) -> Tuple[str, List[bytes]]:
        """Route, then commit: register the keys and charge one load unit.
        Returns the replica and the keys :meth:`register` added there."""
        replica_id = self.route(keys)
        added = self.register(replica_id, keys)
        self.add_load(replica_id)
        return replica_id, added
