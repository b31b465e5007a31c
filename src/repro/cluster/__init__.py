"""Multi-replica sharded serving with prefix-affinity routing.

Horizontal scale for the serving stack: N replica workers — each a
standalone ``python -m repro.serve.server`` subprocess owning its own
engine and :class:`PlaneBlockPool`, driving the same
``start()/step()/finish()`` round loop — behind one cluster front-end
speaking the unchanged NDJSON client protocol.  Scheduler settings are
not re-declared here: the cluster validates them once by building a
:class:`~repro.engine.scheduler.ContinuousScheduler` and hands every
worker the same ``--config`` JSON object.

* :mod:`repro.cluster.router` — :class:`PrefixAffinityRouter`: greedy
  longest-match routing of the prompt's chained sha256 block keys
  (:func:`repro.engine.cache.chain_block_keys`) against a per-replica
  key index, falling back to least-loaded; ``random`` and
  ``least-loaded`` modes as control arms.
* :mod:`repro.cluster.replica` — :class:`ReplicaHandle`: subprocess +
  control socket + per-replica assignment/streaming bookkeeping.
* :mod:`repro.cluster.server` — :class:`ClusterServer`: global
  admission in front of per-replica admission, reply relaying, replica
  failure handling (re-route untouched requests, surface
  ``abort_reason="replica_lost"`` for streamed ones), deterministic
  replay via socket-lowered barriers, and the cluster roll-up report.
* :mod:`repro.cluster.smoke` — the CI smoke entry
  (``python -m repro.cluster.smoke --replicas 2 --routing prefix``).
"""

from repro.cluster.router import (
    ROUTING_MODES,
    NoReplicaAvailable,
    PrefixAffinityRouter,
    request_chain_keys,
)
from repro.cluster.replica import ReplicaHandle
from repro.cluster.server import ClusterServer, serve_workload_over_cluster

__all__ = [
    "ROUTING_MODES",
    "NoReplicaAvailable",
    "PrefixAffinityRouter",
    "request_chain_keys",
    "ReplicaHandle",
    "ClusterServer",
    "serve_workload_over_cluster",
]
