"""Property tests for the cluster's prefix-affinity router.

Invariants (see ``repro/cluster/router.py`` docstring):

* routing is a pure, deterministic function of router state (and the
  seeded RNG stream in ``random`` mode);
* a drained replica is never routed to, and draining drops its key
  index;
* a full-prefix match always beats the least-loaded fallback;
* :func:`request_chain_keys` computes byte-identical keys to what the
  request's replica registers in its own pool.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.router import (
    ROUTING_MODES,
    NoReplicaAvailable,
    PrefixAffinityRouter,
    request_chain_keys,
)

# -- strategies --------------------------------------------------------

key = st.binary(min_size=4, max_size=8)
key_seq = st.lists(key, min_size=0, max_size=6)

replica_count = st.integers(min_value=1, max_value=5)


@st.composite
def router_ops(draw):
    """A replica set plus an arbitrary register/load/drain history."""
    n = draw(replica_count)
    ids = [f"r{i}" for i in range(n)]
    registrations = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1), key_seq),
            max_size=6,
        )
    )
    loads = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            ),
            max_size=6,
        )
    )
    # Drain a strict subset so at least one replica stays live.
    drained = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1))
    return ids, registrations, loads, drained


def _build(ids, registrations, loads, drained, mode="prefix", seed=0):
    router = PrefixAffinityRouter(ids, mode=mode, seed=seed)
    for idx, keys in registrations:
        router.register(ids[idx], keys)
    for idx, amount in loads:
        router.add_load(ids[idx], amount)
    for idx in drained:
        router.drain(ids[idx])
    return router


# -- determinism -------------------------------------------------------


@given(router_ops(), key_seq, st.sampled_from(ROUTING_MODES))
def test_route_is_deterministic_given_state(ops, keys, mode):
    """Two routers with equal histories route identically — including the
    ``random`` mode, whose draws come from a seeded private RNG."""
    a = _build(*ops, mode=mode, seed=13)
    b = _build(*ops, mode=mode, seed=13)
    assert a.route(keys) == b.route(keys)


@given(router_ops(), key_seq, st.sampled_from(["prefix", "least-loaded"]))
def test_route_is_pure_outside_random_mode(ops, keys, mode):
    """``route`` mutates nothing: asking twice gives the same answer."""
    router = _build(*ops, mode=mode)
    assert router.route(keys) == router.route(keys)


# -- drained replicas --------------------------------------------------


@given(router_ops(), key_seq, st.sampled_from(ROUTING_MODES))
def test_never_routes_to_drained_replica(ops, keys, mode):
    ids, registrations, loads, drained = ops
    router = _build(ids, registrations, loads, drained, mode=mode)
    target = router.route(keys)
    assert not router.is_drained(target)
    assert target in router.live_replicas


@given(router_ops())
def test_drain_drops_key_index_and_blocks_register(ops):
    ids, registrations, loads, drained = ops
    router = _build(ids, registrations, loads, drained)
    for idx in drained:
        assert router.indexed_keys(ids[idx]) == 0
        with pytest.raises(ValueError):
            router.register(ids[idx], [b"anything"])


@given(replica_count, key_seq)
def test_all_drained_raises(n, keys):
    ids = [f"r{i}" for i in range(n)]
    router = PrefixAffinityRouter(ids)
    for rid in ids:
        router.drain(rid)
    with pytest.raises(NoReplicaAvailable):
        router.route(keys)


# -- affinity beats load -----------------------------------------------


@given(
    replica_count,
    st.lists(key, min_size=1, max_size=6, unique=True),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_full_prefix_match_beats_least_loaded(n, keys, warm_idx, warm_load):
    """The only replica holding the full prefix wins at any load level."""
    ids = [f"r{i}" for i in range(n)]
    warm = ids[warm_idx % n]
    router = PrefixAffinityRouter(ids, mode="prefix")
    router.register(warm, keys)
    router.add_load(warm, warm_load)  # arbitrarily busier than the cold ones
    assert router.route(keys) == warm


@given(
    st.lists(key, min_size=2, max_size=6, unique=True),
    st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
)
def test_longer_leading_match_wins(keys, load):
    """More consecutive leading blocks beat fewer, regardless of load."""
    router = PrefixAffinityRouter(["short", "long"], mode="prefix")
    router.register("short", keys[:1])
    router.register("long", keys)
    router.add_load("long", load)
    assert router.route(keys) == "long"


def test_interior_match_scores_nothing():
    """The pool attaches leading blocks only, so a hole kills affinity."""
    router = PrefixAffinityRouter(["a", "b"], mode="prefix")
    keys = [b"k0", b"k1", b"k2"]
    router.register("a", keys[1:])  # holds everything *except* the root
    assert router.match_length("a", keys) == 0
    router.add_load("a", 0.0)
    router.add_load("b", 5.0)
    # No leading match anywhere: falls back to least-loaded, which is "a"
    # on load grounds, not affinity grounds.
    assert router.route(keys) == "a"
    router.add_load("a", 10.0)
    assert router.route(keys) == "b"


# -- assign bookkeeping ------------------------------------------------


@given(st.lists(key, min_size=1, max_size=4, unique=True))
def test_assign_registers_and_charges(keys):
    router = PrefixAffinityRouter(["r0", "r1"], mode="prefix")
    first, added = router.assign(keys)
    assert router.load(first) == 1.0
    assert router.match_length(first, keys) == len(keys)
    assert added == keys
    # The same prompt now has affinity to its first target, and adds no key.
    assert router.assign(keys) == (first, [])


# -- key parity with the pool ------------------------------------------


def test_request_chain_keys_match_what_the_replica_registers():
    """Router-side keys must be byte-identical to the cache's own chain."""
    from repro.engine.cache import PagedBitPlaneKVCache, PlaneBlockPool
    from repro.eval.workloads import build_engine_request

    request = build_engine_request("parity", 4, 48, 4, 32, seed=3)
    bits, block_size = 8, 16
    keys = request_chain_keys(request, bits=bits, block_size=block_size)
    assert len(keys) == 48 // block_size

    k = np.asarray(request.k, dtype=np.float64)
    v = np.asarray(request.v, dtype=np.float64)
    pool = PlaneBlockPool(
        k.shape[0], k.shape[2], v.shape[2], bits=bits,
        block_size=block_size, token_budget=256,
    )
    cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
    cache.begin_prefill(k, v)
    assert cache._block_keys == keys


# -- bounded key index + eviction mirroring ----------------------------


@given(st.lists(key, min_size=1, max_size=6, unique=True))
def test_unregister_drops_match_and_reports_count(keys):
    router = PrefixAffinityRouter(["a", "b"], mode="prefix")
    router.register("a", keys)
    assert router.match_length("a", keys) == len(keys)
    assert router.unregister("a", keys) == len(keys)
    assert router.match_length("a", keys) == 0
    assert router.indexed_keys("a") == 0
    # Idempotent: the keys are already gone, nothing else breaks.
    assert router.unregister("a", keys) == 0


def test_register_reports_the_keys_it_added():
    router = PrefixAffinityRouter(["a"])
    assert router.register("a", [b"k1", b"k2"]) == [b"k1", b"k2"]
    assert router.register("a", [b"k2", b"k3"]) == [b"k3"]
    assert router.indexed_keys("a") == 3


def test_unregister_unknown_replica_raises():
    router = PrefixAffinityRouter(["a"])
    with pytest.raises(KeyError):
        router.unregister("ghost", [b"k"])


def test_unregister_on_drained_replica_is_a_noop():
    router = PrefixAffinityRouter(["a", "b"])
    router.register("a", [b"k1", b"k2"])
    router.drain("a")
    assert router.unregister("a", [b"k1", b"k2"]) == 0


@given(cap=st.integers(1, 8), extra=st.integers(1, 8))
def test_key_index_is_bounded_and_evicts_oldest_first(cap, extra):
    router = PrefixAffinityRouter(["a"], max_keys_per_replica=cap)
    total = cap + extra
    keys = [f"k{i}".encode() for i in range(total)]
    for k in keys:
        router.register("a", [k])
    assert router.indexed_keys("a") == cap
    # Oldest keys fell out, the newest cap survive.
    for k in keys[:extra]:
        assert router.match_length("a", [k]) == 0
    for k in keys[extra:]:
        assert router.match_length("a", [k]) == 1


def test_reregistering_refreshes_eviction_age():
    router = PrefixAffinityRouter(["a"], max_keys_per_replica=2)
    router.register("a", [b"old"])
    router.register("a", [b"mid"])
    router.register("a", [b"old"])  # refresh: "mid" is now the oldest
    router.register("a", [b"new"])
    assert router.match_length("a", [b"old"]) == 1
    assert router.match_length("a", [b"mid"]) == 0
    assert router.match_length("a", [b"new"]) == 1


def test_evicted_keys_flow_from_pool_to_scheduler_drain():
    """The pool reports recycled prefix keys exactly once per drain."""
    from repro.engine.cache import PagedBitPlaneKVCache, PlaneBlockPool
    from repro.eval.workloads import build_engine_request

    request = build_engine_request("evict", 4, 32, 4, 32, seed=5)
    k = np.asarray(request.k, dtype=np.float64)
    v = np.asarray(request.v, dtype=np.float64)
    pool = PlaneBlockPool(
        k.shape[0], k.shape[2], v.shape[2], bits=8,
        block_size=16, token_budget=256,
    )
    cache = PagedBitPlaneKVCache(pool, prefix_sharing=True)
    cache.begin_prefill(k, v)
    while cache.prefill_remaining:
        cache.extend_prefill()
    registered = list(cache._block_keys)
    assert registered and pool.drain_evicted_prefix_keys() == []
    cache.release()  # frees the registered blocks -> keys are evicted
    drained = pool.drain_evicted_prefix_keys()
    assert sorted(drained) == sorted(registered)
    assert pool.drain_evicted_prefix_keys() == []  # drained exactly once
