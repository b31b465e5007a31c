"""Per-round request-lifecycle invariants of the continuous scheduler.

Hypothesis drives ``start()``/``step()`` over random request mixes —
plain (some with deadlines), shared-prefix, n-best and speculative —
at block sizes 4, 8 and 16, with tiering on or off and instant or
chunked prefill, under budgets tight enough to preempt and spill.
After every round the pool must agree with the live caches:

* every allocated block's refcount equals its occurrences in the block
  tables of all live caches (one per lineage, the primary being lineage 0);
* ``used_block_count`` equals the number of distinct referenced blocks;
* ``plane_units_used`` equals the per-block residency sum, on flat and
  tiered pools alike;
* under dense policies no active request holds more distinct blocks
  than its charge (``_charge_blocks``);

and a drained run leaves the pool empty.  The checks are plain helpers
so a runtime ``check_invariants()`` can adopt them unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.engine import ContinuousScheduler, PadeEngine
from repro.eval.workloads import (
    build_engine_request,
    build_parallel_workload,
    build_prefix_workload,
)

NUM_HEADS, HEAD_DIM = 2, 8
PREFIX_TOKENS = 16
MAX_ROUNDS = 2000


def check_block_references(scheduler) -> None:
    """Refcounts and the used-block count match the live block tables."""
    pool = scheduler.pool
    refs = Counter(
        block
        for state in scheduler.active
        for cache in scheduler._live_caches(state)
        for block in cache.block_table
    )
    assert {b: pool.ref_count(b) for b in pool._allocated} == dict(refs)
    assert pool.used_block_count == len(refs)


def check_plane_ledger(pool) -> None:
    """The plane-unit ledger equals the per-block residency sum."""
    assert pool.plane_units_used == sum(pool.resident_planes(b) for b in pool._allocated)


def check_held_within_charge(scheduler) -> None:
    """Under a dense policy no request holds more blocks than its charge."""
    if scheduler._charged:
        return
    for state in scheduler.active:
        held = {b for cache in scheduler._live_caches(state) for b in cache.block_table}
        assert len(held) <= scheduler._charge_blocks(state.request), state.request.request_id


def check_round(scheduler) -> None:
    if scheduler.pool is None:
        return
    check_block_references(scheduler)
    check_plane_ledger(scheduler.pool)
    check_held_within_charge(scheduler)


def _request(kind, i, prompt, steps, seed, deadline):
    rid = f"{kind}{i}"
    if kind == "prefix":
        # One shared prefix per example (it depends only on the seed), a
        # private suffix of ``prompt`` tokens per request index.
        req = build_prefix_workload(
            i + 1, NUM_HEADS, PREFIX_TOKENS, prompt, steps, HEAD_DIM, seed=seed
        )[-1]
        return replace(req, request_id=rid)
    if kind == "nbest":
        [req] = build_parallel_workload(
            1, NUM_HEADS, prompt, steps, HEAD_DIM, n_samples=3, seed=seed
        )
        return replace(req, request_id=rid)
    req = build_engine_request(rid, NUM_HEADS, prompt, steps, HEAD_DIM, seed=seed + i)
    if kind == "spec":
        return replace(req, speculative=True, draft_tokens=3)
    return replace(req, deadline_ms=deadline)


_REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(["plain", "prefix", "nbest", "spec"]),
        st.integers(1, 30),  # prompt tokens
        st.integers(1, 8),  # decode steps
        st.integers(0, 4),  # arrival round
        st.none() | st.floats(2.0, 12.0),  # deadline (plain requests only)
    ),
    min_size=1,
    max_size=6,
)


@given(
    specs=_REQUESTS,
    block_size=st.sampled_from([4, 8, 16]),
    tiering=st.booleans(),
    chunked=st.booleans(),
    prefix_sharing=st.booleans(),
    spare_blocks=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)
def test_pool_agrees_with_live_caches_every_round(
    specs, block_size, tiering, chunked, prefix_sharing, spare_blocks, seed
):
    kw = dict(max_active=4, block_size=block_size, prefix_sharing=prefix_sharing)
    if tiering:
        kw["tiering"] = dict(min_resident_planes=2, restore_blocks_per_round=2)
    if chunked:
        kw.update(round_token_budget=24, chunk_tokens=8)
    requests = [
        replace(_request(kind, i, prompt, steps, seed, deadline), arrival_time=float(arrival))
        for i, (kind, prompt, steps, arrival, deadline) in enumerate(specs)
    ]
    engine = PadeEngine(PadeConfig.standard())
    probe = ContinuousScheduler(engine, **kw)
    budget_blocks = max(probe._charge_blocks(r) for r in requests) + spare_blocks
    scheduler = ContinuousScheduler(engine, token_budget=budget_blocks * block_size, **kw)
    for req in requests:
        scheduler.submit(req)
    results = scheduler.start()
    rounds = 0
    while scheduler.step():
        check_round(scheduler)
        rounds += 1
        assert rounds < MAX_ROUNDS, "scheduler failed to drain"
    scheduler.finish()
    assert set(results) == {r.request_id for r in requests}
    assert scheduler.pool.used_block_count == 0
    assert scheduler.pool.plane_units_used == 0


def test_prefetch_never_starves_a_chunked_prefill():
    """Minimized from the property above.  A 41-token prompt fills a
    three-block tier; each round an admission attempt for a second
    request spilled its cold blocks without making room, and the
    prefetch pass restored them at a charge equal to the whole round
    budget, so the prompt's last chunk never ran and nothing finished.
    A prefetch now stops short of the round budget."""
    engine = PadeEngine(PadeConfig.standard())
    scheduler = ContinuousScheduler(
        engine, max_active=4, token_budget=48, block_size=16,
        tiering=dict(min_resident_planes=2, restore_blocks_per_round=2),
        round_token_budget=24, chunk_tokens=8,
    )
    scheduler.submit(build_engine_request("long", NUM_HEADS, 41, 1, HEAD_DIM, seed=1))
    scheduler.submit(build_engine_request("short", NUM_HEADS, 19, 1, HEAD_DIM, seed=2))
    results = scheduler.start()
    for _ in range(50):
        if not scheduler.step():
            break
        check_round(scheduler)
    assert sorted(results) == ["long", "short"]
    assert all(r.status == "ok" for r in results.values())
    assert scheduler.pool.used_block_count == 0
