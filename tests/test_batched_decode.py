"""Cross-request batched decode: a fused round == a per-request loop.

Three parity layers, strictest first:

* **kernel** — ``bsf_filter_fast_batch`` must reproduce the reference
  backend's ``filter_heads_batch`` (a per-request ``filter_heads``
  loop) bit for bit on every ``BSFResult`` field,
  across ragged sequence lengths, ``allowed``/``protect`` masks, and
  finite/infinite guards — property-tested via hypothesis;
* **engine** — ``decode_step_batch`` must match interleaved
  ``decode_step`` calls exactly (outputs, retained sets, shared filter
  counters); a round of one request runs ``filter_heads`` and the
  software baselines run the default ``decode_step`` loop;
* **serving** — a fused-round serve must be byte-identical to a serve
  through the policy's default per-request ``decode_step`` loop on both
  backends, and a fast-backend serve (one fused kernel call per round)
  to a reference-backend serve (whose fused call is the per-request
  loop), end to end (results, retained history,
  trace, timings, filter counters), including under preemption pressure
  and deadline aborts; and every served request of every attention
  policy must equal a solo run of that request.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PadeConfig
from repro.core.backend import get_backend
import repro.attention.baselines  # noqa: F401  (registers the baselines)
from repro.attention.policy import POLICY_REGISTRY, AttentionPolicy, PadePolicy
from repro.core.bsf_fast import bsf_filter_fast_batch, exact_dot_dtype
from repro.engine import PadeEngine
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import build_engine_request
from repro.quant.bitplane import decompose_bitplanes

BITS = 6
_LO, _HI = -(1 << (BITS - 1)), (1 << (BITS - 1)) - 1


# ----------------------------------------------------------------------
# Kernel parity: fused batch == reference batch
# ----------------------------------------------------------------------
def _random_request(rng, num_heads, num_rows, seq_len, head_dim, masks, guard_kind):
    """One request's (q_int, planes, guards, allowed, protect) tuple."""
    q = rng.integers(_LO, _HI + 1, size=(num_heads, num_rows, head_dim))
    k = rng.integers(_LO, _HI + 1, size=(num_heads, seq_len, head_dim))
    planes = decompose_bitplanes(k, bits=BITS)
    if guard_kind == "inf":
        guards = np.full(num_heads, np.inf)
    elif guard_kind == "zero":
        guards = np.zeros(num_heads)
    elif guard_kind == "negative":
        # Threshold above every upper bound: without protection every
        # column dies in round 0, so the kernels stop early.
        guards = np.full(num_heads, -float(1 << 40))
    elif guard_kind == "mixed":
        guards = np.where(
            rng.random(num_heads) < 0.5, np.inf, rng.uniform(0.0, 40.0, num_heads)
        )
    else:
        guards = rng.uniform(0.0, 40.0, size=num_heads)
    allowed = protect = None
    if masks:
        # Some rows end up fully masked — the all-pruned edge case.
        allowed = rng.random((num_heads, num_rows, seq_len)) < 0.8
        protect = rng.random((num_heads, num_rows, seq_len)) < 0.1
    return q, planes, guards, allowed, protect


def _assert_results_identical(got, want, label):
    assert np.array_equal(got.retained, want.retained), label
    assert np.array_equal(got.planes_processed, want.planes_processed), label
    assert np.array_equal(got.scores, want.scores), label
    assert got.bit_plane_loads == want.bit_plane_loads, label
    assert got.effective_bit_ops == want.effective_bit_ops, label
    assert got.naive_bit_ops == want.naive_bit_ops, label


@given(
    seed=st.integers(0, 2**32 - 1),
    num_requests=st.integers(1, 5),
    num_heads=st.integers(1, 3),
    num_rows=st.integers(1, 5),  # up to the speculative-verify width
    head_dim=st.integers(4, 12),
    masks=st.booleans(),
    guard_kind=st.sampled_from(["finite", "inf", "mixed", "zero", "negative"]),
    dead_request=st.booleans(),
)
def test_kernel_parity_ragged(
    seed, num_requests, num_heads, num_rows, head_dim, masks, guard_kind, dead_request
):
    """Fused filter == per-request loop, bit for bit, on ragged sets."""
    rng = np.random.default_rng(seed)
    seq_lens = rng.integers(1, 33, size=num_requests)
    reqs = [
        _random_request(rng, num_heads, num_rows, int(s), head_dim, masks, guard_kind)
        for s in seq_lens
    ]
    if dead_request:  # a request with nothing allowed, next to live ones
        q, planes, guards, _, protect = _random_request(
            rng, num_heads, num_rows, 17, head_dim, masks, guard_kind
        )
        dead = np.zeros((num_heads, num_rows, 17), bool)
        reqs.insert(num_requests // 2, (q, planes, guards, dead, protect))
        num_requests += 1
    qs = [r[0] for r in reqs]
    planes = [r[1] for r in reqs]
    guards = [r[2] for r in reqs]
    alloweds = [r[3] for r in reqs]
    protects = [r[4] for r in reqs]

    fused = bsf_filter_fast_batch(qs, planes, guards, alloweds=alloweds, protects=protects)
    assert len(fused) == num_requests
    # The engine passes the round's (R, Hh, P, D) and (R, Hh) arrays as
    # they are; the kernel must not care which form it got.
    q_arr, guard_arr = np.stack(qs), np.stack(guards)
    as_arrays = bsf_filter_fast_batch(
        q_arr, planes, guard_arr, alloweds=alloweds, protects=protects
    )
    for i in range(num_requests):
        _assert_results_identical(as_arrays[i], fused[i], f"request {i}: arrays vs sequences")
    if guard_kind == "negative":
        if not masks:
            for res in fused:  # every column died in round 0
                assert not res.retained.any() and res.planes_processed.max() <= 1
        # The backends refuse negative guards at their boundary.
        for name in ("fast", "reference"):
            for round_guards in (guards, guard_arr):
                with pytest.raises(ValueError, match=">= 0"):
                    get_backend(name).filter_heads_batch(
                        qs, planes, round_guards, alloweds=alloweds, protects=protects
                    )
        return

    ref = get_backend("reference").filter_heads_batch(
        qs, planes, guards, alloweds=alloweds, protects=protects
    )
    for i in range(num_requests):
        _assert_results_identical(fused[i], ref[i], f"request {i} vs reference batch")


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
def test_backends_refuse_negative_and_nan_guards(backend, bad):
    """One bad guard among good ones is refused by ``filter`` and by
    ``filter_heads_batch``, whether it is a per-head vector or a scalar
    next to vectors; valid guards of mixed shapes pass."""
    rng = np.random.default_rng(3)
    reqs = [_random_request(rng, 2, 1, s, 8, False, "finite") for s in (5, 9, 3)]
    qs, planes, guards, _, _ = map(list, zip(*reqs))
    kernel = get_backend(backend)
    for guard in (np.array([0.5, bad]), bad):
        guards[1] = guard
        with pytest.raises(ValueError, match=">= 0"):
            kernel.filter_heads_batch(qs, planes, guards)
    guards[1] = 0.5
    assert len(kernel.filter_heads_batch(qs, planes, guards)) == 3
    q = rng.integers(_LO, _HI + 1, size=(1, 8))
    keys = decompose_bitplanes(rng.integers(_LO, _HI + 1, size=(5, 8)), bits=BITS)
    with pytest.raises(ValueError, match=">= 0"):
        kernel.filter(q, keys, bad)


def test_kernel_batch_via_registry():
    """Both registered backends expose filter_heads_batch and agree."""
    rng = np.random.default_rng(7)
    reqs = [_random_request(rng, 2, 1, s, 8, True, "finite") for s in (5, 17, 17, 1)]
    args = tuple(zip(*reqs))
    fast = get_backend("fast").filter_heads_batch(
        args[0], args[1], args[2], alloweds=args[3], protects=args[4]
    )
    ref = get_backend("reference").filter_heads_batch(
        args[0], args[1], args[2], alloweds=args[3], protects=args[4]
    )
    for i, (f, r) in enumerate(zip(fast, ref)):
        _assert_results_identical(f, r, f"request {i}")


@pytest.mark.parametrize(
    "bits, head_dim, dot_dtype",
    [
        (8, 32, np.float32),
        (8, 37, np.float32),
        (10, 63, np.float32),  # largest partial sums just below 2^24
        (10, 64, np.float64),  # head_dim * 2^(bits-1) * 2^(bits-1) == 2^24
        (10, 67, np.float64),
    ],
)
def test_kernel_parity_at_exact_float_bounds(bits, head_dim, dot_dtype):
    """Both fast kernels equal the reference backend bit for bit on both
    sides of the float32 bound, on adversarial extremes: the most negative
    query everywhere, the most negative and all-ones keys (the largest
    masked-slab magnitudes), head_dim not a multiple of 8."""
    rng = np.random.default_rng(bits * 100 + head_dim)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    num_heads, num_rows = 2, 2
    qs, planes, guards = [], [], []
    for seq_len in (9, 23, 16):
        q = np.full((num_heads, num_rows, head_dim), lo)  # the most negative query
        q[1, 0, -1] = -1  # odd sums of maximal magnitude
        q[1, 1] = rng.choice([lo, hi, 0, -1], size=head_dim)
        k = rng.integers(lo, hi + 1, size=(num_heads, seq_len, head_dim))
        k[:, ::3] = -1  # all-ones planes on every third key
        k[:, 1::3] = lo  # the most negative key: |k & mask| == 2^(bits-1)
        qs.append(q)
        planes.append(decompose_bitplanes(k, bits=bits))
        guards.append(np.array([float(1 << (2 * bits + 4)), np.inf]))
    assert exact_dot_dtype(np.stack(qs), head_dim, bits) is dot_dtype

    fast, ref = get_backend("fast"), get_backend("reference")
    want = ref.filter_heads_batch(qs, planes, guards)
    fused = fast.filter_heads_batch(qs, planes, guards)
    for i, w in enumerate(want):
        _assert_results_identical(fused[i], w, f"fused request {i}")
        single = fast.filter_heads(qs[i], planes[i], guards[i])
        _assert_results_identical(single, w, f"per-request {i}")


def test_kernels_reject_queries_past_the_float64_bound():
    bits, head_dim = 25, 32  # 32 * 2^24 * 2^24 == 2^53
    q = np.full((1, 1, head_dim), -(1 << (bits - 1)), dtype=np.int64)
    planes = decompose_bitplanes(np.full((1, 4, head_dim), -1, dtype=np.int64), bits=bits)
    guards = np.array([np.inf])
    with pytest.raises(ValueError, match="2\\^53"):
        bsf_filter_fast_batch([q], [planes], [guards])
    with pytest.raises(ValueError, match="2\\^53"):
        get_backend("fast").filter_heads(q, planes, guards)


def test_kernel_batch_validates_ragged_inputs():
    rng = np.random.default_rng(11)
    q, planes, guards, _, _ = _random_request(rng, 2, 1, 8, 8, False, "finite")
    assert bsf_filter_fast_batch([], [], []) == []
    with pytest.raises(ValueError):
        bsf_filter_fast_batch([q], [planes], [])  # length mismatch
    q_bad, planes_bad, guards_bad, _, _ = _random_request(rng, 3, 1, 8, 8, False, "finite")
    with pytest.raises(ValueError):  # heterogeneous head counts
        bsf_filter_fast_batch([q, q_bad], [planes, planes_bad], [guards, guards_bad])


# ----------------------------------------------------------------------
# Engine parity: decode_step_batch == interleaved decode_step
# ----------------------------------------------------------------------
def _engine_requests(num, context=12, steps=4, num_heads=2, head_dim=16, **kw):
    return [
        build_engine_request(
            f"r{i}", num_heads, context + 3 * (i % 3), steps,
            head_dim=head_dim, seed=50 + i, **kw,
        )
        for i in range(num)
    ]


def _prefilled(engine, requests):
    from repro.engine.cache import PagedBitPlaneKVCache, PlaneBlockPool

    first = np.asarray(requests[0].k)
    num_heads, _, head_dim = first.shape
    v_dim = np.asarray(requests[0].v).shape[2]
    budget = sum(16 * -(-r.total_tokens // 16) for r in requests)
    pool = PlaneBlockPool(num_heads, head_dim, v_dim, bits=engine.config.bits,
                          block_size=16, token_budget=budget)
    caches = []
    for req in requests:
        cache = PagedBitPlaneKVCache(pool)
        engine.prefill(cache, req.k, req.v, total_tokens=req.total_tokens)
        caches.append(cache)
    return caches


_SHARED_COUNTERS = (
    "filter_calls", "bit_plane_loads", "effective_bit_ops",
    "naive_bit_ops", "retained_keys", "candidate_keys",
)


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_decode_step_batch_matches_loop(backend):
    requests = _engine_requests(4)
    loop_engine = PadeEngine(PadeConfig.standard(), backend=backend)
    loop_caches = _prefilled(loop_engine, requests)
    fused_engine = PadeEngine(PadeConfig.standard(), backend=backend)
    fused_caches = _prefilled(fused_engine, requests)

    for t in range(requests[0].decode_steps):
        loop_res = [
            loop_engine.decode_step(
                c, r.decode_q[:, t, :], r.decode_k[:, t, :], r.decode_v[:, t, :]
            )
            for c, r in zip(loop_caches, requests)
        ]
        fused_res = fused_engine.decode_step_batch(
            [
                (c, r.decode_q[:, t, :], r.decode_k[:, t, :], r.decode_v[:, t, :])
                for c, r in zip(fused_caches, requests)
            ]
        )
        for i, (a, b) in enumerate(zip(loop_res, fused_res)):
            assert np.array_equal(a.retained, b.retained), f"step {t} request {i}"
            assert a.output.tobytes() == b.output.tobytes(), f"step {t} request {i}"
            assert np.array_equal(a.scores, b.scores)
            assert a.candidate_keys == b.candidate_keys
            assert a.prediction_cost == b.prediction_cost
            assert a.execution_cost == b.execution_cost

    for field in _SHARED_COUNTERS:
        assert getattr(loop_engine.stats, field) == getattr(fused_engine.stats, field)
    assert fused_engine.stats.batched_rounds == requests[0].decode_steps
    assert fused_engine.stats.fused_rows > 0
    assert 0.0 < fused_engine.stats.batch_efficiency <= 1.0
    assert loop_engine.stats.batched_rounds == 0


def _mixed_pool_caches(engine, requests):
    """Even requests on private ``new_cache`` pools, odd ones on a shared
    pool, so the round's pools interleave."""
    shared = _prefilled(engine, requests[1::2]) if len(requests) > 1 else []
    caches = []
    for i, req in enumerate(requests):
        if i % 2:
            caches.append(shared[i // 2])
            continue
        num_heads, _, head_dim = np.asarray(req.k).shape
        cache = engine.new_cache(num_heads, head_dim, np.asarray(req.v).shape[2],
                                 req.total_tokens)
        engine.prefill(cache, req.k, req.v, total_tokens=req.total_tokens)
        caches.append(cache)
    return caches


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("num", [1, 5])
def test_round_over_several_pools_matches_per_cache_attend(backend, num):
    """A round whose caches draw from different pools — and a round of
    one request — equals per-cache ``attend`` byte for byte, on decode
    steps and on a multi-query (causal) block."""
    requests = _engine_requests(num)
    round_engine = PadeEngine(PadeConfig.standard(), backend=backend)
    round_caches = _mixed_pool_caches(round_engine, requests)
    solo_engine = PadeEngine(PadeConfig.standard(), backend=backend)
    solo_caches = _mixed_pool_caches(solo_engine, requests)

    def check(got, want):
        for a, b in zip(got, want):
            assert np.array_equal(a.retained, b.retained)
            assert a.output.tobytes() == b.output.tobytes()
            assert np.array_equal(a.scores, b.scores)
            assert a.candidate_keys == b.candidate_keys

    for t in range(requests[0].decode_steps):
        for caches in (round_caches, solo_caches):
            for c, r in zip(caches, requests):
                c.append(r.decode_k[:, t, :], r.decode_v[:, t, :])
        qs = [r.decode_q[:, t : t + 1, :] for r in requests]
        check(round_engine.attend_batch(round_caches, qs),
              [solo_engine.attend(c, q) for c, q in zip(solo_caches, qs)])
    qs = [r.decode_q[:, :3, :] for r in requests]
    check(round_engine.attend_batch(round_caches, qs),
          [solo_engine.attend(c, q) for c, q in zip(solo_caches, qs)])
    for field in _SHARED_COUNTERS:
        assert getattr(round_engine.stats, field) == getattr(solo_engine.stats, field)


def test_decode_step_batch_single_request_uses_loop_path():
    """A round of one request runs ``filter_heads``, never a fused call."""
    requests = _engine_requests(1)
    engine = PadeEngine(PadeConfig.standard(), backend="fast")
    caches = _prefilled(engine, requests)
    req = requests[0]
    res = engine.decode_step_batch(
        [(caches[0], req.decode_q[:, 0, :], req.decode_k[:, 0, :], req.decode_v[:, 0, :])]
    )
    assert len(res) == 1
    assert engine.stats.batched_rounds == 0


def test_attend_rejects_mixed_query_shapes():
    requests = _engine_requests(2)
    engine = PadeEngine(PadeConfig.standard(), backend="fast")
    caches = _prefilled(engine, requests)
    qs = [requests[0].decode_q[:, :1, :], requests[1].decode_q[:, :2, :]]
    with pytest.raises(ValueError, match="one query shape"):
        engine.attend_batch(caches, qs)
    with pytest.raises(ValueError, match="expected queries"):
        engine.attend(caches[0], requests[0].decode_q[0])


def test_unsupported_policy_falls_back_to_loop():
    """Baseline policies serve through the default ``decode_step`` loop,
    so their rounds never reach the fused kernel call."""
    requests = _engine_requests(3)
    engine = PadeEngine(PadeConfig.standard(), backend="fast", policy="h2o")
    results = engine.serve(requests, token_budget=512, block_size=16)
    assert all(r.status == "ok" for r in results.values())
    assert engine.stats.batched_rounds == 0


# ----------------------------------------------------------------------
# Serving parity: fused == loop, fast == reference, and served == solo
# ----------------------------------------------------------------------
def _result_digest(results):
    """Order-stable byte digest of everything a caller can observe."""
    out = []
    for rid in sorted(results):
        r = results[rid]
        out.append((
            rid, r.status, r.abort_reason,
            r.arrival_time, r.admit_time, r.first_token_time, r.finish_time,
            b"".join(np.asarray(o).tobytes() for o in r.decode_outputs),
            b"".join(
                np.packbits(np.asarray(h, dtype=bool).astype(np.uint8)).tobytes()
                for h in r.retained_history
            ),
        ))
    return out


class _LoopPadePolicy(PadePolicy):
    """PADE served through the default per-request ``decode_step`` loop."""

    decode_step_batch = AttentionPolicy.decode_step_batch


def _serve(backend, requests=None, loop=False, **serve_kw):
    policy = _LoopPadePolicy() if loop else None
    engine = PadeEngine(PadeConfig.standard(), backend=backend, policy=policy)
    if requests is None:
        requests = _engine_requests(5, deadline_ms=None)
    results = engine.serve(requests, **serve_kw)
    return results, engine.last_serve, engine.stats


def _preemption_requests():
    reqs = _engine_requests(6, context=10, steps=5)
    # One request with a deadline tight enough to abort mid-flight.
    reqs.append(
        build_engine_request("tight", 2, 14, 6, head_dim=16, seed=99,
                             deadline_ms=6.0)
    )
    return reqs


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_serve_batched_matches_loop(backend):
    """A fused round serves the same bytes as the policy's per-request loop."""
    kw = dict(token_budget=512, block_size=16)
    loop_results, loop_sched, loop_stats = _serve(backend, loop=True, **kw)
    fused_results, fused_sched, fused_stats = _serve(backend, **kw)
    assert _result_digest(loop_results) == _result_digest(fused_results)
    assert loop_sched.trace == fused_sched.trace
    for field in _SHARED_COUNTERS:
        assert getattr(loop_stats, field) == getattr(fused_stats, field)
    assert fused_stats.batched_rounds > 0
    assert loop_stats.batched_rounds == 0


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_serve_batched_matches_loop_under_preemption(backend):
    """Loop parity must survive PoolExhausted preempt-and-retry and SLO aborts."""
    kw = dict(token_budget=32, block_size=4, max_active=4)
    loop_results, loop_sched, _ = _serve(
        backend, requests=_preemption_requests(), loop=True, **kw
    )
    fused_results, fused_sched, fused_stats = _serve(
        backend, requests=_preemption_requests(), **kw
    )
    assert any(e[0] == "preempt" for e in loop_sched.trace), "scenario lost its pressure"
    assert _result_digest(loop_results) == _result_digest(fused_results)
    assert loop_sched.trace == fused_sched.trace
    assert fused_stats.batched_rounds > 0


def _assert_backends_match(requests, **kw):
    fast_results, fast_sched, fast_stats = _serve("fast", requests=requests(), **kw)
    ref_results, ref_sched, ref_stats = _serve("reference", requests=requests(), **kw)
    assert _result_digest(fast_results) == _result_digest(ref_results)
    assert fast_sched.trace == ref_sched.trace
    for field in _SHARED_COUNTERS + ("batched_rounds", "fused_rows", "fused_padded_rows"):
        assert getattr(fast_stats, field) == getattr(ref_stats, field), field
    assert fast_stats.batched_rounds > 0
    return fast_sched


def test_serve_fast_matches_reference():
    _assert_backends_match(
        lambda: _engine_requests(5, deadline_ms=None), token_budget=512, block_size=16
    )


def test_serve_fast_matches_reference_under_preemption():
    """Parity must survive PoolExhausted preempt-and-retry and SLO aborts."""
    sched = _assert_backends_match(
        _preemption_requests, token_budget=32, block_size=4, max_active=4
    )
    assert any(e[0] == "preempt" for e in sched.trace), "scenario lost its pressure"


@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
def test_served_matches_solo(policy):
    """Every served request equals a solo run of it, byte for byte: the
    fused round of the active set changes nothing a request observes."""
    requests = _engine_requests(4, deadline_ms=None)
    engine = PadeEngine(PadeConfig.standard(), backend="fast", policy=policy)
    served = engine.serve(requests, max_active=4, token_budget=512, block_size=16)
    assert engine.last_serve.trace.count(("decode_round", ("r0", "r1", "r2", "r3"))) > 0
    solo = PadeEngine(PadeConfig.standard(), backend="fast", policy=policy)
    for req in requests:
        num_heads, _, head_dim = np.asarray(req.k).shape
        cache = solo.new_cache(num_heads, head_dim, np.asarray(req.v).shape[2],
                               req.total_tokens)
        prefill = solo.prefill(
            cache, req.k, req.v, q=req.q_prompt, total_tokens=req.total_tokens
        )
        steps = [
            solo.decode_step(
                cache, req.decode_q[:, t], req.decode_k[:, t], req.decode_v[:, t]
            )
            for t in range(req.decode_steps)
        ]
        got = served[req.request_id]
        assert got.status == "ok"
        assert got.prefill_output.tobytes() == prefill.output.tobytes()
        assert got.decode_outputs.tobytes() == np.stack(
            [r.output[:, 0] for r in steps], axis=1
        ).tobytes()
        assert len(got.retained_history) == len(steps)
        for kept, r in zip(got.retained_history, steps):
            assert np.array_equal(kept, r.retained[:, 0])


def test_serve_batched_deterministic():
    """Two identical batched runs are byte-identical (golden determinism)."""
    a_results, a_sched, _ = _serve("fast", token_budget=48, block_size=4)
    b_results, b_sched, _ = _serve("fast", token_budget=48, block_size=4)
    assert _result_digest(a_results) == _result_digest(b_results)
    assert a_sched.trace == b_sched.trace


def test_summarize_serving_reports_batch_columns():
    results, sched, _ = _serve("fast", token_budget=512, block_size=16)
    report = summarize_serving(results.values(), scheduler=sched)
    assert report["batched_rounds"] > 0
    assert 0.0 < report["batch_efficiency"] <= 1.0
    # One request per round: every round runs filter_heads, none fuses.
    solo_results, solo_sched, _ = _serve("fast", token_budget=512, block_size=16, max_active=1)
    solo_report = summarize_serving(solo_results.values(), scheduler=solo_sched)
    assert solo_report["batched_rounds"] == 0
