"""Continuous scheduler: trace invariants, preemption, policy, timing.

The invariants ISSUE 2 pins down:

* no request decodes before its arrival time;
* the active set never exceeds ``max_active`` and pool usage never
  exceeds the token budget;
* preempted requests still finish, with retained sets byte-identical to
  an uncontended (ample-budget) run;
* with every arrival at 0, ``fcfs`` and an uncontended pool, the event
  trace is plain lockstep batching and every output matches a direct
  per-request loop (``new_cache`` + ``prefill`` + ``decode_step``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import ContinuousScheduler, PadeEngine
from repro.eval.serving_metrics import summarize_serving, timing_from_result
from repro.eval.workloads import (
    build_engine_request,
    build_parallel_workload,
    build_serving_workload,
)


def _timed_request(i, arrival, context=20, steps=8, num_heads=2, head_dim=8):
    return build_engine_request(
        f"q{i}", num_heads, context, steps, head_dim=head_dim,
        seed=100 + i, arrival_time=arrival,
    )


def _serve(requests, **kwargs):
    engine = PadeEngine()
    results = engine.serve(requests, **kwargs)
    return results, engine.last_serve


class TestArrivalSemantics:
    def test_no_decode_before_arrival(self):
        requests = [_timed_request(i, arrival=2.5 * i) for i in range(4)]
        _, sched = _serve(requests, token_budget=4096, block_size=8)
        arrivals = {r.request_id: r.arrival_time for r in requests}
        decoded = set()
        for time, event, ids in sched.events:
            if event in ("prefill", "decode_round"):
                for rid in ids:
                    assert arrivals[rid] <= time, (rid, event, time)
                    decoded.add(rid)
        assert decoded == set(arrivals)

    def test_admission_at_round_boundaries_not_drain(self):
        """A request arriving mid-batch is admitted as soon as a slot frees,
        not when the whole batch drains."""
        requests = [
            _timed_request(0, arrival=0.0, steps=4),
            _timed_request(1, arrival=0.0, steps=12),
            _timed_request(2, arrival=1.0, steps=4),
        ]
        res, _ = _serve(requests, max_active=2, token_budget=4096, block_size=8)
        # q0 finishes after 4 rounds; q2 must start right then, while q1
        # (12 steps) is still decoding.
        assert res["q2"].admit_time < res["q1"].finish_time

    def test_idle_clock_fast_forwards_to_next_arrival(self):
        res, _ = _serve([_timed_request(0, arrival=7.0)], token_budget=1024, block_size=8)
        assert res["q0"].admit_time == 7.0
        assert res["q0"].first_token_time == 8.0

    def test_arrival_time_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_timed_request(0, arrival=0.0), arrival_time=-1.0)


class TestBudgetInvariants:
    def test_active_and_pool_bounded(self):
        requests = [_timed_request(i, arrival=0.5 * i, steps=10) for i in range(6)]
        _, sched = _serve(
            requests, max_active=3, token_budget=96, block_size=4
        )
        budget = sched.pool.token_budget
        for _, used, active in sched.occupancy:
            assert active <= 3
            assert used <= budget

    @pytest.mark.parametrize("mode", ["plain", "n-best"])
    def test_unserveable_request_rejected_up_front(self, mode):
        # Fork requests are charged whole tail blocks per lineage: the
        # n-best case would fit only with lineage tails pooled in tokens,
        # and would then crash mid-run.
        if mode == "plain":
            req = _timed_request(0, arrival=0.0, context=200, steps=50)
            kwargs = dict(token_budget=64, block_size=8)
        else:
            [req] = build_parallel_workload(1, 2, 29, 4, 8, n_samples=3, seed=0)
            kwargs = dict(token_budget=96, block_size=16)
        with pytest.raises(ValueError, match="never be served"):
            PadeEngine().serve([req], **kwargs)

    def test_speculative_fits_its_dense_charge(self):
        # A reject truncates the draft tail in place, so a speculative
        # request holds no more blocks than plain decoding: one full
        # prompt block plus ceil((1 + 7) / 4) tail blocks.  Alone at
        # exactly that budget it rolls back and finishes unpreempted.
        req = dataclasses.replace(
            _timed_request(0, arrival=0.0, context=5, steps=7), speculative=True
        )
        results, sched = _serve([req], token_budget=12, block_size=4)
        ample, _ = _serve([req], token_budget=4096, block_size=4)
        assert sched.spec_rollbacks > 0
        assert sched.pool.peak_used_blocks == 3
        assert results["q0"].preemptions == 0
        assert results["q0"].retained_bytes() == ample["q0"].retained_bytes()
        with pytest.raises(ValueError, match="never be served"):
            _serve([req], token_budget=8, block_size=4)

    def test_lone_request_completes_at_exact_budget(self):
        # The footprint guard admits a request whose peak usage equals the
        # budget exactly; running alone it must finish without preemption.
        req = _timed_request(0, arrival=0.0, context=30, steps=8)
        engine = PadeEngine()
        results = engine.serve([req], token_budget=40, block_size=4)
        assert results["q0"].final_length == 38
        assert results["q0"].preemptions == 0


class TestPreemption:
    def _contended(self):
        return [_timed_request(i, arrival=float(i), context=20, steps=12) for i in range(3)]

    def test_preempted_requests_finish_with_identical_retention(self):
        tight, tight_sched = _serve(
            self._contended(), max_active=4, token_budget=48, block_size=4
        )
        ample, _ = _serve(
            self._contended(), max_active=4, token_budget=4096, block_size=4
        )
        preempts = [ids for event, ids in tight_sched.trace if event == "preempt"]
        assert preempts, "workload was expected to trigger preemption"
        assert set(tight) == set(ample)
        for rid in ample:
            assert tight[rid].retained_bytes() == ample[rid].retained_bytes()
            np.testing.assert_array_equal(
                tight[rid].decode_outputs, ample[rid].decode_outputs
            )
        preempted_ids = {ids[0] for ids in preempts}
        assert any(tight[rid].preemptions > 0 for rid in preempted_ids)

    def test_preemption_evicts_youngest(self):
        _, sched = _serve(self._contended(), max_active=4, token_budget=48, block_size=4)
        admitted_before = []
        for event, ids in sched.trace:
            if event == "prefill":
                admitted_before.append(ids[0])
            elif event == "preempt":
                # The victim is always the most recently admitted live request.
                assert ids[0] == admitted_before[-1]

    def test_preempted_blocks_are_freed(self):
        _, sched = _serve(self._contended(), max_active=4, token_budget=48, block_size=4)
        assert sched.pool.used_block_count == 0  # everything released at the end


class TestPolicies:
    def test_fcfs_reduces_to_lockstep_trace_on_ample_pool(self):
        reqs = [build_engine_request(f"r{i}", 2, 24, 3, head_dim=8, seed=i) for i in range(3)]
        cont = PadeEngine()
        cont_results = cont.serve(reqs, max_active=2, token_budget=4096, block_size=8)
        lockstep = (
            [("prefill", ("r0",)), ("prefill", ("r1",))]
            + [("decode_round", ("r0", "r1"))] * 3
            + [("finish", ("r0",)), ("finish", ("r1",)), ("prefill", ("r2",))]
            + [("decode_round", ("r2",))] * 3
            + [("finish", ("r2",))]
        )
        assert cont.last_serve.trace == lockstep
        solo = PadeEngine()
        for req in reqs:
            cache = solo.new_cache(2, 8, 8, req.total_tokens)
            prefill = solo.prefill(
                cache, req.k, req.v, q=req.q_prompt, total_tokens=req.total_tokens
            )
            steps = [
                solo.decode_step(
                    cache, req.decode_q[:, t], req.decode_k[:, t], req.decode_v[:, t]
                )
                for t in range(req.decode_steps)
            ]
            res = cont_results[req.request_id]
            np.testing.assert_array_equal(res.prefill_output, prefill.output)
            np.testing.assert_array_equal(
                res.decode_outputs, np.stack([r.output[:, 0] for r in steps], axis=1)
            )
            assert len(res.retained_history) == len(steps)
            for got, r in zip(res.retained_history, steps):
                np.testing.assert_array_equal(got, r.retained[:, 0])
        assert solo.stats.sparsity == cont.stats.sparsity

    def test_shortest_prompt_reorders_admission(self):
        engine = PadeEngine()
        long_req = build_engine_request("long", 2, 60, 2, head_dim=8, seed=1)
        short_req = build_engine_request("short", 2, 12, 2, head_dim=8, seed=2)
        results = engine.serve(
            [long_req, short_req], max_active=1, token_budget=1024,
            block_size=8, policy="shortest-prompt",
        )
        assert results["short"].admit_time < results["long"].admit_time

    def test_fcfs_respects_arrival_order_over_submission_order(self):
        late = _timed_request(0, arrival=3.0)
        early = _timed_request(1, arrival=0.0)
        results, _ = _serve([late, early], max_active=1, token_budget=1024, block_size=8)
        assert results["q1"].admit_time < results["q0"].admit_time

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ContinuousScheduler(PadeEngine(), policy="round-robin")
        with pytest.raises(ValueError, match="admission"):
            ContinuousScheduler(PadeEngine(), admission="static")

    def test_duplicate_request_id_rejected(self):
        sched = ContinuousScheduler(PadeEngine())
        sched.submit(_timed_request(0, arrival=0.0))
        with pytest.raises(ValueError, match="q0"):
            sched.submit(_timed_request(0, arrival=0.0))

    def test_mixed_shapes_rejected(self):
        sched = ContinuousScheduler(PadeEngine(), token_budget=1024, block_size=8)
        sched.submit(_timed_request(0, arrival=0.0, num_heads=2))
        sched.submit(_timed_request(1, arrival=0.0, num_heads=3))
        with pytest.raises(ValueError, match="shape"):
            sched.run()


class TestAttentionPolicyInteractions:
    """Policy × engine-feature invariants (ISSUE 4).

    Preemption restart and charged-footprint admission must compose with
    non-PADE policies: a restarted request replays its deterministic
    tensors through a freshly rebuilt policy state, so retained sets are
    invariant; bounded-footprint policies admit more concurrency under
    the same budget without ever physically exhausting the pool.
    """

    def _contended(self):
        return [_timed_request(i, arrival=float(i), context=20, steps=12) for i in range(3)]

    @pytest.mark.parametrize("policy", ["quest", "topk-oracle", "double-sparsity"])
    def test_preemption_retained_invariance_non_pade(self, policy):
        def serve(budget):
            engine = PadeEngine(policy=policy)
            results = engine.serve(
                self._contended(), max_active=4, token_budget=budget, block_size=4
            )
            return results, engine.last_serve

        tight, tight_sched = serve(48)
        ample, _ = serve(4096)
        preempts = [ids for event, ids in tight_sched.trace if event == "preempt"]
        assert preempts, "workload was expected to trigger preemption"
        for rid in ample:
            assert tight[rid].retained_bytes() == ample[rid].retained_bytes()
            np.testing.assert_array_equal(
                tight[rid].decode_outputs, ample[rid].decode_outputs
            )

    def test_bounded_policy_admits_more_than_dense(self):
        def peak_active(policy):
            requests = [
                _timed_request(i, arrival=0.0, context=32, steps=8, head_dim=8)
                for i in range(6)
            ]
            engine = PadeEngine(policy=policy)
            engine.serve(requests, max_active=6, token_budget=128, block_size=8)
            return max(active for _, _, active in engine.last_serve.occupancy)

        assert peak_active("h2o") > peak_active("pade")

    def test_charged_occupancy_stays_within_budget(self):
        requests = [_timed_request(i, arrival=0.0, context=24, steps=6) for i in range(5)]
        engine = PadeEngine(policy="streaming-llm")
        engine.serve(requests, max_active=5, token_budget=96, block_size=8)
        sched = engine.last_serve
        for _, used, _ in sched.occupancy:
            assert used <= 96
        # The physical pool was oversized to keep every key resident for
        # exact replay; nothing leaks at the end either way.
        assert sched.pool.used_block_count == 0

    def test_unserveable_charge_rejected_up_front(self):
        # h2o's *charged* footprint fits budgets its dense context cannot.
        big = _timed_request(0, arrival=0.0, context=200, steps=50)
        dense_engine = PadeEngine()
        with pytest.raises(ValueError, match="never be served"):
            dense_engine.serve([big], token_budget=64, block_size=8)
        bounded = PadeEngine(policy="h2o")  # budget_fraction 0.25 -> ~63 tokens
        results = bounded.serve(
            [_timed_request(0, arrival=0.0, context=200, steps=50)],
            token_budget=64, block_size=8,
        )
        assert results["q0"].final_length == 250

    def test_policy_columns_in_serving_report(self):
        requests = [_timed_request(i, arrival=0.0, steps=4) for i in range(2)]
        engine = PadeEngine(policy="quest")
        results = engine.serve(requests, token_budget=1024, block_size=8)
        report = summarize_serving(results.values(), scheduler=engine.last_serve)
        assert 0.0 < report["policy_sparsity"] < 1.0
        assert report["policy_prediction_cost"] > 0.0
        assert report["policy_sparsity_level"] == pytest.approx(
            report["policy_prediction_cost"] + report["policy_execution_cost"]
        )


class TestTimingAndMetrics:
    def test_result_timing_fields(self):
        requests = [_timed_request(i, arrival=2.0 * i, steps=5) for i in range(3)]
        results, sched = _serve(requests, token_budget=2048, block_size=8)
        for res in results.values():
            assert res.admit_time >= res.arrival_time
            assert res.first_token_time is not None
            assert res.first_token_time > res.admit_time
            assert res.finish_time >= res.first_token_time
            timing = timing_from_result(res)
            assert timing.ttft >= 1.0
            assert timing.queueing_delay >= 0.0
            assert timing.decode_tokens == 5

    def test_prefill_only_request_gets_first_token_at_admission(self):
        req = build_engine_request(
            "p", 2, 16, 0, head_dim=8, prompt_queries=2, arrival_time=1.0
        )
        results, _ = _serve([req], token_budget=1024, block_size=8)
        res = results["p"]
        assert res.prefill_output is not None
        assert res.first_token_time == res.admit_time + 1.0
        assert res.decode_outputs.shape[1] == 0

    def test_reused_request_id_gets_fresh_timing(self):
        """An id finished in one run and resubmitted to a later run of the
        same scheduler is timed from scratch, exactly as a fresh
        scheduler times it."""

        def batch():
            return [
                build_engine_request("c", 2, 16, 2, head_dim=8, seed=2),
                build_engine_request("a", 2, 16, 2, head_dim=8, seed=1),
            ]

        engine = PadeEngine()
        reused = ContinuousScheduler(engine, max_active=1)
        reused.submit(build_engine_request("a", 2, 16, 2, head_dim=8, seed=1))
        reused.run()
        for req in batch():
            reused.submit(req)
        second = reused.run()["a"]
        fresh = ContinuousScheduler(engine, max_active=1)
        for req in batch():
            fresh.submit(req)
        expected = fresh.run()["a"]

        def marks(res):
            return (res.arrival_time, res.admit_time, res.first_token_time,
                    res.finish_time, res.preemptions)

        assert marks(second) == marks(expected)
        assert expected.admit_time > 0.0  # served after "c" on one slot

    def test_summarize_serving_report(self):
        workload = build_serving_workload(
            5, 2, 24, 6, 8, rate=0.5, seed=3
        )
        results, sched = _serve(workload, token_budget=1024, block_size=8)
        report = summarize_serving(results.values(), scheduler=sched)
        assert report["requests"] == 5.0
        assert report["mean_ttft"] >= 1.0
        assert report["p99_ttft"] >= report["p50_ttft"]
        assert 0.0 < report["peak_pool_occupancy"] <= 1.0
        assert report["generated_tokens"] == 30.0
        assert report["throughput_tokens_per_round"] > 0.0


class TestIdleGapOccupancy:
    """Regression: occupancy means over a sparse-arrival trace.

    The scheduler fast-forwards its clock across idle gaps without
    executing rounds.  The gap must still show up in the occupancy
    timeline (an explicit zero-active sample at the next arrival) and
    the report's means must be time-weighted — otherwise a mostly-idle
    trace reports a mostly-busy pool.
    """

    def test_fast_forward_leaves_a_gap_sample(self):
        requests = [
            _timed_request(0, arrival=0.0, steps=4),
            _timed_request(1, arrival=100.0, steps=4),
        ]
        _, sched = _serve(requests, token_budget=1024, block_size=8)
        gap = [(t, u, a) for t, u, a in sched.occupancy if a == 0]
        assert any(t == 100.0 and u == 0 for t, u, _ in gap), sched.occupancy

    def test_sparse_arrivals_do_not_overweight_busy_periods(self):
        requests = [
            _timed_request(0, arrival=0.0, steps=4),
            _timed_request(1, arrival=100.0, steps=4),
        ]
        res, sched = _serve(requests, token_budget=1024, block_size=8)
        report = summarize_serving(res.values(), scheduler=sched)
        # ~12 busy rounds out of a ~110-round span: the trace is idle
        # more than 80% of the time and the means must say so.
        unweighted_active = float(
            np.mean([a for _, _, a in sched.occupancy])
        )
        assert unweighted_active > 0.5  # the naive per-sample mean lies
        assert report["mean_active_requests"] < 0.25
        assert report["peak_active_requests"] == 1.0
        assert report["mean_pool_occupancy"] < 0.25 * report["peak_pool_occupancy"]


class TestLiveSubmission:
    """Requests submitted after the pool exists (the async front-end's
    live mode) are served like a batch submitted before round 0: the
    token budget is the pool's only capacity, whenever a request comes."""

    @staticmethod
    def _live(engine, requests, max_preemptions=8, **kwargs):
        """Submit one request, run a round, then submit the rest."""
        sched = ContinuousScheduler(engine, **kwargs)
        preempt = sched._preempt_one
        count = [0]

        def bounded_preempt():
            count[0] += 1
            if count[0] > max_preemptions:
                raise AssertionError("preemption loop: a request keeps evicting itself")
            preempt()

        sched._preempt_one = bounded_preempt
        sched.submit(requests[0])
        sched.start()
        sched.step()
        for request in requests[1:]:
            sched.submit(request)
        while sched.step():
            pass
        return sched.finish(), sched

    @pytest.mark.parametrize("attention", ["h2o", "streaming-llm"])
    def test_charged_policy_serves_live_submissions(self, attention):
        from repro.serve.protocol import result_digests

        requests = build_serving_workload(3, 2, 256, 8, 8, arrival_times=[0.0] * 3, seed=1)
        kwargs = dict(max_active=4, token_budget=512, block_size=16)
        results, sched = self._live(PadeEngine(policy=attention), requests, **kwargs)
        batch = PadeEngine(policy=attention).serve(requests, **kwargs)
        assert all(r.status == "ok" for r in results.values())
        for request in requests:
            rid = request.request_id
            assert result_digests(results[rid]) == result_digests(batch[rid]), rid
        assert sched.pool.used_block_count == 0

    def test_tiered_live_submission_spills_before_preempting(self):
        requests = build_serving_workload(6, 2, 160, 16, 8, arrival_times=[0.0] * 6, seed=1)
        kwargs = dict(max_active=8, token_budget=512, block_size=16, tiering=True)
        results, sched = self._live(PadeEngine(), requests, **kwargs)
        batch = PadeEngine()
        batch.serve(requests, **kwargs)  # the same requests, all submitted first
        assert all(r.status == "ok" for r in results.values())
        assert sched.pool.spill_events > 0
        assert sum(r.preemptions for r in results.values()) == 0
        # One round behind the batch serve: the late requests miss round 0.
        assert sched.time <= batch.last_serve.time + 1
        assert sched.pool.used_block_count == 0
