"""SLO-aware multi-tenant scheduling: policies, deadlines, scenarios.

What ISSUE 5 pins down:

* the :class:`SchedulingPolicy` registry resolves names and instances,
  and each policy orders admission the way its contract says (fcfs
  arrival, priority strict-with-aging, edf earliest deadline, fair
  least-served tenant);
* preemption victim selection is priority-aware — lowest class first,
  never a deadline-endangered request while a safer pick exists;
* deadline / queue-timeout / cancellation aborts report
  ``status="aborted"`` with the right reason and free every pool block
  (including mid-chunked-prefill);
* all four scenario generators are seed-deterministic and serve cleanly
  end to end;
* the serving report carries the new SLO currency (per-class tails,
  abort counts, deadline-miss rate, Jain tenant fairness).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    SCHEDULER_POLICY_REGISTRY,
    SCHEDULING_POLICIES,
    ContinuousScheduler,
    EdfPolicy,
    EngineRequest,
    FcfsPolicy,
    PadeEngine,
    PriorityPolicy,
    resolve_scheduling_policy,
)
from repro.engine.scheduler import _RequestState
from repro.eval.serving_metrics import (
    jain_fairness_index,
    summarize_serving,
    timing_from_result,
)
from repro.eval.workloads import (
    SCENARIO_KINDS,
    TenantSpec,
    build_engine_request,
    build_scenario_workload,
    bursty_arrival_times,
    default_tenant_specs,
    diurnal_arrival_times,
)


def _req(rid, context=8, steps=2, arrival=0.0, seed=0, **slo):
    return build_engine_request(
        rid, 2, context, steps, head_dim=8, seed=seed, arrival_time=arrival, **slo
    )


def _serve(requests, **kwargs):
    engine = PadeEngine()
    results = engine.serve(requests, **kwargs)
    return results, engine.last_serve


def _admit_order(scheduler):
    return [ids[0] for ev, ids in scheduler.trace if ev in ("prefill", "admit")]


class TestPolicyRegistry:
    def test_names_and_resolution(self):
        assert set(SCHEDULING_POLICIES) == {
            "fcfs", "shortest-prompt", "priority", "edf", "fair",
        }
        for name, cls in SCHEDULER_POLICY_REGISTRY.items():
            resolved = resolve_scheduling_policy(name)
            assert isinstance(resolved, cls) and resolved.name == name
        custom = PriorityPolicy(aging_rounds=4)
        assert resolve_scheduling_policy(custom) is custom

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ContinuousScheduler(PadeEngine(), policy="wfq2")
        with pytest.raises(ValueError, match=">= 0"):
            PriorityPolicy(aging_rounds=-1)

    def test_scheduler_reports_policy_name(self):
        sched = ContinuousScheduler(PadeEngine(), policy=EdfPolicy())
        assert sched.policy == "edf"

    def test_slo_field_validation(self):
        with pytest.raises(ValueError, match="priority"):
            _req("a", **{"priority": -1})
        with pytest.raises(ValueError, match="deadline_ms"):
            _req("b", **{"deadline_ms": 0.0})
        with pytest.raises(ValueError, match="max_queue_ms"):
            _req("c", **{"max_queue_ms": -1.0})
        assert _req("d", arrival=3.0, **{"deadline_ms": 5.0}).deadline_at == 8.0
        assert _req("e").deadline_at is None


class TestPriorityScheduling:
    def test_strict_classes_admit_high_first(self):
        reqs = [_req(f"p{p}", seed=p, priority=p) for p in (0, 2, 1)]
        _, sched = _serve(reqs, max_active=1, token_budget=256, policy="priority")
        assert _admit_order(sched) == ["p2", "p1", "p0"]
        # fcfs on the same workload keeps submission order.
        _, sched = _serve(reqs, max_active=1, token_budget=256, policy="fcfs")
        assert _admit_order(sched) == ["p0", "p2", "p1"]

    def test_aging_prevents_starvation(self):
        def run(policy):
            reqs = [_req("low", steps=2, priority=0)]
            reqs += [
                _req(f"high{i}", steps=2, arrival=float(i), seed=i + 1, priority=3)
                for i in range(6)
            ]
            results, sched = _serve(
                reqs, max_active=1, token_budget=256, policy=policy
            )
            return results["low"].admit_time, _admit_order(sched)

        strict_admit, strict_order = run(PriorityPolicy(aging_rounds=0))
        aged_admit, aged_order = run(PriorityPolicy(aging_rounds=1))
        assert strict_order[-1] == "low"  # pure strict: starved to the end
        assert aged_order[-1] != "low"  # aging promoted it past the stream
        assert aged_admit < strict_admit


class TestEdfScheduling:
    def test_earliest_deadline_first_then_fcfs(self):
        reqs = [
            _req("loose", seed=1, deadline_ms=500.0),
            _req("tight", seed=2, deadline_ms=100.0),
            _req("none", seed=3),
        ]
        _, sched = _serve(reqs, max_active=1, token_budget=256, policy="edf")
        assert _admit_order(sched) == ["tight", "loose", "none"]


class TestFairScheduling:
    def test_least_served_tenant_wins_admission(self):
        reqs = [
            _req(f"a{i}", steps=4, seed=i, tenant="A") for i in range(4)
        ] + [_req("b0", steps=4, seed=9, tenant="B")]
        _, fcfs_sched = _serve(reqs, max_active=1, token_budget=256, policy="fcfs")
        assert _admit_order(fcfs_sched).index("b0") == 4
        _, fair_sched = _serve(reqs, max_active=1, token_budget=256, policy="fair")
        # After A's first request is served, B (zero service) outranks A.
        assert _admit_order(fair_sched).index("b0") == 1
        assert set(fair_sched.tenant_service) == {"A", "B"}

    def test_tenant_weights_tilt_service(self):
        reqs = [
            _req(f"a{i}", steps=4, seed=i, tenant="A") for i in range(3)
        ] + [
            _req(f"b{i}", steps=4, seed=10 + i, tenant="B") for i in range(3)
        ]
        _, even_sched = _serve(
            reqs, max_active=1, token_budget=256, policy="fair"
        )
        # Equal weights: the two tenants alternate.
        assert _admit_order(even_sched) == ["a0", "b0", "a1", "b1", "a2", "b2"]
        _, sched = _serve(
            reqs, max_active=1, token_budget=256, policy="fair",
            tenant_weights={"A": 100.0, "B": 1.0},
        )
        # A's huge weight keeps its normalized service near zero: once
        # each tenant has been served once, every remaining A outranks
        # the remaining Bs instead of alternating.
        assert _admit_order(sched) == ["a0", "b0", "a1", "a2", "b1", "b2"]

    def test_bad_weight_rejected(self):
        sched = ContinuousScheduler(
            PadeEngine(), policy="fair", tenant_weights={"A": 0.0}
        )
        with pytest.raises(ValueError, match="weight"):
            sched.normalized_service("A")


class TestVictimSelection:
    def _state(self, rid, priority, admit_index, steps=4, deadline=None, next_step=0):
        req = _req(rid, steps=steps, priority=priority, deadline_ms=deadline)
        state = _RequestState(request=req, cache=None, admit_index=admit_index)
        state.lineages[0].next_step = next_step
        return state

    def test_base_policy_picks_youngest(self):
        sched = ContinuousScheduler(PadeEngine(), policy="fcfs")
        states = [self._state("old", 5, 0), self._state("young", 0, 1)]
        victim = FcfsPolicy().select_victim(sched, states)
        assert victim.request.request_id == "young"

    def test_priority_victim_lowest_class_first(self):
        sched = ContinuousScheduler(PadeEngine(), policy="priority")
        states = [self._state("low", 0, 0), self._state("high", 2, 1)]
        victim = sched.policy_obj.select_victim(sched, states)
        assert victim.request.request_id == "low"

    def test_priority_victim_spares_endangered_deadline(self):
        sched = ContinuousScheduler(PadeEngine(), policy="priority")
        sched.time = 10.0
        # Same class: "urgent" would miss its deadline if restarted now
        # (slack 3 < remaining 5), "calm" has no deadline — evict calm,
        # even though urgent is the younger admission.
        states = [
            self._state("calm", 1, 0),
            self._state("urgent", 1, 1, deadline=13.0),
        ]
        victim = sched.policy_obj.select_victim(sched, states)
        assert victim.request.request_id == "calm"
        # A restart redoes *all* decode steps: a nearly-finished deadlined
        # request (next_step=3 of 4) is just as endangered as a fresh one.
        states[1] = self._state("urgent", 1, 1, deadline=13.0, next_step=3)
        victim = sched.policy_obj.select_victim(sched, states)
        assert victim.request.request_id == "calm"
        # A strictly lower class is evicted before either.
        states.append(self._state("lowest", 0, 2))
        victim = sched.policy_obj.select_victim(sched, states)
        assert victim.request.request_id == "lowest"

    def test_priority_preemption_under_pressure_end_to_end(self):
        # Tight pool: the long low-priority request is the victim under
        # "priority" even though the premium one is the younger admission.
        reqs = [
            _req("bulk", context=24, steps=20, seed=1, priority=0),
            _req("premium", context=24, steps=20, arrival=2.0, seed=2, priority=2),
        ]
        results, sched = _serve(
            reqs, max_active=2, token_budget=64, block_size=8, policy="priority"
        )
        preempted = [ids[0] for ev, ids in sched.trace if ev == "preempt"]
        assert preempted and set(preempted) == {"bulk"}
        assert results["premium"].preemptions == 0
        # fcfs on the same squeeze evicts the youngest instead.
        _, fcfs_sched = _serve(
            reqs, max_active=2, token_budget=64, block_size=8, policy="fcfs"
        )
        fcfs_preempted = [ids[0] for ev, ids in fcfs_sched.trace if ev == "preempt"]
        assert fcfs_preempted and set(fcfs_preempted) == {"premium"}


class TestAborts:
    def test_deadline_abort_frees_pool_and_reports(self):
        reqs = [
            _req("doomed", context=16, steps=30, seed=1, deadline_ms=8.0),
            _req("fine", context=16, steps=4, seed=2),
        ]
        results, sched = _serve(reqs, max_active=2, token_budget=256)
        doomed = results["doomed"]
        assert doomed.aborted and doomed.abort_reason == "deadline"
        assert doomed.deadline_missed
        assert 0 < doomed.decode_outputs.shape[1] < 30  # partial stream kept
        assert doomed.finish_time == 8.0
        assert results["fine"].status == "ok"
        assert sched.pool.used_block_count == 0
        assert [ids[0] for ev, ids in sched.trace if ev == "abort"] == ["doomed"]

    def test_queue_timeout_aborts_unadmitted_request(self):
        reqs = [
            _req("hog", context=16, steps=12, seed=1),
            _req("impatient", context=16, steps=2, seed=2, max_queue_ms=3.0),
        ]
        results, sched = _serve(reqs, max_active=1, token_budget=256)
        impatient = results["impatient"]
        assert impatient.aborted and impatient.abort_reason == "queue-timeout"
        assert impatient.first_token_time is None
        assert impatient.admit_time is None  # never admitted — no sentinel 0.0
        assert timing_from_result(impatient).queueing_delay == (
            impatient.finish_time - impatient.arrival_time
        )
        assert impatient.decode_outputs.shape[1] == 0
        assert results["hog"].status == "ok"
        assert sched.pool.used_block_count == 0

    def test_cancellation_before_and_during_run(self):
        engine = PadeEngine()
        from repro.engine.scheduler import ContinuousScheduler as CS

        sched = CS(engine, max_active=1, token_budget=256)
        for r in (
            _req("keep", seed=1),
            _req("drop", seed=2, arrival=1.0, deadline_ms=500.0),
        ):
            sched.submit(r)
        sched.cancel("drop")
        results = sched.run()
        assert results["drop"].aborted and results["drop"].abort_reason == "cancelled"
        # A voluntary cancellation is not a scheduling SLO failure.
        assert not results["drop"].deadline_missed
        assert not timing_from_result(results["drop"]).deadline_missed
        assert results["keep"].status == "ok"
        assert sched.pool.used_block_count == 0

    def test_cancel_before_arrival_clamps_finish_time(self):
        from repro.engine.scheduler import ContinuousScheduler as CS

        sched = CS(PadeEngine(), max_active=1, token_budget=256)
        sched.submit(_req("now", seed=1))
        sched.submit(_req("later", seed=2, arrival=50.0))
        sched.cancel("later")
        results = sched.run()
        later = results["later"]
        assert later.aborted and later.abort_reason == "cancelled"
        assert later.finish_time >= later.arrival_time  # never negative latency

    def test_abort_mid_chunked_prefill_releases_blocks(self):
        # Prefill needs ceil(64/8)=8 rounds under the round budget but the
        # deadline expires at 4 — the abort lands mid-prefill with staged
        # buffers and partial blocks attached.
        reqs = [
            _req("doomed", context=64, steps=4, seed=1, deadline_ms=4.0),
            _req("fine", context=16, steps=4, arrival=1.0, seed=2),
        ]
        results, sched = _serve(
            reqs, max_active=2, token_budget=512, block_size=8,
            round_token_budget=8, chunk_tokens=8, prefix_sharing=True,
        )
        doomed = results["doomed"]
        assert doomed.aborted and doomed.abort_reason == "deadline"
        assert 0 < doomed.final_length < doomed.prompt_tokens  # mid-prefill
        assert results["fine"].status == "ok"
        assert sched.pool.used_block_count == 0

    def test_queue_timeout_clock_restarts_after_preemption(self):
        """max_queue_ms bounds the *current* wait for admission: a
        request admitted promptly, preempted later, is not aborted as
        "queue-timeout" the moment its total age passes the bound."""
        reqs = [
            _req("bulk", context=24, steps=20, seed=1, priority=0),
            _req(
                "premium", context=24, steps=20, arrival=2.0, seed=2,
                priority=0, max_queue_ms=12.0,
            ),
        ]
        # fcfs under this squeeze admits "premium" at t=2, preempts it at
        # t=8 and re-admits at t=20: a 12-round re-queue wait, within the
        # bound — but its total age passes arrival + 12 at t=14, so an
        # arrival-anchored clock would have aborted it while queued.
        results, sched = _serve(
            reqs, max_active=2, token_budget=64, block_size=8, policy="fcfs"
        )
        assert results["premium"].preemptions > 0
        assert results["premium"].status == "ok"  # requeued, re-served, finished
        assert results["premium"].finish_time - results["premium"].arrival_time > 12.0

    def test_fair_service_rolls_back_preempted_attempts(self):
        """tenant_service reflects delivered tokens only: a preempted
        attempt's charges are reversed, so the victim tenant is not
        penalized with phantom service."""
        reqs = [
            _req("a0", context=24, steps=20, seed=1, tenant="A"),
            _req("b0", context=24, steps=20, arrival=2.0, seed=2, tenant="B"),
        ]
        results, sched = _serve(
            reqs, max_active=2, token_budget=64, block_size=8, policy="fair"
        )
        assert sum(r.preemptions for r in results.values()) > 0
        delivered = {"A": 0.0, "B": 0.0}
        for r in results.values():
            delivered[r.tenant] += r.prompt_tokens + r.decode_outputs.shape[1]
        assert sched.tenant_service == delivered

    def test_cancellations_do_not_leak_across_runs(self):
        """A cancel consumed (or never matched) by one run must not
        abort an unrelated request reusing the id in the next run."""
        from repro.engine.scheduler import ContinuousScheduler as CS

        engine = PadeEngine()
        sched = CS(engine, max_active=1, token_budget=256)
        sched.submit(_req("x", seed=1))
        sched.cancel("x")
        sched.cancel("ghost")  # never submitted: dies with the run
        first = sched.run()
        assert first["x"].aborted and first["x"].abort_reason == "cancelled"
        sched.submit(_req("x", seed=2))
        second = sched.run()
        assert second["x"].status == "ok"

    def test_abort_does_not_perturb_survivors(self):
        fine = _req("fine", context=16, steps=6, seed=2)
        with_doomed = [
            _req("doomed", context=16, steps=30, seed=1, deadline_ms=6.0), fine,
        ]
        results, _ = _serve(with_doomed, max_active=2, token_budget=256)
        alone, _ = _serve([fine], max_active=2, token_budget=256)
        assert (
            results["fine"].retained_bytes() == alone["fine"].retained_bytes()
        )
        np.testing.assert_array_equal(
            results["fine"].decode_outputs, alone["fine"].decode_outputs
        )


class TestScenarioGenerators:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_seed_determinism(self, kind):
        a = build_scenario_workload(kind, 10, 2, 8, rate=0.5, seed=11)
        b = build_scenario_workload(kind, 10, 2, 8, rate=0.5, seed=11)
        c = build_scenario_workload(kind, 10, 2, 8, rate=0.5, seed=12)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        assert [(r.tenant, r.priority, r.deadline_ms) for r in a] == [
            (r.tenant, r.priority, r.deadline_ms) for r in b
        ]
        for ra, rb in zip(a, b):
            assert ra.k.tobytes() == rb.k.tobytes()
        assert [r.arrival_time for r in a] != [r.arrival_time for r in c]

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_arrivals_sorted_and_sized(self, kind):
        reqs = build_scenario_workload(kind, 12, 2, 8, rate=0.5, seed=3)
        assert len(reqs) == 12
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert len({r.request_id for r in reqs}) == 12

    def test_bursty_is_burstier_than_poisson(self):
        times = bursty_arrival_times(200, rate=0.5, seed=5)
        gaps = np.diff(np.concatenate([[0.0], times]))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.2  # Poisson has CV 1; MMPP clumps harder

    def test_diurnal_rate_swings(self):
        period = 100.0
        times = diurnal_arrival_times(300, rate=0.8, period=period, seed=5)
        phase = (times % period) / period
        peak = int(((phase > 0.0) & (phase < 0.5)).sum())  # sin > 0 half
        trough = len(times) - peak
        assert peak > 1.5 * trough

    def test_heavy_tail_lengths(self):
        reqs = build_scenario_workload(
            "heavy_tail", 40, 2, 8, context_len=16, decode_steps=4,
            rate=0.5, seed=7,
        )
        lengths = np.array([r.prompt_tokens for r in reqs])
        assert lengths.min() >= 16 and lengths.max() <= 8 * 16
        assert lengths.max() >= 4 * lengths.min()  # the tail actually reaches out
        assert np.median(lengths) <= 2 * 16  # ...while the median stays low

    def test_multi_tenant_specs_and_shares(self):
        specs = default_tenant_specs(3, rate=0.6)
        assert [s.priority for s in specs] == [2, 1, 0]
        assert specs[0].deadline_ms is not None
        reqs = build_scenario_workload(
            "multi_tenant", 12, 2, 8, tenants=3, rate=0.6, seed=9
        )
        by_tenant = {s.name: 0 for s in specs}
        for r in reqs:
            by_tenant[r.tenant] += 1
        assert sum(by_tenant.values()) == 12
        assert all(count == 4 for count in by_tenant.values())  # even shares
        premium = [r for r in reqs if r.tenant == "t0"]
        assert all(r.priority == 2 and r.deadline_ms == 200.0 for r in premium)

    def test_multi_tenant_respects_shape_knobs(self):
        reqs = build_scenario_workload(
            "multi_tenant", 6, 2, 8, context_len=20, decode_steps=5,
            tenants=2, rate=0.5, seed=4,
        )
        assert {r.prompt_tokens for r in reqs} == {20}
        assert {r.decode_steps for r in reqs} == {5}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario_workload("tidal", 4, 2, 8)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_serves_end_to_end(self, kind):
        reqs = build_scenario_workload(
            kind, 5, 2, 8, context_len=12, decode_steps=3, rate=0.8, seed=21
        )
        results, sched = _serve(
            reqs, max_active=2, token_budget=2048, policy="edf"
        )
        assert set(results) == {r.request_id for r in reqs}
        assert sched.pool.used_block_count == 0


class TestServingReport:
    def test_jain_index(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness_index([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0, 2.0])

    def test_report_carries_slo_currency(self):
        specs = (
            TenantSpec("gold", rate=0.5, share=0.5, priority=1,
                       context_len=12, decode_steps=3, deadline_ms=4.0),
            TenantSpec("bulk", rate=0.5, share=0.5, priority=0,
                       context_len=12, decode_steps=3),
        )
        reqs = build_scenario_workload(
            "multi_tenant", 8, 2, 8, tenant_specs=specs, seed=17
        )
        results, sched = _serve(reqs, max_active=1, token_budget=256, policy="fcfs")
        report = summarize_serving(results.values(), scheduler=sched)
        assert report["requests"] == 8.0
        assert report["completed_requests"] + report["aborted_requests"] == 8.0
        assert report["aborted_requests"] > 0  # 4-round deadlines under fcfs
        assert report["aborted_deadline"] == report["aborted_requests"]
        assert report["deadline_requests"] == 4.0
        assert report["deadline_miss_rate"] == report["deadline_misses"] / 4.0
        assert 1 / 2 <= report["jain_fairness_index"] <= 1.0
        assert 1 / 2 <= report["jain_service_index"] <= 1.0
        assert report["tenants"] == 2.0
        assert "tenant_tokens_gold" in report and "tenant_tokens_bulk" in report
        for key in ("p99_ttft_class0", "p99_ttft_class1", "mean_tpot_class0"):
            assert key in report

    def test_single_class_report_shape_unchanged(self):
        reqs = [_req(f"r{i}", steps=3, seed=i) for i in range(3)]
        results, sched = _serve(reqs, token_budget=256)
        report = summarize_serving(results.values(), scheduler=sched)
        assert not any("_class" in key for key in report)
        assert report["jain_fairness_index"] == 1.0
        assert not any(key.startswith("tenant_tokens_") for key in report)

    def test_timing_from_result_roundtrips_slo_fields(self):
        reqs = [_req("x", steps=2, tenant="T", priority=3, deadline_ms=99.0)]
        results, _ = _serve(reqs, token_budget=256)
        t = timing_from_result(results["x"])
        assert (t.tenant, t.priority, t.deadline_ms) == ("T", 3, 99.0)
        assert t.status == "ok" and not t.deadline_missed


class TestLegacyEquivalence:
    def test_fcfs_unchanged_by_slo_machinery(self):
        """No SLO attributes set -> byte-identical behaviour to PR 2/3."""
        reqs = [
            _req("a", context=16, steps=4, seed=1),
            _req("b", context=16, steps=4, arrival=1.0, seed=2),
        ]
        results, sched = _serve(reqs, max_active=2, token_budget=256)
        assert all(r.status == "ok" for r in results.values())
        assert not any(ev == "abort" for ev, _ in sched.trace)
        request = EngineRequest(
            "plain", reqs[0].k, reqs[0].v, q_prompt=reqs[0].q_prompt
        )
        assert request.tenant == "default" and request.priority == 0
        assert request.deadline_ms is None and request.max_queue_ms is None
