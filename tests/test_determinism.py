"""End-to-end serving determinism: the golden regression net.

Two runs of ``PadeEngine.serve`` on the same seeded scenario workload —
same policy, same budget, prefix sharing on, chunked prefill on — must
produce *byte-identical* ``RequestResult``s (outputs, retained sets,
every timing field, abort statuses) and identical serving-metric
summaries, on both kernel backends.  Any hidden nondeterminism the new
scheduler policies might introduce (set/dict iteration order, unseeded
randomness, time-dependent tie-breaks) lands here first.

The retained sets must also agree *across* the two backends — the PR-1
invariant extended through the full SLO serving stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PadeConfig
from repro.core.backend import available_backends
from repro.engine import PadeEngine
from repro.eval.serving_metrics import summarize_serving
from repro.eval.workloads import TenantSpec, build_scenario_workload

BACKENDS = tuple(available_backends())

#: A contended multi-tenant mix: classes, deadlines tight enough to abort
#: some of the bulk tier, chunked prefill, preemption pressure.
SPECS = (
    TenantSpec("gold", rate=0.4, share=0.4, priority=2,
               context_len=24, decode_steps=4),
    TenantSpec("bulk", rate=0.6, share=0.6, priority=0,
               context_len=40, decode_steps=6, deadline_ms=18.0),
)
SERVE_KWARGS = dict(
    max_active=2,
    token_budget=192,
    block_size=8,
    policy="priority",
    prefix_sharing=True,
    round_token_budget=16,
    chunk_tokens=8,
)


def _workload():
    return build_scenario_workload(
        "multi_tenant", 8, 2, 8, tenant_specs=SPECS, seed=23
    )


def _run(backend):
    engine = PadeEngine(PadeConfig.standard(), backend=backend)
    results = engine.serve(_workload(), **SERVE_KWARGS)
    scheduler = engine.last_serve
    report = summarize_serving(results.values(), scheduler=scheduler)
    return results, report, scheduler


def _digest(result):
    """Everything observable about one request, bytes-exact."""
    return (
        result.request_id,
        result.status,
        result.abort_reason,
        result.tenant,
        result.priority,
        result.deadline_ms,
        result.arrival_time,
        result.admit_time,
        result.first_token_time,
        result.finish_time,
        result.prompt_tokens,
        result.preemptions,
        result.final_length,
        None if result.prefill_output is None else result.prefill_output.tobytes(),
        result.decode_outputs.tobytes(),
        result.retained_bytes(),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_serve_twice_is_byte_identical(backend):
    results_a, report_a, sched_a = _run(backend)
    results_b, report_b, sched_b = _run(backend)
    assert sorted(results_a) == sorted(results_b)
    for rid in results_a:
        assert _digest(results_a[rid]) == _digest(results_b[rid]), rid
    assert report_a == report_b  # every metric, float-exact
    assert sched_a.trace == sched_b.trace
    assert sched_a.events == sched_b.events
    assert sched_a.occupancy == sched_b.occupancy
    assert sched_a.tenant_service == sched_b.tenant_service


def test_workload_is_contended_enough_to_matter():
    """The golden workload must actually exercise the interesting paths
    (aborts, prefix machinery, chunked prefill) or the determinism
    assertions above are vacuous."""
    results, report, sched = _run(BACKENDS[0])
    assert report["aborted_requests"] > 0
    assert report["completed_requests"] > 0
    assert sched.prefix_miss_blocks > 0  # sharing machinery engaged
    assert any(r.decode_outputs.shape[1] for r in results.values())
    assert sched.pool.used_block_count == 0


def test_retained_sets_agree_across_backends():
    if len(BACKENDS) < 2:
        pytest.skip("only one kernel backend available")
    runs = {backend: _run(backend) for backend in BACKENDS}
    reference_results, reference_report, _ = runs[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        results, report, _ = runs[backend]
        for rid in reference_results:
            assert (
                results[rid].retained_bytes()
                == reference_results[rid].retained_bytes()
            ), f"{rid} retention differs between backends"
            np.testing.assert_array_equal(
                results[rid].decode_outputs, reference_results[rid].decode_outputs
            )
            assert results[rid].status == reference_results[rid].status
        assert report == reference_report
