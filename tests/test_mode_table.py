"""The serving-mode table: every pair of modes either serves or is refused.

:data:`repro.engine.scheduler.REFUSED_MODE_PAIRS` is the one place that
decides which modes combine.  This walk serves a tiny workload under
every pair of :data:`SERVING_MODES`: an allowed pair must finish every
request ``ok`` and leave no pool block in use, and a refused pair must
raise ``ValueError`` with the table's reason, wherever the refusal
fires (request construction, scheduler construction or submission).
"""

import re
from dataclasses import replace
from itertools import combinations

import pytest

from repro.core import PadeConfig
from repro.engine import PadeEngine
from repro.engine.scheduler import REFUSED_MODE_PAIRS, SERVING_MODES, check_modes
from repro.eval.workloads import (
    build_parallel_workload,
    build_prefix_workload,
    build_serving_workload,
    build_speculative_workload,
)

HEADS, CONTEXT, STEPS, DIM = 4, 48, 6, 32


def _serve(modes):
    """Serve four requests with ``modes`` on; return requests, results, scheduler."""
    if "n_best" in modes:
        reqs = build_parallel_workload(4, HEADS, CONTEXT, STEPS, DIM, n_samples=2,
                                       rate=1.0, seed=3)
    elif "speculative" in modes:
        reqs = build_speculative_workload(4, HEADS, CONTEXT, STEPS, DIM, rate=1.0, seed=3)
    elif "prefix_sharing" in modes:
        reqs = build_prefix_workload(4, HEADS, 32, 16, STEPS, DIM, rate=1.0, seed=3)
    else:
        reqs = build_serving_workload(4, HEADS, CONTEXT, STEPS, DIM, rate=1.0, seed=3)
    if "speculative" in modes:
        reqs = [replace(r, speculative=True) for r in reqs]
    if "deadlines" in modes:
        reqs = [replace(r, deadline_ms=1e4, max_queue_ms=1e4) for r in reqs]
    engine = PadeEngine(
        PadeConfig.standard(), policy="h2o" if "baseline" in modes else "pade"
    )
    # Twelve blocks: tight enough that tiered pairs spill and some
    # untiered ones preempt.
    settings = dict(max_active=4, token_budget=192, block_size=16)
    if "prefix_sharing" in modes:
        settings["prefix_sharing"] = True
    if "chunked_prefill" in modes:
        settings.update(chunk_tokens=16, round_token_budget=64)
    if "tiering" in modes:
        settings["tiering"] = True
    if "drain" in modes:
        settings["admission"] = "drain"
    return reqs, engine.serve(reqs, **settings), engine.last_serve


@pytest.mark.parametrize("pair", list(combinations(SERVING_MODES, 2)), ids="-".join)
def test_every_pair_serves_or_is_refused_with_the_tables_reason(pair):
    reason = REFUSED_MODE_PAIRS.get(pair)
    if reason is not None:
        with pytest.raises(ValueError, match=re.escape(reason)):
            _serve(pair)
        return
    reqs, results, sched = _serve(pair)
    assert sorted(results) == sorted(r.request_id for r in reqs)
    assert all(res.status == "ok" for res in results.values()), pair
    assert sched.pool.used_block_count == 0


def test_table_lists_four_refused_pairs_of_known_modes_in_mode_order():
    assert set(REFUSED_MODE_PAIRS) == {
        ("baseline", "tiering"),
        ("baseline", "speculative"),
        ("baseline", "n_best"),
        ("speculative", "n_best"),
    }
    for a, b in REFUSED_MODE_PAIRS:
        assert SERVING_MODES.index(a) < SERVING_MODES.index(b)


def test_check_modes_ignores_modes_switched_off_and_rejects_unknown_names():
    check_modes(baseline=True, tiering=False, speculative=None)
    check_modes(tiering=True, speculative=True, deadlines=True)
    with pytest.raises(ValueError, match="unknown serving modes"):
        check_modes(n_bset=True)


# ----------------------------------------------------------------------
# the harness asks the same table
# ----------------------------------------------------------------------

_TINY = dict(requests=3, context=32, steps=4, budget=1024)


@pytest.mark.parametrize(
    "knobs, pair",
    [
        (dict(attention="h2o", tiering=True), ("baseline", "tiering")),
        (dict(attention="h2o", speculative=True), ("baseline", "speculative")),
        (dict(attention="h2o", parallel_samples=2), ("baseline", "n_best")),
        (dict(speculative=True, parallel_samples=2), ("speculative", "n_best")),
    ],
)
def test_serving_profile_refuses_with_the_tables_reason(knobs, pair):
    from repro.eval.harness import serving_profile

    with pytest.raises(ValueError, match=re.escape(REFUSED_MODE_PAIRS[pair])):
        serving_profile(**_TINY, **knobs)


@pytest.mark.parametrize("knobs", [dict(speculative=True), dict(parallel_samples=3)])
def test_serving_profile_fork_builders_take_prefix_sharing_as_pool_knob(knobs):
    from repro.eval.harness import serving_profile

    out = serving_profile(**_TINY, prefix_sharing=True, **knobs)
    assert out["prefix_sharing"] == 1.0
    assert out["completed_requests"] == 3.0


def test_serving_profile_fork_builders_refuse_a_scenario():
    from repro.eval.harness import serving_profile

    with pytest.raises(ValueError, match="drop --scenario"):
        serving_profile(**_TINY, speculative=True, scenario="bursty")


@pytest.mark.parametrize("replicas", [0, -1])
def test_serving_profile_refuses_fewer_than_one_replica(replicas):
    from repro.eval.harness import serving_profile

    with pytest.raises(ValueError, match="replicas must be >= 1"):
        serving_profile(**_TINY, replicas=replicas)


@pytest.mark.parametrize("samples", [0, -2])
def test_serving_profile_refuses_fewer_than_one_parallel_sample(samples):
    from repro.eval.harness import serving_profile

    with pytest.raises(ValueError, match="parallel_samples must be >= 1"):
        serving_profile(**_TINY, parallel_samples=samples)


def test_cli_passes_only_the_serve_flags_given(monkeypatch, capsys):
    from repro import cli

    seen = []
    monkeypatch.setitem(
        cli.EXPERIMENTS, "serve", (lambda **kw: seen.append(kw) or {}, "serve")
    )
    assert cli.main(["serve", "--json"]) == 0
    assert cli.main(["serve", "--json", "--rate", "0.5", "--sched-policy", "edf",
                     "--prefix-sharing", "--async", "--parallel-samples", "3"]) == 0
    assert seen == [
        {},
        dict(rate=0.5, policy="edf", prefix_sharing=True, async_serve=True,
             parallel_samples=3),
    ]
    capsys.readouterr()
