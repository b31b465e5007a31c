"""End-to-end tests for the multi-replica cluster front-end.

These spawn real worker subprocesses (one engine each) behind
:class:`ClusterServer` and drive them through the loopback NDJSON
protocol — the same path CI's cluster-smoke job exercises.
"""

import asyncio
import io
import json
from collections import deque
from dataclasses import replace

import pytest

from repro.cluster.replica import ReplicaHandle
from repro.cluster.router import request_chain_keys
from repro.cluster.server import ClusterServer, serve_workload_over_cluster
from repro.engine import PadeEngine, PriorityPolicy
from repro.engine.cache import TierConfig
from repro.eval.serving_metrics import summarize_cluster
from repro.eval.workloads import build_cluster_workload, build_engine_request
from repro.serve.client import ServeConnection
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_message,
    encode_message,
    encode_request,
    result_digests,
)
from repro.serve.server import _Connection

WORKER_KWARGS = dict(token_budget=1536, max_active=4, block_size=16, prefix_sharing=True)


def _workload(groups=2, per_group=3, steps=5, seed=7, rate=0.5):
    return build_cluster_workload(
        groups, per_group, 4, 32, 16, steps, 32, rate=rate, seed=seed
    )


# ----------------------------------------------------------------------
# workload builder
# ----------------------------------------------------------------------


def test_build_cluster_workload_shape_and_determinism():
    a = _workload(groups=3, per_group=2)
    b = _workload(groups=3, per_group=2)
    assert len(a) == 6
    assert sorted(r.request_id for r in a) == sorted(r.request_id for r in b)
    by_id = {r.request_id: r for r in b}
    for req in a:
        twin = by_id[req.request_id]
        assert req.tenant == twin.tenant
        assert req.arrival_time == twin.arrival_time
        assert (req.k == twin.k).all() and (req.v == twin.v).all()
    # One shared Poisson arrival process across groups, per-group tenants.
    assert {r.tenant for r in a} == {"g0", "g1", "g2"}
    assert all(r.arrival_time >= 0.0 for r in a)


def test_build_cluster_workload_groups_share_prefix_within_not_across():
    workload = _workload(groups=2, per_group=2)
    by_tenant = {}
    for req in workload:
        by_tenant.setdefault(req.tenant, []).append(req)
    g0, g1 = by_tenant["g0"], by_tenant["g1"]
    prefix = 32
    assert (g0[0].k[:, :prefix] == g0[1].k[:, :prefix]).all()
    assert not (g0[0].k[:, :prefix] == g1[0].k[:, :prefix]).all()


# ----------------------------------------------------------------------
# cluster report roll-up
# ----------------------------------------------------------------------


def test_summarize_cluster_rolls_up():
    r0 = {
        "requests": 4.0, "completed_requests": 4.0, "aborted_requests": 0.0,
        "generated_tokens": 40.0, "preemptions": 1.0, "makespan_rounds": 20.0,
        "prefix_hit_blocks": 6.0, "prefix_miss_blocks": 2.0,
        "prefix_bytes_saved": 100.0, "p95_ttft": 3.0,
    }
    r1 = {
        "requests": 2.0, "completed_requests": 2.0, "aborted_requests": 0.0,
        "generated_tokens": 20.0, "preemptions": 0.0, "makespan_rounds": 10.0,
        "prefix_hit_blocks": 0.0, "prefix_miss_blocks": 8.0,
        "prefix_bytes_saved": 0.0, "p95_ttft": 7.0,
    }
    out = summarize_cluster([r0, r1, {}])  # one replica served nothing
    assert out["replicas"] == 3.0
    assert out["reporting_replicas"] == 2.0
    assert out["requests"] == 6.0
    assert out["generated_tokens"] == 60.0
    # Concurrent engines: makespan is the max, throughput over that max.
    assert out["cluster_makespan_rounds"] == 20.0
    assert out["cluster_throughput_tokens_per_round"] == pytest.approx(3.0)
    # Hit rate recomputed from summed blocks (request-weighted).
    assert out["prefix_hit_blocks"] == 6.0
    assert out["prefix_hit_rate"] == pytest.approx(6.0 / 16.0)
    assert out["prefix_bytes_saved"] == 100.0
    # Jain over per-replica tokens, the silent replica included.
    assert 0.0 < out["jain_replica_index"] < 1.0
    assert (out["tokens_r0"], out["tokens_r1"], out["tokens_r2"]) == (40.0, 20.0, 0.0)
    assert out["worst_p95_ttft"] == 7.0


def test_summarize_cluster_sums_tier_counters_only_when_reported():
    flat = {"requests": 1.0, "generated_tokens": 4.0}
    tiered = dict(flat, spill_events=5.0, restore_events=2.0, spill_reliefs=1.0,
                  tier_prefetch_restores=2.0, spilled_plane_bytes=640.0,
                  restored_plane_bytes=256.0)
    out = summarize_cluster([tiered, dict(tiered, spill_events=3.0), {}])
    assert (out["spill_events"], out["restore_events"]) == (8.0, 4.0)
    assert out["spilled_plane_bytes"] == 1280.0
    assert "spill_events" not in summarize_cluster([flat, flat])


def test_summarize_cluster_sums_spec_and_parallel_counters_when_reported():
    flat = {"requests": 1.0, "generated_tokens": 4.0}
    spec = dict(flat, spec_rounds=4.0, spec_drafted_tokens=16.0,
                spec_accepted_tokens=12.0, spec_emitted_tokens=14.0,
                spec_rollbacks=1.0, accepted_tokens_per_round=3.5,
                draft_acceptance_rate=0.75)
    other = dict(spec, spec_rounds=2.0, spec_drafted_tokens=8.0,
                 spec_accepted_tokens=2.0, spec_emitted_tokens=4.0)
    out = summarize_cluster([spec, other, {}])
    assert (out["spec_rounds"], out["spec_emitted_tokens"]) == (6.0, 18.0)
    assert out["spec_rollbacks"] == 2.0
    # Ratios come from the sums, not an average of the replica ratios.
    assert out["accepted_tokens_per_round"] == pytest.approx(18.0 / 6.0)
    assert out["draft_acceptance_rate"] == pytest.approx(14.0 / 24.0)
    nbest = dict(flat, parallel_requests=2.0, parallel_unique_blocks=10.0,
                 parallel_replicated_blocks=24.0, pool_amplification_factor=1.5)
    out = summarize_cluster([nbest, nbest])
    assert (out["parallel_requests"], out["parallel_unique_blocks"]) == (4.0, 20.0)
    assert out["parallel_replicated_blocks"] == 48.0
    assert "pool_amplification_factor" not in out
    plain = summarize_cluster([flat, flat])
    assert not [k for k in plain if k.startswith(("spec_", "parallel_"))]
    assert "accepted_tokens_per_round" not in plain


def test_summarize_cluster_empty_raises():
    with pytest.raises(ValueError):
        summarize_cluster([])


def test_summarize_cluster_all_dead():
    out = summarize_cluster([{}, {}])
    assert out["reporting_replicas"] == 0.0
    assert out["cluster_throughput_tokens_per_round"] == 0.0


# ----------------------------------------------------------------------
# live serving end-to-end
# ----------------------------------------------------------------------


def test_two_replica_cluster_serves_and_drains_clean():
    workload = _workload()
    dones, ack, cluster = serve_workload_over_cluster(
        workload, replicas=2, routing="prefix", barrier=False,
        concurrency=3, seed=7, **WORKER_KWARGS,
    )
    assert len(dones) == len(workload)
    for rid, done in dones.items():
        assert done["type"] == "done" and done["status"] == "ok", (rid, done)
        assert done["tokens"], rid
    assert ack["leaked_blocks"] == 0
    assert ack["lost_replicas"] == []
    report = ack["report"]
    assert report["replicas"] == 2.0
    assert report["completed_requests"] == float(len(workload))


def test_barrier_mode_is_deterministic_across_runs():
    workload = _workload(per_group=4, seed=11, rate=3.0)
    reports = []
    for _ in range(2):
        dones, ack, _ = serve_workload_over_cluster(
            workload, replicas=2, routing="prefix", barrier=True,
            seed=11, **WORKER_KWARGS,
        )
        assert len(dones) == len(workload)
        assert ack["leaked_blocks"] == 0
        # Wall-clock columns measure real time and legitimately differ
        # between runs; everything on the round clock must be identical.
        reports.append(
            {k: v for k, v in ack["report"].items() if "wall" not in k}
        )
    assert reports[0] == reports[1]
    # Affinity warmed the shards.  Checked here, not in live mode: a live
    # follow-up that arrives after its family's donor finished finds the
    # prefix blocks already freed, so live hit counts depend on timing.
    assert reports[0]["prefix_hit_blocks"] > 0


def test_chunked_prefix_replay_matches_in_process_serve():
    """Every scheduler setting reaches the replicas: chunked prefill under
    the round-token cost model plus prefix sharing, served over two
    replicas, yields per-request outputs and retained sets identical to
    one in-process serve of the same requests."""
    workload = _workload(per_group=3, steps=5, seed=3, rate=2.0)
    kwargs = dict(WORKER_KWARGS, round_token_budget=64, chunk_tokens=48)
    dones, ack, _ = serve_workload_over_cluster(
        workload, replicas=2, routing="prefix", barrier=True, seed=3, **kwargs
    )
    assert ack["leaked_blocks"] == 0
    expected = PadeEngine().serve(workload, **kwargs)
    assert set(dones) == set(expected)
    for rid, res in expected.items():
        digests = result_digests(res)
        assert dones[rid]["status"] == "ok", rid
        assert dones[rid]["output_digest"] == digests["output_digest"], rid
        assert dones[rid]["retained_digest"] == digests["retained_digest"], rid
    report = ack["report"]
    assert report["prefix_hit_blocks"] > 0


def test_tiered_replicas_spill_under_pressure():
    workload = _workload(per_group=3, steps=8, seed=5, rate=3.0)
    kwargs = dict(WORKER_KWARGS, token_budget=128, tiering=TierConfig())
    dones, ack, _ = serve_workload_over_cluster(
        workload, replicas=2, routing="prefix", barrier=True, seed=5, **kwargs
    )
    assert all(d["status"] == "ok" for d in dones.values())
    assert ack["leaked_blocks"] == 0
    reports = ack["replica_reports"].values()
    spills = [r.get("spill_events", 0.0) for r in reports]
    assert sum(spills) > 0, ack["replica_reports"]
    # The cluster report rolls every replica's tier counters up.
    for key in (
        "spill_events", "restore_events", "spill_reliefs", "tier_prefetch_restores",
        "spilled_plane_bytes", "restored_plane_bytes",
    ):
        assert ack["report"][key] == sum(r.get(key, 0.0) for r in reports), key


@pytest.mark.parametrize(
    "bad, error",
    [
        (dict(chunk_tokens=48), ValueError),  # chunking needs round_token_budget
        (dict(attention="h2o", tiering=True), ValueError),  # tiering needs planes
        (dict(policy=PriorityPolicy(aging_rounds=16)), TypeError),  # not JSON
    ],
)
def test_bad_settings_fail_in_the_parent(bad, error):
    with pytest.raises(error):
        ClusterServer(replicas=2, **{**WORKER_KWARGS, **bad})


def test_malformed_messages_keep_the_connection_and_its_requests():
    """Prefix routing decodes every submit in the front-end itself: a
    submit with no ``request``, a tensor span with no ``shape``, a
    non-numeric ``deadline_ms`` and a cancel with no ``request_id`` are
    answered on the same connection, and the sender's request in flight
    still completes ``ok``."""

    def request(rid, steps=4):
        return encode_request(build_engine_request(rid, 2, 16, steps, head_dim=8, seed=0))

    def without_k_shape(body):
        line, payload = encode_message({"type": "submit", "request": body}).split(b"\n", 1)
        header = json.loads(line)
        del header["request"]["k"]["shape"]
        return json.dumps(header).encode() + b"\n" + payload

    async def run():
        cluster = ClusterServer(replicas=2, routing="prefix", seed=7, **WORKER_KWARGS)
        await cluster.start()
        try:
            reader, writer = await asyncio.open_connection(cluster.host, cluster.port)
            try:
                no_shape = without_k_shape(request("no-shape"))
                bad_deadline = request("bad-deadline")
                bad_deadline["deadline_ms"] = "abc"
                for msg in (
                    {"type": "submit", "request": request("req0", steps=200), "arrival": "now"},
                    {"type": "submit"},
                    no_shape,
                    {"type": "submit", "request": bad_deadline},
                    {"type": "cancel"},
                ):
                    writer.write(msg if isinstance(msg, bytes) else encode_message(msg))
                await writer.drain()
                replies, done = [], None
                while done is None:
                    msg = decode_message(await reader.readline())
                    if msg["type"] == "done":
                        done = msg
                    elif msg["type"] != "token":
                        replies.append(msg)
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await cluster.stop()
        return replies, done

    replies, done = asyncio.run(run())
    assert {"type": "accepted", "request_id": "req0"} in replies
    assert [r for r in replies if r["type"] == "rejected"] == [
        {"type": "rejected", "request_id": rid, "error": "invalid"}
        for rid in (None, "no-shape", "bad-deadline")
    ]
    assert [r["type"] for r in replies if r["type"] not in ("accepted", "rejected")] == ["error"]
    assert (done["request_id"], done["status"]) == ("req0", "ok")


def test_lines_that_are_not_messages_never_leave_the_client_waiting():
    """A line that is not a protocol message gets an ``error`` reply on
    the same connection, which stays usable; a line past
    ``MAX_LINE_BYTES`` gets an ``error`` (or a reset) and EOF; other
    clients are served as before."""

    async def read_until_eof(reader):
        msgs = []
        try:
            while line := await asyncio.wait_for(reader.readline(), 10.0):
                msgs.append(decode_message(line))
        except ConnectionError:
            pass  # a reset is an answer too: the client is not left waiting
        return msgs

    async def run():
        cluster = ClusterServer(replicas=1, seed=7, **WORKER_KWARGS)
        await cluster.start()
        try:
            reader, writer = await asyncio.open_connection(cluster.host, cluster.port)
            writer.write(b"not json\n[1, 2]\n{\"no_type\": 1}\n")
            writer.write(encode_message({"type": "stats"}))
            await writer.drain()
            malformed = [
                decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                for _ in range(4)
            ]
            writer.close()
            await writer.wait_closed()

            reader, writer = await asyncio.open_connection(cluster.host, cluster.port)
            try:
                writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                await writer.drain()
                too_long = await read_until_eof(reader)
            except ConnectionError:
                too_long = []
            finally:
                writer.close()

            conn = await ServeConnection.open(cluster.host, cluster.port)
            try:
                request = build_engine_request("after", 2, 16, 4, head_dim=8, seed=0)
                assert (await conn.submit(request))["type"] == "accepted"
                done = await conn.result("after")
            finally:
                await conn.close()
        finally:
            await cluster.stop()
        return malformed, too_long, done

    malformed, too_long, done = asyncio.run(run())
    assert [msg["type"] for msg in malformed] == ["error", "error", "error", "stats"]
    assert all(msg["type"] == "error" for msg in too_long)
    assert done["status"] == "ok"


# ----------------------------------------------------------------------
# replica failure
# ----------------------------------------------------------------------


async def _kill_one_mid_load(workload, replicas, kill_after, settled=None):
    cluster = ClusterServer(
        replicas=replicas, routing="prefix",
        queue_limit=len(workload), seed=5, **WORKER_KWARGS,
    )
    await cluster.start()
    try:
        conn = await ServeConnection.open(cluster.host, cluster.port)
        try:
            accepted = []
            for request in workload:
                reply = await conn.submit(request, arrival="now")
                assert reply["type"] == "accepted"
                accepted.append(request.request_id)
            dones = {}
            victim = None
            pending = {
                asyncio.ensure_future(conn.result(rid)): rid for rid in accepted
            }
            while pending:
                finished, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for fut in finished:
                    dones[pending.pop(fut)] = fut.result()
                if victim is None and len(dones) >= kill_after:
                    live = [r for r, h in cluster.replicas.items() if h.alive]
                    victim = max(live, key=cluster.router.load)
                    await cluster.kill_replica(victim)
            if settled is not None:
                await settled(cluster, conn, victim)
            ack = await conn.shutdown()
        finally:
            await conn.close()
    finally:
        await cluster.stop()
    return dones, ack, victim


def test_replica_failure_settles_everything_without_leaks():
    workload = _workload(groups=2, per_group=4, steps=6, seed=5)
    dones, ack, victim = asyncio.run(_kill_one_mid_load(workload, 2, 2))
    assert victim is not None
    assert len(dones) == len(workload)
    ok = [r for r, d in dones.items() if d.get("status") == "ok"]
    lost = [
        r for r, d in dones.items() if d.get("abort_reason") == "replica_lost"
    ]
    assert len(ok) + len(lost) == len(workload)
    # Survivor pools are untouched by the failure: nothing leaks.
    assert ack["leaked_blocks"] == 0
    assert ack["lost_replicas"] == [victim]
    assert ack["rerouted_requests"] + len(lost) >= 1
    report = ack["report"]
    assert report["lost_replicas"] == 1.0
    assert report["rerouted_requests"] == float(ack["rerouted_requests"])


def test_submits_routed_off_a_lost_replica_arrive_intact():
    """A replica that dies before streaming anything has every submit it
    held re-sent, header line and binary payload, to a survivor: all of
    them finish with the outputs of an in-process serve."""
    workload = _workload(groups=2, per_group=3, steps=4, seed=5)

    async def run():
        # One reply past the routed count: the barrier stays up until the
        # re-routed submits are accepted, so nothing streams before the kill.
        cluster = ClusterServer(
            replicas=2, routing="prefix", queue_limit=len(workload),
            start_barrier=len(workload) + 1, seed=5, **WORKER_KWARGS,
        )
        await cluster.start()
        try:
            conn = await ServeConnection.open(cluster.host, cluster.port)
            try:
                for request in workload:
                    assert (await conn.submit(request))["type"] == "accepted"
                assert len(_held_frames(cluster)) == len(workload)
                victim = max(cluster.replicas, key=cluster.router.load)
                moved = int(cluster.router.load(victim))
                await cluster.kill_replica(victim)
                dones = {r.request_id: await conn.result(r.request_id) for r in workload}
                ack = await conn.shutdown()
            finally:
                await conn.close()
        finally:
            await cluster.stop()
        return dones, ack, moved

    dones, ack, moved = asyncio.run(run())
    assert moved >= 1 and ack["rerouted_requests"] == moved
    assert ack["leaked_blocks"] == 0
    expected = PadeEngine().serve(workload, **WORKER_KWARGS)
    for rid, res in expected.items():
        assert dones[rid]["status"] == "ok", rid
        assert {k: dones[rid][k] for k in result_digests(res)} == result_digests(res), rid


def test_a_lost_replica_leaves_nothing_in_flight():
    """Once a replica is killed mid-load and every request has settled,
    nothing is left in flight: no backlog, the dead replica's router load
    is 0, and a burst of ``queue_limit`` submits is accepted whole."""
    workload = _workload(groups=2, per_group=4, steps=6, seed=5)
    burst = [replace(r, request_id=f"burst-{r.request_id}") for r in workload]

    async def settled(cluster, conn, victim):
        assert (cluster.in_flight, cluster._backlog()) == (0, 0)
        assert cluster.router.load(victim) == 0
        replies = await asyncio.gather(*(conn.submit(r, arrival="now") for r in burst))
        assert [reply["type"] for reply in replies] == ["accepted"] * len(burst)
        for request in burst:
            assert (await conn.result(request.request_id))["status"] == "ok"

    dones, ack, victim = asyncio.run(_kill_one_mid_load(workload, 2, 2, settled))
    assert len(dones) == len(workload) and ack["served"] >= len(burst)
    assert ack["leaked_blocks"] == 0


def _held_frames(root):
    """Every submit frame reachable from ``root`` through this package's
    objects and plain containers (asyncio's streams are not walked)."""
    frames, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, bytes):
            if obj.startswith(b'{"binary_bytes":'):
                frames.append(obj)
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, deque)):
            stack += obj
        elif type(obj).__module__.startswith("repro."):
            stack += getattr(obj, "__dict__", {}).values()
    return frames


def test_the_cluster_keeps_no_route_or_frame_after_the_dones():
    workload = _workload(groups=2, per_group=2, steps=3, seed=3)

    async def run():
        # An unreachable barrier: nothing runs before the shutdown drain,
        # so every submit frame is still held when it is counted.
        cluster = ClusterServer(
            replicas=1, queue_limit=len(workload),
            start_barrier=len(workload) + 1, **WORKER_KWARGS,
        )
        await cluster.start()
        try:
            conn = await ServeConnection.open(cluster.host, cluster.port)
            try:
                for request in workload:
                    assert (await conn.submit(request))["type"] == "accepted"
                assert len(_held_frames(cluster)) == len(workload)
                ack = await conn.shutdown()
                dones = [await conn.result(r.request_id) for r in workload]
            finally:
                await conn.close()
        finally:
            await cluster.stop()
        assert [d["status"] for d in dones] == ["ok"] * len(workload)
        assert ack["leaked_blocks"] == 0
        assert _held_frames(cluster) == []
        assert cluster.in_flight == 0 and cluster._routes == {}

    asyncio.run(run())


def test_a_route_drops_its_frame_at_its_first_streamed_token():
    """Only a route with nothing streamed is ever re-sent, so once every
    request has streamed a token and none is done, the cluster holds no
    submit frame.  Replica replies are fed in, so nothing is spawned."""
    cluster = ClusterServer(replicas=1, **WORKER_KWARGS)
    cluster.replicas = {rid: ReplicaHandle(rid) for rid in cluster.router.replica_ids}
    handle = cluster.replicas["r0"]
    conn = _Connection(writer=io.BytesIO())
    workload = _workload(groups=2, per_group=2, seed=4)
    for request in workload:
        frame = encode_message({"type": "submit", "request": encode_request(request)})
        line, payload = frame.split(b"\n", 1)
        cluster._on_submit(conn, decode_message(line), line + b"\n", payload)
        cluster._on_replica_message(
            handle, {"type": "accepted", "request_id": request.request_id}
        )
    assert len(_held_frames(cluster)) == len(workload)
    for i, request in enumerate(workload):
        cluster._on_replica_message(
            handle, {"type": "token", "request_id": request.request_id, "step": 0}
        )
        assert len(_held_frames(cluster)) == len(workload) - i - 1
    assert _held_frames(cluster) == []
    assert cluster.in_flight == len(workload)
    assert [r.streamed for r in cluster._routes.values()] == [1] * len(workload)


def test_a_rejection_takes_back_the_keys_its_routing_added():
    """Keys a rejected submit added to the affinity index are unregistered;
    one that another in-flight route there carries stays until that route
    is rejected too.  Replica replies are fed in, so nothing is spawned."""
    cluster = ClusterServer(replicas=2, **WORKER_KWARGS)
    cluster.replicas = {rid: ReplicaHandle(rid) for rid in cluster.router.replica_ids}
    conn = _Connection(writer=io.BytesIO())
    prompt, other = _workload(groups=2, per_group=1, seed=2)
    keys = request_chain_keys(prompt, bits=cluster.bits, block_size=cluster.block_size)
    assert keys

    def submit(rid, request):
        request = replace(request, request_id=rid)
        frame = encode_message({"type": "submit", "request": encode_request(request)})
        line, payload = frame.split(b"\n", 1)
        cluster._on_submit(conn, decode_message(line), line + b"\n", payload)

    def reject(rid, replica):
        cluster._on_replica_message(
            cluster.replicas[replica],
            {"type": "rejected", "request_id": rid, "error": "too-large"},
        )

    before = cluster.router.indexed_keys("r0")
    for rid, request in (("a", prompt), ("b", prompt), ("c", other)):
        submit(rid, request)  # "b" follows "a" to r0 by affinity; "c" goes to r1
    reject("a", "r0")
    assert cluster.router.match_length("r0", keys) == len(keys)  # "b" carries them
    reject("b", "r0")
    assert cluster.router.match_length("r0", keys) == 0
    assert cluster.router.indexed_keys("r0") == before
    cluster._on_replica_message(cluster.replicas["r1"], {"type": "done", "request_id": "c"})
    assert cluster.in_flight == 0 and cluster._routes == {}
    replies = [decode_message(line) for line in conn.writer.getvalue().splitlines()]
    assert [(m["type"], m["request_id"]) for m in replies] == [
        ("rejected", "a"), ("rejected", "b"), ("done", "c"),
    ]


def test_serving_profile_shards_every_scheduler_mode():
    from repro.eval.harness import serving_profile

    out = serving_profile(
        replicas=2, budget=768, policy="fair", scenario="multi_tenant",
        chunk=48, round_tokens=64, tiering=True,
    )
    assert out["replicas"] == 2.0
    assert out["completed_requests"] == out["requests"] == 6.0
    assert out["chunk_tokens"] == 48.0
