"""Asyncio serving front-end: protocol, parity, cancellation, backpressure.

What ISSUE 7 pins down:

* the NDJSON wire protocol round-trips requests and tensors losslessly
  (binary float64 frames for submits, base64 token outputs, sha256
  digests), and a frame that breaks the layout gets the promised
  connection outcome;
* the loopback socket path in deterministic-replay (barrier) mode is
  byte-identical to the in-process :meth:`PadeEngine.serve` call on the
  same workload — same outputs, same retained sets, same round-clock
  report;
* every cancellation path — cancel while queued, cancel during a
  chunked prefill, client disconnect mid-stream — frees every pool
  block and surfaces ``abort_reason="cancelled"`` through the async
  layer;
* admission backpressure rejects with the right reason (``overloaded``,
  ``too-large``, ``duplicate``, ``shutting-down``, ``invalid``) without
  touching the scheduler;
* graceful shutdown drains in-flight work, reports zero leaked blocks,
  and carries the wall-clock latency columns in its report.

Everything runs on a loopback socket inside one event loop, so the
tests can poll live scheduler state between rounds (the engine loop
yields at every round boundary).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.server import ClusterServer
from repro.engine import EngineRequest, PadeEngine
from repro.eval.workloads import (
    build_engine_request,
    build_parallel_workload,
    build_serving_workload,
)
from repro.serve.client import ServeConnection, serve_workload_over_loopback
from repro.serve.protocol import (
    _TENSOR_FIELDS,
    MAX_LINE_BYTES,
    array_digest,
    decode_message,
    decode_request,
    encode_array,
    encode_message,
    encode_request,
    result_digests,
)
from repro.serve.server import AsyncPadeServer, _Connection


def _req(rid, context=16, steps=4, arrival=0.0, seed=0):
    return build_engine_request(
        rid, 2, context, steps, head_dim=8, seed=seed, arrival_time=arrival
    )


async def _wait_for(pred, timeout=10.0, what="condition"):
    """Poll ``pred`` across engine-loop round boundaries."""
    deadline = time.perf_counter() + timeout
    while not pred():
        if time.perf_counter() - deadline > 0:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.001)


#: The two front-ends of the wire protocol: one engine behind
#: :class:`AsyncPadeServer`, and a one-replica :class:`ClusterServer`.
FRONT_ENDS = ("single", "cluster")


async def _start(engine=None, front_end="single", **kwargs):
    kwargs.setdefault("max_active", 2)
    kwargs.setdefault("token_budget", 512)
    kwargs.setdefault("block_size", 8)
    if front_end == "cluster":
        server = ClusterServer(replicas=1, **kwargs)
    else:
        server = AsyncPadeServer(engine or PadeEngine(), **kwargs)
    await server.start()
    return server


def _engine_report(ack):
    """The serving report of the one engine behind either front-end."""
    return ack["replica_reports"]["r0"] if "replica_reports" in ack else ack["report"]


def _submit_frame(request, **extra) -> bytes:
    return encode_message({"type": "submit", "request": encode_request(request), **extra})


def _split_frame(frame: bytes):
    """``(header, payload)`` of one encoded frame."""
    line, payload = frame.split(b"\n", 1)
    return decode_message(line), payload


def _edit_frame(frame: bytes, edit) -> bytes:
    """Re-encode ``frame`` after ``edit(header, payload) -> payload``."""
    header, payload = _split_frame(frame)
    payload = edit(header, payload)
    return json.dumps(header).encode() + b"\n" + payload


async def _graceful_stop(server):
    conn = await ServeConnection.open(server.host, server.port)
    try:
        ack = await conn.shutdown()
    finally:
        await conn.close()
    await server.stop()
    return ack


class TestProtocol:
    def test_message_roundtrip(self):
        msg = {"type": "token", "request_id": "r0", "step": 3, "digest": "ab"}
        line = encode_message(msg)
        assert line.endswith(b"\n")
        assert decode_message(line) == msg

    def test_request_roundtrip_is_lossless(self):
        req = build_engine_request(
            "rt", 2, 12, 3, head_dim=8, seed=7, arrival_time=2.5,
            tenant="t1", priority=2, deadline_ms=80.0, max_queue_ms=10.0,
        )
        header, payload = _split_frame(_submit_frame(req))
        assert header["binary_bytes"] == len(payload)
        back = decode_request(header["request"], payload)
        assert back.request_id == req.request_id
        assert back.arrival_time == req.arrival_time
        assert back.tenant == req.tenant
        assert back.priority == req.priority
        assert back.deadline_ms == req.deadline_ms
        assert back.max_queue_ms == req.max_queue_ms
        for a, b in zip(req.k, back.k):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(req.decode_q, back.decode_q):
            np.testing.assert_array_equal(a, b)

    def test_arrival_override(self):
        req = _req("ov", arrival=1.0)
        header, payload = _split_frame(_submit_frame(req))
        assert decode_request(header["request"], payload, arrival_time=9.0).arrival_time == 9.0

    def test_tensor_free_messages_keep_their_bytes(self):
        """Control messages and every reply are the same NDJSON lines as
        before binary frames existed."""
        golden = [
            ({"type": "cancel", "request_id": "r3"}, b'{"type":"cancel","request_id":"r3"}\n'),
            ({"type": "shutdown"}, b'{"type":"shutdown"}\n'),
            ({"type": "stats"}, b'{"type":"stats"}\n'),
            ({"type": "barrier", "count": 4}, b'{"type":"barrier","count":4}\n'),
            ({"type": "accepted", "request_id": "r0"}, b'{"type":"accepted","request_id":"r0"}\n'),
            (
                {"type": "rejected", "request_id": "r1", "error": "overloaded"},
                b'{"type":"rejected","request_id":"r1","error":"overloaded"}\n',
            ),
            (
                {"type": "token", "request_id": "r0", "step": 2, "digest": "ab",
                 "output": encode_array(np.array([[0.5, -1.25]]))},
                b'{"type":"token","request_id":"r0","step":2,"digest":"ab",'
                b'"output":{"shape":[1,2],"data":"AAAAAAAA4D8AAAAAAAD0vw=="}}\n',
            ),
            (
                {"type": "done", "request_id": "r0", "status": "ok", "abort_reason": None,
                 "timing": {"arrival_time": 0.0}, "wall": {"arrival": 1.5}},
                b'{"type":"done","request_id":"r0","status":"ok","abort_reason":null,'
                b'"timing":{"arrival_time":0.0},"wall":{"arrival":1.5}}\n',
            ),
            (
                {"type": "shutdown_ack", "served": 2, "leaked_blocks": 0, "report": {}},
                b'{"type":"shutdown_ack","served":2,"leaked_blocks":0,"report":{}}\n',
            ),
        ]
        for msg, line in golden:
            assert encode_message(msg) == line

    def test_a_submit_frame_is_a_header_and_its_tensor_bytes(self):
        req = _req("frame")
        header, payload = _split_frame(_submit_frame(req))
        spans = sorted(
            (header["request"][name]["offset"], name)
            for name in _TENSOR_FIELDS
            if header["request"][name] is not None
        )
        assert b"".join(
            np.ascontiguousarray(getattr(req, name), dtype="<f8").tobytes() for _, name in spans
        ) == payload
        assert header["request"]["sample_decode_q"] is None

    def test_array_digest_tracks_bytes(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert array_digest(a) == array_digest(a.copy())
        b = a.copy()
        b[0, 0] += 1e-12
        assert array_digest(a) != array_digest(b)


class TestParity:
    def test_loopback_replay_matches_in_process(self, monkeypatch):
        import repro.serve.client as client_mod

        lines = []

        def recording_decode(line):
            lines.append(line)
            return decode_message(line)

        monkeypatch.setattr(client_mod, "decode_message", recording_decode)
        workload = build_serving_workload(5, 2, 24, 4, 8, rate=0.5, seed=3)
        kwargs = dict(max_active=2, token_budget=512, block_size=8)
        dones, ack, _server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=True, **kwargs
        )
        # Replies stay text: every server -> client line is one JSON object.
        assert lines
        for line in lines:
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            msg = json.loads(line)
            assert isinstance(msg, dict) and "binary_bytes" not in msg
        engine = PadeEngine()
        results = engine.serve(workload, **kwargs)
        assert set(dones) == set(results)
        for rid, res in results.items():
            expected = result_digests(res)
            assert dones[rid]["output_digest"] == expected["output_digest"]
            assert dones[rid]["retained_digest"] == expected["retained_digest"]
            # The streamed tokens are the decode outputs, step by step.
            steps = [tok["step"] for tok in dones[rid]["tokens"]]
            assert steps == sorted(set(steps))
            for tok in dones[rid]["tokens"]:
                assert tok["digest"] == array_digest(res.decode_outputs[:, tok["step"], :])
            # Round-clock timing over the socket matches in-process.
            assert dones[rid]["timing"]["finish_time"] == res.finish_time
            assert dones[rid]["timing"]["first_token_time"] == res.first_token_time
        assert ack["leaked_blocks"] == 0

    def test_each_submit_is_decoded_once(self, monkeypatch):
        import repro.serve.server as server_mod

        calls = []

        def counting_decode(obj, *args, **kwargs):
            calls.append(obj["request_id"])
            return decode_request(obj, *args, **kwargs)

        monkeypatch.setattr(server_mod, "decode_request", counting_decode)
        workload = build_serving_workload(4, 2, 16, 3, 8, rate=1.0, seed=5)
        serve_workload_over_loopback(
            PadeEngine(), workload, barrier=True, max_active=2, token_budget=512, block_size=8
        )
        assert sorted(calls) == sorted(r.request_id for r in workload)

        calls.clear()

        async def run():
            server = await _start()
            conn = await ServeConnection.open(server.host, server.port)
            try:
                for rid in ("now-a", "now-b"):
                    reply = await conn.submit(_req(rid, arrival=50.0), arrival="now")
                    assert reply["type"] == "accepted"
                for rid in ("now-a", "now-b"):
                    assert (await conn.result(rid))["status"] == "ok"
            finally:
                await conn.close()
            await _graceful_stop(server)
            return server

        server = asyncio.run(run())
        assert calls == ["now-a", "now-b"]
        # "now" still replaces the encoded arrival with the pickup round.
        assert all(server.results[rid].arrival_time < 50.0 for rid in calls)

    def test_wall_marks_are_monotone_per_request(self):
        workload = build_serving_workload(4, 2, 16, 3, 8, rate=1.0, seed=5)
        dones, ack, _server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=False, concurrency=2,
            max_active=2, token_budget=512, block_size=8,
        )
        for done in dones.values():
            wall = done["wall"]
            assert 0 <= wall["arrival"] <= wall["admit"] <= wall["first_token"] <= wall["finish"]
        report = ack["report"]
        assert report["n_wall_ttft_ms"] == float(len(workload))


class TestCancellation:
    def test_cancel_while_queued(self):
        async def run():
            server = await _start(max_active=1)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("active", steps=12), arrival="now"))[
                    "type"
                ] == "accepted"
                assert (await conn.submit(_req("queued", steps=2), arrival="now"))[
                    "type"
                ] == "accepted"
                # Wait until the first request holds the only active slot
                # and the second sits in the scheduler queue.
                await _wait_for(
                    lambda: any(s.request.request_id == "active" for s in server.scheduler.active)
                    and any(r.request_id == "queued" for _, r in server.scheduler.pending),
                    what="queued request behind the active one",
                )
                await conn.cancel("queued")
                done = await conn.result("queued")
                assert done["status"] == "aborted"
                assert done["abort_reason"] == "cancelled"
                assert conn.tokens.get("queued", []) == []
                active = await conn.result("active")
                assert active["status"] == "ok"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0
            assert server.results["queued"].abort_reason == "cancelled"

        asyncio.run(run())

    def test_late_and_unknown_cancels_are_not_kept(self):
        """A cancel after ``done``, or for an id never submitted, must not
        sit in the scheduler's cancel set until shutdown."""
        async def run():
            server = await _start()
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("finished", steps=2), arrival="now"))[
                    "type"
                ] == "accepted"
                assert (await conn.result("finished"))["status"] == "ok"
                await conn.cancel("finished")
                await conn.cancel("never-submitted")
                # One connection's messages are handled in order: once this
                # submit is accepted, both cancels have been handled.
                assert (await conn.submit(_req("probe", steps=2), arrival="now"))[
                    "type"
                ] == "accepted"
                assert server.scheduler._cancelled == set()
                assert (await conn.result("probe"))["status"] == "ok"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0
            assert server.results["finished"].status == "ok"

        asyncio.run(run())

    def test_cancel_during_chunked_prefill(self):
        async def run():
            server = await _start(
                max_active=2, token_budget=512, block_size=8,
                round_token_budget=4, chunk_tokens=4,
            )
            conn = await ServeConnection.open(server.host, server.port)
            try:
                req = _req("chunked", context=48, steps=4)
                assert (await conn.submit(req, arrival="now"))["type"] == "accepted"

                def mid_prefill():
                    for state in server.scheduler.active:
                        if state.request.request_id == "chunked" and state.prefilling:
                            return getattr(state.cache, "prefill_remaining", 0) < req.prompt_tokens
                    return False

                await _wait_for(mid_prefill, what="a partially prefilled chunked request")
                await conn.cancel("chunked")
                done = await conn.result("chunked")
                assert done["status"] == "aborted"
                assert done["abort_reason"] == "cancelled"
                assert conn.tokens.get("chunked", []) == []
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_disconnect_mid_stream_aborts_and_frees(self):
        async def run():
            server = await _start(max_active=1)
            conn = await ServeConnection.open(server.host, server.port)
            assert (await conn.submit(_req("gone", steps=40), arrival="now"))[
                "type"
            ] == "accepted"
            # Wait for the stream to actually start, then vanish without
            # a cancel message — the disconnect itself must abort it.
            await _wait_for(
                lambda: len(conn.tokens.get("gone", [])) >= 2,
                what="a few streamed tokens",
            )
            streamed = len(conn.tokens["gone"])
            await conn.close()
            await _wait_for(
                lambda: "gone" in server.results, what="the disconnect abort"
            )
            res = server.results["gone"]
            assert res.status == "aborted"
            assert res.abort_reason == "cancelled"
            assert streamed < 40  # it really was mid-stream
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0
            # The abort surfaces in the report's abort accounting.
            assert ack["report"]["aborted_requests"] == 1.0

        asyncio.run(run())


class TestBackpressure:
    def test_overloaded_rejection_is_bounded_by_queue_limit(self):
        async def run(front_end):
            # Barrier above the queue limit: nothing drains, so the
            # accept queue really fills to its bound.
            server = await _start(front_end=front_end, queue_limit=2, start_barrier=99)
            try:
                conn = await ServeConnection.open(server.host, server.port)
                try:
                    assert (await conn.submit(_req("a")))["type"] == "accepted"
                    assert (await conn.submit(_req("b")))["type"] == "accepted"
                    reply = await conn.submit(_req("c"))
                    assert reply["type"] == "rejected"
                    assert reply["error"] == "overloaded"
                finally:
                    await conn.close()
                ack = await _graceful_stop(server)  # drain opens the barrier
                assert ack["served"] == 2
                assert ack["leaked_blocks"] == 0
            finally:
                await server.stop()  # a failed check must not leave a replica running

        for front_end in FRONT_ENDS:
            asyncio.run(run(front_end))

    @pytest.mark.parametrize("mode", ["plain", "n-best"])
    def test_too_large_rejection(self, mode):
        """A request that could never fit the budget is refused at submit
        (the n-best one needs one tail block per lineage, one more than
        the budget holds); the server keeps serving and answering."""
        async def run():
            if mode == "plain":
                server = await _start(token_budget=64, block_size=8)
                huge = _req("huge", context=256, steps=8)
            else:
                server = await _start(token_budget=96, block_size=16)
                [huge] = build_parallel_workload(1, 2, 29, 4, 8, n_samples=3, seed=0)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                reply = await conn.submit(huge)
                assert reply["type"] == "rejected"
                assert reply["error"] == "too-large"
                assert not server.scheduler.pending
                assert (await conn.submit(_req("ok")))["type"] == "accepted"
                assert (await conn.result("ok"))["status"] == "ok"
            finally:
                await conn.close()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(encode_message({"type": "stats"}))
                await writer.drain()
                stats = decode_message(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            assert (stats["type"], stats["served"]) == ("stats", 1)
            ack = await _graceful_stop(server)
            assert ack["served"] == 1
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_duplicate_rejection(self):
        async def run():
            server = await _start(start_barrier=99)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("dup")))["type"] == "accepted"
                reply = await conn.submit(_req("dup"))
                assert reply["type"] == "rejected"
                assert reply["error"] == "duplicate"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["served"] == 1

        asyncio.run(run())

    @pytest.mark.parametrize("policy", ["pade", "h2o"])
    def test_invalid_submit_is_rejected_and_the_server_survives(self, policy):
        """A request the engine loop could not serve — a NaN query, a
        negative arrival override, speculative decoding on a non-PADE
        engine — is rejected as ``invalid`` to its sender only, before it
        is accepted; the sender's connection and every other client's
        requests carry on."""

        async def run():
            server = await _start(engine=PadeEngine(policy=policy))
            good = await ServeConnection.open(server.host, server.port)
            bad = await ServeConnection.open(server.host, server.port)
            try:
                nan_req = _req("nan")
                nan_req.decode_q[0, 1, 2] = np.nan  # arrays stay mutable
                submits = [(nan_req, None), (_req("neg"), -1.0)]
                if policy != "pade":
                    submits.append((replace(_req("spec"), speculative=True), None))
                for request, arrival in submits:
                    reply = await bad.submit(request, arrival=arrival)
                    assert reply == {
                        "type": "rejected", "request_id": request.request_id, "error": "invalid"
                    }
                assert (await good.submit(_req("ok-a", seed=1)))["type"] == "accepted"
                assert (await bad.submit(_req("ok-b", seed=2)))["type"] == "accepted"
                assert (await good.result("ok-a"))["status"] == "ok"
                assert (await bad.result("ok-b"))["status"] == "ok"
            finally:
                await good.close()
                await bad.close()
            ack = await _graceful_stop(server)
            assert ack["served"] == 2
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_malformed_messages_keep_the_connection_and_its_requests(self):
        """A submit with no ``request``, a tensor span with no ``shape``, a
        non-numeric ``deadline_ms``, a cancel with no ``request_id`` and a
        ``barrier`` whose ``count`` is null or not a number are answered
        on the same connection; the sender's request in flight still
        completes ``ok``."""

        async def run():
            server = await _start(max_active=1)
            reader, writer = await asyncio.open_connection(server.host, server.port)

            async def send(msg):
                writer.write(msg if isinstance(msg, bytes) else encode_message(msg))
                await writer.drain()

            def drop_shape(header, payload):
                del header["request"]["k"]["shape"]
                return payload

            try:
                await send({"type": "submit", "request": encode_request(_req("req0", steps=200)),
                            "arrival": "now"})
                no_shape = _edit_frame(_submit_frame(_req("no-shape")), drop_shape)
                bad_deadline = encode_request(_req("bad-deadline"))
                bad_deadline["deadline_ms"] = "abc"
                for msg in (
                    {"type": "submit"},
                    no_shape,
                    {"type": "submit", "request": bad_deadline},
                    {"type": "cancel"},
                    {"type": "barrier", "count": None},
                    {"type": "barrier", "count": "x"},
                ):
                    await send(msg)
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
            assert replies[0] == {"type": "accepted", "request_id": "req0"}
            assert replies[1:4] == [
                {"type": "rejected", "request_id": rid, "error": "invalid"}
                for rid in (None, "no-shape", "bad-deadline")
            ]
            assert [reply["type"] for reply in replies[4:]] == ["error"] * 3
            assert server.start_barrier == 0
            assert (done["request_id"], done["status"]) == ("req0", "ok")
            ack = await _graceful_stop(server)
            assert ack["served"] == 1
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_spans_that_do_not_tile_the_payload_are_invalid(self):
        """A span whose ``nbytes`` is not ``8 * prod(shape)``, that
        overlaps its neighbour, leaves a gap or runs past the end is
        rejected ``invalid``; its payload was read in full, so the same
        connection's request in flight still completes ``ok``."""

        def wrong_nbytes(header, payload):
            header["request"]["k"]["nbytes"] += 8
            return payload

        def overlap(header, payload):
            header["request"]["v"]["offset"] -= 8
            return payload

        def gap(header, payload):
            # 8 spare bytes after k: every later span moves up by 8.
            body = header["request"]
            end = body["k"]["offset"] + body["k"]["nbytes"]
            for name in _TENSOR_FIELDS:
                if body[name] is not None and body[name]["offset"] >= end:
                    body[name]["offset"] += 8
            header["binary_bytes"] += 8
            return payload[:end] + bytes(8) + payload[end:]

        def past_the_end(header, payload):
            header["binary_bytes"] -= 8
            return payload[:-8]

        edits = {"nbytes": wrong_nbytes, "overlap": overlap, "gap": gap, "past-end": past_the_end}

        async def run():
            server = await _start(max_active=1)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(_submit_frame(_req("req0", steps=100), arrival="now"))
                for rid, edit in edits.items():
                    writer.write(_edit_frame(_submit_frame(_req(rid)), edit))
                await writer.drain()
                replies, done = [], None
                while done is None:
                    msg = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                    if msg["type"] == "done":
                        done = msg
                    elif msg["type"] != "token":
                        replies.append(msg)
            finally:
                writer.close()
                await writer.wait_closed()
            assert replies == [{"type": "accepted", "request_id": "req0"}] + [
                {"type": "rejected", "request_id": rid, "error": "invalid"} for rid in edits
            ]
            assert (done["request_id"], done["status"]) == ("req0", "ok")
            ack = await _graceful_stop(server)
            assert ack["served"] == 1
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    @pytest.mark.parametrize("size", ["64", -8, MAX_LINE_BYTES + 8, 1.5, None])
    def test_an_unreadable_binary_bytes_gets_an_error_and_eof(self, size):
        """Without a readable ``binary_bytes`` the stream has lost its
        framing: the server answers ``error`` and closes, and the
        sender's request in flight is cancelled like on a disconnect."""

        async def run(front_end):
            server = await _start(front_end=front_end, max_active=1)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    writer.write(_submit_frame(_req("req0", steps=400), arrival="now"))
                    await writer.drain()
                    # A cluster relays its replica's accept: wait for it, so
                    # the error cannot overtake it.
                    msgs = [decode_message(await asyncio.wait_for(reader.readline(), 10.0))]
                    header, payload = _split_frame(_submit_frame(_req("bad")))
                    header["binary_bytes"] = size
                    writer.write(json.dumps(header).encode() + b"\n" + payload)
                    await writer.drain()
                    while line := await asyncio.wait_for(reader.readline(), 10.0):
                        msgs.append(decode_message(line))
                finally:
                    writer.close()
                replies = [msg for msg in msgs if msg["type"] != "token"]
                assert replies == [
                    {"type": "accepted", "request_id": "req0"},
                    {"type": "error", "error": "bad binary_bytes"},
                ]
                ack = await _graceful_stop(server)
                assert _engine_report(ack)["aborted_cancelled"] == 1.0
                assert ack["leaked_blocks"] == 0
            finally:
                await server.stop()  # a failed check must not leave a replica running

        for front_end in FRONT_ENDS:
            asyncio.run(run(front_end))

    def test_eof_inside_a_payload_is_a_disconnect(self):
        async def run(front_end):
            server = await _start(front_end=front_end, max_active=1)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(_submit_frame(_req("req0", steps=400), arrival="now"))
                writer.write(_submit_frame(_req("cut"))[:-100])
                writer.write_eof()
                await writer.drain()
                while await asyncio.wait_for(reader.readline(), 10.0):  # until EOF
                    pass
                writer.close()
                ack = await _graceful_stop(server)
                assert ack["served"] == 1  # req0 only: "cut" never arrived
                assert _engine_report(ack)["aborted_cancelled"] == 1.0
                assert ack["leaked_blocks"] == 0
            finally:
                await server.stop()  # a failed check must not leave a replica running

        for front_end in FRONT_ENDS:
            asyncio.run(run(front_end))

    def test_lines_that_are_not_messages_get_an_error_reply(self):
        """A line that is not JSON, JSON that is not an object and an
        object with no ``type`` each get an ``error`` reply on the same
        connection, and the sender's request in flight still completes."""

        async def run():
            server = await _start(max_active=1)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(encode_message({"type": "submit", "arrival": "now",
                                             "request": encode_request(_req("req0", steps=50))}))
                writer.write(b"not json\n[1, 2]\n{\"no_type\": 1}\n\xff\n")
                await writer.drain()
                replies, done = [], None
                while done is None:
                    msg = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                    if msg["type"] == "done":
                        done = msg
                    elif msg["type"] != "token":
                        replies.append(msg)
            finally:
                writer.close()
                await writer.wait_closed()
            assert replies[0] == {"type": "accepted", "request_id": "req0"}
            assert [reply["type"] for reply in replies[1:]] == ["error"] * 4
            assert (done["request_id"], done["status"]) == ("req0", "ok")
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_a_line_past_the_limit_gets_an_error_and_eof(self):
        """A line longer than ``MAX_LINE_BYTES`` loses the stream's
        framing: the server answers with an ``error`` (or, if the rest of
        the line was still in flight, resets) and closes the connection,
        so the client never waits on a silent socket.  Other clients are
        served as before."""

        async def run(front_end):
            server = await _start(front_end=front_end)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                    lines = []
                    try:
                        await writer.drain()
                        while True:
                            line = await asyncio.wait_for(reader.readline(), 10.0)
                            if not line:
                                break
                            lines.append(decode_message(line))
                    except ConnectionError:
                        pass  # a reset is an answer too: the client is not left waiting
                finally:
                    writer.close()
                assert all(msg["type"] == "error" for msg in lines)
                conn = await ServeConnection.open(server.host, server.port)
                try:
                    assert (await conn.submit(_req("after")))["type"] == "accepted"
                    assert (await conn.result("after"))["status"] == "ok"
                finally:
                    await conn.close()
                ack = await _graceful_stop(server)
                assert ack["leaked_blocks"] == 0
            finally:
                await server.stop()  # a failed check must not leave a replica running

        for front_end in FRONT_ENDS:
            asyncio.run(run(front_end))

    def test_non_finite_request_tensors_are_rejected(self):
        request = _req("nan")
        with pytest.raises(ValueError, match="finite"):
            EngineRequest(request.request_id, request.k, request.v * np.inf)

    def test_submit_while_draining_is_rejected(self):
        async def run(front_end):
            server = await _start(front_end=front_end, max_active=1)
            try:
                conn = await ServeConnection.open(server.host, server.port)
                try:
                    assert (await conn.submit(_req("inflight", steps=30), arrival="now"))[
                        "type"
                    ] == "accepted"
                    shutdown_conn = await ServeConnection.open(server.host, server.port)
                    ack_task = asyncio.create_task(shutdown_conn.shutdown())
                    await _wait_for(lambda: server._draining, what="drain to begin")
                    reply = await conn.submit(_req("late"))
                    assert reply["type"] == "rejected"
                    assert reply["error"] == "shutting-down"
                    done = await conn.result("inflight")
                    assert done["status"] == "ok"  # in-flight work still drains
                    ack = await ack_task
                    assert ack["leaked_blocks"] == 0
                    await shutdown_conn.close()
                finally:
                    await conn.close()
            finally:
                await server.stop()  # a failed check must not leave a replica running

        for front_end in FRONT_ENDS:
            asyncio.run(run(front_end))

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_a_rejected_id_may_be_submitted_again(self, front_end):
        """A rejection leaves the id free: resubmitted with a prompt that
        fits, it is accepted and served, on the cluster as on one engine
        (where the rejection comes from the replica behind the router)."""

        async def run():
            server = await _start(front_end=front_end, token_budget=64)
            try:
                conn = await ServeConnection.open(server.host, server.port)
                try:
                    reply = await conn.submit(_req("again", context=200, steps=8))
                    assert (reply["type"], reply["error"]) == ("rejected", "too-large")
                    if front_end == "cluster":  # its keys left the affinity index
                        assert server.router.indexed_keys("r0") == 0
                    assert (await conn.submit(_req("again")))["type"] == "accepted"
                    assert (await conn.result("again"))["status"] == "ok"
                    reply = await conn.submit(_req("again"))
                    assert (reply["type"], reply["error"]) == ("rejected", "duplicate")
                finally:
                    await conn.close()
                ack = await _graceful_stop(server)
                assert ack["served"] == 1
                assert ack["leaked_blocks"] == 0
            finally:
                await server.stop()  # a failed check must not leave a replica running

        asyncio.run(run())


class TestDoneDispatch:
    def test_each_done_is_sent_exactly_once(self):
        """Every request's ``done`` reaches its client once, up to the
        connection's EOF at shutdown."""

        async def run():
            server = await _start(max_active=2)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            rids = [f"r{i}" for i in range(6)]
            for i, rid in enumerate(rids):
                writer.write(encode_message({"type": "submit", "arrival": "now",
                                             "request": encode_request(_req(rid, seed=i))}))
            await writer.drain()
            dones = []
            while len(dones) < len(rids):
                msg = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                if msg["type"] == "done":
                    dones.append(msg["request_id"])
            ack = await _graceful_stop(server)
            while line := await asyncio.wait_for(reader.readline(), 10.0):  # until EOF
                msg = decode_message(line)
                if msg["type"] == "done":
                    dones.append(msg["request_id"])
            writer.close()
            return dones, ack

        dones, ack = asyncio.run(run())
        assert sorted(dones) == [f"r{i}" for i in range(6)]
        assert ack["leaked_blocks"] == 0

    def test_a_round_visits_only_newly_finished_results(self):
        """``_dispatch_done`` reads the results that finished since the
        last round, however many finished before."""

        class CountingResults(dict):
            visited = 0

            def __iter__(self):
                for key in super().__iter__():
                    CountingResults.visited += 1
                    yield key

            def __reversed__(self):
                for key in super().__reversed__():
                    CountingResults.visited += 1
                    yield key

            def items(self):
                return ((key, self[key]) for key in self)

            def values(self):
                return (self[key] for key in self)

        settings = dict(max_active=2, token_budget=512, block_size=8)
        result = PadeEngine().serve([_req("r")], **settings)["r"]
        server = AsyncPadeServer(PadeEngine(), **settings)
        conn = _Connection(writer=None)
        server.results = CountingResults((f"old{i}", result) for i in range(500))
        server._in_flight.update(dict.fromkeys(server.results, conn))
        server._dispatch_done()
        assert server.in_flight == 0 and server._finished == set(server.results)
        assert len(conn.outbox) == 500
        server.results["new"] = result
        server._in_flight["new"] = conn
        CountingResults.visited = 0
        server._dispatch_done()
        assert server.in_flight == 0 and "new" in server._finished
        assert decode_message(conn.outbox[-1])["request_id"] == "new"
        assert CountingResults.visited <= 2


class TestInFlightLedger:
    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_a_closed_client_is_released_once_its_requests_finish(self, front_end):
        """Nothing of a client outlives its last request: after five
        clients have each run two requests and closed, none of their
        server-side writers is still alive."""

        async def run():
            server = await _start(front_end=front_end)
            try:
                writers = []
                for c in range(5):
                    conn = await ServeConnection.open(server.host, server.port)
                    try:
                        rids = [f"c{c}-{i}" for i in range(2)]
                        for rid in rids:
                            assert (await conn.submit(_req(rid)))["type"] == "accepted"
                        (client,) = server._connections
                        writers.append(weakref.ref(client.writer))
                        del client
                        for rid in rids:
                            assert (await conn.result(rid))["status"] == "ok"
                    finally:
                        await conn.close()
                    await _wait_for(lambda: not server._connections, what="the close")

                def released():
                    gc.collect()
                    return all(ref() is None for ref in writers)

                await _wait_for(released, timeout=3.0, what="the closed writers to be freed")
                assert server.in_flight == 0
            finally:
                await server.stop()

        asyncio.run(run())


class TestGracefulShutdown:
    def test_closed_loop_clean_drain(self):
        workload = build_serving_workload(6, 2, 16, 3, 8, rate=0.5, seed=9)
        dones, ack, server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=False, concurrency=3,
            max_active=2, token_budget=512, block_size=8,
        )
        assert ack["served"] == len(workload)
        assert ack["leaked_blocks"] == 0
        assert all(d["status"] == "ok" for d in dones.values())
        assert all(len(d["tokens"]) == d["decode_tokens"] for d in dones.values())
        assert server.closed.is_set()
        report = ack["report"]
        for series in ("wall_ttft_ms", "wall_queueing_ms"):
            assert report[f"n_{series}"] == float(len(workload))
            assert report[f"p99_{series}"] >= report[f"p50_{series}"] >= 0.0

    def test_queue_limit_validation(self):
        with pytest.raises(ValueError, match="queue_limit"):
            AsyncPadeServer(PadeEngine(), queue_limit=0)

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_a_cancel_after_shutdown_is_read_during_the_drain(self, front_end):
        """The drain does not hold the connection's reader: a ``cancel``
        sent after ``shutdown`` on the same connection aborts the request
        mid-stream, and the ``shutdown_ack`` follows its ``done``."""

        async def run():
            server = await _start(front_end=front_end, max_active=1)
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(_submit_frame(_req("long", steps=400), arrival="now"))
                await writer.drain()
                while decode_message(await asyncio.wait_for(reader.readline(), 10.0))[
                    "type"
                ] != "token":
                    pass
                writer.write(encode_message({"type": "shutdown"}))
                writer.write(encode_message({"type": "cancel", "request_id": "long"}))
                await writer.drain()
                replies = []
                while not replies or replies[-1]["type"] != "shutdown_ack":
                    msg = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                    if msg["type"] != "token":
                        replies.append(msg)
                writer.close()
            finally:
                await server.stop()  # a failed check must not leave a replica running
            return replies

        done, ack = asyncio.run(run())
        assert (done["type"], done["status"], done["abort_reason"]) == (
            "done", "aborted", "cancelled"
        )
        assert done["decode_tokens"] < 400
        assert ack["leaked_blocks"] == 0


class TestBinaryFrames:
    def test_every_tensor_field_crosses_the_socket_bit_exactly(self, monkeypatch):
        """Each ``EngineRequest`` tensor (prompt, decode streams, parallel
        samples; absent ones as ``None``) and the speculative fields reach
        the server bit for bit, as owned, writable float64 arrays."""
        import repro.serve.server as server_mod

        rng = np.random.default_rng(0)
        base = _req("samples", steps=3)
        heads, steps, dim = base.decode_q.shape
        k = base.k.copy()
        k[0, 0, :3] = (-0.0, 5e-324, np.finfo(np.float64).max)
        samples = replace(
            base,
            k=k,
            sample_decode_q=rng.standard_normal((2, heads, steps, dim)),
            sample_decode_k=rng.standard_normal((2, heads, steps, dim)),
            sample_decode_v=rng.standard_normal((2, heads, steps, base.decode_v.shape[2])),
        )
        spec = replace(_req("spec", seed=1), speculative=True, draft_tokens=3)
        bare = replace(_req("bare"), q_prompt=None, decode_q=None, decode_k=None, decode_v=None)
        sent_requests = (samples, spec, bare)
        received = {}

        def capturing_decode(obj, *args, **kwargs):
            request = decode_request(obj, *args, **kwargs)
            received[request.request_id] = request
            return request

        monkeypatch.setattr(server_mod, "decode_request", capturing_decode)

        async def run():
            server = await _start()
            conn = await ServeConnection.open(server.host, server.port)
            try:
                for request in sent_requests:
                    await conn.submit(request)
            finally:
                await conn.close()
            await _graceful_stop(server)

        asyncio.run(run())
        for sent in sent_requests:
            got = received[sent.request_id]
            assert (got.speculative, got.draft_tokens) == (sent.speculative, sent.draft_tokens)
            for name in _TENSOR_FIELDS:
                want, have = getattr(sent, name), getattr(got, name)
                if want is None:
                    assert have is None, name
                    continue
                assert have.dtype == np.float64 and have.shape == want.shape, name
                assert have.tobytes() == want.tobytes(), name
                assert have.flags.writeable and have.flags.c_contiguous, name
                assert have.flags.owndata, name


class TestClientRouter:
    def test_a_closed_server_fails_every_pending_future(self):
        """When the server closes the socket, ``shutdown()`` fails with
        ``ConnectionError`` instead of waiting forever, and a pending
        future no caller awaits is not logged as never retrieved."""

        async def run():
            unretrieved = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, ctx: unretrieved.append(ctx["message"])
            )

            async def read_one_line_and_close(reader, writer):
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(read_one_line_and_close, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                conn = await ServeConnection.open("127.0.0.1", port)
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(conn.shutdown(), 2.0)
                await conn.close()
                # The submit's done future is failed with nobody awaiting it.
                conn = await ServeConnection.open("127.0.0.1", port)
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(conn.submit(_req("r0")), 2.0)
                await conn.close()
            finally:
                server.close()
                await server.wait_closed()
            del conn
            gc.collect()
            await asyncio.sleep(0)
            return unretrieved

        assert [m for m in asyncio.run(run()) if "never retrieved" in m] == []


class TestMallocThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc tuning")
    def test_a_started_server_keeps_round_sized_arrays_on_a_warm_heap(self):
        """Once a server has started, a 1.5 MiB array freed and allocated
        again is served from the heap: glibc's adaptive mmap threshold,
        raised only by the last 1 MiB free, would otherwise map and
        page-fault it afresh."""

        def cycle():
            block = np.ones(3 << 16)  # 1.5 MiB, every page touched
            del block

        def minor_faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        async def run():
            server = await _start()
            try:
                block = np.ones(1 << 17)  # 1 MiB
                del block
                cycle()  # warm-up
                before = minor_faults()
                for _ in range(20):
                    cycle()
                return minor_faults() - before
            finally:
                await server.stop()

        assert asyncio.run(run()) < 50


class TestTracing:
    def test_the_benchmark_tracer_sees_every_protocol_call(self):
        """``servebench/tracing.py`` wraps the protocol functions as globals
        of ``repro.serve.server`` and ``AsyncPadeServer.report``.  A front-end
        that called them another way would lose its ``serve.protocol`` spans
        without an error.  ``install()`` patches classes for good, so the
        traced serve runs in a subprocess."""
        root = Path(__file__).resolve().parent.parent
        script = """
import json
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from repro.engine import PadeEngine
from repro.eval.workloads import build_engine_request
from repro.serve.client import serve_workload_over_loopback
requests = [build_engine_request(f"r{i}", 2, 16, 2, head_dim=8, seed=i) for i in range(2)]
serve_workload_over_loopback(PadeEngine(), requests, token_budget=512, block_size=8)
print(json.dumps(sorted({tracer.names[i] for i in tracer.name_of})))
"""
        path = os.pathsep.join([str(root / "servebench"), str(root / "src")])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        recorded = set(json.loads(out.stdout.splitlines()[-1]))
        protocol = {
            f"protocol.{fn}" for fn in (
                "decode_message", "decode_request", "encode_message",
                "encode_array", "array_digest", "result_digests",
            )
        }
        assert protocol | {"server.report"} <= recorded
