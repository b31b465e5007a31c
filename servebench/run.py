"""Socket-level serving benchmark of the PADE serving stack.

Runs the repository's ``AsyncPadeServer`` in its own process (see
``launcher.py``) and drives it over loopback NDJSON from this process,
one connection, timing every token at the client.  Three workloads
(``README.md`` says why each exists):

* ``decode_long``  -- kernel-bound offline batch, barrier replay.
* ``chat_stream``  -- open-loop Poisson traffic of short requests.
* ``prefix_spill`` -- shared prefixes, chunked prefill, tiered spill.

Every request's ``done`` digests and every streamed token digest are
checked against an untimed in-process ``PadeEngine.serve`` of the same
requests and settings; a mismatch, rejection, abort, connection error
or leaked pool block fails the run (exit code 1).

    python3 servebench/run.py --workload decode_long --seed 1 --seconds 40 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` launches the
server once untraced and once with spans around every layer boundary
and reports the per-layer breakdown.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import client
from tracing import layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".servebench_cache"

#: Set-up-only server launches before the first replay; one more
#: precedes every replay, so the samples spread over the whole run.
SETUP_LAUNCHES = 2
#: Upper bound on one replay; keeps a wedged server from hanging the run.
REPLAY_TIMEOUT_S = 90.0
#: trace.coverage below this is flagged: too much server time unattributed.
COVERAGE_FLOOR = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]  # seed -> the EngineRequests of one replay
    server: dict  # scheduler settings, shared by server and reference
    ttft_limit_ms: float  # SLO limits, fixed once from measurement
    gap_limit_ms: float
    rate: float = 0.0  # open-loop requests/s; 0 = barrier replay


def _decode_long(seed: int) -> list:
    from repro.eval.workloads import build_serving_workload

    return build_serving_workload(
        32, 4, 512, 64, 32, arrival_times=[0.0] * 32, context_spread=0.25, seed=seed
    )


CHAT_RATE = 12.5  # requests/s
CHAT_REPLAY_S = 8.0  # one open-loop replay; a run repeats it


def _chat_stream(seed: int) -> list:
    from repro.eval.workloads import build_serving_workload

    n = round(CHAT_RATE * CHAT_REPLAY_S)
    return build_serving_workload(
        n, 4, 96, 16, 32, arrival_times=[0.0] * n, context_spread=0.0, seed=seed
    )


def _prefix_spill(seed: int) -> list:
    from repro.eval.workloads import build_prefix_workload

    return build_prefix_workload(64, 4, 256, 64, 24, 32, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "decode_long",
            _decode_long,
            dict(max_active=16, token_budget=16384, block_size=16, policy="fcfs"),
            ttft_limit_ms=10000.0,
            gap_limit_ms=200.0,
        ),
        Workload(
            "chat_stream",
            _chat_stream,
            dict(max_active=8, token_budget=4096, block_size=16, policy="fcfs"),
            ttft_limit_ms=50.0,
            gap_limit_ms=20.0,
            rate=CHAT_RATE,
        ),
        Workload(
            "prefix_spill",
            _prefix_spill,
            dict(
                max_active=12, token_budget=1024, block_size=16, policy="fcfs",
                prefix_sharing=True, round_token_budget=256, chunk_tokens=64,
                tiering=dict(min_resident_planes=4, restore_blocks_per_round=4),
            ),
            ttft_limit_ms=8000.0,
            gap_limit_ms=100.0,
        ),
    )
}


# ---------------------------------------------------------------------------
# Reference outputs (untimed, in-process)
# ---------------------------------------------------------------------------

def _source_hash() -> str:
    """Digest of the program and benchmark sources: keys the reference cache."""
    h = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference(wl: Workload, seed: int, requests: list) -> Dict[str, dict]:
    """Digests of an in-process ``PadeEngine.serve`` of ``requests``,
    cached per workload, seed and source version."""
    path = CACHE_DIR / f"{wl.name}-{seed}-{len(requests)}-{_source_hash()}.json"
    if path.is_file():
        return json.loads(path.read_text())
    from repro.core.config import PadeConfig
    from repro.engine import PadeEngine
    from repro.engine.cache import TierConfig
    from repro.serve.protocol import array_digest, result_digests

    settings = dict(wl.server)
    tiering = settings.pop("tiering", None)
    engine = PadeEngine(PadeConfig.standard(), policy="pade")
    results = engine.serve(
        requests, tiering=TierConfig(**tiering) if tiering else None, **settings
    )
    ref = {
        rid: dict(
            result_digests(res),
            tokens=[
                array_digest(res.decode_outputs[:, t, :])
                for t in range(res.decode_outputs.shape[1])
            ],
        )
        for rid, res in results.items()
    }
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


# ---------------------------------------------------------------------------
# Server processes
# ---------------------------------------------------------------------------

class ServerProcess:
    """One launcher process; always killed and reaped on exit."""

    def __init__(self, config: dict, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        argv = [sys.executable, str(HERE / "launcher.py"), "--config", json.dumps(config)]
        if trace:
            argv.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=str(ROOT), env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - t0
            if not line.startswith(b"ready "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise

    def finish(self) -> dict:
        """Wait for the process to exit; returns its final JSON line."""
        out, _ = self.proc.communicate(timeout=60.0)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# One replay: launch, drive, check
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    setup_s: float
    server: dict  # launcher's final line
    attempted: int
    failed: int
    slo_met: int
    decode_tok_s: float
    ttft_ms: List[float]
    tpot_ms: List[float]  # per request: mean gap between its tokens
    late_ms: List[float]
    problems: List[str]


def _server_config(wl: Workload, n: int) -> dict:
    return dict(
        wl.server,
        start_barrier=0 if wl.rate else n,
        queue_limit=max(64, n),
    )


def run_replay(wl: Workload, plan: dict, ref: Dict[str, dict], trace: bool) -> ReplayResult:
    ids, lines, offsets = plan["ids"], plan["lines"], plan["offsets"]
    with ServerProcess(_server_config(wl, len(ids)), trace) as server:
        rep = client.replay(server.port, lines, ids, offsets, REPLAY_TIMEOUT_S)
        final = server.finish() if rep.error is None else {}
    problems = [rep.error] if rep.error else []
    if rep.ack is not None and rep.ack.get("leaked_blocks") != 0:
        problems.append(f"leaked_blocks = {rep.ack.get('leaked_blocks')}")
    failed = slo_met = tokens = 0
    ttft, tpot, late = [], [], []
    ends = []
    for rid in ids:
        rec, want = rep.requests[rid], ref[rid]
        done = rec.final or {}
        steps = [s for s, _ in rec.token_digests]
        ok = (
            done.get("type") == "done"
            and done.get("status") == "ok"
            and done.get("output_digest") == want["output_digest"]
            and done.get("retained_digest") == want["retained_digest"]
            and steps == list(range(len(want["tokens"])))
            and [d for _, d in rec.token_digests] == want["tokens"]
        )
        late.append((rec.sent - rec.due) * 1e3)
        if not ok:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{rid}: {done.get('type')}/{done.get('status')} mismatch")
            continue
        ends.append(rec.end)
        tokens += len(rec.token_times)
        first = (rec.token_times[0] - rec.due) * 1e3
        req_gaps = [(b - a) * 1e3 for a, b in zip(rec.token_times, rec.token_times[1:])]
        ttft.append(first)
        if req_gaps:
            tpot.append(sum(req_gaps) / len(req_gaps))
        if first <= wl.ttft_limit_ms and max(req_gaps, default=0.0) <= wl.gap_limit_ms:
            slo_met += 1
    first_submit = min(rec.sent for rec in rep.requests.values())
    span = (max(ends) - first_submit) if ends else 0.0
    return ReplayResult(
        setup_s=server.setup_s,
        server=final,
        attempted=len(ids),
        failed=failed,
        slo_met=slo_met,
        decode_tok_s=tokens / span if span > 0 else 0.0,
        ttft_ms=ttft,
        tpot_ms=tpot,
        late_ms=late,
        problems=problems,
    )


def setup_only(wl: Workload) -> float:
    """Launch a server, shut it down at once; returns its set-up time."""
    with ServerProcess(_server_config(wl, 0), trace=False) as server:
        rep = client.replay(server.port, [], [], [], REPLAY_TIMEOUT_S)
        if rep.error is not None:
            raise RuntimeError(f"set-up-only launch failed: {rep.error}")
        server.finish()
    return server.setup_s


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _pct(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(setups: List[float], replays: List[ReplayResult]) -> tuple:
    """``(metrics, sample counts)`` over every replay of a trace-0 run.

    Percentiles are taken per replay and the median over replays is
    reported: a pooled tail would pick out the slowest replay.
    """
    attempted = sum(r.attempted for r in replays)
    failed = sum(r.failed for r in replays)

    def median_pct(field: str, q: float) -> float:
        return statistics.median(_pct(getattr(r, field), q) for r in replays)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "decode_tok_s": (statistics.median(r.decode_tok_s for r in replays), "tokens/s"),
        "tpot_p50_ms": (median_pct("tpot_ms", 50), "ms"),
        "tpot_p90_ms": (median_pct("tpot_ms", 90), "ms"),
        "ttft_p50_ms": (median_pct("ttft_ms", 50), "ms"),
        "ttft_p90_ms": (median_pct("ttft_ms", 90), "ms"),
        "slo_attain": (sum(r.slo_met for r in replays) / attempted, "share"),
        "success_rate": ((attempted - failed) / attempted, "share"),
        "server_peak_rss_mb": (
            statistics.median(r.server.get("peak_rss_mb", 0.0) for r in replays), "MB"
        ),
    }
    per_replay = f"{len(replays)} replays x {replays[0].attempted} requests"
    counts = {
        "setup_s": f"{len(setups)} launches",
        "decode_tok_s": f"{len(replays)} replays",
        "tpot_p50_ms": per_replay,
        "tpot_p90_ms": per_replay,
        "ttft_p50_ms": per_replay,
        "ttft_p90_ms": per_replay,
        "slo_attain": f"{attempted} requests",
        "success_rate": f"{attempted} requests",
        "server_peak_rss_mb": f"{len(replays)} replays",
    }
    return metrics, counts


def per_layer(plain: ReplayResult, traced: ReplayResult) -> tuple:
    """``(metrics, sample counts, self time per layer)`` from an untraced
    and a traced replay."""
    server = traced.server
    layers, span_counts = layer_times(server["spans"])
    c = server["counters"]
    cpu = server["cpu_s"]
    kernel = layers["kernel.filter"]
    covered = sum(row["self"] for row in layers.values())
    metrics = {
        "kernel.filter.busy_s": (kernel["busy"], "s"),
        "kernel.filter.calls": (kernel["calls"], "count"),
        "kernel.filter.ms_per_call": (1e3 * kernel["busy"] / max(1.0, kernel["calls"]), "ms"),
        "kernel.filter.fused_share": (
            span_counts["kernel.filter_heads_batch"] / max(1.0, kernel["calls"]), "share"
        ),
        "kernel.bit_ops_ratio": (c["bit_ops_ratio"], "ratio"),
        "kernel.sparsity": (c["sparsity"], "share"),
        "kernel.lattice_fill": (c["lattice_fill"], "share"),
        "cache.planes.busy_s": (layers["cache.planes"]["busy"], "s"),
        "cache.planes.calls": (layers["cache.planes"]["calls"], "count"),
        "cache.append.busy_s": (layers["cache.append"]["busy"], "s"),
        "cache.prefill.busy_s": (layers["cache.prefill"]["busy"], "s"),
        "cache.tier.busy_s": (layers["cache.tier"]["busy"], "s"),
        "cache.spills": (c["spills"], "count"),
        "cache.restores": (c["restores"], "count"),
        "cache.preemptions": (c["preemptions"], "count"),
        "cache.prefix_hit_rate": (c["prefix_hit_rate"], "share"),
        "cache.occupancy_mean": (c["occupancy_mean"], "share"),
        "engine.attend.self_s": (layers["engine.attend"]["self"], "s"),
        "engine.append.self_s": (layers["engine.append"]["self"], "s"),
        "engine.prefill.self_s": (layers["engine.prefill"]["self"], "s"),
        "engine.rows_reused_share": (c["rows_reused_share"], "share"),
        "scheduler.step.self_s": (layers["scheduler.step"]["self"], "s"),
        "scheduler.rounds": (c["rounds"], "count"),
        "scheduler.batch_mean": (c["batch_mean"], "count"),
        "scheduler.queue_rounds_mean": (c["queue_rounds_mean"], "rounds"),
        "serve.protocol.busy_s": (layers["serve.protocol"]["busy"], "s"),
        "serve.report.busy_s": (layers["serve.report"]["busy"], "s"),
        "serve.socket.busy_s": (layers["serve.socket"]["busy"], "s"),
        "serve.cpu_s": (cpu, "s"),
        "serve.idle_s": (server["wall_s"] - cpu, "s"),
        "client.late_p90_ms": (_pct(traced.late_ms, 90), "ms"),
        "trace.coverage": (covered / cpu if cpu > 0 else 0.0, "share"),
        "trace.overhead": (
            plain.decode_tok_s / traced.decode_tok_s - 1.0 if traced.decode_tok_s else 0.0,
            "share",
        ),
        "trace.overhead_est": (
            len(server["spans"]["name"]) * server["span_cost_s"] / cpu if cpu > 0 else 0.0,
            "share",
        ),
    }
    counts = {"client.late_p90_ms": f"{len(traced.late_ms)} requests"}
    return metrics, counts, {name: row["self"] for name, row in layers.items()}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _plan(wl: Workload, seed: int) -> tuple:
    import numpy as np
    from repro.serve.protocol import encode_message, encode_request

    requests = wl.build(seed)
    if wl.rate:
        # A Poisson process conditioned on its count: n uniform arrival
        # times over the window, so every seed offers the same load.
        rng = np.random.default_rng(seed)
        offsets = np.sort(rng.uniform(0.0, len(requests) / wl.rate, len(requests))).tolist()
    else:
        offsets = [0.0] * len(requests)
    extra = {"arrival": "now"} if wl.rate else {}
    plan = {
        "ids": [r.request_id for r in requests],
        "lines": [
            encode_message({"type": "submit", "request": encode_request(r), **extra})
            for r in requests
        ],
        "offsets": offsets,
    }
    return requests, plan


def environment(backend: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
    }


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    requests, plan = _plan(wl, seed)
    ref = reference(wl, seed, requests)
    del requests
    setups = [setup_only(wl) for _ in range(SETUP_LAUNCHES)]
    replays: List[ReplayResult] = []
    if trace:
        replays.append(run_replay(wl, plan, ref, trace=False))
        replays.append(run_replay(wl, plan, ref, trace=True))
    else:
        # Replay until the window is used up.  Short slow spells of a
        # shared host then hit one replay, and the medians below drop it.
        t_begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setups.append(setup_only(wl))
            replays.append(run_replay(wl, plan, ref, trace=False))
            now = time.perf_counter()
            if now - t_begin + (now - t0) > seconds:
                break
    setups += [r.setup_s for r in replays]
    problems = [p for r in replays for p in r.problems]
    attempted = sum(r.attempted for r in replays)
    failed = sum(r.failed for r in replays)
    if trace:
        metrics, counts, self_s = per_layer(replays[0], replays[-1])
    else:
        metrics, counts = end_to_end(setups, replays)
        self_s = {}
    backend = next((r.server["backend"] for r in replays if r.server), "unknown")
    return {
        "workload": wl.name,
        "env": environment(backend, seed),
        "replays": len(replays),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": counts,
        "self_s": self_s,
    }


def _print_report(res: dict) -> None:
    print(f"== {res['workload']}: {res['replays']} replays, env {json.dumps(res['env'])}")
    for name, (value, unit) in res["metrics"].items():
        n = res["counts"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:28s} {value:14.6g} {unit}{suffix}")
    if res["self_s"]:
        ranked = sorted(res["self_s"].items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + ", ".join(f"{k} {v:.3f}s" for k, v in ranked))
    cov = res["metrics"].get("trace.coverage")
    if cov is not None and cov[0] < COVERAGE_FLOOR:
        print(f"  WARNING: trace.coverage {cov[0]:.3f} < {COVERAGE_FLOOR}: server time unattributed")
    for problem in res["problems"]:
        print(f"  FAIL: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its server processes are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the serving stack is not at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _print_report(res)
        results.append(res)
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if len(results) == 1 else f"{r['workload']}.{name}"): {
                "value": value, "unit": unit
            }
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
