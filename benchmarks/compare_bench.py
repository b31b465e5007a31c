"""Bench-regression gate: diff fresh ``--quick --json-out`` results
against the committed ``BENCH_*.json`` snapshots.

Each benchmark has one *headline* metric (registry below, a dot-path
into its JSON dict; on a list, a numeric segment indexes it and a
``key=value`` segment picks the entry whose ``key`` equals ``value``, so
a ``--quick`` sweep with fewer entries resolves to the same point).  The gate fails
when a fresh headline is worse than the committed baseline by more than
``--tolerance`` (default 25%) in the metric's bad direction — slower
throughput/speedup for higher-is-better metrics, larger latency for
lower-is-better ones.

The gate also fails when a fresh result's keys differ from its
snapshot's: every dict key path, from the top level down through the
nested serving reports, must be in both.  Lists are not entered, since
a ``--quick`` sweep may have fewer entries than a committed full one.
A snapshot that drifted from what its bench emits would otherwise hide
every column but the headline from review; regenerate it with
``--quick --json-out``.

A *missing baseline* is skipped with a note (a brand-new benchmark has
nothing to regress against — commit its snapshot in the same PR).  A
missing *fresh* result for a bench that has a baseline is a hard
failure: the perf-smoke step silently dropping a benchmark must not
read as green.

    python benchmarks/compare_bench.py --baseline-dir . --fresh-dir fresh/
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional, Set

__all__ = ["REGISTRY", "extract", "compare_headline", "key_paths", "key_drift", "main"]

#: bench snapshot -> (dot-path to the headline metric, direction).
#: Direction is "higher" (bigger is better) or "lower".
REGISTRY = {
    "BENCH_engine.json": ("speedup_fast", "higher"),
    "BENCH_serving.json": ("comparison.continuous.throughput_tokens_per_round", "higher"),
    "BENCH_prefix.json": ("prefix.block_savings", "higher"),
    "BENCH_policies.json": ("sweep.pade.throughput_tokens_per_round", "higher"),
    "BENCH_slo.json": ("priority_vs_fcfs.premium_p99_ttft_improvement", "higher"),
    "BENCH_batch_decode.json": ("backends.fast.active=16.speedup", "higher"),
    "BENCH_async_serve.json": ("parity.round_report.throughput_tokens_per_round", "higher"),
    "BENCH_cluster.json": ("scaling.throughput_ratio", "higher"),
    "BENCH_tiering.json": ("overload.p99_ttft_improvement", "higher"),
    "BENCH_spec.json": ("speculative.accepted_tokens_per_round", "higher"),
}


def extract(data, path: str) -> float:
    """Walk a dot-path; on lists, ``N`` indexes and ``key=value`` selects."""
    node = data
    for segment in path.split("."):
        if isinstance(node, list) and "=" in segment:
            key, _, want = segment.partition("=")
            picked = [item for item in node if str(item.get(key)) == want]
            if not picked:
                raise KeyError(f"no list entry with {segment!r}")
            node = picked[0]
        elif isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            node = node[segment]
        else:
            raise KeyError(f"cannot descend into {type(node).__name__} at {segment!r}")
    return float(node)


def compare_headline(baseline: float, fresh: float, direction: str,
                     tolerance: float = 0.25):
    """Return ``None`` if within tolerance, else a description string."""
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
    if baseline == 0:
        return None  # a zero baseline carries no regression signal
    if direction == "higher":
        floor = baseline * (1.0 - tolerance)
        if fresh < floor:
            return (f"regressed: {fresh:.4g} < {floor:.4g} "
                    f"(baseline {baseline:.4g} - {tolerance:.0%})")
    else:
        ceiling = baseline * (1.0 + tolerance)
        if fresh > ceiling:
            return (f"regressed: {fresh:.4g} > {ceiling:.4g} "
                    f"(baseline {baseline:.4g} + {tolerance:.0%})")
    return None


def key_paths(data, prefix: str = "") -> Set[str]:
    """Dot-path of every dict key under ``data``; lists are leaves."""
    paths = set()
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}{key}"
            paths.add(path)
            paths |= key_paths(value, path + ".")
    return paths


def key_drift(baseline, fresh, shown: int = 5) -> Optional[str]:
    """Return ``None`` if both results have the same key paths, else the
    difference (the first ``shown`` paths of each side)."""
    base, new = key_paths(baseline), key_paths(fresh)
    parts = []
    for label, diff in (("missing from fresh", base - new), ("not in snapshot", new - base)):
        if diff:
            listed = ", ".join(sorted(diff)[:shown])
            more = f" and {len(diff) - shown} more" if len(diff) > shown else ""
            parts.append(f"{label}: {listed}{more}")
    return "; ".join(parts) or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with the committed BENCH_*.json snapshots")
    parser.add_argument("--fresh-dir", default="fresh",
                        help="directory with the freshly measured BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression of each headline")
    args = parser.parse_args(argv)

    failures = []
    for name, (path, direction) in sorted(REGISTRY.items()):
        base_file = os.path.join(args.baseline_dir, name)
        fresh_file = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_file):
            print(f"SKIP  {name}: no committed baseline (new benchmark)")
            continue
        if not os.path.exists(fresh_file):
            failures.append(f"{name}: baseline exists but no fresh result")
            print(f"FAIL  {name}: no fresh result at {fresh_file}")
            continue
        with open(base_file) as fh:
            base_data = json.load(fh)
        with open(fresh_file) as fh:
            fresh_data = json.load(fh)
        drift = key_drift(base_data, fresh_data)
        if drift is not None:
            failures.append(f"{name}: keys differ from the snapshot ({drift})")
            print(f"FAIL  {name}: keys differ from the snapshot ({drift})")
        baseline, fresh = extract(base_data, path), extract(fresh_data, path)
        verdict = compare_headline(baseline, fresh, direction, args.tolerance)
        arrow = "<" if direction == "lower" else ">"
        if verdict is None:
            print(f"OK    {name}: {path} = {fresh:.4g} "
                  f"(baseline {baseline:.4g}, want {arrow}= -{args.tolerance:.0%})")
        else:
            failures.append(f"{name}: {path} {verdict}")
            print(f"FAIL  {name}: {path} {verdict}")

    if failures:
        print(f"\n{len(failures)} failure(s): headline regressions beyond "
              f"{args.tolerance:.0%}, key drift or missing results:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall headline metrics within tolerance of committed baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
