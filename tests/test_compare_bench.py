"""Unit tests for the CI bench-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", _BENCH_DIR / "compare_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cb = _load()


def _write(directory, name, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# extract: dot-paths with list indices
# ----------------------------------------------------------------------


def test_extract_plain_and_nested():
    data = {"a": {"b": {"c": 3.5}}, "top": 1}
    assert cb.extract(data, "top") == 1.0
    assert cb.extract(data, "a.b.c") == 3.5


def test_extract_list_index():
    data = {"backends": {"fast": [{"speedup": 1.0}, {"speedup": 3.2}]}}
    assert cb.extract(data, "backends.fast.1.speedup") == 3.2


def test_extract_list_selector():
    data = {"backends": {"fast": [{"active": 1, "speedup": 1.0}, {"active": 16, "speedup": 3.2}]}}
    assert cb.extract(data, "backends.fast.active=16.speedup") == 3.2
    with pytest.raises(KeyError):
        cb.extract(data, "backends.fast.active=32.speedup")


def test_extract_missing_key_raises():
    with pytest.raises(KeyError):
        cb.extract({"a": 1}, "b")


def test_registry_paths_resolve_against_committed_snapshots():
    """Every registry entry with a committed baseline must extract cleanly."""
    root = _BENCH_DIR.parent
    checked = 0
    for name, (path, direction) in cb.REGISTRY.items():
        snapshot = root / name
        if not snapshot.exists():
            continue
        value = cb.extract(json.loads(snapshot.read_text()), path)
        assert value == value and direction in ("higher", "lower")  # not NaN
        checked += 1
    assert checked > 0, "no committed BENCH_*.json snapshots found"


# ----------------------------------------------------------------------
# compare_headline: direction + tolerance semantics
# ----------------------------------------------------------------------


def test_compare_higher_within_tolerance_passes():
    assert cb.compare_headline(4.0, 3.1, "higher", tolerance=0.25) is None
    assert cb.compare_headline(4.0, 5.0, "higher", tolerance=0.25) is None


def test_compare_higher_beyond_tolerance_fails():
    verdict = cb.compare_headline(4.0, 2.8, "higher", tolerance=0.25)
    assert verdict is not None and "regressed" in verdict


def test_compare_lower_direction():
    assert cb.compare_headline(10.0, 12.0, "lower", tolerance=0.25) is None
    verdict = cb.compare_headline(10.0, 13.0, "lower", tolerance=0.25)
    assert verdict is not None and "regressed" in verdict


def test_compare_zero_baseline_never_fails():
    assert cb.compare_headline(0.0, -5.0, "higher") is None


def test_compare_bad_direction_raises():
    with pytest.raises(ValueError):
        cb.compare_headline(1.0, 1.0, "sideways")


# ----------------------------------------------------------------------
# main: end-to-end over temp baseline/fresh directories
# ----------------------------------------------------------------------


def test_main_passes_on_identical_results(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write(base, "BENCH_engine.json", {"speedup_fast": 4.0})
    _write(fresh, "BENCH_engine.json", {"speedup_fast": 4.0})
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 0


def test_main_fails_on_30pct_slowdown(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write(base, "BENCH_engine.json", {"speedup_fast": 4.0})
    _write(fresh, "BENCH_engine.json", {"speedup_fast": 4.0 * 0.7})
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 1
    out = capsys.readouterr().out
    assert "BENCH_engine.json" in out and "regressed" in out


def test_main_tolerates_small_jitter(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write(base, "BENCH_engine.json", {"speedup_fast": 4.0})
    _write(fresh, "BENCH_engine.json", {"speedup_fast": 4.0 * 0.8})  # -20% < 25%
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 0


def test_main_skips_missing_baseline(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    _write(fresh, "BENCH_engine.json", {"speedup_fast": 1.0})
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_main_fails_on_missing_fresh(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    fresh.mkdir()
    _write(base, "BENCH_engine.json", {"speedup_fast": 4.0})
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 1
    assert "no fresh result" in capsys.readouterr().out


def test_main_list_index_path(tmp_path):
    """The committed full sweep and a --quick sweep (fewer active sizes)
    compare at the same active size."""
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    full = [{"active": a, "speedup": 1.0} for a in (1, 2, 4, 8, 32)]
    full.insert(4, {"active": 16, "speedup": 3.1})
    _write(base, "BENCH_batch_decode.json", {"backends": {"fast": full}})
    quick = [{"active": a, "speedup": s} for a, s in ((1, 1.0), (8, 3.0), (16, 3.0))]
    _write(fresh, "BENCH_batch_decode.json", {"backends": {"fast": quick}})
    args = ["--baseline-dir", str(base), "--fresh-dir", str(fresh)]
    assert cb.main(args) == 0
    quick[2]["speedup"] = 3.1 * 0.6
    _write(fresh, "BENCH_batch_decode.json", {"backends": {"fast": quick}})
    assert cb.main(args) == 1


def test_main_cluster_headline_regression(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write(base, "BENCH_cluster.json", {"scaling": {"throughput_ratio": 3.5}})
    _write(fresh, "BENCH_cluster.json", {"scaling": {"throughput_ratio": 2.0}})
    assert cb.main(["--baseline-dir", str(base), "--fresh-dir", str(fresh)]) == 1


# ----------------------------------------------------------------------
# key drift: a fresh result must have its snapshot's key paths
# ----------------------------------------------------------------------


def test_key_paths_stop_at_lists():
    data = {"a": {"b": 1, "c": [{"d": 2}]}, "e": 3}
    assert cb.key_paths(data) == {"a", "a.b", "a.c", "e"}


def test_key_drift_names_both_sides():
    base = {"report": {"ttft": 1.0, "tpot": 2.0}, "top": 1}
    assert cb.key_drift(base, base) is None
    drift = cb.key_drift(base, {"report": {"ttft": 1.0, "n_tpot": 3}, "top": 1})
    assert "missing from fresh: report.tpot" in drift
    assert "not in snapshot: report.n_tpot" in drift


def test_main_fails_on_key_drift(tmp_path, capsys):
    """Same headline, but the fresh report grew a column the snapshot lacks."""
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    report = {"throughput_tokens_per_round": 2.0, "ttft_p50": 3.0}
    _write(base, "BENCH_serving.json", {"comparison": {"continuous": report}})
    grown = {**report, "batched_rounds": 7}
    _write(fresh, "BENCH_serving.json", {"comparison": {"continuous": grown}})
    args = ["--baseline-dir", str(base), "--fresh-dir", str(fresh)]
    assert cb.main(args) == 1
    assert "comparison.continuous.batched_rounds" in capsys.readouterr().out
    _write(fresh, "BENCH_serving.json", {"comparison": {"continuous": report}, "extra": 1})
    assert cb.main(args) == 1

