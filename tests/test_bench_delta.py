"""scripts/bench_delta.py: baseline diffing and cpus-mismatch guard."""

from __future__ import annotations

import importlib.util
import json
import os

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "bench_delta.py",
)

spec = importlib.util.spec_from_file_location("bench_delta", _SCRIPT)
bench_delta = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_delta)


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)


def _run(capsys, baseline_dir, current_dir):
    code = bench_delta.main([str(baseline_dir), str(current_dir)])
    assert code == 0
    return capsys.readouterr().out


def test_compares_timing_leaves(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(baseline / "BENCH_x.json", {"wall_seconds": 1.0, "detected": 3})
    _write(current / "BENCH_x.json", {"wall_seconds": 2.0, "detected": 3})
    out = _run(capsys, baseline, current)
    assert "+100.0%" in out
    # Non-timing leaves (detected) are not compared.
    assert "detected" not in out


def test_compares_pruned_fault_counts(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(
        baseline / "BENCH_static.json",
        {"backends": {"serial": {"pruned": 4, "detected": 45}}},
    )
    _write(
        current / "BENCH_static.json",
        {"backends": {"serial": {"pruned": 2, "detected": 45}}},
    )
    out = _run(capsys, baseline, current)
    assert "backends.serial.pruned" in out
    assert "-50.0%" in out


def test_counted_work_compared_across_cpus(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(
        baseline / "BENCH_static.json",
        {
            "cpus": 2,
            "backends": {
                "serial": {"optimized_circuit_patterns": 100},
                "batch": {"optimized_plane_width_rounds": 400},
            },
        },
    )
    _write(
        current / "BENCH_static.json",
        {
            "cpus": 4,
            "backends": {
                "serial": {"optimized_circuit_patterns": 110},
                "batch": {"optimized_plane_width_rounds": 300},
            },
        },
    )
    out = _run(capsys, baseline, current)
    # Work counts do not depend on parallelism: no cpus skip note.
    assert "backends.serial.optimized_circuit_patterns" in out
    assert "+10.0%" in out
    assert "backends.batch.optimized_plane_width_rounds" in out
    assert "-25.0%" in out
    assert "skipped" not in out


def test_shard_scheduler_leaves_compared(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(
        baseline / "BENCH_shard.json",
        {
            "jobs1_overhead": 1.0,
            "runs": {
                "4": {
                    "imbalance_ratio": 2.0,
                    "block_faults": [8, 8],
                    "shard_wall_seconds": [0.5, 0.5],
                    "trace_shipped": True,
                }
            },
        },
    )
    _write(
        current / "BENCH_shard.json",
        {
            "jobs1_overhead": 1.1,
            "runs": {
                "4": {
                    "imbalance_ratio": 1.0,
                    "block_faults": [10, 6],
                    "shard_wall_seconds": [0.4, 0.5],
                    "trace_shipped": True,
                }
            },
        },
    )
    out = _run(capsys, baseline, current)
    assert "jobs1_overhead" in out
    assert "runs.4.imbalance_ratio" in out
    assert "-50.0%" in out  # the imbalance delta
    # Numeric lists flatten to indexed leaves.
    assert "runs.4.block_faults[0]" in out
    assert "runs.4.shard_wall_seconds[1]" in out
    # Booleans are not metrics.
    assert "trace_shipped" not in out


def test_speedup_skipped_when_cpus_differ(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    payload = {
        "cpus": 1,
        "runs": {"2": {"wall_seconds": 3.0, "speedup_vs_jobs1": 0.7}},
    }
    _write(baseline / "BENCH_shard.json", payload)
    _write(
        current / "BENCH_shard.json",
        {
            "cpus": 4,
            "runs": {"2": {"wall_seconds": 1.5, "speedup_vs_jobs1": 1.9}},
        },
    )
    out = _run(capsys, baseline, current)
    # Speedups across different machine shapes are not comparable.
    assert "(skipped: cpus 1 vs 4)" in out
    # Wall clocks still get a (noisy, warn-only) delta.
    assert "-50.0%" in out
    # The speedup row must not show a numeric delta.
    for line in out.splitlines():
        if "speedup_vs_jobs1" in line:
            assert "%" not in line


def test_speedup_compared_when_cpus_match(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(baseline / "BENCH_shard.json", {"cpus": 2, "speedup_vs_jobs1": 1.0})
    _write(current / "BENCH_shard.json", {"cpus": 2, "speedup_vs_jobs1": 1.5})
    out = _run(capsys, baseline, current)
    assert "skipped" not in out
    assert "+50.0%" in out


def test_threshold_leaves_not_compared(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    payload = {
        "min_speedup": 1.3,
        "backends": {"serial": {"speedup": 1.6, "optimized_seconds": 2.0}},
    }
    _write(baseline / "BENCH_collapse.json", payload)
    _write(
        current / "BENCH_collapse.json",
        {
            "min_speedup": 1.3,
            "backends": {
                "serial": {"speedup": 1.8, "optimized_seconds": 1.8}
            },
        },
    )
    out = _run(capsys, baseline, current)
    # Measurements are compared; the configured pass bar is not a
    # measurement and stays out of the table.
    assert "backends.serial.speedup" in out
    assert "min_speedup" not in out


def test_missing_baseline_marks_new(tmp_path, capsys):
    baseline = tmp_path / "base"
    current = tmp_path / "cur"
    baseline.mkdir()
    current.mkdir()
    _write(current / "BENCH_new.json", {"wall_seconds": 1.0})
    out = _run(capsys, baseline, current)
    assert "(new)" in out
