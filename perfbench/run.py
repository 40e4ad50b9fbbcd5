"""The repository's benchmark: RAM64 fault grading and a service mix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(every op, and the span tree of a traced run) is written under
``.bench_out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

SERVICE = "service_ram16_closed1"

#: Bound on one op's child process; a whole run must end within 180 s.
OP_TIMEOUT = 170


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  With 20 samples or fewer that percentile
    would not lie above the median, so the upper median stands in (the
    maximum would make the metric jump when a run completes one job
    fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def spawn_op(workload: str, seed: int, mode: str) -> dict:
    """One grading op in a fresh interpreter; returns its JSON record
    plus ``latency``: spawn until the grade finished, as a CLI caller
    would wait for it, less the op's set-up repetitions."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    # Its own process group, so that on any way out of here the op and
    # the shard pool it may have started are stopped together.
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "grade_op.py"),
         workload, str(seed), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=OP_TIMEOUT)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload} op exited {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC: comparable across processes.
    record["latency"] = record["grade_end"] - start - record["repeats_s"]
    return record


def op_ok(op: dict) -> bool:
    return "reference" not in op or op["reference"]["mismatches"] == 0


def source_key() -> str:
    """Fingerprint of the program and benchmark sources: run records
    with the same key must hold the same simulated results."""
    hasher = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def results(record: dict) -> list[tuple]:
    """``(key, fingerprint)`` of each simulated result in a run record:
    every grading op of a seed has one key, a service job its index."""
    if "ops" in record:
        return [("op", json.dumps([op["counts"], op["digest"]],
                                  sort_keys=True))
                for op in record["ops"]]
    rows = record["jobs"] + record.get("traced_jobs", [])
    return [(row["index"], row["digest"]) for row in rows
            if row["digest"] is not None]


def nondeterministic(record: dict, earlier: list[dict]) -> int:
    """Determinism guard: keys of ``record`` whose result differs within
    it or from an earlier run of the same seed and sources."""
    own = results(record)
    seen: dict = {}
    differ = set()
    for key, fingerprint in own + [r for e in earlier for r in results(e)]:
        if seen.setdefault(key, fingerprint) != fingerprint:
            differ.add(key)
    return len(differ & {key for key, _ in own})


def earlier_records(workload: str, seed: int, source: str) -> list[dict]:
    records = []
    for path in OUT_DIR.glob(f"{workload}-seed{seed}-trace*.json"):
        record = json.loads(path.read_text())
        if record.get("source") == source:
            records.append(record)
    return records


def run_grading(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        base = spawn_op(workload, seed, "timed")
        traced = spawn_op(workload, seed, "traced")
        ops = [base, traced]
        metrics = dict(traced.pop("layers"))
        metrics["trace.overhead_s"] = traced["grade_s"] - base["grade_s"]
    else:
        ops = []
        loop_start = time.perf_counter()
        while True:
            op = spawn_op(workload, seed, "timed")
            ops.append(op)
            elapsed = time.perf_counter() - loop_start
            if elapsed + op["latency"] > seconds:
                break
        latencies = [op["latency"] for op in ops]
        tail_value, percentile = tail(latencies)
        metrics = {
            "setup_s": statistics.median(op["setup_s"] for op in ops),
            "grade_s": statistics.median(op["grade_s"] for op in ops),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_value,
            "jobs_per_s": len(ops) / sum(latencies),
            # A CLI caller's first result is the finished report.
            "first_frame_s": statistics.median(latencies),
            "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
        }
        print(f"# ops {len(ops)}, tail = p{percentile:.0f}")
    failed = sum(1 for op in ops if not op_ok(op))
    for op in ops:
        if "reference" in op:
            ref = op["reference"]
            print(f"# reference {ref['backend']}: {ref['checked']} faults, "
                  f"{ref['mismatches']} mismatches")
    return metrics, len(ops), failed, {"ops": ops}


def run_service(seed: int, seconds: float, trace: bool):
    import service_mix as mix
    from inputs import peak_rss_mb

    setups = []
    harness = None
    try:
        # A traced run reports no set-up time: one start serves it.
        for _ in range(1 if trace else mix.SETUP_REPEATS):
            if harness is not None:
                harness.stop()
                harness = None
            harness, elapsed = mix.start_server()
            setups.append(elapsed)
        records, wall = mix.closed_loop(harness, seed, seconds)
        probe = mix.defect_probe(harness)
    finally:
        if harness is not None:
            harness.stop()
    rss = peak_rss_mb()
    loops = [records]

    if trace:
        import tracing

        tracer = tracing.Tracer()
        harness, _ = mix.start_server()
        try:
            tracing.install(tracer)
            traced, _ = mix.closed_loop(harness, seed, seconds, tracer)
        finally:
            tracer.uninstall()
            harness.stop()
        loops.append(traced)

    failed = sum(mix.check_references(loop) for loop in loops)
    attempted = sum(len(loop) for loop in loops)
    done = [r for r in records if r.error is None]
    if not done:
        raise RuntimeError("no service job completed")
    latencies = [r.latency for r in done]
    tail_value, percentile = tail(latencies)
    print(f"# jobs {len(done)} in {wall:.2f}s, tail = p{percentile:.0f}, "
          f"defect probe failed: {bool(probe)}")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "grade_s": statistics.median(
                r.timings["simulate_seconds"] for r in done),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_value,
            "jobs_per_s": len(done) / wall,
            "first_frame_s": statistics.median(
                r.first_frame - r.submitted for r in done),
            "peak_rss_mb": rss,
        }
        return metrics, attempted, failed, {"jobs": _job_rows(records),
                                            "probe_failed": probe}

    traced_done = [r for r in traced if r.error is None]
    metrics = layers.service_layers(
        tracer, traced_done, baseline_p50=statistics.median(latencies)
    )
    metrics["service.tail_percentile"] = tail(
        [r.latency for r in traced_done])[1]
    metrics["service.defect_probe_failed"] = probe
    return metrics, attempted, failed, {
        "jobs": _job_rows(records), "traced_jobs": _job_rows(traced),
        "probe_failed": probe, "spans": tracer.tree(),
    }


def _job_rows(records) -> list[dict]:
    from inputs import digest

    return [
        {"index": r.index, "backend": r.backend, "geometry": r.geometry,
         "latency": r.latency if r.done else None, "warm": r.warm,
         "timings": r.timings, "error": r.error,
         "digest": None if r.error else digest(r.detections)}
        for r in records
    ]


def run_all(args) -> int:
    """Every workload in turn (each its own process), one table."""
    rows = {}
    for workload in layers.workloads():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in rows.items():
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=layers.workloads() + ["all"])
    parser.add_argument("--seed", type=int, default=1985)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    if args.workload == SERVICE:
        metrics, attempted, failed, record = run_service(
            args.seed, args.seconds, trace)
    else:
        metrics, attempted, failed, record = run_grading(
            args.workload, args.seed, args.seconds, trace)

    units = layers.units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name in units:
        print(f"{name:36s} {metrics[name]:>14.6g} {units[name]}")

    if trace and metrics["trace.coverage"] < layers.COVERAGE_FLOOR:
        print(f"# trace coverage {metrics['trace.coverage']:.3f} is below "
              f"{layers.COVERAGE_FLOOR}")
        failed += 1
    source = source_key()
    differ = nondeterministic(
        record, earlier_records(args.workload, args.seed, source))
    if differ:
        print(f"# determinism guard: {differ} result(s) differ from another "
              "run of this seed")
        failed += differ
    failed = min(failed, attempted)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # Written whole, then renamed: a later run of this seed reads it.
    partial = out.with_suffix(".partial")
    partial.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "source": source,
         "metrics": metrics, **record}, indent=1, default=str))
    partial.replace(out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
