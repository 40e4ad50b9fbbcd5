"""Per-layer metrics: names, units, and how a traced op fills them.

Every workload reports every name; a layer that does not run on a
workload reports 0 (for example ``service.*`` on the grading workloads,
or ``concurrent.run_s`` on W4, whose simulators run in shard processes
that the tracer does not follow).  Time metrics are host wall seconds of
self time (span minus the spans nested in it) for one op: one set-up
plus one grading run, or, on the service workload, per job.  The
``*.section_s.*`` metrics are the per-pattern process-clock seconds the
backend itself reports, summed over each test-sequence section.
"""

from __future__ import annotations

import json
import statistics
import time
from functools import lru_cache
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Least share of the benchmark's own spans that layer spans must
#: account for (``trace.coverage``); below it the traced run fails.
COVERAGE_FLOOR = 0.95


@lru_cache(maxsize=None)
def _spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def workloads() -> list[str]:
    return [workload["name"] for workload in _spec()["workloads"]]


def units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json declares, in its order."""
    return {metric["name"]: metric["unit"] for metric in _spec()[kind]}


def empty() -> dict:
    return dict.fromkeys(units("per_layer"), 0)


def coverage(tracer, names: tuple[str, ...], accounted: float = 0.0):
    """Share of the benchmark's own spans ``names`` (set-up and grade,
    or the service jobs) that the layers account for: the spans nested
    in them, plus ``accounted`` seconds reported by the program."""
    own = tracer.self_seconds()
    gap = sum(own.get(name, 0.0) for name in names) - accounted
    total = sum(s.seconds for s in tracer.spans if s.name in names)
    return 1.0 - gap / total


def grading_layers(tracer, report, counts, prepared, source):
    """Per-layer metrics of one traced set-up + grading run; ``counts``
    are the op's simulated statistics (``grade_op.counts``)."""
    from repro.core.goodtrace import record_good_trace
    from repro.core.inject import needs_rewrite

    out = empty()
    own = tracer.self_seconds()
    out["netlist.parse_s"] = own.get("netlist.parse", 0.0)
    out["netlist.lint_s"] = own.get("netlist.lint", 0.0)
    out["analysis.classify_s"] = own.get("analysis.classify", 0.0)
    out["faults.collapse_s"] = own.get("faults.collapse", 0.0)
    out["inject.prepare_s"] = own.get("inject.prepare", 0.0)
    out["compiled.compile_s"] = own.get("compiled.compile", 0.0)
    out["goodtrace.in_grade_s"] = own.get("goodtrace.record", 0.0)
    out["concurrent.run_s"] = own.get("concurrent.run", 0.0)
    out["batch.run_s"] = own.get("batch.run", 0.0)

    out["analysis.pruned"] = counts["pruned"]
    out["faults.representatives"] = counts["representatives"]
    prepares = [s for s in tracer.spans if s.name == "inject.prepare"]
    if prepares:
        out["inject.rewritten"] = int(
            any(s.attrs["rewritten"] for s in prepares)
        )
    else:
        # Sharded: the shard processes prepare; the universe decides.
        out["inject.rewritten"] = int(needs_rewrite(prepared.faults))
    cache = report.solve_cache or {}
    out["compiled.solve_hits"] = cache.get("hits", 0)
    out["compiled.solve_misses"] = cache.get("misses", 0)
    out["compiled.hit_rate"] = cache.get("hit_rate", 0.0)
    out["detected"] = counts["detected"]

    sections = {
        name: report.section_seconds(start, count)
        for name, (start, count) in prepared.sections.items()
    }
    strategy = "batch" if report.backend.startswith("batch") else "concurrent"
    out[f"{strategy}.live_circuit_patterns"] = counts["live_circuit_patterns"]
    for name, seconds in sections.items():
        out[f"{strategy}.section_s.{name}"] = seconds
    if strategy == "concurrent":
        for name in ("round_skips", "sites_pruned", "oscillation_events"):
            out[f"concurrent.{name}"] = counts[name]

    grade = next(s for s in tracer.spans if s.name == "grade")
    if report.shard_stats is not None:
        stats = report.shard_stats
        block_sum = sum(report.shard_seconds)
        out["shard.blocks"] = stats["blocks"]
        out["shard.imbalance_ratio"] = stats["imbalance_ratio"]
        out["shard.block_wall_sum_s"] = block_sum
        out["shard.good_settles"] = report.good_settles
        out["shard.trace_shipped"] = int(stats["trace_shipped"])
        out["shard.task_pickle_bytes"] = max(tracer.task_bytes, default=0)
        out["shard.unattributed_s"] = (
            grade.seconds - out["goodtrace.in_grade_s"]
            - block_sum / stats["jobs"]
        )

    out["trace.coverage"] = coverage(tracer, ("setup", "grade"))
    out["trace.spans"] = len(tracer.spans)

    # The paper's good-circuit cost on this workload's patterns, timed
    # on its own after the op, outside the op's spans.
    start = time.perf_counter()
    record_good_trace(prepared.net, source.observed, prepared.patterns)
    out["goodtrace.record_s"] = time.perf_counter() - start
    return out


def service_layers(tracer, jobs, baseline_p50):
    """Per-layer metrics of one traced closed loop (times per job)."""

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    out = empty()
    own = tracer.self_seconds()
    n = len(jobs)
    # Client-side job building plus the server's submit-time lint, both
    # in this process; worker-side parsing is in service.compile_s.
    out["netlist.parse_s"] = own.get("netlist.parse", 0.0) / n
    out["netlist.lint_s"] = own.get("netlist.lint", 0.0) / n
    cold = [j for j in jobs if not j.warm]
    out["compiled.compile_s"] = median(
        j.timings["compile_seconds"] for j in cold)
    hits = sum(j.solve_cache.get("hits", 0) for j in jobs)
    misses = sum(j.solve_cache.get("misses", 0) for j in jobs)
    out["compiled.solve_hits"] = hits
    out["compiled.solve_misses"] = misses
    out["compiled.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["service.queue_s"] = median(j.timings["queue_seconds"] for j in jobs)
    out["service.compile_s"] = median(
        j.timings["compile_seconds"] for j in jobs)
    out["service.simulate_s"] = median(
        j.timings["simulate_seconds"] for j in jobs)
    out["service.wire_s"] = median(
        j.latency - j.timings["total_seconds"] for j in jobs)
    out["service.warm_share"] = (n - len(cold)) / n
    out["service.request_bytes"] = median(j.request_bytes for j in jobs)
    out["service.jobs"] = n
    out["detected"] = sum(
        1 for j in jobs for hit in j.detections if hit is not None)
    out["trace.overhead_s"] = median(j.latency for j in jobs) - baseline_p50

    # Within a job's window, the server's own account of it (queue +
    # compile + simulate) and the spans on the server's thread (the
    # submit-time parse and lint) are accounted for; the wire is not.
    job_spans = [s for s in tracer.spans if s.name == "job"]
    clients = {s.thread for s in job_spans}
    accounted = sum(s.attrs["server_s"] for s in job_spans) + sum(
        s.seconds for s in tracer.spans
        if s.parent is None and s.thread not in clients
    )
    out["trace.coverage"] = coverage(tracer, ("job",), accounted)
    out["trace.spans"] = len(tracer.spans) / n
    return out
