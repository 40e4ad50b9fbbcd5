"""One fault-grading op in a fresh process (W1, W2, W4).

Usage: ``python3 perfbench/grade_op.py WORKLOAD SEED MODE`` with
``PYTHONPATH=src``; MODE is ``timed`` (set up several times, grade once,
then check a fault subset against the reference backend) or ``traced``
(set up once and grade once with every layer's entry points wrapped).
Prints one JSON object as its last line.

A fresh process per op means the solve caches, the ``inject.prepare``
memo and the network compile memo all start cold, as they do for a CLI
user, and the peak RSS read at the end belongs to this op alone.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import nullcontext

from inputs import (
    GRADING,
    digest,
    first_detections,
    peak_rss_mb,
    ram_source,
    reference_subset,
    setup,
)

#: Set-up repetitions per timed op; ``setup_s`` is their median.
SETUP_REPEATS = 15


def counts(report, prepared) -> dict:
    """Simulated statistics: deterministic for a seed, must repeat."""
    pruned = (report.static_pruned or {}).get("pruned", 0)
    if report.collapse is not None:
        representatives = report.collapse["representatives"]
    else:
        representatives = len(prepared.faults) - pruned
    trim = report.trim or {}
    shard = report.shard_stats or {}
    return {
        "detected": report.detected,
        "live_circuit_patterns": sum(p.live_after for p in report.patterns),
        "pruned": pruned,
        "representatives": representatives,
        "good_settles": report.good_settles,
        "round_skips": trim.get("round_skips", 0),
        "sites_pruned": trim.get("sites_pruned", 0),
        "oscillation_events": report.oscillation_events,
        "shard_blocks": shard.get("blocks", 0),
    }


def check_reference(spec, prepared, observed, detections, seed: int):
    """Re-simulate a seeded fault subset on a different backend and
    compare first detections (faults are simulated independently)."""
    from repro.core.backends import run_backend

    subset = reference_subset(seed, len(prepared.faults))
    faults = [prepared.faults[i] for i in subset]
    report = run_backend(
        spec.reference, prepared.net, faults, observed, prepared.patterns
    )
    expected = first_detections(report, len(faults))
    mismatches = sum(
        1 for i, want in zip(subset, expected) if detections[i] != want
    )
    return {"backend": spec.reference, "checked": len(subset),
            "mismatches": mismatches}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    spec = GRADING[workload]
    source = ram_source(spec.rows, spec.cols)

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro.core.backends import get_backend

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        with span("setup"):
            prepared = setup(source, spec.universe, spec.n_faults,
                             spec.sequence, seed)
        setups.append(time.perf_counter() - start)

    backend = get_backend(spec.backend, **spec.options)
    grade_start = time.perf_counter()
    with span("grade"):
        report = backend.run(prepared.net, prepared.faults,
                             source.observed, prepared.patterns)
    grade_end = time.perf_counter()
    rss = peak_rss_mb()

    detections = first_detections(report, len(prepared.faults))
    simulated = counts(report, prepared)
    result = {
        "setup_s": statistics.median(setups),
        "grade_s": grade_end - grade_start,
        "grade_end": grade_end,
        # A CLI caller sets up once; the op's latency leaves out the
        # repetitions.  (Repeated after the grade instead, set-ups ran
        # 1.5-3x slower and spread far more from run to run.)
        "repeats_s": sum(setups[:-1]),
        "peak_rss_mb": rss,
        "counts": simulated,
        "digest": digest(detections),
    }
    if tracer:
        tracer.uninstall()
        import layers

        result["layers"] = layers.grading_layers(
            tracer, report, simulated, prepared, source
        )
        result["spans"] = tracer.tree()
    else:
        result["reference"] = check_reference(
            spec, prepared, source.observed, detections, seed
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
