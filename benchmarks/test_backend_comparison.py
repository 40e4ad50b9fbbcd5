"""Cross-backend comparison on the Figure-1 workload -> BENCH_backends.json.

Runs the same RAM / Test Sequence 1 / sampled-fault workload through
every registered fault-simulation backend (serial, concurrent, batch)
and archives per-backend wall-clock next to the repo root as
``BENCH_backends.json``, so the performance trajectory of each strategy
is tracked across changes.

At the default CI scale the workload is the reduced Figure-1 setup the
rest of the benchmark suite uses; ``REPRO_BENCH_SCALE=paper`` runs the
paper's RAM64 dimensions (428 faults, 407 patterns -- budget tens of
minutes for the serial baseline).

Checks (absolute times are machine-dependent):

* every backend reports the same detections -- same faults, same
  pattern, same phase (the registry contract);
* the concurrent backend does not regress behind the serial baseline
  it exists to beat;
* fault dropping compacts the batch backend's lanes below the fault
  count.
"""

from __future__ import annotations

import json
import os

from repro.circuits.ram import build_ram
from repro.core import SimPolicy, available_backends, run_backend
from repro.core.batch import BatchFaultSimulator
from repro.core.faults import ram_fault_universe, sample_faults
from repro.patterns.sequences import sequence1

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_backends.json",
)


def test_backend_comparison(bench_scale):
    rows, cols, n_faults = bench_scale["backends"]
    ram = build_ram(rows, cols)
    sequence = sequence1(ram)
    patterns = list(sequence.patterns)
    universe = ram_fault_universe(ram)
    if n_faults is None or n_faults >= len(universe):
        faults = universe
    else:
        faults = sample_faults(universe, n_faults, seed=1985)

    policy = SimPolicy(clock="perf")  # wall-clock, dropping on
    reports = {}
    batch_sim = None
    for name in available_backends():
        if name == "batch":
            # Run the simulator directly (same machinery the backend
            # wraps) so the compaction probe below reuses this run
            # instead of simulating the whole workload a second time.
            batch_sim = BatchFaultSimulator(
                ram.net, faults, [ram.dout],
                detection_policy=policy.detection_policy,
                drop_on_detect=policy.drop_on_detect,
                max_rounds=policy.max_rounds,
            )
            reports[name] = batch_sim.run(patterns, clock=policy.clock)
        else:
            reports[name] = run_backend(
                name, ram.net, faults, [ram.dout], patterns, policy
            )

    # Registry contract: identical detections from every strategy.
    baseline = reports["serial"]
    for name, report in reports.items():
        assert report.n_faults == len(faults)
        for circuit_id in range(1, len(faults) + 1):
            mine = report.log.first_detection(circuit_id)
            ref = baseline.log.first_detection(circuit_id)
            mine_at = (
                (mine.pattern_index, mine.phase_index) if mine else None
            )
            ref_at = (ref.pattern_index, ref.phase_index) if ref else None
            assert mine_at == ref_at, (name, circuit_id, mine_at, ref_at)

    # The concurrent algorithm must not regress behind the baseline it
    # exists to beat (measured headroom is ~2x; the 1.2 factor absorbs
    # shared-runner wall-clock noise without masking a real regression).
    assert (
        reports["concurrent"].total_seconds
        <= reports["serial"].total_seconds * 1.2
    )

    # Fault dropping compacts batch lanes below the original width.
    if reports["batch"].detected > len(faults) // 2:
        assert batch_sim.lanes.lane_count < len(faults)

    payload = {
        "workload": "fig1_sequence1",
        "circuit": ram.name,
        "rows": rows,
        "cols": cols,
        "n_patterns": len(patterns),
        "n_faults": len(faults),
        "detection_policy": policy.detection_policy,
        "clock": "perf",
        "backends": {
            name: {
                "wall_seconds": round(report.total_seconds, 6),
                "detected": report.detected,
                "coverage": round(report.coverage, 4),
                "oscillation_events": report.oscillation_events,
            }
            for name, report in reports.items()
        },
        "serial_over_concurrent": round(
            reports["serial"].total_seconds
            / max(reports["concurrent"].total_seconds, 1e-9),
            3,
        ),
        "serial_over_batch": round(
            reports["serial"].total_seconds
            / max(reports["batch"].total_seconds, 1e-9),
            3,
        ),
    }
    with open(_OUT_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print()
    print(json.dumps(payload["backends"], indent=2))
