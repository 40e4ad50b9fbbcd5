"""Static-prune speedup benchmark -> BENCH_static.json.

Runs the Figure-1 RAM16 workload twice per backend: once with the
static testability analysis pruning provably-untestable faults up
front (``static_prune=True``) and once without.  The other redundancy
eliminators are disabled on *both* legs so the measurement isolates the
pruner -- collapsing's null-class rule and the serial warm-start trim
both exploit the same behavioral equivalence dynamically, and would
otherwise hide what the static stage saves (``test_collapse_trim.py``
measures them).  Archived next to the repo root as ``BENCH_static.json``.

The backends measured are the ones whose cost is fault-proportional,
each on the universe where the prune's saving is structural:

* ``serial`` simulates every faulty circuit through every pattern, so
  each pruned fault saves a full simulation; it runs a sample of the
  combined node-stuck + transistor-stuck universe.
* ``batch`` dedicates one lane of a single bit-plane to every fault
  for the whole run, so pruning narrows the plane; it runs the
  transistor-stuck universe, where the RAM's always-on depletion loads
  make the pruned set largest (315 of 362 faults kept on RAM16).

(The concurrent backend's cost scales with *diverged state*, which is
~zero for unexcitable faults, so pruning buys it bookkeeping only.)

Checks:

* detections are bit-identical with and without pruning (the analysis
  is conservative: it only ever removes faults the simulator could
  never detect);
* the prune actually engages on this workload (the RAM's depletion
  loads guarantee a nonempty unexcitable set);
* each backend beats its own unpruned baseline end-to-end by the
  configured factor (``static_min_speedup``).

Timing uses the process clock with legs interleaved and min-of-repeats
per leg, so the speedup assertion measures algorithmic work, not
shared-runner noise.
"""

from __future__ import annotations

import json
import os

from repro.circuits.ram import build_ram
from repro.core import SimPolicy, run_backend
from repro.core.faults import (
    ram_fault_universe,
    sample_faults,
    transistor_stuck_universe,
)
from repro.patterns.sequences import sequence1

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_static.json",
)

_REPEATS = 3


def _first_detections(report):
    return {
        circuit_id: (
            (hit.pattern_index, hit.phase_index)
            if (hit := report.log.first_detection(circuit_id)) is not None
            else None
        )
        for circuit_id in range(1, report.n_faults + 1)
    }


def _interleaved_legs(backend, net, faults, observed, patterns, options):
    """Run (baseline, pruned) legs interleaved; min-of-repeats each."""
    policy = SimPolicy()  # process clock: measure work, not the machine
    best = {False: None, True: None}
    for _ in range(_REPEATS):
        for pruned in (False, True):
            report = run_backend(
                backend, net, faults, observed, patterns, policy,
                static_prune=pruned, **options,
            )
            if (
                best[pruned] is None
                or report.total_seconds < best[pruned].total_seconds
            ):
                best[pruned] = report
    return best[False], best[True]


def test_static_prune_speedup(bench_scale):
    rows, cols, n_serial, n_batch = bench_scale["static"]
    min_speedup = bench_scale["static_min_speedup"]
    ram = build_ram(rows, cols)
    patterns = list(sequence1(ram).patterns)
    transistor = transistor_stuck_universe(ram.net)
    universe = ram_fault_universe(ram) + transistor

    def pick(pool, count):
        if count is None or count >= len(pool):
            return pool
        return sample_faults(pool, count, seed=1985)

    payload = {
        "workload": "fig1_sequence1",
        "circuit": ram.name,
        "rows": rows,
        "cols": cols,
        "n_patterns": len(patterns),
        "universe_faults": len(universe),
        "transistor_universe_faults": len(transistor),
        "clock": "process",
        "repeats": _REPEATS,
        "min_speedup": min_speedup,
        "backends": {},
    }
    legs = (
        # serial: warm-start trim off on both legs (it dynamically
        # eliminates the very faults the static stage prunes).
        ("serial", "combined", pick(universe, n_serial),
         {"collapse": False, "trim": False}),
        # batch: one lane per fault for the whole run (no trim layer).
        # Transistor-stuck only: that is where the pruned set is
        # largest.
        ("batch", "transistor_stuck", pick(transistor, n_batch),
         {"collapse": False}),
    )
    for backend, universe_name, faults, options in legs:
        baseline, optimized = _interleaved_legs(
            backend, ram.net, faults, [ram.dout], patterns, options
        )

        # Conservative pruning must not change the answer.
        assert _first_detections(optimized) == _first_detections(baseline)

        stats = optimized.static_pruned
        assert stats is not None, backend
        assert stats["pruned"] > 0
        assert stats["kept"] + stats["pruned"] == stats["faults"]
        assert stats["faults"] == len(faults)
        assert baseline.static_pruned is None
        # The report still covers the whole universe.
        assert optimized.n_faults == len(faults)

        speedup = baseline.total_seconds / max(
            optimized.total_seconds, 1e-9
        )
        payload["backends"][backend] = {
            "universe": universe_name,
            "n_faults": len(faults),
            "pruned": stats["pruned"],
            "unexcitable": stats["unexcitable"],
            "unobservable": stats["unobservable"],
            "optimized_seconds": round(optimized.total_seconds, 6),
            "baseline_seconds": round(baseline.total_seconds, 6),
            "seconds_saved": round(
                baseline.total_seconds - optimized.total_seconds, 6
            ),
            "speedup": round(speedup, 3),
            "detected": optimized.detected,
        }
        assert speedup >= min_speedup, (backend, speedup, min_speedup)

    with open(_OUT_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print()
    print(json.dumps(payload["backends"], indent=2))
