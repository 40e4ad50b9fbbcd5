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
* each backend's *counted* work drops by what the pruned faults cost
  its unpruned baseline, and by at least the configured factor
  (``static_min_speedup``);
* serial also beats its baseline by that factor in process-clock
  seconds (legs interleaved, min of repeats).

The work gates follow from two facts: a statically pruned fault is
never detected (``tests/analysis/test_static_props.py``), and the
parity check above shows the kept faults behave identically on both
legs.  So the serial baseline replays every pruned fault through every
pattern -- its circuit-patterns (per fault of the simulator's own
report, the first detection's pattern + 1, or every pattern when
undetected) exceed the pruned leg's by exactly ``pruned * n_patterns``
-- and on batch, where lanes are independent
circuits, a pruned fault's lane stays live through every baseline lane
round, so the active-lane rounds (the sum of live lanes over rounds)
drop by at least ``pruned * baseline rounds``.  The floor compares
circuit-patterns (serial) and active-lane rounds (batch).  The counts
are read through ``monkeypatch`` wrappers around
``SerialFaultSimulator.run`` and ``LaneSimulator._round``.

Batch's seconds are recorded in the JSON but not asserted: on the
one-plane batch a never-excited lane costs only plane width.  The
prune cuts batch's plane-width rounds (the sum of the plane's lane
count over rounds) by about 20% on RAM16, but whether that shows in
seconds is unresolved: measured ratios have fallen on both sides of
1.0.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from repro.circuits.ram import build_ram
from repro.core import SerialFaultSimulator, SimPolicy, run_backend
from repro.core.faults import (
    ram_fault_universe,
    sample_faults,
    transistor_stuck_universe,
)
from repro.patterns.sequences import sequence1
from repro.switchlevel.bitplane import LaneSimulator

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


def _count_work(monkeypatch) -> Counter:
    """Tally counted work into the returned counter from now on.

    ``circuit_patterns``: per serial simulator run, the patterns each
    simulated fault ran through -- up to its first detection, or the
    whole sequence when undetected.  Per batch lane round: ``lane_rounds`` (one
    each), ``active_lane_rounds`` (the lanes still live) and
    ``plane_width_rounds`` (the plane's lane count).
    """
    work = Counter()
    serial_run = SerialFaultSimulator.run
    lane_round = LaneSimulator._round

    def counted_run(simulator, *args, **kwargs):
        report = serial_run(simulator, *args, **kwargs)
        for detected in _first_detections(report).values():
            work["circuit_patterns"] += (
                report.n_patterns if detected is None else detected[0] + 1
            )
        return report

    def counted_round(lanes):
        work["lane_rounds"] += 1
        work["active_lane_rounds"] += bin(lanes.active).count("1")
        work["plane_width_rounds"] += lanes.lane_count
        lane_round(lanes)

    monkeypatch.setattr(SerialFaultSimulator, "run", counted_run)
    monkeypatch.setattr(LaneSimulator, "_round", counted_round)
    return work


def _interleaved_legs(
    backend, net, faults, observed, patterns, options, work
):
    """Run (baseline, pruned) legs interleaved; min-of-repeats each.

    Returns ``(report, counts)`` per leg: the fastest report and the
    leg's counted work, which every repeat must reproduce exactly.
    """
    policy = SimPolicy()  # process clock: measure work, not the machine
    best = {False: None, True: None}
    counts = {False: None, True: None}
    for _ in range(_REPEATS):
        for pruned in (False, True):
            work.clear()
            report = run_backend(
                backend, net, faults, observed, patterns, policy,
                static_prune=pruned, **options,
            )
            if counts[pruned] is None:
                counts[pruned] = Counter(work)
            assert work == counts[pruned], (backend, pruned)
            if (
                best[pruned] is None
                or report.total_seconds < best[pruned].total_seconds
            ):
                best[pruned] = report
    return (best[False], counts[False]), (best[True], counts[True])


def test_static_prune_speedup(bench_scale, monkeypatch):
    rows, cols, n_serial, n_batch = bench_scale["static"]
    min_speedup = bench_scale["static_min_speedup"]
    ram = build_ram(rows, cols)
    patterns = list(sequence1(ram).patterns)
    transistor = transistor_stuck_universe(ram.net)
    universe = ram_fault_universe(ram) + transistor
    work = _count_work(monkeypatch)

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
        "cpus": os.cpu_count(),
        "min_speedup": min_speedup,
        "backends": {},
    }
    legs = (
        # serial: warm-start trim off on both legs (it dynamically
        # eliminates the very faults the static stage prunes).  Work
        # is circuit-patterns, and it must also pay in seconds.
        ("serial", "combined", pick(universe, n_serial),
         {"collapse": False, "trim": False}),
        # batch: one lane per fault for the whole run (no trim layer).
        # Transistor-stuck only: that is where the pruned set is
        # largest.  Work is active-lane rounds.
        ("batch", "transistor_stuck", pick(transistor, n_batch),
         {"collapse": False}),
    )
    for backend, universe_name, faults, options in legs:
        (baseline, base_work), (optimized, opt_work) = _interleaved_legs(
            backend, ram.net, faults, [ram.dout], patterns, options, work
        )

        # Conservative pruning must not change the answer.
        assert _first_detections(optimized) == _first_detections(baseline)

        stats = optimized.static_pruned
        assert stats is not None, backend
        pruned = stats["pruned"]
        assert pruned > 0
        assert stats["kept"] + pruned == stats["faults"]
        assert stats["faults"] == len(faults)
        assert baseline.static_pruned is None
        # The report still covers the whole universe.
        assert optimized.n_faults == len(faults)

        speedup = baseline.total_seconds / max(
            optimized.total_seconds, 1e-9
        )
        entry = {
            "universe": universe_name,
            "n_faults": len(faults),
            "pruned": pruned,
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
        for key in base_work:  # only the counts this backend has
            entry[f"baseline_{key}"] = base_work[key]
            entry[f"optimized_{key}"] = opt_work[key]

        # Counted work: each pruned fault's whole cost is gone.
        if backend == "serial":
            # Every pruned fault replayed every pattern in the baseline.
            assert (
                base_work["circuit_patterns"] - opt_work["circuit_patterns"]
                == pruned * len(patterns)
            ), (base_work, opt_work, pruned)
            # Each of those was a whole simulation: it pays in seconds.
            assert speedup >= min_speedup, (backend, speedup, min_speedup)
            work_key = "circuit_patterns"
        else:
            # Each pruned lane stayed live through every baseline round.
            assert (
                base_work["active_lane_rounds"]
                - opt_work["active_lane_rounds"]
                >= pruned * base_work["lane_rounds"]
            ), (base_work, opt_work, pruned)
            work_key = "active_lane_rounds"
        payload["backends"][backend] = entry
        work_ratio = base_work[work_key] / opt_work[work_key]
        assert work_ratio >= min_speedup, (backend, work_ratio, min_speedup)

    with open(_OUT_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print()
    print(json.dumps(payload["backends"], indent=2))
