#!/usr/bin/env python3
"""Diff freshly emitted BENCH_*.json files against committed baselines.

Usage::

    python scripts/bench_delta.py BASELINE_DIR [CURRENT_DIR]

``BASELINE_DIR`` holds the committed ``BENCH_*.json`` files (CI copies
them aside before the test run overwrites them); ``CURRENT_DIR``
defaults to the working tree root.  Prints a GitHub-flavored Markdown
table of every numeric leaf whose key mentions seconds (wall times,
per-shard times), speedup, overhead, pruned-fault counts
(``BENCH_static``'s static-analysis yield), ``BENCH_static``'s counted
work (serial ``*_circuit_patterns``, batch ``*_rounds``), or the shard
scheduler's balance (``imbalance_ratio``, per-block ``block_faults``)
with the relative delta, suitable for piping into
``$GITHUB_STEP_SUMMARY``.
Numeric lists are flattened to indexed leaves (``path[i]``).

Speedup metrics are only comparable between machines with the same
parallelism: a shard speedup recorded on a 1-CPU box says nothing
about one measured on a 4-CPU runner.  When both files record a
``cpus`` field and they differ, speedup deltas are annotated as
skipped instead of compared.

Warn-only by design: the exit code is always 0 (absolute times from
shared CI runners are too noisy to gate on), so the job summary is
where regressions get noticed.
"""

from __future__ import annotations

import glob
import json
import os
import sys


#: Substrings a leaf's key must contain to be worth comparing.
_METRIC_KEYS = (
    "seconds",
    "speedup",
    "pruned",
    "circuit_patterns",
    "rounds",
    "overhead",
    "imbalance",
    "block_faults",
)


def _numeric_leaves(data, prefix="", key=""):
    """Flatten nested dicts/lists to {dotted.path: number} for metric
    keys.  List items inherit their container's key and get indexed
    paths (``runs.4.shard_wall_seconds[2]``).

    Keys prefixed ``min_``/``max_`` are configured pass thresholds the
    benchmarks archive for context (e.g. ``min_speedup`` in
    ``BENCH_collapse.json``), not measurements -- comparing them would
    only add noise rows.
    """
    leaves = {}
    if isinstance(data, dict):
        for child_key, value in sorted(data.items()):
            path = f"{prefix}.{child_key}" if prefix else str(child_key)
            leaves.update(_numeric_leaves(value, path, child_key))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            leaves.update(_numeric_leaves(value, f"{prefix}[{index}]", key))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        if not key.startswith(("min_", "max_")) and any(
            metric in key for metric in _METRIC_KEYS
        ):
            leaves[prefix] = float(data)
    return leaves


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    baseline_dir = argv[0]
    current_dir = argv[1] if len(argv) > 1 else "."

    rows = []
    for current_path in sorted(
        glob.glob(os.path.join(current_dir, "BENCH_*.json"))
    ):
        name = os.path.basename(current_path)
        with open(current_path, "r", encoding="utf-8") as stream:
            current_raw = json.load(stream)
        current = _numeric_leaves(current_raw)
        baseline_path = os.path.join(baseline_dir, name)
        if not os.path.exists(baseline_path):
            for metric, value in current.items():
                rows.append((name, metric, None, value, None))
            continue
        with open(baseline_path, "r", encoding="utf-8") as stream:
            baseline_raw = json.load(stream)
        baseline = _numeric_leaves(baseline_raw)
        cpu_note = None
        baseline_cpus = baseline_raw.get("cpus")
        current_cpus = current_raw.get("cpus")
        if (
            baseline_cpus is not None
            and current_cpus is not None
            and baseline_cpus != current_cpus
        ):
            cpu_note = f"(skipped: cpus {baseline_cpus} vs {current_cpus})"
        for metric, value in current.items():
            # Parallelism-shape metrics only compare on equal machines.
            note = (
                cpu_note
                if ("speedup" in metric or "imbalance" in metric)
                else None
            )
            rows.append((name, metric, baseline.get(metric), value, note))

    print("### Benchmark delta vs committed baselines (warn-only)")
    print()
    if not rows:
        print("_No BENCH_*.json files found._")
        return 0
    print("| file | metric | baseline | current | delta |")
    print("| --- | --- | ---: | ---: | ---: |")
    for name, metric, old, new, note in rows:
        if old is None:
            delta = "(new)"
            old_cell = "-"
        else:
            old_cell = f"{old:.4f}"
            if note is not None:
                delta = note
            else:
                delta = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"| {name} | {metric} | {old_cell} | {new:.4f} | {delta} |")
    print()
    print(
        "_Wall clocks from shared runners are noisy; treat deltas as a "
        "hint, not a verdict._"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
