"""Persistence of experiment results (CSV/JSON) for EXPERIMENTS.md.

Result dataclasses from :mod:`repro.harness.experiments` are flattened to
rows so runs can be archived and compared across machines.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from typing import Any, TextIO

from ..errors import ExperimentError
from .experiments import CurveResult, Fig3Result, ScalingResult


def result_to_dict(result: Any) -> dict:
    """Flatten an experiment result dataclass to JSON-able primitives."""
    if isinstance(result, CurveResult):
        data = dataclasses.asdict(result)
        data.pop("report", None)
        data["concurrent_vs_serial_ratio"] = result.concurrent_vs_serial_ratio
        data["concurrent_vs_good_ratio"] = result.concurrent_vs_good_ratio
        data["head_fraction"] = result.head_fraction
        data["tail_overhead_vs_good"] = result.tail_overhead_vs_good
        return data
    if isinstance(result, (ScalingResult, Fig3Result)):
        return dataclasses.asdict(result)
    raise ExperimentError(f"unknown result type: {type(result).__name__}")


def write_json(result: Any, stream: TextIO) -> None:
    """Write one experiment result as pretty JSON."""
    json.dump(result_to_dict(result), stream, indent=2)
    stream.write("\n")


def format_backend_options(options: dict) -> str:
    """Flatten backend options to a stable ``k=v;k=v`` cell value."""
    return ";".join(
        f"{key}={options[key]}" for key in sorted(options)
    )


def write_curve_csv(result: CurveResult, stream: TextIO) -> None:
    """Per-pattern series of a Figure 1/2 run as CSV.

    The backend and backend_options columns keep archived rows
    attributable when runs of several strategies (or several tunings of
    one strategy -- localities, shard counts) are concatenated for
    comparison; oscillation_events, collapsed and trim are run-level
    (repeated per row) so redundancy-elimination regressions are
    visible in concatenated archives -- ``collapsed`` is the
    ``faults->representatives`` reduction, ``trim`` the flattened
    skip/warm-start counters and ``static_pruned`` the flattened
    testability-analysis counters.
    """
    writer = csv.writer(stream)
    writer.writerow(
        [
            "backend",
            "backend_options",
            "pattern",
            "seconds",
            "cumulative_detected",
            "live_after",
            "oscillation_events",
            "collapsed",
            "trim",
            "static_pruned",
        ]
    )
    options = format_backend_options(result.backend_options)
    collapsed = ""
    if result.collapse:
        collapsed = (
            f"{result.collapse['faults']}->"
            f"{result.collapse['representatives']}"
        )
    trim = ""
    if result.trim:
        trim = ";".join(
            f"{key}={result.trim[key]}" for key in sorted(result.trim)
        )
    static_pruned = ""
    if result.static_pruned:
        static_pruned = ";".join(
            f"{key}={result.static_pruned[key]}"
            for key in sorted(result.static_pruned)
        )
    for index in range(result.n_patterns):
        writer.writerow(
            [
                result.backend,
                options,
                index,
                f"{result.seconds_per_pattern[index]:.6f}",
                result.cumulative_detections[index],
                result.live_after_pattern[index],
                result.oscillation_events,
                collapsed,
                trim,
                static_pruned,
            ]
        )


def write_fig3_csv(result: Fig3Result, stream: TextIO) -> None:
    """Figure 3 sweep points as CSV (backend-attributed like the curve
    CSV, so concatenated sweeps from different tunings stay separable)."""
    writer = csv.writer(stream)
    writer.writerow(
        [
            "backend",
            "backend_options",
            "n_faults",
            "concurrent_avg",
            "serial_estimate_avg",
            "serial_real_avg",
        ]
    )
    options = format_backend_options(result.backend_options)
    for point in result.points:
        writer.writerow(
            [
                result.backend,
                options,
                point.n_faults,
                f"{point.concurrent_avg:.6f}",
                f"{point.serial_estimate_avg:.6f}",
                ""
                if point.serial_real_avg is None
                else f"{point.serial_real_avg:.6f}",
            ]
        )
