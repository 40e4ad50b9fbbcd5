"""Shared configuration for the benchmark suite.

Every benchmark runs at a reduced *CI scale* by default so the whole
suite finishes in a few minutes of pure Python; set
``REPRO_BENCH_SCALE=paper`` to run the paper's actual dimensions
(RAM64/RAM256, all faults -- budget roughly an hour of CPU).  Measured
results for both scales are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

#: (rows, cols, n_faults or None=all) per figure at each scale.
SCALES = {
    "ci": {
        "fig1": (4, 4, None),
        "fig2": (4, 4, None),
        # (rows, cols, n_faults) for the cross-backend comparison; the
        # serial baseline runs the same sample, so keep it modest at CI
        # scale (serial cost is faults x patterns x circuit).
        "backends": (4, 4, 48),
        "scaling_small": (2, 2, None),
        "scaling_large": (4, 4, None),
        "fig3_circuit": (4, 4),
        "fig3_counts": (25, 75, 125, 200),
        # Shape-assertion margins.  The paper's effects (tail advantage,
        # serial blow-up) strengthen with circuit size; at CI scale they
        # are present but small, so the thresholds are conservative.
        "fig3_min_slope_ratio": 1.2,
        "scaling_serial_margin": 1.15,
        # (rows, cols, n_faults) for the sharded-backend scaling sweep,
        # the jobs counts swept, the wall-clock speedup required of the
        # largest jobs count (asserted only when that many CPUs are
        # actually available -- see test_shard_scaling.py), the tax
        # sharded jobs=1 may add over the bare inner backend, and the
        # max per-worker busy-time imbalance at the largest jobs count.
        "shard": (4, 4, 32),
        "shard_jobs": (1, 2, 4),
        "shard_min_speedup": 1.5,
        "shard_max_jobs1_overhead": 1.15,
        "shard_max_imbalance": 1.5,
        # Compiled-locality comparison (test_compiled_locality.py):
        # the solve cache must hit more often than it misses, and
        # compiled must not lose to dynamic on any backend (the margin
        # absorbs shared-runner noise around the measured speedups:
        # serial ~2x, concurrent ~1.5x, batch ~1.1x).
        "compiled_min_hit_rate": 0.5,
        "compiled_max_ratio": 1.05,
        # Service benchmark (test_service_warm.py): the fig1 RAM16 job
        # submitted twice to a fresh server -- the second (warm) job
        # must beat the cold one end-to-end by this factor, plus a
        # throughput probe with this many concurrent clients.
        "service": (4, 4, 48),
        "service_min_warm_speedup": 1.3,
        "service_clients": 4,
        # Collapse + trim benchmark (test_collapse_trim.py): (rows,
        # cols, serial sample size, concurrent sample size) over the
        # combined node-stuck + transistor-stuck universe, and the
        # end-to-end speedup each backend must show against its own
        # collapse=False, trim=False baseline.
        "collapse": (4, 4, 60, 150),
        "collapse_min_speedup": 1.3,
        # Static-prune benchmark (test_static_prune.py): (rows, cols,
        # serial sample of the combined universe, batch sample of the
        # transistor-stuck universe or None=full) with the dynamic
        # redundancy eliminators off on both legs (collapse and the
        # serial trim would null the same d-type faults), and the
        # ratio each backend must show against its own
        # static_prune=False baseline: counted work on both
        # (circuit-patterns on serial, active-lane rounds on batch)
        # and process-clock seconds on serial.  The prune removes work
        # proportional to the pruned fraction (serial) or narrows the
        # bit-plane (batch), so the floor is modest.
        "static": (4, 4, 60, None),
        "static_min_speedup": 1.02,
    },
    "paper": {
        "fig1": (8, 8, 428),
        "fig2": (8, 8, 428),
        "backends": (8, 8, 428),
        "scaling_small": (8, 8, 428),
        "scaling_large": (16, 16, None),
        "fig3_circuit": (16, 16),
        "fig3_counts": (100, 400, 800, 1382),
        "fig3_min_slope_ratio": 3.0,
        "scaling_serial_margin": 1.8,
        "shard": (8, 8, 428),
        "shard_jobs": (1, 2, 4),
        "shard_min_speedup": 1.5,
        "shard_max_jobs1_overhead": 1.15,
        "shard_max_imbalance": 1.5,
        "compiled_min_hit_rate": 0.5,
        "compiled_max_ratio": 1.05,
        "service": (8, 8, 428),
        "service_min_warm_speedup": 1.3,
        "service_clients": 4,
        "collapse": (4, 4, 120, None),
        "collapse_min_speedup": 1.3,
        "static": (8, 8, 120, None),
        "static_min_speedup": 1.02,
    },
}


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    name = os.environ.get("REPRO_BENCH_SCALE", "ci")
    if name not in SCALES:
        raise RuntimeError(
            f"REPRO_BENCH_SCALE={name!r}; expected one of {sorted(SCALES)}"
        )
    return SCALES[name]
