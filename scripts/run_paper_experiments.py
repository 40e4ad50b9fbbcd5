"""Run every paper experiment at the paper's own scale.

Produces the numbers recorded in EXPERIMENTS.md:

* FIG1: RAM64, Test Sequence 1 (407 patterns), 428 sampled faults;
* FIG2: RAM64, Test Sequence 2 (327 patterns), same faults;
* TAB1: RAM64 vs RAM256 scaling (RAM256: 1447 patterns, all faults);
* FIG3: RAM256, fault-sample sweep.

Budget roughly an hour of CPU in pure Python.  Results (rendered text,
JSON and per-pattern CSV) land in ``results/paper_scale/``.

Run:  python scripts/run_paper_experiments.py [--out DIR] [--skip-256]
                                              [--backend NAME] [--jobs N]
                                              [--inner-backend NAME]
                                              [--locality MODE]
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import add_backend_option_arguments, backend_options_from_args
from repro.core.backends import available_backends
from repro.harness import experiments
from repro.harness.results import (
    write_curve_csv,
    write_fig3_csv,
    write_json,
)


def save(result, out_dir: str, name: str, csv_writer=None) -> None:
    text = result.render()
    print(f"\n===== {name} =====")
    print(text)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as stream:
        stream.write(text)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as stream:
        write_json(result, stream)
    if csv_writer is not None:
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as stream:
            csv_writer(result, stream)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results/paper_scale")
    parser.add_argument(
        "--policy",
        choices=["any", "hard"],
        default="any",
        help="detection policy: 'any' matches the paper's drop rule "
        "(any output difference, X included); 'hard' requires definite "
        "differing values",
    )
    parser.add_argument(
        "--skip-256",
        action="store_true",
        help="skip the RAM256 experiments (TAB1 large half and FIG3)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="concurrent",
        help="fault-simulation strategy; recorded in every emitted "
        "result row so the perf trajectory stays attributable "
        "(default: concurrent)",
    )
    add_backend_option_arguments(parser)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    policy = args.policy
    backend = args.backend
    backend_options = backend_options_from_args(args)

    print(
        f"FIG1: RAM64 / sequence 1 / 428 faults / {backend} ...", flush=True
    )
    fig1 = experiments.run_fig1(
        8, 8, n_faults=428, detection_policy=policy, backend=backend,
        backend_options=backend_options,
    )
    save(fig1, args.out, "fig1_ram64_seq1", write_curve_csv)

    print(
        f"FIG2: RAM64 / sequence 2 / 428 faults / {backend} ...", flush=True
    )
    fig2 = experiments.run_fig2(
        8, 8, n_faults=428, detection_policy=policy, backend=backend,
        backend_options=backend_options,
    )
    save(fig2, args.out, "fig2_ram64_seq2", write_curve_csv)

    if not args.skip_256:
        print("TAB1: RAM64 vs RAM256 scaling (slow) ...", flush=True)
        scaling = experiments.run_scaling(
            small=(8, 8), large=(16, 16), n_faults=None,
            detection_policy=policy, backend=backend,
            backend_options=backend_options,
        )
        save(scaling, args.out, "tab1_scaling")

        print("FIG3: RAM256 fault-sample sweep (slow) ...", flush=True)
        fig3 = experiments.run_fig3(
            16, 16, fault_counts=(100, 400, 800, 1382),
            detection_policy=policy, backend=backend,
            backend_options=backend_options,
        )
        save(fig3, args.out, "fig3_ram256", write_fig3_csv)

    print(f"\nall results written to {args.out}/", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
