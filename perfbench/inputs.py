"""Seeded inputs for every benchmark workload, and the outputs compared.

The benchmark plays two roles that must not leak into each other:

* the **generator** builds the RAM with the library's circuit builder and
  turns it into what a user would hand the program -- netlist text, the
  observed pin, bit-line pair names, test-sequence ops.  Nothing here is
  timed.
* the **program** receives only those generated inputs.  ``setup`` is
  the user-visible set-up step (parse the text, lint it, build the fault
  sample from the parsed network, expand the patterns) and is timed as
  ``setup_s``.

Every choice that depends on ``--seed`` (fault samples, the reference
subset, the per-job seeds of the service mix) is drawn here, so the same
seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import resource
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable

from repro.circuits.ram import Ram, build_ram
from repro.core.faults import (
    Fault,
    ShortFault,
    dedupe_faults,
    node_stuck_universe,
    transistor_stuck_universe,
)
from repro.netlist import sim_format, validate
from repro.patterns.clocking import TestPattern
from repro.patterns.sequences import RamSequence, sequence1, sequence2
from repro.switchlevel.network import Network

#: Faulty circuits re-simulated by the reference backend per grading
#: op: one full bit-plane of the batch backend.  Faults are simulated
#: independently, so a subset's first detections must equal the full
#: run's for the same faults.
REFERENCE_FAULTS = 64


@dataclass(frozen=True)
class RamSource:
    """Generator-side RAM: the text a user would submit plus the names
    the fault universe and the test sequences are built from."""

    ram: Ram = field(repr=False)
    text: str
    bitline_pairs: tuple[tuple[str, str], ...]

    @property
    def observed(self) -> tuple[str, ...]:
        return (self.ram.dout,)


@lru_cache(maxsize=None)
def ram_source(rows: int, cols: int) -> RamSource:
    ram = build_ram(rows, cols)
    return RamSource(
        ram=ram,
        text=sim_format.dumps(ram.net),
        bitline_pairs=tuple(ram.bitline_adjacent_pairs()),
    )


def paper_universe(net: Network, source: RamSource) -> list[Fault]:
    """The paper's universe over a parsed network: storage nodes stuck
    at 0/1 plus adjacent bit-line shorts."""
    faults = node_stuck_universe(net)
    faults.extend(ShortFault(a, b) for a, b in source.bitline_pairs)
    return dedupe_faults(faults)


def mixed_universe(net: Network, source: RamSource) -> list[Fault]:
    """Node stuck-at plus transistor stuck-open/closed (no shorts)."""
    return node_stuck_universe(net) + transistor_stuck_universe(net)


def transistor_universe(net: Network, source: RamSource) -> list[Fault]:
    return transistor_stuck_universe(net)


def fault_class(fault: Fault) -> tuple[str, ...]:
    """The fault's kind, and its site's role in the circuit (each name
    with its indices replaced by ``#``) with the stuck value or mode."""
    values = (getattr(fault, f.name) for f in fields(fault))
    return (type(fault).__name__, *(
        re.sub(r"\d+", "#", v) if isinstance(v, str) else str(v)
        for v in values
    ))


def stratified_sample(faults: list[Fault], count: int, seed: int) -> list:
    """Seeded sample of ``count`` faults holding each fault class's
    share of the universe (largest remainder).  Classes differ in cost
    -- a short rewrites the network, and a stuck decoder line disturbs
    far more of the circuit than a stuck cell -- so fixing the mix keeps
    a sample's cost from swinging with the seed, while the seed still
    picks the faults within each class."""
    kinds: dict[tuple[str, ...], list[Fault]] = {}
    for fault in faults:
        kinds.setdefault(fault_class(fault), []).append(fault)
    quota = {kind: count * len(group) / len(faults)
             for kind, group in kinds.items()}
    take = {kind: int(share) for kind, share in quota.items()}
    short = count - sum(take.values())
    for kind in sorted(quota, key=lambda k: take[k] - quota[k])[:short]:
        take[kind] += 1
    rng = random.Random(seed)
    sample = []
    for kind in sorted(kinds):
        sample.extend(rng.sample(kinds[kind], take[kind]))
    rng.shuffle(sample)
    return sample


@dataclass(frozen=True)
class Grading:
    """One fault-grading workload: RAM64, one sequence, one backend."""

    sequence: Callable[[Ram], RamSequence]
    universe: Callable[[Network, RamSource], list[Fault]]
    n_faults: int
    backend: str
    options: dict
    #: A different backend whose detections must match (fault subset).
    reference: str
    rows: int = 8
    cols: int = 8


GRADING = {
    "fig1_ram64_concurrent": Grading(
        sequence1, paper_universe, 192, "concurrent", {}, reference="batch"
    ),
    "fig2_ram64_mixed_batch": Grading(
        sequence2, mixed_universe, 400, "batch", {}, reference="concurrent"
    ),
    "fig1_ram64_sharded2": Grading(
        sequence1,
        paper_universe,
        192,
        "sharded",
        {"jobs": 2, "inner_backend": "concurrent"},
        reference="concurrent",
    ),
}


@dataclass
class Prepared:
    """What the program holds after set-up."""

    net: Network
    faults: list[Fault]
    patterns: list[TestPattern]
    sections: dict[str, tuple[int, int]]


def setup(
    source: RamSource,
    universe: Callable[[Network, RamSource], list[Fault]],
    n_faults: int,
    sequence: Callable[[Ram], RamSequence],
    seed: int,
) -> Prepared:
    """The user-visible set-up step (timed as ``setup_s``)."""
    net = sim_format.loads(source.text)
    errors = [
        lint for lint in validate.validate(net)
        if lint.severity == validate.ERROR
    ]
    if errors:
        raise RuntimeError(f"generated netlist fails lint: {errors[0]}")
    faults = stratified_sample(universe(net, source), n_faults, seed)
    built = sequence(source.ram)
    return Prepared(net, faults, list(built.patterns), dict(built.sections))


def reference_subset(seed: int, n_faults: int) -> list[int]:
    """Indices of the faults the reference backend re-simulates."""
    rng = random.Random(f"reference-{seed}")
    return sorted(rng.sample(range(n_faults), min(REFERENCE_FAULTS, n_faults)))


def first_detections(report, n_faults: int) -> list:
    """Fault index -> first ``(pattern, phase)`` or ``None``."""
    out = []
    for circuit_id in range(1, n_faults + 1):
        hit = report.log.first_detection(circuit_id)
        out.append(
            None if hit is None else [hit.pattern_index, hit.phase_index]
        )
    return out


def digest(detections: list) -> str:
    """Fingerprint of a first-detection list (determinism guard)."""
    return hashlib.sha256(json.dumps(detections).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
