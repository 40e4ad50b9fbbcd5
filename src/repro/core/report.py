"""Run reports: the measurement records the experiment harness consumes.

A :class:`RunReport` captures everything the paper's figures plot:
per-pattern CPU seconds (Figures 1/2 falling curves), cumulative
detections (rising curves), live-circuit counts, totals, and the
detection log.  Every strategy -- serial included -- publishes this one
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detection import DetectionLog


@dataclass
class PatternRecord:
    """Measurements for one pattern of a fault-simulation (or good-only)
    run."""

    index: int
    label: str
    seconds: float
    detections: int
    live_after: int


@dataclass
class RunReport:
    """Result of a fault-simulation (or good-only) run.

    Every registered backend (see :mod:`repro.core.backends`) returns
    this shape; ``backend`` records which one produced it so archived
    measurements stay attributable.
    """

    n_faults: int
    patterns: list[PatternRecord] = field(default_factory=list)
    log: DetectionLog = field(default_factory=DetectionLog)
    total_seconds: float = 0.0
    oscillation_events: int = 0
    backend: str = "concurrent"
    #: Per-shard wall-clock seconds, filled by the ``sharded`` backend
    #: (empty for single-process runs).  For sharded runs
    #: ``total_seconds`` is the aggregate CPU across workers under the
    #: ``process`` clock and the fan-out's wall clock under ``perf``;
    #: the spread of ``shard_seconds`` measures shard balance.
    shard_seconds: list[float] = field(default_factory=list)
    #: Solve-cache counters for this run (``hits`` / ``misses`` /
    #: ``hit_rate``), filled by backends running with the ``compiled``
    #: locality; ``None`` for other localities.
    solve_cache: dict | None = None
    #: Fault-collapsing stats (``faults`` / ``classes`` /
    #: ``representatives`` / ``collapsed`` / ``expansion``), filled when
    #: the run simulated class representatives and expanded detections
    #: back to the full universe; ``None`` when collapsing was off or
    #: found nothing to merge.
    collapse: dict | None = None
    #: Redundancy-trimming counters: ``patterns_skipped`` /
    #: ``warm_starts`` for serial, ``round_skips`` / ``sites_pruned``
    #: for concurrent; ``None`` for backends without a trim layer.
    trim: dict | None = None
    #: Static-pruning counters (``faults`` / ``kept`` / ``pruned`` /
    #: ``unexcitable`` / ``unobservable``), filled when the static
    #: testability analysis proved part of the universe undetectable
    #: before simulation; ``None`` when pruning was off or proved
    #: nothing.  Pruned faults stay in ``n_faults`` and simply never
    #: appear in the detection log.
    static_pruned: dict | None = None
    #: How many times this run settled the good circuit over the whole
    #: pattern sequence.  Single-process backends report 1 (or 0 when
    #: they consumed a precomputed :class:`~repro.core.goodtrace.
    #: GoodTrace`); the sharded backend sums its shards and adds 1 for
    #: the parent's recording pass, so "good circuit simulated exactly
    #: once" is assertable as ``good_settles == 1``.
    good_settles: int = 0
    #: Shard-scheduling measurements filled by the sharded backend:
    #: ``jobs`` (resolved worker count), ``blocks`` (work-stealing
    #: blocks dispatched), ``block_faults`` (faults per block),
    #: ``imbalance_ratio`` (max/min per-worker busy seconds) and
    #: ``trace_shipped`` (whether shards consumed the parent's
    #: GoodTrace); ``None`` for single-process runs.
    shard_stats: dict | None = None

    @property
    def n_patterns(self) -> int:
        return len(self.patterns)

    @property
    def detected(self) -> int:
        return len(self.log.detected_circuits())

    @property
    def coverage(self) -> float:
        return self.log.coverage(self.n_faults)

    def seconds_per_pattern(self) -> list[float]:
        """The Figure 1/2 falling curve."""
        return [p.seconds for p in self.patterns]

    def cumulative_detections(self) -> list[int]:
        """The Figure 1/2 rising curve."""
        return self.log.cumulative_by_pattern(self.n_patterns)

    def average_seconds_per_pattern(self) -> float:
        if not self.patterns:
            return 0.0
        return self.total_seconds / len(self.patterns)

    def section_seconds(self, start: int, count: int) -> float:
        """CPU seconds spent in patterns [start, start+count)."""
        return sum(p.seconds for p in self.patterns[start:start + count])

    def recount(self, drop_on_detect: bool) -> None:
        """Recompute every record's ``detections`` and ``live_after``
        from the log; ``drop_on_detect`` must mirror the run's setting
        (without dropping every circuit stays live)."""
        cumulative = self.log.cumulative_by_pattern(len(self.patterns))
        previous = 0
        for record, total in zip(self.patterns, cumulative):
            record.detections = total - previous
            previous = total
            record.live_after = (
                self.n_faults - total if drop_on_detect else self.n_faults
            )


def solve_cache_stats(hits: int, misses: int) -> dict:
    """The ``RunReport.solve_cache`` payload for a run's lookups."""
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }
