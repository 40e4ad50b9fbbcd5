"""What the serial, concurrent and batch fault simulators share: the
check of their settings, the clock, their common state
(:class:`FaultSimulator`) and the per-pattern loop of the two
pattern-major strategies (:func:`run_patterns`).  They differ only in
how they advance the faulty circuits.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

from ..errors import SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import cache_stats
from ..switchlevel.kernel import LOCALITIES
from .detection import POLICIES, POLICY_HARD, Detection
from .goodtrace import GoodTrace
from .inject import Instrumented
from .report import PatternRecord, RunReport

#: Per-pattern streaming callback: called with the pattern record
#: and the detections that pattern produced.
ProgressCallback = Callable[[PatternRecord, list[Detection]], None]


def check_settings(
    locality: str = "dynamic", detection_policy: str = POLICY_HARD
) -> None:
    """Reject an unknown locality or detection policy."""
    if detection_policy not in POLICIES:
        raise SimulationError(
            f"unknown detection policy {detection_policy!r}"
        )
    if locality not in LOCALITIES:
        raise SimulationError(
            f"unknown locality mode {locality!r}; expected one of "
            + ", ".join(LOCALITIES)
        )


def clock_timer(clock: str) -> Callable[[], float]:
    """``process`` -> CPU seconds (as the paper measured), anything
    else -> wall clock."""
    return time.process_time if clock == "process" else time.perf_counter


class FaultSimulator:
    """Base of the serial, concurrent and batch simulators.

    ``instrumented`` is the fault list already resolved against the
    network (each subclass calls its own module's ``prepare``); the
    simulated network is ``instrumented.net``.
    """

    def __init__(
        self,
        instrumented: Instrumented,
        observed: Sequence[str],
        *,
        detection_policy: str,
        drop_on_detect: bool,
        max_rounds: int,
        locality: str,
        good_trace: GoodTrace | None,
    ):
        check_settings(locality, detection_policy)
        if not observed:
            raise SimulationError("at least one observed node is required")
        self.network = instrumented.net
        self.good_forced_transistors = instrumented.good_forced_transistors
        self.observed_names = tuple(observed)
        self.observed = [self.network.node(name) for name in observed]
        self.detection_policy = detection_policy
        self.drop_on_detect = drop_on_detect
        self.max_rounds = max_rounds
        self.locality = locality
        #: A precomputed good run (see :mod:`repro.core.goodtrace`) to
        #: consume instead of settling the good circuit here.
        self.good_trace = good_trace
        self.oscillation_events = 0

    def solve_cache_counts(self) -> tuple[int, int]:
        """``(hits, misses)`` so far of the compiled solve caches this
        simulator uses; ``(0, 0)`` before anything compiled."""
        stats = cache_stats(self.network)
        return (0, 0) if stats is None else (stats["hits"], stats["misses"])


def run_patterns(
    simulator: Any,
    patterns: Iterable[TestPattern],
    report: RunReport,
    clock: str,
    progress: ProgressCallback | None,
) -> RunReport:
    """Drive a concurrent or batch simulator's ``apply_pattern`` over
    ``patterns``, filling ``report``'s per-pattern records, total, log
    and good-circuit counters.

    ``progress``, if given, is called after every pattern with the
    freshly appended record and the tuple of detections that pattern
    produced; a callback that raises aborts the run at a pattern
    boundary (cancellation), propagating the exception.
    """
    timer = clock_timer(clock)
    log = simulator.log
    start_total = timer()
    for pattern in patterns:
        detected_before = len(log.detected_circuits())
        events_before = len(log.detections)
        start = timer()
        simulator.apply_pattern(pattern)
        elapsed = timer() - start
        record = PatternRecord(
            index=simulator._pattern_index - 1,
            label=pattern.label,
            seconds=elapsed,
            detections=len(log.detected_circuits()) - detected_before,
            live_after=len(simulator.live),
        )
        report.patterns.append(record)
        if progress is not None:
            progress(record, tuple(log.detections[events_before:]))
    report.total_seconds = timer() - start_total
    report.log = log
    report.oscillation_events = simulator.oscillation_events
    report.good_settles = simulator.good_settles
    return report
