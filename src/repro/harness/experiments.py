"""Experiment drivers reproducing the paper's figures and tables.

Each driver builds the circuit, the pattern sequence and the fault list,
runs the good-circuit and concurrent simulations (plus the paper's serial
estimator, and optionally a real serial run), and returns a result object
carrying every number the corresponding figure plots, with a ``render()``
method producing the figure/table as text.

All drivers accept a circuit scale.  The paper's scale is
``rows=8, cols=8`` (RAM64, Figures 1/2) and ``rows=16, cols=16`` (RAM256,
Figure 3 and the scaling comparison); the defaults here are smaller so
the benchmark suite completes quickly in pure Python -- pass the paper's
dimensions to reproduce the original experiments in full (see
EXPERIMENTS.md for measured results at both scales).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Callable

from ..circuits.ram import Ram, build_ram
from ..core.backends import SimPolicy, run_backend
from ..core.concurrent import ConcurrentFaultSimulator
from ..core.detection import POLICY_ANY
from ..core.faults import Fault, ram_fault_universe, sample_faults
from ..core.report import RunReport
from ..core.serial import SerialFaultSimulator, estimate_serial_seconds
from ..errors import ExperimentError
from ..patterns.sequences import RamSequence, sequence1, sequence2
from .figures import dual_chart, render_table, xy_chart
from .timing import format_seconds

#: Default RNG seed for fault sampling (the paper's publication year).
DEFAULT_SEED = 1985

#: Default detection policy for the reproduction experiments.  The paper
#: drops a fault "any time the simulation of a faulty circuit produces a
#: result on the output data pin different than the good circuit", which
#: includes X-vs-definite differences -- that is ``POLICY_ANY``.  Pass
#: ``detection_policy="hard"`` for the conservative definite-values-only
#: rule (EXPERIMENTS.md reports both).
DEFAULT_POLICY = POLICY_ANY


#: Timing repeats for the curve experiments.  The fault simulation runs
#: up to ``SIM_REPEATS`` times, and the good-circuit reference (the
#: serial estimator's unit cost) ``GOOD_REPEATS`` times before the first
#: and after every fault-simulation run; the run with the median time of
#: each is reported (runs are deterministic, so only their timings
#: differ), the fault simulation's per-pattern seconds replaced by each
#: pattern's median across its runs.  On a shared host, the speed
#: drifts by up to 1.6x within seconds: a single ~0.1 s good run samples
#: one instant of it while a ~4 s fault simulation averages over it, and
#: the head and tail of one run are timed seconds apart.  Interleaved
#: medians compare typical runs from the same stretch of time.  Repeats
#: stop once the fault simulations so far took ``REPEAT_BUDGET_SECONDS``,
#: so paper-scale runs are timed once.
GOOD_REPEATS = 3
SIM_REPEATS = 5
REPEAT_BUDGET_SECONDS = 30.0


def _median_run(reports: list[RunReport]) -> RunReport:
    """The report with the (lower) median ``total_seconds``."""
    ranked = sorted(reports, key=lambda report: report.total_seconds)
    return ranked[(len(ranked) - 1) // 2]


def _good_run(ram: Ram, patterns) -> RunReport:
    """One good-circuit run of ``patterns`` (the concurrent machinery
    with no faults *is* a plain good-circuit simulation)."""
    good = ConcurrentFaultSimulator(ram.net, [], observed=[ram.dout])
    return good.run(patterns)


def _timed_runs(
    good_run: Callable[[], RunReport], sim_run: Callable[[], RunReport]
) -> tuple[RunReport, RunReport]:
    """Median good-circuit and fault-simulation reports, their runs
    interleaved as :data:`SIM_REPEATS` describes."""
    goods = [good_run() for _ in range(GOOD_REPEATS)]
    sims: list[RunReport] = []
    spent = 0.0
    while len(sims) < SIM_REPEATS and spent < REPEAT_BUDGET_SECONDS:
        sims.append(sim_run())
        spent += sims[-1].total_seconds
        goods.extend(good_run() for _ in range(GOOD_REPEATS))
    report = _median_run(sims)
    report.patterns = [
        replace(
            record,
            seconds=statistics.median(
                run.patterns[index].seconds for run in sims
            ),
        )
        for index, record in enumerate(report.patterns)
    ]
    return _median_run(goods), report


def _pick_faults(
    ram: Ram, n_faults: int | None, seed: int
) -> list[Fault]:
    universe = ram_fault_universe(ram)
    if n_faults is None or n_faults >= len(universe):
        return universe
    return sample_faults(universe, n_faults, seed=seed)


# ---------------------------------------------------------------------------
# Figures 1 and 2: detection and seconds-per-pattern curves
# ---------------------------------------------------------------------------


@dataclass
class CurveResult:
    """Everything Figures 1/2 plot, plus the totals quoted in the text.

    ``sim_seconds`` is the fault simulation's cost under whichever
    ``backend`` ran it (archived rows would lie if a serial run's time
    were stored under a concurrent-named key); ``concurrent_seconds``
    remains as a read-only alias for existing consumers.
    """

    experiment: str
    circuit: str
    sequence_name: str
    backend: str
    n_patterns: int
    n_faults: int
    detected: int
    coverage: float
    good_seconds: float
    sim_seconds: float
    serial_estimate_seconds: float
    head_patterns: int
    head_seconds: float
    #: Oscillation fallbacks the run hit (force-to-X events); archived
    #: so oscillation regressions show up in experiment artifacts.
    oscillation_events: int = 0
    #: Solve-cache counters (hits/misses/hit_rate) when the backend ran
    #: with the compiled locality; ``None`` otherwise.
    solve_cache: dict | None = None
    #: Fault-collapsing stats (faults/classes/representatives/...) when
    #: the run simulated class representatives; ``None`` otherwise.
    collapse: dict | None = None
    #: Redundancy-trim counters (patterns_skipped/warm_starts for
    #: serial, round_skips/sites_pruned for concurrent); ``None`` for
    #: backends without a trim layer.
    trim: dict | None = None
    #: Static-prune counters (faults/kept/pruned/unexcitable/
    #: unobservable) when the testability analysis removed part of the
    #: universe before simulation; ``None`` otherwise.
    static_pruned: dict | None = None
    seconds_per_pattern: list[float] = field(default_factory=list)
    cumulative_detections: list[int] = field(default_factory=list)
    live_after_pattern: list[int] = field(default_factory=list)
    #: Constructor options the backend ran with (``locality``,
    #: ``jobs``...), archived so rows from differently-tuned runs of the
    #: same strategy stay distinguishable.
    backend_options: dict = field(default_factory=dict)
    report: RunReport | None = field(default=None, repr=False)

    @property
    def concurrent_seconds(self) -> float:
        """Alias of :attr:`sim_seconds` (pre-registry consumers)."""
        return self.sim_seconds

    @property
    def concurrent_vs_serial_ratio(self) -> float:
        if self.concurrent_seconds == 0:
            return float("inf")
        return self.serial_estimate_seconds / self.concurrent_seconds

    @property
    def concurrent_vs_good_ratio(self) -> float:
        if self.good_seconds == 0:
            return float("inf")
        return self.concurrent_seconds / self.good_seconds

    @property
    def head_fraction(self) -> float:
        if self.concurrent_seconds == 0:
            return 0.0
        return self.head_seconds / self.concurrent_seconds

    @property
    def tail_overhead_vs_good(self) -> float:
        """Average tail sec/pattern over the good circuit's average."""
        tail = self.seconds_per_pattern[self.head_patterns:]
        if not tail or self.good_seconds == 0:
            return 0.0
        good_avg = self.good_seconds / self.n_patterns
        return statistics.mean(tail) / good_avg

    def render(self) -> str:
        chart = dual_chart(
            self.cumulative_detections,
            self.seconds_per_pattern,
            title=(
                f"{self.experiment}: {self.circuit}, {self.sequence_name} "
                f"({self.n_patterns} patterns, {self.n_faults} faults, "
                f"{self.backend} backend)"
            ),
        )
        rows = [
            ("faults detected", f"{self.detected} ({self.coverage:.1%})"),
            ("good circuit alone", format_seconds(self.good_seconds)),
            (
                f"{self.backend} fault sim",
                format_seconds(self.concurrent_seconds),
            ),
            (
                "serial estimate (paper method)",
                format_seconds(self.serial_estimate_seconds),
            ),
            (
                "concurrent/serial ratio",
                f"{self.concurrent_vs_serial_ratio:.1f}",
            ),
            (
                f"head = first {self.head_patterns} patterns",
                f"{format_seconds(self.head_seconds)} "
                f"({self.head_fraction:.0%} of total)",
            ),
            (
                "tail overhead vs good circuit",
                f"{self.tail_overhead_vs_good:.1f}x",
            ),
        ]
        return chart + render_table(("quantity", "value"), rows)


def run_curve_experiment(
    *,
    experiment: str,
    rows: int,
    cols: int,
    sequence_builder,
    n_faults: int | None,
    seed: int,
    detection_policy: str = DEFAULT_POLICY,
    backend: str = "concurrent",
    backend_options: dict | None = None,
) -> CurveResult:
    """One Figure-1/2-shaped run of any registered backend.

    The good-circuit reference is always measured with the concurrent
    machinery (:func:`_good_run`); the fault simulation itself goes
    through the backend registry.  Both report their median run (see
    :data:`SIM_REPEATS`).
    """
    ram = build_ram(rows, cols)
    sequence: RamSequence = sequence_builder(ram)
    faults = _pick_faults(ram, n_faults, seed)

    good_report, report = _timed_runs(
        lambda: _good_run(ram, sequence.patterns),
        lambda: run_backend(
            backend,
            ram.net,
            faults,
            [ram.dout],
            list(sequence.patterns),
            SimPolicy(detection_policy=detection_policy),
            **(backend_options or {}),
        ),
    )

    serial_estimate = estimate_serial_seconds(
        report, good_report.average_seconds_per_pattern()
    )
    head = sequence.head_length
    return CurveResult(
        experiment=experiment,
        circuit=ram.name,
        sequence_name=sequence.name,
        backend=backend,
        n_patterns=len(sequence),
        n_faults=len(faults),
        detected=report.detected,
        coverage=report.coverage,
        good_seconds=good_report.total_seconds,
        sim_seconds=report.total_seconds,
        serial_estimate_seconds=serial_estimate,
        head_patterns=head,
        head_seconds=report.section_seconds(0, head),
        oscillation_events=report.oscillation_events,
        solve_cache=report.solve_cache,
        collapse=report.collapse,
        trim=report.trim,
        static_pruned=report.static_pruned,
        seconds_per_pattern=report.seconds_per_pattern(),
        cumulative_detections=report.cumulative_detections(),
        live_after_pattern=[p.live_after for p in report.patterns],
        backend_options=dict(backend_options or {}),
        report=report,
    )


def run_fig1(
    rows: int = 4,
    cols: int = 4,
    n_faults: int | None = None,
    seed: int = DEFAULT_SEED,
    detection_policy: str = DEFAULT_POLICY,
    backend: str = "concurrent",
    backend_options: dict | None = None,
) -> CurveResult:
    """Figure 1: Test Sequence 1 (control + row/col marches + array march).

    Paper scale: ``rows=8, cols=8, n_faults=428``.
    """
    return run_curve_experiment(
        experiment="FIG1",
        rows=rows,
        cols=cols,
        sequence_builder=sequence1,
        n_faults=n_faults,
        seed=seed,
        detection_policy=detection_policy,
        backend=backend,
        backend_options=backend_options,
    )


def run_fig2(
    rows: int = 4,
    cols: int = 4,
    n_faults: int | None = None,
    seed: int = DEFAULT_SEED,
    detection_policy: str = DEFAULT_POLICY,
    backend: str = "concurrent",
    backend_options: dict | None = None,
) -> CurveResult:
    """Figure 2: Test Sequence 2 (row/column marches omitted).

    Paper scale: ``rows=8, cols=8, n_faults=428``.
    """
    return run_curve_experiment(
        experiment="FIG2",
        rows=rows,
        cols=cols,
        sequence_builder=sequence2,
        n_faults=n_faults,
        seed=seed,
        detection_policy=detection_policy,
        backend=backend,
        backend_options=backend_options,
    )


# ---------------------------------------------------------------------------
# The in-text scaling comparison (RAM64 vs RAM256)
# ---------------------------------------------------------------------------


@dataclass
class ScalingEntry:
    circuit: str
    transistors: int
    nodes: int
    n_patterns: int
    n_faults: int
    good_seconds: float
    sim_seconds: float
    serial_estimate_seconds: float
    oscillation_events: int = 0

    @property
    def concurrent_seconds(self) -> float:
        """Alias of :attr:`sim_seconds` (pre-registry consumers)."""
        return self.sim_seconds


@dataclass
class ScalingResult:
    """The paper's size-scaling comparison (section 5, in-text table)."""

    small: ScalingEntry
    large: ScalingEntry
    backend: str = "concurrent"
    backend_options: dict = field(default_factory=dict)

    def factor(self, attribute: str) -> float:
        small = getattr(self.small, attribute)
        large = getattr(self.large, attribute)
        return large / small if small else float("inf")

    def render(self) -> str:
        headers = (
            "circuit",
            "transistors",
            "patterns",
            "faults",
            "good",
            "concurrent",
            "serial est.",
        )
        rows = [
            (
                entry.circuit,
                entry.transistors,
                entry.n_patterns,
                entry.n_faults,
                format_seconds(entry.good_seconds),
                format_seconds(entry.concurrent_seconds),
                format_seconds(entry.serial_estimate_seconds),
            )
            for entry in (self.small, self.large)
        ]
        factors = (
            "scale factor",
            f"{self.factor('transistors'):.1f}x",
            f"{self.factor('n_patterns'):.1f}x",
            f"{self.factor('n_faults'):.1f}x",
            f"{self.factor('good_seconds'):.1f}x",
            f"{self.factor('concurrent_seconds'):.1f}x",
            f"{self.factor('serial_estimate_seconds'):.1f}x",
        )
        return render_table(headers, rows + [factors])


def run_scaling(
    small: tuple[int, int] = (2, 4),
    large: tuple[int, int] = (4, 4),
    n_faults: int | None = None,
    seed: int = DEFAULT_SEED,
    detection_policy: str = DEFAULT_POLICY,
    backend: str = "concurrent",
    backend_options: dict | None = None,
) -> ScalingResult:
    """Time good/concurrent/serial across two circuit sizes.

    Paper scale: ``small=(8, 8), large=(16, 16)`` with all faults --
    the paper reports good x9, concurrent x9, serial x37.
    """

    def entry(rows: int, cols: int) -> ScalingEntry:
        result = run_fig1(
            rows, cols, n_faults=n_faults, seed=seed,
            detection_policy=detection_policy, backend=backend,
            backend_options=backend_options,
        )
        ram = build_ram(rows, cols)
        return ScalingEntry(
            circuit=result.circuit,
            transistors=ram.net.n_transistors,
            nodes=ram.net.n_nodes,
            n_patterns=result.n_patterns,
            n_faults=result.n_faults,
            good_seconds=result.good_seconds,
            sim_seconds=result.sim_seconds,
            serial_estimate_seconds=result.serial_estimate_seconds,
            oscillation_events=result.oscillation_events,
        )

    return ScalingResult(
        small=entry(*small),
        large=entry(*large),
        backend=backend,
        backend_options=dict(backend_options or {}),
    )


# ---------------------------------------------------------------------------
# Figure 3: average seconds/pattern vs number of (sampled) faults
# ---------------------------------------------------------------------------


@dataclass
class Fig3Point:
    n_faults: int
    concurrent_avg: float
    serial_estimate_avg: float
    serial_real_avg: float | None = None


@dataclass
class Fig3Result:
    circuit: str
    n_patterns: int
    points: list[Fig3Point] = field(default_factory=list)
    backend: str = "concurrent"
    backend_options: dict = field(default_factory=dict)

    def slope_ratio(self) -> float:
        """Serial slope over concurrent slope (paper: about 85)."""
        if len(self.points) < 2:
            raise ExperimentError("need at least two fault counts")
        first, last = self.points[0], self.points[-1]
        df = last.n_faults - first.n_faults
        if df == 0:
            raise ExperimentError("fault counts must differ")
        concurrent = (last.concurrent_avg - first.concurrent_avg) / df
        serial = (last.serial_estimate_avg - first.serial_estimate_avg) / df
        if concurrent <= 0:
            return float("inf")
        return serial / concurrent

    def render(self) -> str:
        chart = xy_chart(
            {
                "concurrent": [
                    (p.n_faults, p.concurrent_avg) for p in self.points
                ],
                "serial est.": [
                    (p.n_faults, p.serial_estimate_avg) for p in self.points
                ],
            },
            title=(
                "FIG3: avg seconds/pattern vs faults "
                f"({self.circuit}, {self.n_patterns} patterns)"
            ),
        )
        headers = ["faults", "concurrent s/pat", "serial est. s/pat"]
        include_real = any(p.serial_real_avg is not None for p in self.points)
        if include_real:
            headers.append("serial real s/pat")
        rows = []
        for p in self.points:
            row = [
                p.n_faults,
                f"{p.concurrent_avg:.4f}",
                f"{p.serial_estimate_avg:.4f}",
            ]
            if include_real:
                row.append(
                    "-" if p.serial_real_avg is None
                    else f"{p.serial_real_avg:.4f}"
                )
            rows.append(row)
        footer = f"serial/concurrent slope ratio: {self.slope_ratio():.1f}\n"
        return chart + render_table(headers, rows) + footer


def run_fig3(
    rows: int = 4,
    cols: int = 4,
    fault_counts: tuple[int, ...] = (25, 75, 125, 200),
    seed: int = DEFAULT_SEED,
    real_serial_limit: int = 0,
    detection_policy: str = DEFAULT_POLICY,
    backend: str = "concurrent",
    backend_options: dict | None = None,
) -> Fig3Result:
    """Figure 3: sweep the fault-sample size, measure avg sec/pattern.

    Paper scale: ``rows=16, cols=16`` with samples up to all 1382 faults.
    ``real_serial_limit`` additionally runs the true serial simulator for
    sample sizes up to that limit (0 disables; it is slow).
    """
    ram = build_ram(rows, cols)
    sequence = sequence1(ram)
    universe = ram_fault_universe(ram)
    good_avg = _median_run(
        [_good_run(ram, sequence.patterns) for _ in range(2 * GOOD_REPEATS)]
    ).average_seconds_per_pattern()

    result = Fig3Result(
        circuit=ram.name,
        n_patterns=len(sequence),
        backend=backend,
        backend_options=dict(backend_options or {}),
    )
    for count in fault_counts:
        if count > len(universe):
            raise ExperimentError(
                f"sample of {count} exceeds universe of {len(universe)}"
            )
        faults = sample_faults(universe, count, seed=seed)
        report = run_backend(
            backend,
            ram.net,
            faults,
            [ram.dout],
            list(sequence.patterns),
            SimPolicy(detection_policy=detection_policy),
            **(backend_options or {}),
        )
        estimate = estimate_serial_seconds(report, good_avg)
        real_avg = None
        if count <= real_serial_limit:
            serial = SerialFaultSimulator(
                ram.net, faults, observed=[ram.dout],
                detection_policy=detection_policy,
            )
            serial_report = serial.run(sequence.patterns)
            real_avg = serial_report.average_seconds_per_pattern()
        result.points.append(
            Fig3Point(
                n_faults=count,
                concurrent_avg=report.average_seconds_per_pattern(),
                serial_estimate_avg=estimate / len(sequence),
                serial_real_avg=real_avg,
            )
        )
    return result
