"""Serial fault simulation: the baseline the paper compares against.

Each faulty circuit is simulated *individually*, from scratch, until it
produces an output different from the good circuit (or the pattern
sequence ends).  Total work is therefore proportional to circuit size x
patterns x faults, versus the concurrent simulator's circuit size x
patterns (for fault counts proportional to circuit size).

Two serial numbers are provided:

* :class:`SerialFaultSimulator` actually runs each circuit (used for
  small-scale measurements and for the cross-backend equivalence
  tests);
* :func:`estimate_serial_seconds` reproduces the paper's estimator
  (footnote **): "summing over all faults the number of patterns
  required to detect the fault times the average time to simulate the
  good circuit for 1 pattern" -- undetected faults cost the full
  sequence.

A run returns the same :class:`~repro.core.report.RunReport` as the
other strategies: pattern ``p``'s seconds are what every faulty circuit
spent simulating it, its detections and live count are recounted from
the detection log, and ``total_seconds`` covers the faulty circuits plus
the good reference run (nothing when a precomputed
:class:`~repro.core.goodtrace.GoodTrace` is consumed instead).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..patterns.clocking import TestPattern
from ..switchlevel.network import TRANS_TABLE, Network, rail_settings
from ..switchlevel.scheduler import Engine
from .detection import POLICY_HARD, Detection, differs
from .faults import Fault
from .goodtrace import GoodTrace, record_good_trace
from .inject import Instrumented, PreparedFault, prepare
from .report import PatternRecord, RunReport
from .strategy import FaultSimulator, clock_timer

#: A faulty circuit differing from the good checkpoint on more nodes
#: than this is treated as fully divergent (no pattern skipping); it
#: bounds the per-pattern containment bookkeeping to a small constant.
_MAX_DIVERGENCE = 32


class SerialFaultSimulator(FaultSimulator):
    """One-circuit-at-a-time fault simulation over a pattern sequence.

    With ``drop_on_detect`` (the default) a faulty circuit's simulation
    stops at its first detection, mirroring the paper's fault dropping;
    disable it to simulate every circuit through the whole sequence
    (used by the final-state equivalence tests).
    """

    def __init__(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        *,
        detection_policy: str = POLICY_HARD,
        drop_on_detect: bool = True,
        max_rounds: int = 200,
        locality: str = "dynamic",
        trim: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        self._instrumented: Instrumented = prepare(net, list(faults))
        super().__init__(
            self._instrumented, observed, detection_policy=detection_policy,
            drop_on_detect=drop_on_detect, max_rounds=max_rounds,
            locality=locality, good_trace=good_trace,
        )
        #: ERASER-style checkpoint trimming (pattern skipping + warm
        #: starts); off, every faulty circuit replays every pattern.
        self.trim = trim
        #: How many good-circuit settles :meth:`run` performed (0 with
        #: a consumed :attr:`good_trace`, 1 otherwise); the sharded
        #: backend sums these to assert the good circuit ran exactly
        #: once.  A trace is validated against this simulator's
        #: network, observed nodes, round budget and patterns.
        self.good_settles = 0

    # ------------------------------------------------------------------
    def run(
        self,
        patterns: Iterable[TestPattern],
        *,
        clock: str = "process",
    ) -> RunReport:
        """Simulate every fault serially; returns the run report."""
        timer = clock_timer(clock)
        pattern_list = list(patterns)
        report = RunReport(
            n_faults=len(self._instrumented.prepared),
            patterns=[
                PatternRecord(index, pattern.label, 0.0, 0, 0)
                for index, pattern in enumerate(pattern_list)
            ],
            backend="serial",
            trim=(
                {"patterns_skipped": 0, "warm_starts": 0}
                if self.trim
                else None
            ),
        )
        if self.good_trace is not None:
            self.good_trace.validate(
                self.network, self.observed_names, self.max_rounds,
                pattern_list,
            )
            reference = self.good_trace
        else:
            # The good circuit once, recording observed states plus the
            # per-pattern checkpoints and touched regions trimming needs.
            start_reference = timer()
            reference = record_good_trace(
                self.network,
                self.observed_names,
                pattern_list,
                forced_transistors=self.good_forced_transistors,
                max_rounds=self.max_rounds,
                locality=self.locality,
            )
            report.total_seconds = timer() - start_reference
            self.good_settles += 1
        self.oscillation_events += reference.oscillation_events

        reach = self._reach(pattern_list, reference) if self.trim else []
        start_total = timer()
        for pf in self._instrumented.prepared:
            self._simulate_fault(
                pf, pattern_list, reference, reach, report, timer
            )
        report.total_seconds += timer() - start_total
        report.recount(self.drop_on_detect)
        report.oscillation_events = self.oscillation_events
        report.good_settles = self.good_settles
        return report

    # ------------------------------------------------------------------
    def _make_engine(self, pf: PreparedFault | None) -> Engine:
        forced_nodes = pf.forced_nodes if pf is not None else {}
        forced_transistors = dict(self.good_forced_transistors)
        if pf is not None:
            forced_transistors.update(pf.forced_transistors)
        engine = Engine(
            self.network,
            forced_nodes=forced_nodes,
            forced_transistors=forced_transistors,
            max_rounds=self.max_rounds,
            locality=self.locality,
        )
        net = self.network
        for name, state in rail_settings(net).items():
            engine.drive(net.node(name), state)
        if pf is not None:
            for seed in pf.seeds:
                engine.perturb(seed)
            for node in pf.forced_nodes:
                for t in net.node_gates[node]:
                    for terminal in (net.t_source[t], net.t_drain[t]):
                        if not net.node_is_input[terminal]:
                            engine.perturb(terminal)
        engine.settle()
        return engine

    def _drive_phase(self, engine: Engine, settings: dict[str, int]) -> None:
        net = self.network
        for name, state in settings.items():
            engine.drive(net.node(name), state)
        engine.settle()

    def _divergence(
        self, engine: Engine, checkpoint: tuple[list[int], list[int]]
    ) -> dict[int, int] | None:
        """Where (and how) the faulty state differs from a good
        checkpoint: ``{node: faulty state}``.

        Returns ``None`` -- meaning "treat as fully divergent, never
        skip" -- when the divergence exceeds ``_MAX_DIVERGENCE`` nodes
        (bounding the per-pattern bookkeeping) or reaches an observed
        node (a divergent output may constitute a detection at any
        observe phase, so those patterns must actually run)."""
        states = engine.states
        good = checkpoint[0]
        if states == good:
            return {}
        div: dict[int, int] = {}
        for node, (faulty, good_state) in enumerate(zip(states, good)):
            if faulty != good_state:
                div[node] = faulty
                if len(div) > _MAX_DIVERGENCE:
                    return None
        for node in self.observed:
            if node in div:
                return None
        return div

    def _reach(
        self, patterns: list[TestPattern], trace: GoodTrace
    ) -> list[set[int] | None]:
        """Per pattern, the nodes a faulty settle can examine while it
        tracks the good run: the good run's touched storage nodes plus
        the inputs the pattern drives (``None`` where the good pattern
        oscillated).

        Other inputs are left out although the good run's vicinities
        list them as boundary: exploration never traverses *through* an
        input, so divergent conduction toward an undriven input only
        matters when the transistor's other terminal is examined.  A
        driven input is different -- its change perturbs every storage
        node it conducts to, and a divergently gated channel may
        conduct in the faulty circuit where it is off in the good one.
        """
        net = self.network
        is_input = net.node_is_input
        reach: list[set[int] | None] = []
        for pattern, touched in zip(patterns, trace.touched):
            if touched is None:
                reach.append(None)
                continue
            nodes = {n for n in touched if not is_input[n]}
            for phase in pattern.phases:
                nodes.update(map(net.node, phase.settings))
            reach.append(nodes)
        return reach

    def _site_set(self, div: dict[int, int]) -> set[int]:
        """Nodes the good run must stay away from for ``div`` to stay
        contained: the divergent nodes themselves plus the channel
        terminals of every transistor they gate (a divergent gate value
        means divergent conduction there)."""
        net = self.network
        sites = set(div)
        for node in div:
            for t in net.node_gates[node]:
                sites.add(net.t_source[t])
                sites.add(net.t_drain[t])
        return sites

    def _pattern_is_inert(
        self,
        sites: set[int],
        forced_node_list: list[int],
        forced_t_list: list[tuple[int, int, tuple[int, int]]],
        k: int,
        trace: GoodTrace,
        reach: list[set[int] | None],
    ) -> bool:
        """True when the faulty circuit provably tracks the good circuit
        through pattern ``k`` -- same observations, same end-state delta
        -- so simulating it is pure redundancy.

        The argument is inductive: while the faulty state equals the
        good checkpoint outside ``sites``, the faulty settle explores
        the same vicinities as the good one *until* it reaches a
        divergent node or fault site.  The pattern's reach (see
        :meth:`_reach`) covers everything either run examines in that
        window, so sites outside it (and, for a forced transistor, one
        the good run never toggles away from the forced state) can never
        be reached and never inject a difference.
        """
        reached = reach[k]
        if reached is None:
            return False  # the good pattern oscillated: never skip
        if not reached.isdisjoint(sites):
            return False
        for node in forced_node_list:
            if node in reached:
                return False
        if forced_t_list:
            toggled = trace.toggled[k]
            cp_tstates = trace.checkpoints[k][1]
            for t, state, terminals in forced_t_list:
                if t not in toggled and cp_tstates[t] == state:
                    # Held the forced state all pattern anyway.
                    continue
                for terminal in terminals:
                    if terminal in reached:
                        return False
        return True

    def _warm_start(
        self,
        engine: Engine,
        div: dict[int, int],
        k: int,
        trace: GoodTrace,
    ) -> None:
        """Resume a faulty circuit at pattern ``k`` from the good
        checkpoint instead of replaying the skipped patterns: restore
        the checkpoint, re-apply the (unchanged) divergence delta, and
        re-pin the fault's forced elements."""
        net = self.network
        engine.restore(trace.checkpoint_before(k))
        states, tstates = engine.states, engine.tstates
        forced_transistors = engine.forced_transistors
        for node, state in div.items():
            states[node] = state
        for node in div:
            for t in net.node_gates[node]:
                if t not in forced_transistors:
                    tstates[t] = (
                        TRANS_TABLE[net.t_kind[t]][states[net.t_gate[t]]]
                    )
        for node, state in engine.forced_nodes.items():
            states[node] = state
        for t, state in forced_transistors.items():
            tstates[t] = state

    def _simulate_fault(
        self,
        pf: PreparedFault,
        patterns: list[TestPattern],
        reference: GoodTrace,
        reach: list[set[int] | None],
        report: RunReport,
        timer: Callable[[], float],
    ) -> None:
        """Run one faulty circuit, logging its detections into
        ``report`` and adding its per-pattern seconds there.

        ERASER-style trimming: whenever the faulty state has converged
        back onto the good checkpoint, patterns whose touched region
        avoids every fault site are skipped outright (they cannot
        produce a detection or a new state), and the next divergent
        pattern warm-starts from the preceding good checkpoint instead
        of replaying the skipped stretch.
        """
        engine = self._make_engine(pf)
        names = self.network.node_names
        net = self.network
        forced_node_list = list(pf.forced_nodes)
        forced_t_list = [
            (t, state, (net.t_source[t], net.t_drain[t]))
            for t, state in pf.forced_transistors.items()
        ]
        trim = report.trim or {}
        records = report.patterns
        div = (
            self._divergence(engine, reference.init_checkpoint)
            if self.trim
            else None
        )
        sites = self._site_set(div) if div is not None else None
        stale = False  # True after skips: engine memory lags the sequence
        try:
            for pattern_index, pattern in enumerate(patterns):
                if div is not None and self._pattern_is_inert(
                    sites,
                    forced_node_list,
                    forced_t_list,
                    pattern_index,
                    reference,
                    reach,
                ):
                    trim["patterns_skipped"] += 1
                    stale = True
                    continue
                pattern_start = timer()
                if stale:
                    self._warm_start(engine, div, pattern_index, reference)
                    trim["warm_starts"] += 1
                    stale = False
                observation = 0
                for phase_index, phase in enumerate(pattern.phases):
                    self._drive_phase(engine, phase.settings)
                    if not phase.observe:
                        continue
                    good_states = reference.observed[pattern_index][
                        observation
                    ]
                    observation += 1
                    # Every differing observed node is logged, exactly
                    # like the concurrent and batch observers; with
                    # dropping on, the first one ends this circuit.
                    for node, good_state in zip(self.observed, good_states):
                        faulty_state = engine.states[node]
                        if not differs(
                            good_state, faulty_state, self.detection_policy
                        ):
                            continue
                        report.log.record(
                            Detection(
                                circuit_id=pf.circuit_id,
                                description=pf.fault.describe(),
                                pattern_index=pattern_index,
                                phase_index=phase_index,
                                node=names[node],
                                good_state=good_state,
                                faulty_state=faulty_state,
                            )
                        )
                        if self.drop_on_detect:
                            records[pattern_index].seconds += (
                                timer() - pattern_start
                            )
                            return
                div = (
                    self._divergence(
                        engine, reference.checkpoints[pattern_index]
                    )
                    if self.trim
                    else None
                )
                sites = self._site_set(div) if div is not None else None
                records[pattern_index].seconds += (
                    timer() - pattern_start
                )
        finally:
            self.oscillation_events += engine.oscillation_events


def estimate_serial_seconds(
    report: RunReport,
    good_average_pattern_seconds: float,
) -> float:
    """The paper's serial-time estimator (footnote **).

    Sums, over all faults, the number of patterns needed to detect the
    fault (undetected faults cost the whole sequence) times the average
    good-circuit time per pattern.
    """
    n_patterns = report.n_patterns
    detected = report.log
    total_patterns = 0
    for circuit_id in range(1, report.n_faults + 1):
        pattern_index = detected.detection_pattern(circuit_id)
        if pattern_index is None:
            total_patterns += n_patterns
        else:
            total_patterns += pattern_index + 1
    return total_patterns * good_average_pattern_seconds
