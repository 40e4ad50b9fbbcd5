"""The good circuit's run, recorded once and shared by every backend.

The paper's central economy is that the good machine is simulated once
while faulty machines ride along as divergences.  The *parallel* layer
initially lost that economy: every shard (and every service worker)
re-settled the good circuit over the whole pattern sequence, so the
duplicated good work grew with the job count.  This module restores it
across process boundaries.

:func:`record_good_trace` runs the good circuit exactly once and
captures everything any backend needs from it:

* per-pattern **checkpoints** (settled ``(states, tstates)``) and the
  settled power-up state -- the serial simulator's ERASER-style warm
  starts resume from these;
* **observed responses** per observing phase -- serial and batch
  detection compare against these instead of re-simulating a reference;
* **touched regions** and gate-**toggled** transistor sets per pattern
  -- the serial trimmer's skip proofs;
* the exact per-round **vicinity solutions** of every settle -- the
  concurrent simulator replays these through its good circuit (trigger
  scans and divergence maintenance included) instead of re-solving
  them.

A :class:`GoodTrace` is a plain picklable value: the sharded backend
records it in the parent and ships it to shards, which then simulate
*only* the faulty circuits.  Replay is byte-exact because every
simulator settles with the same shared kernel discipline
(:mod:`repro.switchlevel.kernel`); traces are recorded on the step-only
path and marked non-``replayable`` if the good circuit ever entered the
force-to-X oscillation fallback, in which case consumers that need the
round sequence (concurrent) must fall back to native settling.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.kernel import (
    DEFAULT_MAX_ROUNDS,
    SettleStats,
    VicinitySolution,
)
from ..switchlevel.network import GND_NAME, VDD_NAME, Network
from ..switchlevel.scheduler import Engine

#: One recorded settle: the vicinity solutions of each round, in order.
RoundLog = list[list[VicinitySolution]]


class GoodTrace:
    """One good-circuit run over a pattern sequence, fully recorded.

    Checkpoints follow the serial simulator's convention:
    ``checkpoints[k]`` is the settled state *after* pattern ``k`` and
    ``init_checkpoint`` the settled power-up state, so
    :meth:`checkpoint_before` gives the state pattern ``k`` starts
    from.  ``touched[k]`` is ``None`` when pattern ``k`` oscillated
    (which disables skip proofs for it).
    """

    __slots__ = (
        "n_nodes",
        "n_transistors",
        "max_rounds",
        "observed_names",
        "pattern_labels",
        "observed",
        "init_checkpoint",
        "checkpoints",
        "touched",
        "toggled",
        "init_rounds",
        "phase_rounds",
        "replayable",
        "oscillation_events",
        "seconds",
    )

    def __init__(
        self,
        n_nodes: int,
        n_transistors: int,
        max_rounds: int,
        observed_names: tuple[str, ...],
    ) -> None:
        self.n_nodes = n_nodes
        self.n_transistors = n_transistors
        self.max_rounds = max_rounds
        self.observed_names = observed_names
        self.pattern_labels: tuple[str, ...] = ()
        #: [pattern][observation][observed node] good states.
        self.observed: list[list[list[int]]] = []
        #: Settled power-up state, before any pattern.
        self.init_checkpoint: tuple[list[int], list[int]] = ([], [])
        #: Settled (states, tstates) after each pattern.
        self.checkpoints: list[tuple[list[int], list[int]]] = []
        self.touched: list[set[int] | None] = []
        self.toggled: list[set[int]] = []
        #: Recorded rounds of the power-up settle.
        self.init_rounds: RoundLog = []
        #: [pattern][phase] recorded rounds of that phase's settle.
        self.phase_rounds: list[list[RoundLog]] = []
        #: False once any settle left the step-only path (oscillation
        #: fallback): checkpoints and observations stay valid, but the
        #: recorded rounds no longer reproduce the run.
        self.replayable = True
        self.oscillation_events = 0
        #: Wall/CPU cost of recording, filled by the caller's clock.
        self.seconds = 0.0

    def checkpoint_before(self, k: int) -> tuple[list[int], list[int]]:
        return self.checkpoints[k - 1] if k else self.init_checkpoint

    def validate(
        self,
        net: Network,
        observed: Sequence[str],
        max_rounds: int,
        patterns: Sequence[TestPattern] | None = None,
    ) -> None:
        """Refuse to be consumed against a run it was not recorded for.

        Shape equality (node and transistor counts) also guards against
        fault universes that rewrote the network (short/open
        instrumentation adds transistors), whose good circuit differs
        from the uninstrumented one this trace was recorded on.
        """
        if (
            self.n_nodes != len(net.node_names)
            or self.n_transistors != len(net.t_kind)
        ):
            raise SimulationError(
                "good trace was recorded on a different network "
                f"({self.n_nodes} nodes/{self.n_transistors} transistors "
                f"vs {len(net.node_names)}/{len(net.t_kind)})"
            )
        if tuple(observed) != self.observed_names:
            raise SimulationError(
                "good trace was recorded for different observed nodes"
            )
        if max_rounds != self.max_rounds:
            raise SimulationError(
                "good trace was recorded under a different round budget "
                f"({self.max_rounds} vs {max_rounds})"
            )
        if patterns is not None:
            labels = tuple(p.label for p in patterns)
            if labels != self.pattern_labels:
                raise SimulationError(
                    "good trace was recorded for a different pattern "
                    "sequence"
                )


class _RecordingEngine(Engine):
    """An engine whose round applications are logged to ``sink``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sink: RoundLog | None = None

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        if self.sink is not None:
            self.sink.append(solutions)
        super().apply_round(solutions, stats)


def _settle_recording(
    engine: _RecordingEngine,
    rounds: RoundLog,
    stats: SettleStats | None = None,
) -> tuple[SettleStats, bool]:
    """``Engine.settle`` with each round's solutions appended to
    ``rounds``; returns ``(stats, clean)`` where ``clean`` means the
    settle never left the step-only path (so the log replays exactly).

    The loop below is the kernel's settle budget for attempt 0; on
    oscillation it hands the engine back to ``Engine.settle`` with the
    budget already spent, which continues with the force-to-X attempts
    byte-for-byte as an unrecorded settle would.
    """
    kernel = engine.kernel
    if stats is None:
        stats = SettleStats()
    engine.sink = rounds
    try:
        while engine.has_pending():
            if stats.rounds >= kernel.max_rounds:
                engine.sink = None
                engine.settle(stats)
                return stats, False
            stats.rounds += 1
            kernel.step(engine, stats)
    finally:
        engine.sink = None
    return stats, True


def record_good_trace(
    net: Network,
    observed: Sequence[str],
    patterns: Iterable[TestPattern],
    *,
    forced_transistors: Mapping[int, int] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    locality: str = "compiled",
) -> GoodTrace:
    """Simulate the good circuit once; returns the recorded trace.

    ``forced_transistors`` carries an instrumented network's
    good-circuit forcing (inserted short/open fault devices held
    inert); plain networks pass nothing.  The default ``compiled``
    locality is the fastest path; solve results are
    locality-independent, so the trace serves consumers running any
    locality.
    """
    if not observed:
        raise SimulationError("at least one observed node is required")
    pattern_list = list(patterns)
    observed_nodes = [net.node(name) for name in observed]
    trace = GoodTrace(
        n_nodes=len(net.node_names),
        n_transistors=len(net.t_kind),
        max_rounds=max_rounds,
        observed_names=tuple(observed),
    )
    trace.pattern_labels = tuple(p.label for p in pattern_list)
    engine = _RecordingEngine(
        net,
        forced_transistors=forced_transistors,
        max_rounds=max_rounds,
        locality=locality,
    )
    for name, state in ((VDD_NAME, 1), (GND_NAME, 0)):
        if name in net.node_index and net.node_is_input[net.node(name)]:
            engine.drive(net.node(name), state)
    _stats, clean = _settle_recording(engine, trace.init_rounds)
    if not clean:
        trace.replayable = False
    trace.init_checkpoint = engine.snapshot()
    for pattern in pattern_list:
        pattern_trace: list[list[int]] = []
        pattern_rounds: list[RoundLog] = []
        pattern_touched: set[int] = set()
        pattern_changed: set[int] = set()
        oscillated = False
        for phase in pattern.phases:
            for name, state in phase.settings.items():
                node = net.node(name)
                engine.drive(node, state)
                pattern_touched.add(node)
                pattern_changed.add(node)
            rounds: RoundLog = []
            stats, clean = _settle_recording(
                engine, rounds, SettleStats(touched_nodes=set())
            )
            pattern_rounds.append(rounds)
            if not clean:
                trace.replayable = False
            if stats.oscillated:
                oscillated = True
            pattern_touched |= stats.touched_nodes
            pattern_changed |= stats.changed_nodes
            if phase.observe:
                pattern_trace.append(
                    [engine.states[node] for node in observed_nodes]
                )
        trace.observed.append(pattern_trace)
        trace.phase_rounds.append(pattern_rounds)
        trace.checkpoints.append(engine.snapshot())
        trace.touched.append(None if oscillated else pattern_touched)
        toggled: set[int] = set()
        for node in pattern_changed:
            toggled.update(net.node_gates[node])
        trace.toggled.append(toggled)
    trace.oscillation_events = engine.oscillation_events
    return trace
