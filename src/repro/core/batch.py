"""Batch (bit-parallel) fault simulation: every faulty circuit per pass.

The third strategy next to serial and concurrent simulation: pack every
faulty circuit into the bit lanes of one
:class:`~repro.switchlevel.bitplane.LaneSimulator` and advance them in
lockstep.  Each lane is a *complete* faulty circuit (no good-circuit
tracking, unlike the concurrent algorithm), but the work of a round is
shared across lanes: gate evaluation, conduction updates and the
steady-state relaxation all run once per union vicinity with lane masks
instead of once per circuit (the approach of batch RTL fault simulators,
arXiv:2505.06687, transplanted to the switch-level model).  The plane
is as wide as the fault list: Python integers are arbitrary-width, so a
360-lane mask operation costs about what a 64-lane one does, while
splitting the list into fixed-width chunks would repeat a round's
exploration and solve once per chunk.

Faults whose circuits agree keep their planes identical, so packed
simulation costs roughly one circuit's work until faults actually
diverge; detected circuits are dropped from the ``active`` lane mask
immediately and the planes are *compacted* onto the surviving lanes
once at most half the plane is alive -- fault dropping trims the bit
width itself, which is this backend's analogue of the concurrent
simulator's record purge (and of ERASER-style redundancy pruning,
arXiv:2504.16473).

The good circuit runs alongside as a scalar
:class:`~repro.switchlevel.scheduler.Engine` and supplies the reference
values for detection.  Lanes that blow the round budget are handed to a
scalar engine finished by the shared
:class:`~repro.switchlevel.kernel.SettleKernel`, so oscillation
fallback semantics match the other backends; cross-backend parity is
property-tested in ``tests/core/test_backends.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import FaultError, SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.bitplane import LaneSimulator
from ..switchlevel.compiled import compile_network
from ..switchlevel.kernel import DEFAULT_MAX_ROUNDS, LOCALITIES, SettleStats
from ..switchlevel.logic import STATES
from ..switchlevel.network import GND_NAME, VDD_NAME, Network
from ..switchlevel.scheduler import Engine
from .detection import POLICIES, POLICY_HARD, Detection, DetectionLog
from .faults import Fault
from .goodtrace import GoodTrace
from .inject import CLOSED_STATE, Instrumented, PreparedFault, prepare
from .report import PatternRecord, RunReport

ProgressCallback = Callable[[PatternRecord, list[Detection]], None]

#: Compaction threshold: repack once at most this fraction is alive.
_COMPACT_FRACTION = 0.5

#: Never compact planes narrower than this (repacking costs more than
#: the dead lanes do).
_COMPACT_MIN_WIDTH = 8


class BatchFaultSimulator:
    """Bit-parallel fault simulation of one network under a fault list.

    The constructor mirrors :class:`~repro.core.concurrent.
    ConcurrentFaultSimulator`; every prepared fault gets one lane of a
    single set of bit planes (:attr:`lanes`), and lane ``i`` simulates
    ``pfs[i]``.  An empty fault list yields a 0-lane plane, on which
    every step is a no-op.
    """

    def __init__(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        *,
        detection_policy: str = POLICY_HARD,
        drop_on_detect: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        locality: str = "dynamic",
        good_trace: GoodTrace | None = None,
    ):
        if detection_policy not in POLICIES:
            raise SimulationError(
                f"unknown detection policy {detection_policy!r}"
            )
        if locality not in LOCALITIES:
            raise SimulationError(f"unknown locality mode: {locality!r}")
        instrumented: Instrumented = prepare(net, list(faults))
        self.network = instrumented.net
        self.good_forced_transistors = instrumented.good_forced_transistors
        self.detection_policy = detection_policy
        self.drop_on_detect = drop_on_detect
        self.max_rounds = max_rounds
        self.locality = locality
        #: Under the compiled locality the lanes select dirty components
        #: from this partition (with a lane-aware solve cache of their own);
        #: the scalar good engine shares the network-level cache.  The
        #: static locality applies to the scalar good engine only: the
        #: lanes' union vicinity is already a component-complete region.
        self.compiled = (
            compile_network(self.network) if locality == "compiled" else None
        )
        self.oscillation_events = 0
        if not observed:
            raise SimulationError("at least one observed node is required")
        self.observed = [self.network.node(name) for name in observed]

        #: A precomputed good run (see :mod:`repro.core.goodtrace`):
        #: detection compares lanes against its recorded observed
        #: responses and the scalar good engine is never built, so the
        #: good circuit is settled zero times here.
        self.good_trace = good_trace
        #: How many good-circuit settles this simulator performs over
        #: its lifetime (0 when consuming a trace, 1 otherwise).
        self.good_settles = 0 if good_trace is not None else 1
        self.good: Engine | None = None
        if good_trace is not None:
            good_trace.validate(self.network, observed, max_rounds)
            self.oscillation_events += good_trace.oscillation_events
        else:
            self.good = Engine(
                self.network,
                forced_transistors=self.good_forced_transistors,
                max_rounds=max_rounds,
                locality=locality,
            )
            net_ = self.network
            for name, state in ((VDD_NAME, 1), (GND_NAME, 0)):
                if name in net_.node_index:
                    node = net_.node_index[name]
                    if net_.node_is_input[node]:
                        self.good.drive(node, state)
            self.good.settle()

        prepared = list(instrumented.prepared)
        self.live: set[int] = {pf.circuit_id for pf in prepared}
        self.n_faults = len(prepared)
        #: Prepared faults in lane order.
        self.pfs: list[PreparedFault] = prepared
        self.lanes = self._build_lanes()
        self._settle_lanes()

        self.log = DetectionLog()
        self._pattern_index = 0
        self._phase_index = 0
        #: Which observe phase of the current pattern comes next
        #: (indexes the trace's recorded responses).
        self._observation_index = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        patterns: Iterable[TestPattern],
        *,
        clock: str = "process",
        progress: ProgressCallback | None = None,
    ) -> RunReport:
        """Simulate a pattern sequence; returns the measurement report.

        ``progress``, if given, is called after every pattern with
        ``(record, detections)``; see
        :meth:`repro.core.concurrent.ConcurrentFaultSimulator.run`.
        """
        timer = time.process_time if clock == "process" else time.perf_counter
        report = RunReport(n_faults=self.n_faults, backend="batch")
        start_total = timer()
        for pattern in patterns:
            detected_before = len(self.log.detected_circuits())
            events_before = len(self.log.detections)
            start = timer()
            self.apply_pattern(pattern)
            elapsed = timer() - start
            record = PatternRecord(
                index=self._pattern_index - 1,
                label=pattern.label,
                seconds=elapsed,
                detections=(
                    len(self.log.detected_circuits()) - detected_before
                ),
                live_after=len(self.live),
            )
            report.patterns.append(record)
            if progress is not None:
                progress(record, tuple(self.log.detections[events_before:]))
        report.total_seconds = timer() - start_total
        report.log = self.log
        report.oscillation_events = self.oscillation_events + (
            self.good.oscillation_events if self.good is not None else 0
        )
        report.good_settles = self.good_settles
        return report

    def apply_pattern(self, pattern: TestPattern) -> None:
        """Simulate one pattern (all its phases, with observations)."""
        trace = self.good_trace
        if trace is not None:
            if self._pattern_index >= len(trace.observed):
                raise SimulationError(
                    "good trace exhausted: more patterns than recorded"
                )
            if trace.pattern_labels[self._pattern_index] != pattern.label:
                raise SimulationError(
                    "good trace was recorded for a different pattern "
                    "sequence"
                )
        self._observation_index = 0
        for phase_index, phase in enumerate(pattern.phases):
            self._phase_index = phase_index
            self.apply_phase(phase.settings)
            if phase.observe:
                self._observe()
        self._pattern_index += 1
        if self.drop_on_detect:
            self._maybe_compact()

    def apply_phase(self, settings: Mapping[str, int]) -> None:
        """Apply one input setting and settle every lane."""
        net = self.network
        for name, state in settings.items():
            node = net.node(name)
            if self.good is not None:
                # The good engine validates (input-ness, state range)
                # for every circuit; lanes share the same inputs.
                self.good.drive(node, state)
            else:
                # Trace mode: the same validation, without an engine.
                if state not in STATES:
                    raise SimulationError(
                        f"invalid state {state!r} for {name!r}"
                    )
                if not net.node_is_input[node]:
                    raise SimulationError(f"node {name!r} is not an input")
            if self.lanes.active:
                self.lanes.drive(node, state)
        if self.good is not None:
            self.good.settle()
        # Once every lane is detected (or there were none) nothing is
        # left to simulate; dropped lanes stay frozen at their
        # drop-time states.
        if self.lanes.active:
            self._settle_lanes()

    def circuit_state_of(self, circuit_id: int, name: str) -> int:
        """A faulty circuit's state of a node, by name."""
        node = self.network.node(name)
        for index, pf in enumerate(self.pfs):
            if pf.circuit_id == circuit_id:
                return self.lanes.lane_state(node, index)
        raise FaultError(
            f"no circuit {circuit_id} (compacted away or unknown)"
        )

    @property
    def live_circuits(self) -> set[int]:
        """Ids of faulty circuits still being simulated."""
        return set(self.live)

    # ------------------------------------------------------------------
    # building the plane, settling with the scalar oscillation fallback
    # ------------------------------------------------------------------
    def _build_lanes(self) -> LaneSimulator:
        """Pack every prepared fault into one lane plane, seeded.

        Rails, then each fault's activation seeds in lane order; the
        caller then settles once -- the same initialization order as a
        standalone engine per fault.
        """
        net = self.network
        pfs = self.pfs
        full = (1 << len(pfs)) - 1
        node_force_mask: dict[int, int] = {}
        node_force_values: dict[int, tuple[int, int]] = {}
        t_on: dict[int, int] = {}
        t_off: dict[int, int] = {}
        # Inserted fault devices default to their good-circuit forcing
        # in every lane; each fault's own lane then overrides.
        for t, state in self.good_forced_transistors.items():
            if state == CLOSED_STATE:
                t_on[t] = full
            else:
                t_off[t] = full
        for index, pf in enumerate(pfs):
            bit = 1 << index
            for node, value in pf.forced_nodes.items():
                node_force_mask[node] = node_force_mask.get(node, 0) | bit
                f0, f1 = node_force_values.get(node, (0, 0))
                if value != 1:
                    f0 |= bit
                if value != 0:
                    f1 |= bit
                node_force_values[node] = (f0, f1)
            for t, state in pf.forced_transistors.items():
                t_on[t] = t_on.get(t, 0) & ~bit
                t_off[t] = t_off.get(t, 0) & ~bit
                if state == CLOSED_STATE:
                    t_on[t] |= bit
                else:
                    t_off[t] |= bit
        lanes = LaneSimulator(
            net,
            len(pfs),
            node_force_mask=node_force_mask,
            node_force_values=node_force_values,
            t_force_on={t: m for t, m in t_on.items() if m},
            t_force_off={t: m for t, m in t_off.items() if m},
            compiled=self.compiled,
        )
        for name, state in ((VDD_NAME, 1), (GND_NAME, 0)):
            if name in net.node_index:
                node = net.node_index[name]
                if net.node_is_input[node]:
                    lanes.drive(node, state)
        for index, pf in enumerate(pfs):
            bit = 1 << index
            for seed in pf.seeds:
                lanes.perturb(seed, bit)
            for node in pf.forced_nodes:
                for t in net.node_gates[node]:
                    for terminal in (net.t_source[t], net.t_drain[t]):
                        if not net.node_is_input[terminal]:
                            lanes.perturb(terminal, bit)
        return lanes

    def _settle_lanes(self) -> None:
        pending_lanes = self.lanes.settle(self.max_rounds)
        while pending_lanes:
            lane = (pending_lanes & -pending_lanes).bit_length() - 1
            pending_lanes &= pending_lanes - 1
            self._finish_lane(lane)

    def _finish_lane(self, lane: int) -> None:
        """Hand one oscillating lane to a scalar engine to finish.

        The engine continues from the lane's mid-settle state with the
        round budget already marked spent, so the kernel goes straight
        to its force-to-X attempts -- byte-for-byte what a standalone
        simulation of this circuit would do at this point.
        """
        pf = self.pfs[lane]
        lanes = self.lanes
        forced_transistors: Mapping[int, int] = self.good_forced_transistors
        if pf.forced_transistors:
            forced_transistors = {
                **forced_transistors, **pf.forced_transistors
            }
        states, tstates = lanes.extract_lane(lane)
        engine = Engine(
            self.network,
            forced_nodes=pf.forced_nodes,
            forced_transistors=forced_transistors,
            max_rounds=self.max_rounds,
            locality=self.locality,
        )
        engine.states[:] = states
        engine.tstates[:] = tstates
        engine.pending = lanes.pending_lane_nodes(lane)
        stats = SettleStats(rounds=self.max_rounds)
        engine.kernel.settle(engine, stats)
        self.oscillation_events += stats.x_fallbacks
        lanes.writeback_lane(lane, engine.states)

    # ------------------------------------------------------------------
    # detection and lane compaction
    # ------------------------------------------------------------------
    def _observe(self) -> None:
        policy = self.detection_policy
        trace = self.good_trace
        if trace is None:
            good_states = self.good.states
            recorded = None
        else:
            recorded = trace.observed[self._pattern_index][
                self._observation_index
            ]
        self._observation_index += 1
        names = self.network.node_names
        lanes = self.lanes
        for index, node in enumerate(self.observed):
            good_state = (
                good_states[node] if recorded is None else recorded[index]
            )
            p0, p1 = lanes.p0[node], lanes.p1[node]
            if policy == POLICY_HARD:
                if good_state == 1:
                    detected = p0 & ~p1
                elif good_state == 0:
                    detected = p1 & ~p0
                else:
                    detected = 0
            else:  # POLICY_ANY: any state difference, X included
                if good_state == 1:
                    detected = p0
                elif good_state == 0:
                    detected = p1
                else:
                    detected = ~(p0 & p1) & lanes.full
            detected &= lanes.active
            while detected:
                lane = (detected & -detected).bit_length() - 1
                detected &= detected - 1
                pf = self.pfs[lane]
                self.log.record(
                    Detection(
                        circuit_id=pf.circuit_id,
                        description=pf.fault.describe(),
                        pattern_index=self._pattern_index,
                        phase_index=self._phase_index,
                        node=names[node],
                        good_state=good_state,
                        faulty_state=lanes.lane_state(node, lane),
                    )
                )
                if self.drop_on_detect:
                    lanes.active &= ~(1 << lane)
                    self.live.discard(pf.circuit_id)

    def _maybe_compact(self) -> None:
        """Repack the plane once its live fraction drops to the threshold."""
        lanes = self.lanes
        if lanes.lane_count < _COMPACT_MIN_WIDTH:
            return
        alive = bin(lanes.active).count("1")
        if alive <= lanes.lane_count * _COMPACT_FRACTION:
            keep = [
                index
                for index in range(lanes.lane_count)
                if (lanes.active >> index) & 1
            ]
            self.pfs = [self.pfs[index] for index in keep]
            lanes.compact(keep)
