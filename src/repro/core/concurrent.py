"""The concurrent switch-level fault simulator (the paper's algorithm).

One network is shared by the good circuit (id 0) and every faulty
circuit (ids 1..F).  The good circuit is simulated in full; a faulty
circuit is represented *only* by its divergences:

* per-node :class:`~repro.core.statelist.StateList` records <i, s_i>
  where circuit i's node state differs from the good circuit's (plus a
  per-circuit dict index of the same records, for O(1) state lookup);
* per-circuit overlays for the fault itself: forced nodes (node faults
  act as pseudo-inputs) and forced transistors (stuck devices, inserted
  short/open fault transistors).

Events are (node, circuit) pairs.  Each input setting is simulated by
first running the good circuit to quiescence and then each pending
faulty circuit in ascending circuit-id order (the paper's discipline).
All of the round mechanics -- seed grouping, vicinity exploration,
steady-state solving, the force-to-X oscillation fallback -- come from
the shared :mod:`repro.switchlevel.kernel`; this module supplies the
two circuit adapters (good and faulty) whose ``apply_round`` methods do
the concurrent-specific work: trigger scanning and divergence-record
maintenance.

While the good circuit settles, every solved vicinity is scanned to
*trigger* events for exactly those circuits whose behavior there can
differ:

* circuits with divergence records on the vicinity's nodes or on the
  gates controlling transistors that touch it;
* circuits with a node fault inside the vicinity (the pseudo-input's
  omega drive can change outcomes even when its value matches the good
  circuit's);
* circuits with a forced transistor touching the vicinity whose forced
  state differs from the good circuit's current state for that
  transistor.

Everything else tracks the good circuit implicitly, which is where the
concurrent speedup comes from.

**Round alignment.**  A faulty circuit's round r must be computed from
round r-1 states -- exactly what a standalone simulation of that
circuit would see -- but the good circuit's round r has already been
applied by the time the faulty circuits run.  The simulator therefore
keeps *round-start snapshots* of the good node and transistor states
(standing lists, resynced after each round's faulty circuits have run)
and two shared *views* equal to them.  Before a faulty circuit's round
the views are patched with that circuit's forced nodes, records, the
transistor states those nodes gate and its forced transistors; after
the round exactly those positions are restored.  Vicinity exploration
and solving thus index plain lists, and the patch costs O(divergence),
not O(network).  For the same reason, divergence records that
*reconverge* (become equal to the new good state) are only deleted
after the round's faulty circuits have run: until then the record is
the faulty circuit's round r-1 state.  An earlier version instead
pinned pre-change values as records during the trigger scan, which
missed changes outside the triggering vicinity (e.g. a gate node solved
in a sibling vicinity) and made the concurrent simulator disagree with
the serial one.

Good-circuit node changes also maintain the records: a record equal to
the new good state is deleted (reconvergence, deferred as above), and
forced-node records are refreshed.

Detection compares observed output nodes after any phase marked
``observe``; by default a detected circuit is *dropped*: its records and
pending events are purged and it costs nothing from then on (the paper's
fault dropping, responsible for the cheap Figure-1 "tail").
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import FaultError, SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import compile_network
from ..switchlevel.kernel import (
    DEFAULT_MAX_ROUNDS,
    LOCALITIES,
    SettleKernel,
    SettleStats,
    VicinitySolution,
)
from ..switchlevel.logic import STATES
from ..switchlevel.network import GND_NAME, TRANS_TABLE, VDD_NAME, Network
from ..switchlevel.vicinity import expand_seed
from .detection import (
    POLICIES,
    POLICY_HARD,
    Detection,
    DetectionLog,
    differs,
)
from .faults import Fault
from .goodtrace import GoodTrace
from .inject import Instrumented, PreparedFault, prepare
from .report import PatternRecord, RunReport
from .statelist import StateList

ProgressCallback = Callable[[PatternRecord, list[Detection]], None]


class _GoodCircuit:
    """The good circuit as a kernel :class:`RoundCircuit`."""

    __slots__ = (
        "sim",
        "forced_nodes",
        "forced_transistors",
        "compiled_sig_cache",
    )

    def __init__(self, sim: "ConcurrentFaultSimulator"):
        self.sim = sim
        self.forced_nodes: Mapping[int, int] = {}
        self.forced_transistors = sim.good_forced_transistors
        self.compiled_sig_cache: dict[int, tuple] = {}

    @property
    def states(self) -> list[int]:
        return self.sim.states

    @property
    def tstates(self) -> list[int]:
        return self.sim.tstates

    def take_seeds(self) -> set[int]:
        seeds = self.sim._good_pending
        self.sim._good_pending = set()
        return seeds

    def has_pending(self) -> bool:
        return bool(self.sim._good_pending)

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        self.sim._apply_good_round(solutions)


class _FaultyCircuit:
    """One faulty circuit as a kernel ``RoundCircuit``.

    Its ``states`` / ``tstates`` are the simulator's shared views, which
    hold this circuit's round-start states only while
    :meth:`ConcurrentFaultSimulator._faulty_round` has them patched.
    """

    __slots__ = (
        "sim", "cid", "states", "tstates", "forced_nodes",
        "forced_transistors", "compiled_sig_cache", "_seeds",
        "applied_changes", "_fault_comps",
    )

    def __init__(self, sim: "ConcurrentFaultSimulator", cid: int):
        self.sim = sim
        self.cid = cid
        self._seeds: set[int] = set()
        #: Whether this round's solver produced real changes (synthesized
        #: record-maintenance entries do not count); drives the per-circuit
        #: oscillation budget in ``_settle_all``.
        self.applied_changes = False
        pf = sim.prepared[cid]
        self.forced_nodes = pf.forced_nodes
        self.states = sim._view_states
        self.tstates = sim._view_tstates
        self.forced_transistors = sim._merged_forced_t[cid]
        self.compiled_sig_cache: dict[int, tuple] = {}
        self._fault_comps = sim._fault_comps.get(cid)

    def take_seeds(self) -> set[int]:
        net = self.sim.network
        topo = self.sim._topo
        if topo is None:
            expanded: set[int] = set()
            for raw_seed in self._seeds:
                expanded.update(
                    expand_seed(
                        net, self.tstates, raw_seed, self.forced_nodes
                    )
                )
            self._seeds = set()
            return expanded
        # Drop seeds in components where this circuit provably tracks
        # the good circuit -- no divergence records on the component's
        # members or on the gates driving its channels, and no fault
        # site inside it.  Solving there would reproduce the good
        # circuit's own work (or the identity); the trigger scan
        # re-triggers the circuit if divergence ever reaches such a
        # component.  The filter applies the same expansion rule as
        # ``expand_seed`` (storage seeds are their own seed, input and
        # forced seeds perturb the storage nodes they conduct to), so
        # its output feeds the dynamic kernel directly; the component
        # check runs *before* the conducting-channel test, and walks
        # whichever side is smaller -- the seed's channels grouped by
        # component, or the circuit's dirty and fault components: a
        # rail seed (vdd/gnd) has channels into most components.
        dirty_comps = self.sim._dirty_comp_counts[self.cid]
        fault_comps = self._fault_comps
        node_component = topo.node_component
        node_is_input = net.node_is_input
        channels_by_comp = self.sim._channels_by_comp
        forced = self.forced_nodes
        tstates = self.tstates
        kept: set[int] = set()
        for raw_seed in self._seeds:
            if not node_is_input[raw_seed] and raw_seed not in forced:
                cid = node_component[raw_seed]
                if cid in dirty_comps or cid in fault_comps:
                    kept.add(raw_seed)
                continue
            # Input/forced seed: perturbs the storage nodes it conducts
            # to (the paper's second perturbation rule).
            by_comp = channels_by_comp(raw_seed)
            if len(by_comp) <= len(dirty_comps) + len(fault_comps):
                comps = [
                    cid for cid in by_comp
                    if cid in dirty_comps or cid in fault_comps
                ]
            else:
                comps = [
                    cid for cid in (*dirty_comps, *fault_comps)
                    if cid in by_comp
                ]
            for cid in comps:
                for t, m in by_comp[cid]:
                    if m in kept or m in forced or tstates[t] == 0:
                        continue
                    kept.add(m)
        self._seeds = set()
        return kept

    def has_pending(self) -> bool:
        return bool(self._seeds)

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        changes = [
            change for solution in solutions for change in solution.changes
        ]
        self.applied_changes = bool(changes)
        # A member the good circuit changed this round but this circuit
        # kept at its old value produced no change entry, yet it now
        # *diverges from the new good state*.  Synthesize an entry at
        # the retained value so record maintenance sees it (the derived
        # next-round seeds are unaffected: old == new).
        old_good = self.sim._old_good
        if old_good:
            recomputed = {node for node, _state in changes}
            for solution in solutions:
                if old_good.keys().isdisjoint(solution.members):
                    continue
                for node in solution.members:
                    if node in old_good and node not in recomputed:
                        changes.append((node, self.states[node]))
        if changes:
            self.sim._apply_circuit_changes(self.cid, changes)


class ConcurrentFaultSimulator:
    """Concurrent fault simulation of one network under a fault list.

    Parameters
    ----------
    net:
        The circuit (finalized).  Short/open faults re-instrument it; use
        :attr:`network` for the network actually simulated.
    faults:
        Fault descriptions (see ``repro.core.faults``).  May be empty, in
        which case :meth:`run` measures the good circuit alone.
    observed:
        Names of the output nodes compared for detection.
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
        trim: bool = True,
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
        #: Redundancy trimming: clean-component seed filtering, whole
        #: round skips and fault-site index pruning.  All three only
        #: remove work whose outcome is provably identical to the good
        #: circuit's; ``trim=False`` is the ablation baseline.
        self.trim = trim
        self.oscillation_events = 0
        self._kernel = SettleKernel(
            self.network,
            max_rounds=max_rounds,
            locality=locality,
        )
        #: With the compiled locality one cache (on the instrumented
        #: network) serves the good circuit and every faulty circuit:
        #: a faulty circuit differs from the good one on only a few
        #: components, so most of its solves hit entries the good
        #: circuit (or a sibling fault) already paid for.
        self._compiled = (
            compile_network(self.network) if locality == "compiled" else None
        )
        #: Channel-connected-component indexes (node_component /
        #: t_component / gate_fanout) backing the dirty-component
        #: bookkeeping.  The partition is pure topology -- independent of
        #: how vicinities are solved -- so when trimming, the dynamic and
        #: static localities borrow the compiled form's indexes (memoized
        #: per network; the solve caches stay untouched).  ``None`` only
        #: for untrimmed non-compiled runs.
        self._topo = (
            self._compiled
            if self._compiled is not None
            else (compile_network(self.network) if trim else None)
        )

        if not observed:
            raise SimulationError("at least one observed node is required")
        self.observed = [self.network.node(name) for name in observed]

        # --- good circuit state ---
        net_ = self.network
        self.states: list[int] = net_.initial_node_states()
        self.tstates: list[int] = net_.compute_transistor_states(self.states)
        for t, state in self.good_forced_transistors.items():
            self.tstates[t] = state
        self._good_pending: set[int] = set()
        self._good = _GoodCircuit(self)
        #: Round-start good states: identical to ``states`` except while
        #: a round's faulty circuits run, when nodes the good round just
        #: changed still hold their previous value (round alignment).
        self._prev_states: list[int] = list(self.states)
        #: Round-start good transistor states, kept in step with
        #: ``_prev_states`` (the gate fan-out of every node synced there).
        self._prev_tstates: list[int] = list(self.tstates)
        #: The shared views every faulty circuit reads: equal to the two
        #: snapshots except during one circuit's round, when
        #: :meth:`_faulty_round` has that circuit's divergence patched in.
        self._view_states: list[int] = list(self._prev_states)
        self._view_tstates: list[int] = list(self._prev_tstates)
        #: Per node: (transistor, Table 1 row) for each transistor it
        #: gates whose state depends on the gate (not d-type) and which
        #: the good circuit does not force -- the positions a divergent
        #: node's state patches into ``_view_tstates``.
        self._gate_rows: list[tuple[tuple[int, tuple[int, ...]], ...]] = [
            tuple(
                (t, TRANS_TABLE[net_.t_kind[t]])
                for t in net_.node_gates[node]
                if len(set(TRANS_TABLE[net_.t_kind[t]])) > 1
                and t not in self.good_forced_transistors
            )
            for node in range(net_.n_nodes)
        ]
        #: Nodes (-> old value) the current round's good changes
        #: overwrote; drives ``_prev_states`` resync and the faulty
        #: adapters' synthesized record-maintenance entries.
        self._old_good: dict[int, int] = {}
        #: (node, circuit) records that reconverged this round; removal
        #: is deferred until the round's faulty circuits have run.
        self._stale_records: set[tuple[int, int]] = set()

        # --- faulty circuit state ---
        self.prepared: dict[int, PreparedFault] = {
            pf.circuit_id: pf for pf in instrumented.prepared
        }
        self.live: set[int] = set(self.prepared)
        self.circuit_records: dict[int, dict[int, int]] = {
            cid: {} for cid in self.prepared
        }
        #: Per circuit: component id -> number of records making it
        #: dirty (divergence on a member or on a gate driving its
        #: channels).  Maintained incrementally by record set/remove so
        #: the compiled locality's take_seeds filter is O(1) per seed.
        self._dirty_comp_counts: dict[int, dict[int, int]] = {
            cid: {} for cid in self.prepared
        }
        self.node_records: list[StateList | None] = [None] * net_.n_nodes
        self._merged_forced_t: dict[int, Mapping[int, int]] = {}
        for cid, pf in self.prepared.items():
            if pf.forced_transistors:
                merged = dict(self.good_forced_transistors)
                merged.update(pf.forced_transistors)
                self._merged_forced_t[cid] = merged
            else:
                self._merged_forced_t[cid] = self.good_forced_transistors
        # Fault-site indexes for trigger scanning, plus the reverse maps
        # (circuit -> index keys it occupies) that let _drop prune a
        # detected circuit's entries so the scan loops shrink as
        # coverage rises.
        self._node_fault_sites: dict[int, list[tuple[int, int]]] = {}
        self._trans_fault_sites: dict[int, list[tuple[int, int, int]]] = {}
        self._fault_site_keys: dict[int, tuple[set[int], set[int]]] = {}
        for cid, pf in self.prepared.items():
            node_keys: set[int] = set()
            trans_keys: set[int] = set()
            for node, value in pf.forced_nodes.items():
                self._node_fault_sites.setdefault(node, []).append(
                    (cid, value)
                )
                node_keys.add(node)
            for t, state in pf.forced_transistors.items():
                for node in (net_.t_source[t], net_.t_drain[t]):
                    self._trans_fault_sites.setdefault(node, []).append(
                        (cid, t, state)
                    )
                    trans_keys.add(node)
            if node_keys or trans_keys:
                self._fault_site_keys[cid] = (node_keys, trans_keys)
        #: Components each circuit's *fault itself* touches (forced
        #: nodes dirty their own component and, as gates, their fanout;
        #: forced transistors their component).  Shared by the adapters'
        #: take_seeds filter and the whole-round skip in _settle_all.
        self._fault_comps: dict[int, set[int]] = {}
        if self._topo is not None:
            topo = self._topo
            for cid, pf in self.prepared.items():
                fault_comps: set[int] = set()
                for node in pf.forced_nodes:
                    fault_comps.add(topo.node_component[node])
                    fault_comps.update(topo.gate_fanout[node])
                for t in pf.forced_transistors:
                    comp_of_t = topo.t_component[t]
                    if comp_of_t >= 0:
                        fault_comps.add(comp_of_t)
                fault_comps.discard(-1)
                self._fault_comps[cid] = fault_comps
        #: Memo for :meth:`_channels_by_comp`, filled per seed node.
        self._channel_comps: dict[
            int, dict[int, tuple[tuple[int, int], ...]]
        ] = {}
        #: Redundancy-trim counters surfaced on the run report.
        self._round_skips = 0
        self._sites_pruned = 0
        self._fault_pending: dict[int, set[int]] = {}
        #: Reusable per-circuit round adapters (they hold only stable
        #: references: the shared views and the circuit's forcing maps).
        self._adapters: dict[int, _FaultyCircuit] = {}

        # Static topology tables used by the trigger scan: the gate nodes
        # controlling transistors whose channel touches a node, and the
        # storage channel terminals of the transistors a node gates.
        self._channel_gate_nodes: list[tuple[int, ...]] = [
            tuple({net_.t_gate[t] for t, _m in net_.node_channels[n]})
            for n in range(net_.n_nodes)
        ]
        gate_terminals: list[tuple[int, ...]] = []
        for g in range(net_.n_nodes):
            terminals: set[int] = set()
            for t in net_.node_gates[g]:
                for terminal in (net_.t_source[t], net_.t_drain[t]):
                    if not net_.node_is_input[terminal]:
                        terminals.add(terminal)
            gate_terminals.append(tuple(terminals))
        self._gate_channel_terminals = gate_terminals

        self.log = DetectionLog()
        self._pattern_index = 0
        self._phase_index = 0

        #: A precomputed good run to replay instead of solving good
        #: rounds (see :mod:`repro.core.goodtrace`): each settle
        #: re-applies the recorded vicinity solutions through
        #: :meth:`_apply_good_round`, so trigger scans and record
        #: maintenance happen exactly as in a native run while the
        #: good-circuit solving cost is paid zero times here.
        self._replay = good_trace
        if good_trace is not None:
            good_trace.validate(self.network, observed, max_rounds)
            if not good_trace.replayable:
                raise SimulationError(
                    "good trace is not replayable (the good circuit "
                    "entered the oscillation fallback while recording)"
                )
        #: The recorded rounds of the settle currently in progress
        #: (``None`` outside replay mode / between phases).
        self._replay_rounds: list | None = None
        #: How many good-circuit settles this simulator performs over
        #: its lifetime (0 when replaying a trace, 1 otherwise).
        self.good_settles = 0 if good_trace is not None else 1

        self._drive_rails()
        self._activate_faults()

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

        ``clock`` selects ``process`` (CPU seconds, as the paper
        measured) or ``perf`` (wall clock) for per-pattern timing.

        ``progress``, if given, is called after every pattern with
        ``(record, detections)`` -- the freshly appended
        :class:`~repro.core.report.PatternRecord` and the tuple of
        :class:`~repro.core.detection.Detection` events that pattern
        produced.  The service layer streams these to clients; a
        callback that raises aborts the run at a pattern boundary
        (cancellation), propagating the exception.
        """
        timer = time.process_time if clock == "process" else time.perf_counter
        report = RunReport(n_faults=len(self.prepared), backend="concurrent")
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
        report.oscillation_events = self.oscillation_events
        report.good_settles = self.good_settles
        if self.trim:
            report.trim = {
                "round_skips": self._round_skips,
                "sites_pruned": self._sites_pruned,
            }
        return report

    def apply_pattern(self, pattern: TestPattern) -> None:
        """Simulate one pattern (all its phases, with observations)."""
        trace = self._replay
        groups = None
        if trace is not None:
            if self._pattern_index >= len(trace.phase_rounds):
                raise SimulationError(
                    "good trace exhausted: more patterns than recorded"
                )
            if trace.pattern_labels[self._pattern_index] != pattern.label:
                raise SimulationError(
                    "good trace was recorded for a different pattern "
                    "sequence"
                )
            groups = trace.phase_rounds[self._pattern_index]
            if len(groups) != len(pattern.phases):
                raise SimulationError(
                    "good trace phase count does not match pattern "
                    f"{pattern.label!r}"
                )
        for phase_index, phase in enumerate(pattern.phases):
            self._phase_index = phase_index
            if groups is not None:
                self._replay_rounds = groups[phase_index]
            self.apply_phase(phase.settings)
            if phase.observe:
                self._observe()
        self._pattern_index += 1

    def apply_phase(self, settings: Mapping[str, int]) -> None:
        """Apply one input setting and settle every circuit."""
        if self._replay is not None and self._replay_rounds is None:
            raise SimulationError(
                "a trace-fed simulator must be driven through "
                "apply_pattern/run (apply_phase has no recorded rounds)"
            )
        net = self.network
        for name, state in settings.items():
            node = net.node(name)
            if state not in STATES:
                raise SimulationError(f"invalid state {state!r} for {name!r}")
            if not net.node_is_input[node]:
                raise SimulationError(f"node {name!r} is not an input")
            if self.states[node] == state:
                continue
            self.states[node] = state
            self._good_node_changed(node)
            # Inputs change for every circuit at once; the round-start
            # snapshots follow immediately (standalone simulations see
            # new inputs before their first round too).
            self._follow_good((node,))
            self._good_pending.update(
                expand_seed(net, self.tstates, node)
            )
            # An input node belongs to no vicinity, so the good-circuit
            # trigger scan never sees it; circuits in which a transistor
            # on this input's channel conducts differently (fault-forced,
            # or switched by a divergent gate) must be scheduled here or
            # the input change would pass them by entirely.
            for cid, t, forced_state in self._trans_fault_sites.get(node, ()):
                if cid in self.live and forced_state != self.tstates[t]:
                    self._schedule(
                        cid, (net.t_source[t], net.t_drain[t])
                    )
            for t, _partner in net.node_channels[node]:
                gate = net.t_gate[t]
                state_list = self.node_records[gate]
                if not state_list:
                    continue
                table = TRANS_TABLE[net.t_kind[t]]
                good_tstate = self.tstates[t]
                terminals = (net.t_source[t], net.t_drain[t])
                for cid, gate_state in state_list.items():
                    if (
                        cid in self.live
                        and t not in self._merged_forced_t[cid]
                        and table[gate_state] != good_tstate
                    ):
                        self._schedule(cid, terminals)
        self._settle_all()

    def good_state_of(self, name: str) -> int:
        """Good-circuit state of a node, by name."""
        return self.states[self.network.node(name)]

    def circuit_state_of(self, circuit_id: int, name: str) -> int:
        """A faulty circuit's state of a node, by name."""
        node = self.network.node(name)
        records = self.circuit_records.get(circuit_id)
        if records is None:
            raise FaultError(f"no circuit {circuit_id} (dropped or unknown)")
        return records.get(node, self.states[node])

    @property
    def live_circuits(self) -> set[int]:
        """Ids of faulty circuits still being simulated."""
        return set(self.live)

    def total_divergence_records(self) -> int:
        """Total records across all state lists (memory footprint proxy)."""
        return sum(len(records) for records in self.circuit_records.values())

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _drive_rails(self) -> None:
        """Power up: both rails in one phase, then one settle.

        Driving vdd and gnd together (rather than settling between
        them) matches the single-circuit engine's initialization
        (``serial._make_engine``, the good-trace recorder), so the good
        circuit's power-up round sequence is identical across backends
        and a recorded trace replays it exactly.
        """
        net = self.network
        settings = {
            name: state
            for name, state in ((VDD_NAME, 1), (GND_NAME, 0))
            if name in net.node_index
            and net.node_is_input[net.node_index[name]]
        }
        if self._replay is not None:
            self._replay_rounds = self._replay.init_rounds
        self.apply_phase(settings)

    def _activate_faults(self) -> None:
        """Create initial divergences and schedule fault-site events."""
        net = self.network
        if self._replay is not None:
            # The good circuit contributes nothing to this settle (only
            # faulty circuits are seeded), so its recorded group is
            # empty by construction.
            self._replay_rounds = []
        for cid, pf in self.prepared.items():
            seeds: set[int] = set(pf.seeds)
            for node, value in pf.forced_nodes.items():
                if value != self.states[node]:
                    self._set_record(node, cid, value)
                # The pseudo-input pins transistors it gates, which may
                # differ from the good circuit's states.
                for t in net.node_gates[node]:
                    seeds.add(net.t_source[t])
                    seeds.add(net.t_drain[t])
            self._schedule(cid, seeds)
        self._settle_all()

    # ------------------------------------------------------------------
    # record maintenance
    # ------------------------------------------------------------------
    def _set_record(self, node: int, cid: int, state: int) -> None:
        state_list = self.node_records[node]
        if state_list is None:
            state_list = StateList()
            self.node_records[node] = state_list
        state_list.set(cid, state)
        records = self.circuit_records[cid]
        if node not in records and self._topo is not None:
            counts = self._dirty_comp_counts[cid]
            topo = self._topo
            for comp in (
                topo.node_component[node],
                *topo.gate_fanout[node],
            ):
                counts[comp] = counts.get(comp, 0) + 1
        records[node] = state

    def _remove_record(self, node: int, cid: int) -> None:
        state_list = self.node_records[node]
        if state_list is not None:
            state_list.remove(cid)
        removed = self.circuit_records[cid].pop(node, None)
        if removed is not None and self._topo is not None:
            counts = self._dirty_comp_counts[cid]
            topo = self._topo
            for comp in (
                topo.node_component[node],
                *topo.gate_fanout[node],
            ):
                remaining = counts[comp] - 1
                if remaining:
                    counts[comp] = remaining
                else:
                    del counts[comp]

    def _flush_stale_records(self) -> None:
        """Delete reconverged records once the round's circuits have run.

        A record marked stale may have been rewritten by its circuit's
        own round in the meantime; only records still equal to the
        current good state are deleted.
        """
        if not self._stale_records:
            return
        states = self.states
        for node, cid in self._stale_records:
            if self.circuit_records[cid].get(node) == states[node]:
                self._remove_record(node, cid)
        self._stale_records.clear()

    # ------------------------------------------------------------------
    # good-circuit simulation
    # ------------------------------------------------------------------
    def _good_node_changed(self, node: int) -> None:
        """Good node changed: transistor updates + record maintenance."""
        net = self.network
        states = self.states
        tstates = self.tstates
        new_state = states[node]
        for t in net.node_gates[node]:
            if t in self.good_forced_transistors:
                continue
            new_t = TRANS_TABLE[net.t_kind[t]][new_state]
            if new_t != tstates[t]:
                tstates[t] = new_t
                for terminal in (net.t_source[t], net.t_drain[t]):
                    if not net.node_is_input[terminal]:
                        self._good_pending.add(terminal)
        # Reconvergence: records equal to the new good state vanish --
        # but only after the round's faulty circuits have consumed them
        # (the record *is* the circuit's round r-1 state until then).
        state_list = self.node_records[node]
        if state_list:
            for cid, state in state_list.items():
                if state == new_state:
                    self._stale_records.add((node, cid))
        # Forced-node records must reflect divergence from the new state
        # (reads fall through to the forced layer once removed).
        for cid, value in self._node_fault_sites.get(node, ()):
            if cid in self.live:
                if value == new_state:
                    self._remove_record(node, cid)
                else:
                    self._set_record(node, cid, value)

    def _settle_all(self) -> None:
        """Run unit-delay rounds until every circuit is quiescent.

        Each round simulates the good circuit first, then every faulty
        circuit with pending events in ascending circuit-id order (the
        paper's time-step discipline).  Interleaving per *round* -- not
        per input setting -- matters: switching transients (e.g. decoder
        hazards) are real events in the unit-delay model, and faulty
        circuits must see the same intermediate states a standalone
        simulation of them would.  The kernel supplies the rounds; the
        round budget and the good/faulty interleave live here.
        """
        kernel = self._kernel
        circuit_rounds: dict[int, int] = {}
        good_rounds = 0
        total_rounds = 0
        hard_cap = 3 * self.max_rounds + 50
        replay = self._replay_rounds
        replay_pos = 0
        while (
            self._good_pending
            or self._fault_pending
            or (replay is not None and replay_pos < len(replay))
        ):
            total_rounds += 1
            if total_rounds > hard_cap:
                # Pathological mutual churn: states already conservative,
                # stop scheduling (counted for reporting).
                self.oscillation_events += 1
                self._good_pending.clear()
                self._fault_pending.clear()
                self._sync_prev_states()
                self._stale_records.clear()
                self._replay_rounds = None
                return
            if replay is not None:
                # Replay mode: the recorded solutions are this settle's
                # entire good-circuit evolution.  Applying them runs the
                # trigger scans and record maintenance natively; the
                # seeds the applied changes (and this phase's drives)
                # generate are discarded -- solving them is exactly the
                # work the recording already did.
                if replay_pos < len(replay):
                    self._apply_good_round(replay[replay_pos])
                    replay_pos += 1
                self._good_pending.clear()
            elif self._good_pending:
                good_rounds += 1
                if good_rounds > self.max_rounds:
                    self.oscillation_events += 1
                    kernel.force_x(self._good)
                else:
                    kernel.step(self._good)
            if self._fault_pending:
                pending = self._fault_pending
                self._fault_pending = {}
                adapters = self._adapters
                for cid in sorted(pending):
                    if cid not in self.live:
                        continue
                    # Whole-round skip: a circuit with no dirty
                    # components tracks the good circuit everywhere
                    # except around its own fault sites, so unless a
                    # seed lands in a fault component this round is
                    # provably a no-op -- don't even build the adapter
                    # or expand the seeds.
                    if (
                        self.trim
                        and self._topo is not None
                        and not self._dirty_comp_counts[cid]
                        and not self._seeds_matter(cid, pending[cid])
                    ):
                        self._round_skips += 1
                        circuit_rounds[cid] = 0
                        continue
                    count = circuit_rounds.get(cid, 0) + 1
                    circuit = adapters.get(cid)
                    if circuit is None:
                        circuit = adapters[cid] = _FaultyCircuit(self, cid)
                    circuit._seeds = pending[cid]
                    # Reset per round: kernel.step never reaches
                    # apply_round when the seeds expand to nothing, and
                    # a stale True would bill that no-op round to the
                    # circuit's oscillation budget.
                    circuit.applied_changes = False
                    if count > self.max_rounds:
                        self.oscillation_events += 1
                        self._faulty_round(circuit, force_x=True)
                        circuit_rounds[cid] = 0
                    else:
                        self._faulty_round(circuit)
                        # Only rounds that actually changed the circuit
                        # count toward its oscillation budget: a stable
                        # circuit re-triggered by good-circuit churn
                        # (e.g. an oscillating good region scanning its
                        # records every round) is responding to fresh
                        # stimuli, not oscillating -- a standalone
                        # simulation of it would be quiescent.
                        circuit_rounds[cid] = (
                            count if circuit.applied_changes else 0
                        )
            # The round is over: the faulty circuits have seen the good
            # circuit's round r-1 states where they needed them.
            self._flush_stale_records()
            self._sync_prev_states()
        # A consumed group may not be reused: apply_pattern installs the
        # next phase's rounds before the next settle.
        self._replay_rounds = None

    def _seeds_matter(self, cid: int, seeds: set[int]) -> bool:
        """Whether any raw seed could survive the adapter's take_seeds
        filter for a circuit with *no* dirty components.

        A storage seed matters only if its component is a fault
        component; an input/forced seed only if it conducts toward one.
        This over-approximates take_seeds (the conducting-channel test
        is omitted), so a False is always safe to skip on.
        """
        fault_comps = self._fault_comps[cid]
        if not fault_comps:
            return False
        node_component = self._topo.node_component
        node_is_input = self.network.node_is_input
        forced = self.prepared[cid].forced_nodes
        for seed in seeds:
            if not node_is_input[seed] and seed not in forced:
                if node_component[seed] in fault_comps:
                    return True
                continue
            by_comp = self._channels_by_comp(seed)
            for comp in fault_comps:
                for _t, partner in by_comp.get(comp, ()):
                    if partner not in forced:
                        return True
        return False

    def _channels_by_comp(
        self, node: int
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        """``node``'s channels to storage partners, grouped by the
        partner's component: ``{component: ((transistor, partner),
        ...)}``, in channel order within each component (memoized)."""
        grouped = self._channel_comps.get(node)
        if grouped is None:
            net = self.network
            node_component = self._topo.node_component
            lists: dict[int, list[tuple[int, int]]] = {}
            for t, m in net.node_channels[node]:
                if not net.node_is_input[m]:
                    lists.setdefault(node_component[m], []).append((t, m))
            grouped = {comp: tuple(pairs) for comp, pairs in lists.items()}
            self._channel_comps[node] = grouped
        return grouped

    def _faulty_round(
        self, circuit: _FaultyCircuit, force_x: bool = False
    ) -> None:
        """One round of a faulty circuit, read through the shared views.

        The views are patched with the circuit's forced nodes and
        records, then the transistors those nodes gate, then its own
        forced transistors (the good circuit's forcing is already in the
        snapshot).  Exactly those positions are restored afterwards,
        also when the round raises, so both the patch and the restore
        cost O(divergence).  The record keys are listed before the
        round: the round rewrites the circuit's records, never the
        views.  Records are written after forced nodes, so they win.
        """
        view = self._view_states
        tview = self._view_tstates
        gate_rows = self._gate_rows
        pf = self.prepared[circuit.cid]
        forced_nodes = pf.forced_nodes
        records = self.circuit_records[circuit.cid]
        own_forced_t = pf.forced_transistors
        for layer in (forced_nodes, records):
            for node, state in layer.items():
                view[node] = state
                for t, row in gate_rows[node]:
                    tview[t] = row[state]
        for t, state in own_forced_t.items():
            tview[t] = state
        patched = [*forced_nodes, *records]
        try:
            if force_x:
                self._kernel.force_x(circuit, batch_apply=True)
            else:
                self._kernel.step(circuit, batch=True)
        finally:
            prev = self._prev_states
            prev_t = self._prev_tstates
            for node in patched:
                view[node] = prev[node]
                for t, _row in gate_rows[node]:
                    tview[t] = prev_t[t]
            for t in own_forced_t:
                tview[t] = prev_t[t]

    def _sync_prev_states(self) -> None:
        """Fold the round's good changes into the round-start snapshots."""
        old_good = self._old_good
        if old_good:
            self._follow_good(old_good)
            old_good.clear()

    def _follow_good(self, nodes: Iterable[int]) -> None:
        """Copy the good states of ``nodes`` and of the transistors they
        gate into the round-start snapshots and the (unpatched) views."""
        states = self.states
        tstates = self.tstates
        prev = self._prev_states
        view = self._view_states
        prev_t = self._prev_tstates
        view_t = self._view_tstates
        node_gates = self.network.node_gates
        for node in nodes:
            prev[node] = view[node] = states[node]
            for t in node_gates[node]:
                prev_t[t] = view_t[t] = tstates[t]

    def _apply_good_round(self, solutions: list[VicinitySolution]) -> None:
        """Apply one good round: states, trigger scans, then fan-out.

        Trigger scans run *before* transistor updates and record
        maintenance so they see start-of-round transistor states, and
        before the old states are forgotten.
        """
        states = self.states
        old_good = self._old_good
        detailed: list[list[tuple[int, int, int]]] = []
        for solution in solutions:
            changes = [
                (node, states[node], new_state)
                for node, new_state in solution.changes
            ]
            detailed.append(changes)
            for node, old_state, new_state in changes:
                if node not in old_good:
                    old_good[node] = old_state
                states[node] = new_state
        for solution, changes in zip(solutions, detailed):
            self._trigger_scan(solution.members, changes, solution.seeds)
        for changes in detailed:
            for node, _old_state, _new_state in changes:
                self._good_node_changed(node)

    # ------------------------------------------------------------------
    # trigger scanning (good -> faulty event creation)
    # ------------------------------------------------------------------
    def _trigger_scan(
        self,
        members: list[int],
        changes: list[tuple[int, int, int]],
        vic_seeds: list[int],
    ) -> None:
        """Schedule faulty-circuit events for one solved good vicinity.

        ``changes`` carries (node, old_state, new_state).  Triggered
        circuits are rescheduled on the vicinity's seeds and changed
        nodes; their reads of any good state this round overwrote
        resolve to the round-start snapshot, so their recomputation
        sees the same round r-1 values a standalone simulation would
        (the paper's event-creation rule: "a node in a faulty circuit
        that previously had the same state as the good circuit may now
        be different").  Untriggered circuits adopt the new value
        implicitly, which is sound because nothing in their fault or
        divergence set touches this vicinity.
        """
        if not self.live:
            return
        net = self.network
        tstates = self.tstates
        node_records = self.node_records
        node_fault_sites = self._node_fault_sites
        trans_fault_sites = self._trans_fault_sites
        channel_gate_nodes = self._channel_gate_nodes
        base: set[int] = set(vic_seeds)
        base.update(node for node, _old, _new in changes)
        triggered: dict[int, set[int]] = {}

        gate_nodes: set[int] = set()
        for node in members:
            state_list = node_records[node]
            if state_list:
                for cid in state_list.circuit_ids():
                    triggered.setdefault(cid, set()).add(node)
            if node in node_fault_sites:
                for cid, _value in node_fault_sites[node]:
                    # A pseudo-input in the vicinity can change outcomes
                    # even when its value matches the good circuit
                    # (omega drive).
                    triggered.setdefault(cid, set()).add(node)
            if node in trans_fault_sites:
                for cid, t, forced_state in trans_fault_sites[node]:
                    if forced_state != tstates[t]:
                        seeds = triggered.setdefault(cid, set())
                        seeds.add(net.t_source[t])
                        seeds.add(net.t_drain[t])
            gate_nodes.update(channel_gate_nodes[node])
        for gate in gate_nodes:
            state_list = node_records[gate]
            if state_list:
                terminals = self._gate_channel_terminals[gate]
                for cid in state_list.circuit_ids():
                    triggered.setdefault(cid, set()).update(terminals)

        if not triggered:
            return
        live = self.live
        for cid, extra in triggered.items():
            if cid in live:
                self._schedule(cid, base | extra)

    def _schedule(self, cid: int, seeds: Iterable[int]) -> None:
        self._fault_pending.setdefault(cid, set()).update(seeds)

    # ------------------------------------------------------------------
    # faulty-circuit simulation
    # ------------------------------------------------------------------
    def _apply_circuit_changes(
        self,
        cid: int,
        changes: list[tuple[int, int]],
    ) -> None:
        """Update records and derive next-round events for circuit cid.

        The still-patched states view the changes were computed against
        supplies the circuit's pre-change states (which may be the
        round-start good states rather than records).
        """
        net = self.network
        good_states = self.states
        view = self._view_states
        own_forced_t = self.prepared[cid].forced_transistors
        gate_rows = self._gate_rows
        records = self.circuit_records[cid]
        old_states = {node: view[node] for node, _state in changes}
        for node, state in changes:
            if state != good_states[node]:
                self._set_record(node, cid, state)
            elif node in records:
                self._remove_record(node, cid)
        next_seeds: set[int] = set()
        for node, state in changes:
            old = old_states[node]
            if old == state:
                continue
            # Gate rows leave out d-type and good-forced transistors,
            # whose states never follow the gate.
            for t, row in gate_rows[node]:
                if row[old] != row[state] and t not in own_forced_t:
                    next_seeds.add(net.t_source[t])
                    next_seeds.add(net.t_drain[t])
        if next_seeds:
            self._schedule(cid, next_seeds)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _observe(self) -> None:
        for node in self.observed:
            state_list = self.node_records[node]
            if not state_list:
                continue
            good_state = self.states[node]
            # Snapshot: dropping mutates the list during iteration.
            detected = [
                (cid, state)
                for cid, state in state_list.items()
                if cid in self.live
                and differs(good_state, state, self.detection_policy)
            ]
            for cid, state in detected:
                self.log.record(
                    Detection(
                        circuit_id=cid,
                        description=self.prepared[cid].fault.describe(),
                        pattern_index=self._pattern_index,
                        phase_index=self._phase_index,
                        node=self.network.node_names[node],
                        good_state=good_state,
                        faulty_state=state,
                    )
                )
                if self.drop_on_detect:
                    self._drop(cid)

    def _drop(self, cid: int) -> None:
        """Purge a detected circuit: records, events, liveness, and its
        fault-site index entries (so trigger scans stop visiting it)."""
        records = self.circuit_records[cid]
        for node in list(records):
            state_list = self.node_records[node]
            if state_list is not None:
                state_list.remove(cid)
        records.clear()
        self._dirty_comp_counts[cid].clear()
        self.live.discard(cid)
        self._fault_pending.pop(cid, None)
        if not self.trim:
            return
        keys = self._fault_site_keys.pop(cid, None)
        if keys is None:
            return
        node_keys, trans_keys = keys
        for node in node_keys:
            entries = self._node_fault_sites[node]
            kept = [entry for entry in entries if entry[0] != cid]
            self._sites_pruned += len(entries) - len(kept)
            if kept:
                self._node_fault_sites[node] = kept
            else:
                del self._node_fault_sites[node]
        for node in trans_keys:
            entries = self._trans_fault_sites[node]
            kept = [entry for entry in entries if entry[0] != cid]
            self._sites_pruned += len(entries) - len(kept)
            if kept:
                self._trans_fault_sites[node] = kept
            else:
                del self._trans_fault_sites[node]
