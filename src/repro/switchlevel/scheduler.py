"""Event-driven unit-step simulation engine for a single circuit.

The engine owns the mutable state of one circuit (node states, transistor
states, pending perturbations) and advances it with MOSSIM's scheduling
discipline, which lives in the shared :mod:`repro.switchlevel.kernel`:
for each change of network inputs, repeatedly compute the steady-state
response of every perturbed vicinity until the whole network is stable.

Circuits with level-sensitive feedback (latches) settle in a few rounds;
genuine oscillators (e.g. a ring of inverters) would loop forever, so
after ``max_rounds`` the kernel forces the still-changing nodes to X
(MOSSIM's policy) or raises :class:`~repro.errors.OscillationError`,
depending on ``on_oscillation``.

The engine also supports per-circuit overrides used for fault simulation:

* ``forced_nodes``: node -> state; the node behaves as an input pinned at
  that state (node stuck-at faults);
* ``forced_transistors``: transistor -> state; the transistor ignores its
  gate (stuck-open/stuck-closed faults and inserted short/open fault
  transistors).

``locality`` selects dynamic vicinities (the paper's algorithm), static
DC-connected components (the pre-MOSSIM-II baseline, kept as an ablation)
or ``compiled`` -- precompiled channel-connected components with a
memoized solve cache (see :mod:`repro.switchlevel.compiled`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import OscillationError, SimulationError
from .kernel import (
    DEFAULT_MAX_ROUNDS,
    SettleKernel,
    SettleStats,
    VicinitySolution,
)
from .logic import STATES
from .network import TRANS_TABLE, Network
from .vicinity import expand_seed, perturbations_from_transistor

__all__ = ["DEFAULT_MAX_ROUNDS", "Engine", "SettleStats"]


class Engine:
    """Mutable simulation state and stepping logic for one circuit.

    The engine is a :class:`~repro.switchlevel.kernel.RoundCircuit`: the
    shared kernel drives its rounds, while the engine supplies seed
    management and change application over plain state vectors.
    """

    def __init__(
        self,
        net: Network,
        *,
        forced_nodes: Mapping[int, int] | None = None,
        forced_transistors: Mapping[int, int] | None = None,
        locality: str = "dynamic",
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        on_oscillation: str = "x",
    ):
        net.require_finalized()
        self.kernel = SettleKernel(
            net,
            locality=locality,
            max_rounds=max_rounds,
            on_oscillation=on_oscillation,
        )
        self.net = net
        self.locality = locality
        self.max_rounds = max_rounds
        self.on_oscillation = on_oscillation
        self.forced_nodes: dict[int, int] = dict(forced_nodes or {})
        self.forced_transistors: dict[int, int] = dict(
            forced_transistors or {}
        )
        #: Per-component forced-signature memo for the compiled
        #: locality; valid for this engine's lifetime (its forcing maps
        #: never change after construction).
        self.compiled_sig_cache: dict[int, tuple] = {}
        self.oscillation_events = 0

        self.states: list[int] = net.initial_node_states()
        for node, state in self.forced_nodes.items():
            self.states[node] = state
        self.tstates: list[int] = net.compute_transistor_states(self.states)
        for t, state in self.forced_transistors.items():
            self.tstates[t] = state
        self.pending: set[int] = set()

    # --- driving ------------------------------------------------------------
    def drive(self, node: int, state: int) -> None:
        """Set an input node's state and record the resulting perturbations."""
        if state not in STATES:
            raise SimulationError(f"invalid state {state!r}")
        if not self.net.node_is_input[node]:
            raise SimulationError(
                f"node {self.net.node_names[node]!r} is not an input node"
            )
        if node in self.forced_nodes:
            raise SimulationError(
                f"node {self.net.node_names[node]!r} is forced by a fault"
            )
        if self.states[node] == state:
            return
        self.states[node] = state
        self._node_changed(node)
        # second perturbation rule: storage nodes seen through conducting
        # transistors from a changed input are perturbed.
        self.pending.update(
            expand_seed(self.net, self.tstates, node, self.forced_nodes)
        )

    def perturb(self, node: int) -> None:
        """Force recomputation of a storage node's vicinity (fault setup)."""
        self.pending.update(
            expand_seed(self.net, self.tstates, node, self.forced_nodes)
        )

    def _node_changed(self, node: int) -> None:
        """Propagate a node state change to the transistors it gates."""
        tstates = self.tstates
        states = self.states
        net = self.net
        forced_transistors = self.forced_transistors
        for t in net.node_gates[node]:
            if t in forced_transistors:
                continue
            new = TRANS_TABLE[net.t_kind[t]][states[net.t_gate[t]]]
            if new != tstates[t]:
                tstates[t] = new
                self.pending.update(
                    perturbations_from_transistor(net, t, self.forced_nodes)
                )

    # --- the kernel's RoundCircuit surface ---------------------------------
    def take_seeds(self) -> set[int]:
        seeds = self.pending
        self.pending = set()
        return seeds

    def has_pending(self) -> bool:
        return bool(self.pending)

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        """Apply a round synchronously: all states first, then fan-out."""
        states = self.states
        for solution in solutions:
            for node, state in solution.changes:
                states[node] = state
        for solution in solutions:
            for node, _state in solution.changes:
                self._node_changed(node)
                if stats is not None:
                    stats.changed_nodes.add(node)
        if stats is not None:
            stats.changes += sum(len(s.changes) for s in solutions)

    # --- stepping ---------------------------------------------------------
    def settle(self, stats: SettleStats | None = None) -> SettleStats:
        """Run rounds until the circuit is stable; handle oscillation.

        Callers may pass a prepared :class:`SettleStats` (e.g. with
        ``touched_nodes`` seeded to enable region tracking); the same
        object is returned filled in.
        """
        try:
            stats = self.kernel.settle(self, stats)
        except OscillationError:
            self.oscillation_events += 1
            raise
        self.oscillation_events += stats.x_fallbacks
        return stats

    # --- inspection -----------------------------------------------------
    def state_of(self, node: int) -> int:
        return self.states[node]

    def is_stable(self) -> bool:
        return not self.pending

    def snapshot(self) -> tuple[list[int], list[int]]:
        """Copy of (node states, transistor states) for save/restore."""
        return list(self.states), list(self.tstates)

    def restore(self, snapshot: tuple[Iterable[int], Iterable[int]]) -> None:
        node_states, transistor_states = snapshot
        self.states[:] = list(node_states)
        self.tstates[:] = list(transistor_states)
        self.pending.clear()
