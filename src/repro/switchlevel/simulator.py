"""User-facing switch-level logic simulator (the MOSSIM II equivalent).

:class:`Simulator` wraps the event-driven :class:`~repro.switchlevel.
scheduler.Engine` with a by-name API: drive inputs, settle, observe node
states.  It simulates a *single* circuit -- the fault-free one by default,
or a faulty one when constructed with overrides (this is how the serial
fault simulator and the concurrent simulator's reference runs are built).

Example
-------
>>> from repro.netlist.builder import NetworkBuilder
>>> from repro.cells import nmos
>>> b = NetworkBuilder()
>>> _ = b.input("a")
>>> _ = nmos.inverter(b, "a", "out")
>>> sim = Simulator(b.build())
>>> _ = sim.apply({"a": 0})
>>> sim.get("out")
'1'
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import SimulationError
from .logic import STATE_CHARS, state_from_char
from .network import Network, rail_settings
from .scheduler import DEFAULT_MAX_ROUNDS, Engine, SettleStats


class Simulator:
    """Switch-level simulator for one circuit.

    Parameters mirror :class:`~repro.switchlevel.scheduler.Engine`; the
    power rails (nodes named ``vdd`` / ``gnd``, if present and declared as
    inputs) are driven automatically on construction.
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
        drive_rails: bool = True,
    ):
        self.net = net
        self.engine = Engine(
            net,
            forced_nodes=forced_nodes,
            forced_transistors=forced_transistors,
            locality=locality,
            max_rounds=max_rounds,
            on_oscillation=on_oscillation,
        )
        self._observed_oscillation = False
        if drive_rails:
            self.apply(rail_settings(net))

    # --- driving -----------------------------------------------------------
    def set_input(self, name: str, state: int | str) -> None:
        """Set one input node (by name) without settling."""
        if isinstance(state, str):
            state = state_from_char(state)
        self.engine.drive(self.net.node(name), state)

    def set_inputs(self, assignments: Mapping[str, int | str]) -> None:
        """Set several inputs (by name) without settling."""
        for name, state in assignments.items():
            self.set_input(name, state)

    def settle(self) -> SettleStats:
        """Run the event loop until the circuit is stable."""
        stats = self.engine.settle()
        if stats.oscillated:
            self._observed_oscillation = True
        return stats

    def apply(self, assignments: Mapping[str, int | str]) -> SettleStats:
        """Set inputs and settle: one *input setting* in the paper's terms."""
        self.set_inputs(assignments)
        return self.settle()

    def run(
        self, settings: Iterable[Mapping[str, int | str]]
    ) -> list[SettleStats]:
        """Apply a sequence of input settings, settling after each."""
        return [self.apply(setting) for setting in settings]

    # --- observation --------------------------------------------------------
    def state_of(self, name: str) -> int:
        """Current state (0/1/2) of the node called ``name``."""
        return self.engine.states[self.net.node(name)]

    def get(self, name: str) -> str:
        """Current state of a node as a character ('0', '1' or 'X')."""
        return STATE_CHARS[self.state_of(name)]

    def get_bus(self, names: Iterable[str]) -> str:
        """States of several nodes as a string, MSB first.

        >>> # sim.get_bus(["a1", "a0"]) -> e.g. "10"
        """
        return "".join(self.get(name) for name in names)

    def states_by_name(self) -> dict[str, str]:
        """Snapshot of every node's state, keyed by node name."""
        return {
            name: STATE_CHARS[self.engine.states[index]]
            for name, index in self.net.node_index.items()
        }

    @property
    def oscillated(self) -> bool:
        """True if any settle() hit the oscillation fallback so far."""
        return self._observed_oscillation

    # --- checkpointing ----------------------------------------------------
    def snapshot(self) -> tuple[list[int], list[int]]:
        """Opaque state snapshot; restore with :meth:`restore`."""
        return self.engine.snapshot()

    def restore(self, snapshot: tuple[list[int], list[int]]) -> None:
        if not self.engine.is_stable():
            raise SimulationError("cannot restore into an unsettled engine")
        self.engine.restore(snapshot)
