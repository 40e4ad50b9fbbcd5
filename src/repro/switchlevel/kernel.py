"""The shared round-based settle kernel.

Every simulator in this codebase advances a circuit with the same
discipline -- MOSSIM's *round*:

1. take the pending perturbation seeds;
2. group them into vicinities (computed against start-of-round
   transistor states, so the round is synchronous and deterministic);
3. solve each vicinity's steady state;
4. hand the changes back to the circuit, which applies them and derives
   the next round's seeds.

Before this module existed the discipline was duplicated -- once in the
single-circuit engine (``scheduler.Engine``) and again, twice, in the
concurrent fault simulator's good-circuit and faulty-circuit loops.
The copies drifted (see ``tests/core/test_equivalence_props.py``); now
all of them drive one kernel and differ only in *how a round's results
are applied*, which is exactly the part that legitimately varies:

* the engine mutates plain state vectors and re-derives seeds;
* the concurrent good circuit interleaves trigger scans and divergence
  record maintenance;
* a concurrent faulty circuit reads shared round-start views patched
  with its divergence and updates its records.

A *circuit* is anything with the small duck-typed surface of
:class:`RoundCircuit`: indexable ``states`` / ``tstates`` views, a
``forced_nodes`` mapping, seed draining (``take_seeds`` /
``has_pending``), and ``apply_round``.  The kernel never mutates
circuit state itself -- :func:`solve_round` and
:func:`force_x_solutions` are pure with respect to the views they read.

Oscillation policy also lives here: :meth:`SettleKernel.settle` runs
rounds until quiescence, and after ``max_rounds`` either raises
:class:`~repro.errors.OscillationError` or forces the still-active
region to X and retries (X is usually absorbing), up to ``x_attempts``
times -- MOSSIM's policy.  Callers that interleave many circuits (the
concurrent simulator) keep their own round budget and call
:meth:`SettleKernel.step` / :meth:`SettleKernel.force_x` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from ..errors import OscillationError, SimulationError
from .compiled import compile_network
from .logic import X
from .network import Network
from .steady_state import solve_vicinity
from .vicinity import NO_FORCED, compute_vicinity, explore, static_explore

#: Default bound on rounds per input change; real circuits settle in a
#: handful, so hitting this means feedback oscillation.
DEFAULT_MAX_ROUNDS = 200

#: How many force-to-X attempts :meth:`SettleKernel.settle` makes
#: before giving up on stability.
DEFAULT_X_ATTEMPTS = 3

#: ``dynamic`` explores vicinities per round (the paper's algorithm);
#: ``static`` explores DC-connected components per round (the
#: pre-MOSSIM-II ablation); ``compiled`` selects precompiled
#: channel-connected components in O(1) and memoizes their solves
#: (see :mod:`repro.switchlevel.compiled`).
LOCALITIES = ("dynamic", "static", "compiled")
OSCILLATION_POLICIES = ("x", "raise")


@dataclass(slots=True)
class SettleStats:
    """Bookkeeping returned by :meth:`SettleKernel.settle`."""

    rounds: int = 0
    vicinities: int = 0
    nodes_computed: int = 0
    changes: int = 0
    oscillated: bool = False
    #: How many times the force-to-X fallback ran (0 when no oscillation).
    x_fallbacks: int = 0
    changed_nodes: set[int] = field(default_factory=set)
    #: When a caller seeds this with a set, :meth:`SettleKernel.step`
    #: records every vicinity member and boundary node examined -- the
    #: region a settle *looked at*.  ``None`` (the default) disables
    #: tracking.  The serial simulator's checkpoint trimming uses this
    #: to prove a faulty circuit cannot diverge on a pattern whose
    #: touched region avoids every fault site.
    touched_nodes: set[int] | None = None

    def merge(self, other: "SettleStats") -> None:
        self.rounds += other.rounds
        self.vicinities += other.vicinities
        self.nodes_computed += other.nodes_computed
        self.changes += other.changes
        self.oscillated = self.oscillated or other.oscillated
        self.x_fallbacks += other.x_fallbacks
        self.changed_nodes |= other.changed_nodes
        if other.touched_nodes:
            if self.touched_nodes is None:
                self.touched_nodes = set()
            self.touched_nodes |= other.touched_nodes


@dataclass(slots=True)
class VicinitySolution:
    """One solved vicinity of a round.

    ``changes`` holds ``(node, new_state)`` pairs for members whose
    steady state differs from the start-of-round state; ``seeds`` are
    the round seeds that fell inside this vicinity (used by the
    concurrent simulator's trigger scan).
    """

    members: list[int]
    boundary: list[int]
    changes: list[tuple[int, int]]
    seeds: list[int]


class RoundCircuit(Protocol):
    """What the kernel needs from a circuit (duck-typed)."""

    states: Sequence[int]  # node -> state view
    tstates: Sequence[int]  # transistor -> state view
    forced_nodes: Mapping[int, int]

    def take_seeds(self) -> set[int]:
        """Drain and return the pending perturbation seeds."""

    def has_pending(self) -> bool:
        """True while perturbations remain to be processed."""

    def apply_round(
        self, solutions: list[VicinitySolution], stats: "SettleStats | None"
    ) -> None:
        """Apply a round's solutions and derive the next round's seeds."""


def solve_round(
    net: Network,
    states,
    tstates,
    seeds: Iterable[int],
    *,
    forced: Mapping[int, int] = NO_FORCED,
    locality: str = "dynamic",
    batch: bool = False,
    stats: SettleStats | None = None,
    forced_transistors: Mapping[int, int] | None = None,
    sig_cache: dict | None = None,
) -> list[VicinitySolution]:
    """One synchronous round: solve every perturbed vicinity.

    Does not mutate ``states``.  ``seeds`` must already be expanded to
    storage-node seeds (see :func:`~repro.switchlevel.vicinity.expand_seed`).

    With ``batch=True`` all seeds are explored in a single call --
    possibly covering several disconnected components, which the solver
    handles independently.  This is how a faulty circuit's round batches
    its per-circuit work; the per-seed mode additionally reports which
    seeds fell in which vicinity, which the good-circuit trigger scan
    needs.

    The ``compiled`` locality replaces exploration entirely: seeds map
    to precompiled components in O(1) and each dirty component's solve
    is memoized.  One solution is emitted per seeded
    *conducting subcomponent* -- the same granularity dynamic
    exploration produces -- in both batch and per-seed modes, so every
    caller gets what it needs from the one code path.
    """
    if locality == "compiled":
        compiled = compile_network(net)
        grouped = compiled.components_for_seeds(seeds)
        solutions = []
        for cid in sorted(grouped):
            solved = compiled.solve_seeded(
                compiled.components[cid],
                states,
                grouped[cid],
                forced,
                forced_transistors,
                sig_cache=sig_cache,
            )
            for members, boundary, changes, sub_seeds in solved:
                if stats is not None:
                    stats.vicinities += 1
                    stats.nodes_computed += len(members)
                solutions.append(
                    VicinitySolution(members, boundary, changes, sub_seeds)
                )
        return solutions

    if batch:
        seed_list = list(seeds)
        members, boundary, adjacency = explore(net, tstates, seed_list, forced)
        if stats is not None:
            stats.vicinities += 1
            stats.nodes_computed += len(members)
        changes = solve_vicinity(
            net, states, members, boundary, adjacency, forced
        )
        return [VicinitySolution(members, boundary, changes, seed_list)]

    explorer = explore if locality == "dynamic" else static_explore
    member_owner: dict[int, int] = {}
    solutions: list[VicinitySolution] = []
    for seed in seeds:
        if seed in member_owner:
            continue
        members, boundary, adjacency = explorer(net, tstates, [seed], forced)
        index = len(solutions)
        for member in members:
            member_owner[member] = index
        if stats is not None:
            stats.vicinities += 1
            stats.nodes_computed += len(members)
        changes = solve_vicinity(
            net, states, members, boundary, adjacency, forced
        )
        solutions.append(VicinitySolution(members, boundary, changes, []))
    for seed in seeds:
        owner = member_owner.get(seed)
        if owner is not None:
            solutions[owner].seeds.append(seed)
    return solutions


def force_x_solutions(
    net: Network,
    states,
    tstates,
    seeds: Iterable[int],
    forced: Mapping[int, int] = NO_FORCED,
) -> Iterator[VicinitySolution]:
    """Oscillation fallback: every seed's vicinity forced to X.

    Lazily yields one solution per distinct vicinity.  Each vicinity is
    computed against the circuit views *at yield time*, so a caller that
    applies solutions as it consumes them (the engine, the concurrent
    good circuit) sees each vicinity under the already-updated
    transistor states, while a caller that collects first and applies
    once (a concurrent faulty circuit, whose views are patched for the
    whole round) computes every
    vicinity against the round-start state.  Both behaviors predate the
    kernel and are preserved exactly.
    """
    seed_list = list(seeds)
    covered: set[int] = set()
    for seed in seed_list:
        if seed in covered:
            continue
        members, boundary = compute_vicinity(net, tstates, [seed], forced)
        covered.update(members)
        member_set = set(members)
        changes = [(node, X) for node in members if states[node] != X]
        yield VicinitySolution(
            members,
            boundary,
            changes,
            [s for s in seed_list if s in member_set],
        )


class SettleKernel:
    """Round loop and oscillation policy over an abstract circuit."""

    __slots__ = (
        "net",
        "locality",
        "max_rounds",
        "on_oscillation",
        "x_attempts",
    )

    def __init__(
        self,
        net: Network,
        *,
        locality: str = "dynamic",
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        on_oscillation: str = "x",
        x_attempts: int = DEFAULT_X_ATTEMPTS,
    ):
        if locality not in LOCALITIES:
            raise SimulationError(f"unknown locality mode: {locality!r}")
        if on_oscillation not in OSCILLATION_POLICIES:
            raise SimulationError(
                f"unknown oscillation policy: {on_oscillation!r}"
            )
        self.net = net
        self.locality = locality
        self.max_rounds = max_rounds
        self.on_oscillation = on_oscillation
        self.x_attempts = x_attempts
        if locality == "compiled":
            # Compile eagerly: configuration errors (unfinalized nets)
            # surface at construction, not mid-settle.
            compile_network(net)

    # --- single rounds ----------------------------------------------------
    def step(
        self,
        circuit: RoundCircuit,
        stats: SettleStats | None = None,
        *,
        batch: bool = False,
    ) -> None:
        """Run one synchronous round of ``circuit``."""
        seeds = circuit.take_seeds()
        if not seeds:
            return
        solutions = solve_round(
            self.net,
            circuit.states,
            circuit.tstates,
            seeds,
            forced=circuit.forced_nodes,
            locality=self.locality,
            batch=batch,
            stats=stats,
            forced_transistors=getattr(circuit, "forced_transistors", None),
            sig_cache=getattr(circuit, "compiled_sig_cache", None),
        )
        if stats is not None and stats.touched_nodes is not None:
            touched = stats.touched_nodes
            for solution in solutions:
                touched.update(solution.members)
                touched.update(solution.boundary)
        circuit.apply_round(solutions, stats)

    def force_x(
        self,
        circuit: RoundCircuit,
        stats: SettleStats | None = None,
        *,
        batch_apply: bool = False,
    ) -> None:
        """Force the pending region of ``circuit`` to X (one round)."""
        seeds = circuit.take_seeds()
        if not seeds:
            return
        solutions = force_x_solutions(
            self.net,
            circuit.states,
            circuit.tstates,
            seeds,
            circuit.forced_nodes,
        )
        if batch_apply:
            circuit.apply_round(list(solutions), stats)
        else:
            for solution in solutions:
                circuit.apply_round([solution], stats)

    # --- the full settle loop ---------------------------------------------
    def settle(
        self,
        circuit: RoundCircuit,
        stats: SettleStats | None = None,
        *,
        batch: bool = False,
    ) -> SettleStats:
        """Run rounds until ``circuit`` is stable; handle oscillation.

        ``stats`` may carry a non-zero ``rounds`` count from a caller
        that already spent part of the round budget on this input change
        (the batch backend hands oscillating lanes over mid-settle).
        """
        if stats is None:
            stats = SettleStats()
        for attempt in range(self.x_attempts):
            while circuit.has_pending():
                if stats.rounds >= self.max_rounds * (attempt + 1):
                    break
                stats.rounds += 1
                self.step(circuit, stats, batch=batch)
            if not circuit.has_pending():
                return stats
            # Oscillation: either report it or force the active region
            # to X and try to settle again (X is usually absorbing).
            stats.oscillated = True
            stats.x_fallbacks += 1
            if self.on_oscillation == "raise":
                raise OscillationError(
                    f"circuit failed to settle within {stats.rounds} rounds"
                )
            self.force_x(circuit, stats)
        if circuit.has_pending():
            # Give up: drop the perturbations; the X states already
            # applied are a sound (if weak) description of the
            # oscillating region.
            circuit.take_seeds()
        return stats
