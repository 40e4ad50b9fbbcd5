"""Perturbation and vicinity extraction (the paper's *dynamic locality*).

A node is **perturbed** when it is the source or drain of a transistor
that changed state, or when it is connected by a conducting transistor to
an input node that changed state.  The **vicinity** of a perturbed node is
the set of storage nodes reachable from it through conducting (state 1 or
X) transistors along paths that do not pass through input nodes.  Input
nodes reached by such paths form the vicinity *boundary*: they contribute
their drive to the steady-state computation but are never recomputed.

Because transistor states change during simulation, vicinities are
*dynamic*: the partition of the network into "logic elements" moves as the
circuit switches.  This is the property that distinguishes FMOSSIM/MOSSIM
from earlier switch-level simulators, which used only the static
DC-connected partition (see ``repro.switchlevel.scheduler`` for the
static-locality ablation).

Per-circuit *forced nodes* (node faults acting as pseudo-inputs) are
treated exactly like input nodes here: they stop vicinity growth and
appear on the boundary with their forced state.

:func:`explore` additionally snapshots the conducting-edge adjacency of
the vicinity, so the steady-state solver's inner loops work on plain
integers instead of re-reading transistor states.  Exploring and
solving are the hot path of the whole simulator.  ``tstates`` is a
plain list for every caller: a concurrent faulty circuit passes the
simulator's shared view, patched with its divergence for the round.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .network import Network

#: Shared immutable empty mapping for the common "no forced nodes" case.
NO_FORCED: Mapping[int, int] = {}

#: Adjacency snapshot type: node -> [(transistor_state, strength, member)].
Adjacency = dict[int, list[tuple[int, int, int]]]


def explore(
    net: Network,
    tstates: Sequence[int],
    seeds: Sequence[int],
    forced: Mapping[int, int] = NO_FORCED,
    reach_tstates: Sequence[int] | None = None,
) -> tuple[list[int], list[int], Adjacency]:
    """Vicinity of ``seeds``: (members, boundary, conducting adjacency).

    ``seeds`` must be storage nodes that are not forced; input or forced
    seeds are skipped (callers expand them with :func:`expand_seed`).
    ``members`` are the storage nodes to recompute; ``boundary`` holds the
    input/forced nodes adjacent through conducting transistors.  The
    adjacency maps each member or boundary node to its conducting edges
    *into the member set* -- exactly the edges the steady-state solver
    propagates over (nothing ever propagates into an input).

    With several seeds the result may cover multiple disconnected
    components; the solver handles that transparently (their relaxations
    are independent), which lets callers batch per-circuit work.

    ``reach_tstates`` optionally decouples *reachability* from the edge
    snapshot: the static-locality ablation explores with every transistor
    conducting while the adjacency still reflects true states.
    """
    node_is_input = net.node_is_input
    node_channels = net.node_channels
    t_strength = net.t_strength
    same_reach = reach_tstates is None
    if same_reach:
        reach_tstates = tstates
    members: list[int] = []
    boundary: list[int] = []
    seen: set[int] = set()
    # Edges are collected during the BFS (one transistor-state list read
    # per incidence) and resolved into the adjacency once membership is
    # known.
    raw_edges: list[tuple[int, int, int, int]] = []

    stack = [
        s for s in seeds if not node_is_input[s] and s not in forced
    ]
    seen.update(stack)
    while stack:
        n = stack.pop()
        members.append(n)
        for t, m in node_channels[n]:
            if same_reach:
                state = tstates[t]
                if state == 0:
                    continue
            else:
                if reach_tstates[t] == 0:
                    continue
                state = tstates[t]
            raw_edges.append((n, state, t_strength[t], m))
            if m in seen:
                continue
            if node_is_input[m] or m in forced:
                seen.add(m)
                boundary.append(m)
            else:
                seen.add(m)
                stack.append(m)

    member_set = seen.difference(boundary) if boundary else seen
    adjacency: Adjacency = {}
    for n, state, strength, m in raw_edges:
        if state == 0:
            continue  # off edge kept for reachability in static mode only
        # Both directions of a member<->member edge are collected (each
        # endpoint's BFS visit contributes one); edges touching a
        # boundary node are attached to the boundary node, its only
        # propagation direction.
        if m in member_set:
            adjacency.setdefault(n, []).append((state, strength, m))
        else:
            adjacency.setdefault(m, []).append((state, strength, n))
    return members, boundary, adjacency


def compute_vicinity(
    net: Network,
    tstates: Sequence[int],
    seeds: Sequence[int],
    forced: Mapping[int, int] = NO_FORCED,
) -> tuple[list[int], list[int]]:
    """Vicinity (members, boundary) of ``seeds`` under ``tstates``.

    Convenience wrapper around :func:`explore` for callers that do not
    need the adjacency snapshot.
    """
    members, boundary, _adjacency = explore(net, tstates, seeds, forced)
    return members, boundary


def expand_seed(
    net: Network,
    tstates: Sequence[int],
    node: int,
    forced: Mapping[int, int] = NO_FORCED,
) -> list[int]:
    """Storage-node seeds arising from a perturbation at ``node``.

    A storage node is its own seed.  An input (or forced) node cannot be
    recomputed, so its perturbation propagates to the storage nodes it
    reaches through currently conducting transistors (the paper's second
    perturbation rule).
    """
    node_is_input = net.node_is_input
    if not node_is_input[node] and node not in forced:
        return [node]
    seeds = []
    for t, m in net.node_channels[node]:
        if tstates[t] == 0:
            continue
        if not node_is_input[m] and m not in forced:
            seeds.append(m)
    return seeds


def perturbations_from_transistor(
    net: Network,
    transistor: int,
    forced: Mapping[int, int] = NO_FORCED,
) -> list[int]:
    """Storage-node seeds for a transistor whose state changed.

    Both channel terminals are perturbed (the paper's first perturbation
    rule); input/forced terminals are dropped since they cannot change.
    """
    node_is_input = net.node_is_input
    seeds = []
    for node in (net.t_source[transistor], net.t_drain[transistor]):
        if not node_is_input[node] and node not in forced:
            seeds.append(node)
    return seeds


def static_explore(
    net: Network,
    tstates: Sequence[int],
    seeds: Sequence[int],
    forced: Mapping[int, int] = NO_FORCED,
) -> tuple[list[int], list[int], Adjacency]:
    """DC-connected component of ``seeds`` (the *static locality* ablation).

    Reachability ignores transistor states entirely: every transistor is
    treated as potentially conducting, which reproduces the partitioning
    used by pre-MOSSIM-II switch-level simulators that the paper
    contrasts with.  The steady-state solver still sees true transistor
    states (via the adjacency snapshot); only the recomputed region is
    (much) larger.
    """
    return explore(
        net, tstates, seeds, forced, reach_tstates=_AllOnes()
    )


class _AllOnes:
    """Infinite virtual sequence of 1s (every transistor conducting)."""

    def __getitem__(self, index: int) -> int:
        return 1
