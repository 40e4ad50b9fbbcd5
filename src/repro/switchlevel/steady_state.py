"""Steady-state response of a vicinity (the switch-level solver core).

Given the current node states and a vicinity snapshot (storage members,
input boundary, conducting-edge adjacency from
:func:`repro.switchlevel.vicinity.explore`), this module computes the new
steady state of every member node under Bryant's switch-level semantics:

* every signal has a *strength* (see ``repro.switchlevel.strength``) and a
  ternary *value*;
* a signal traversing a transistor is attenuated to ``min(signal,
  transistor strength)``;
* at each node the strongest arriving signals win; equal-strength signals
  of conflicting value fight, producing X;
* a node pinned by a strong signal *blocks* weaker signals from flowing
  through it (the resolved value, not the individual weaker signals, is
  what propagates onward).

The solver makes two kinds of passes of bucketed max–min relaxation (a
Dijkstra variant over the small, totally ordered strength set, processing
strength levels from strongest to weakest so settling implements
blocking):

1. **Definite pass** -- only transistors in state 1 conduct.  Produces,
   for each node ``n``, the strength ``ds[n]`` and value-set ``dval[n]``
   of the signals that *certainly* arrive.  Propagation forwards a node's
   *resolved* value set, so a node pinned at a higher strength never
   leaks weaker upstream signals (blocking).
2. **Possible pass** (run once per value ``v`` in {0, 1}) -- transistors
   in state 1 or X conduct, and X-valued sources count as
   possible-``v``.  Produces ``arr_v[n]``: the strength of the strongest
   signal that might carry value ``v`` to ``n``.  A possible signal
   propagates through a node only if it is at least as strong as that
   node's definite signal (otherwise the definite signal blocks it); its
   arrival is recorded regardless, for the endpoint's own resolution.

Resolution: a member becomes 1 iff its definite value set is exactly {1}
and every possible 0 is strictly weaker than the definite strength
(symmetrically for 0); otherwise it becomes X.  This is exact for X-free
networks and a sound (information-monotone) approximation in the presence
of X -- property-tested in ``tests/switchlevel/test_steady_state_props.py``.

The vicinity's conducting edges arrive pre-snapshotted as plain integer
tuples, so the relaxation loops never index transistor-state views:
only the members' and boundary nodes' own states are read.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .logic import BIT0, BIT1, ONE, X, ZERO
from .network import Network
from .vicinity import NO_FORCED, Adjacency

#: Shared empty edge list for nodes with no conducting edges.
_NO_EDGES: tuple = ()


def solve_vicinity(
    net: Network,
    states,
    members: Sequence[int],
    boundary: Sequence[int],
    adjacency: Adjacency,
    forced: Mapping[int, int] = NO_FORCED,
) -> list[tuple[int, int]]:
    """Steady-state response of one vicinity.

    ``states`` maps node index -> current state (any indexable view);
    ``members``/``boundary``/``adjacency`` come from
    :func:`~repro.switchlevel.vicinity.explore`; ``forced`` gives
    per-circuit pseudo-input overrides for boundary nodes (node faults).

    Returns ``[(node, new_state), ...]`` for members whose steady state
    differs from their current state.  ``states`` is *not* modified.
    """
    omega = net.strengths.omega
    node_size = net.node_size
    adjacency_get = adjacency.get

    # Local state snapshot (one view call per node, then plain ints).
    has_x = False
    member_states: dict[int, int] = {}
    for n in members:
        state = states[n]
        member_states[n] = state
        if state == X:
            has_x = True
    boundary_states: dict[int, int] = {}
    for b in boundary:
        state = forced.get(b)
        if state is None:
            state = states[b]
        boundary_states[b] = state
        if state == X:
            has_x = True
    if not has_x:
        # X transistors can exist even with no X node in the vicinity
        # (the controlling gate may lie outside it).
        for edges in adjacency.values():
            for tstate, _strength, _m in edges:
                if tstate == X:
                    has_x = True
                    break
            if has_x:
                break

    # ---- definite pass ----------------------------------------------------
    ds: dict[int, int] = {}
    dval: dict[int, int] = {}
    buckets: list[list[int]] = [[] for _ in range(omega + 1)]
    for n in members:
        size = node_size[n]
        ds[n] = size
        dval[n] = 1 << member_states[n]
        buckets[size].append(n)
    for b, state in boundary_states.items():
        ds[b] = omega
        dval[b] = 1 << state
        buckets[omega].append(b)

    for level in range(omega, 0, -1):
        queue = buckets[level]
        qi = 0
        while qi < len(queue):
            n = queue[qi]
            qi += 1
            if ds[n] != level:
                continue  # superseded by a stronger arrival
            outval = dval[n]
            for tstate, strength, m in adjacency_get(n, _NO_EDGES):
                if tstate != 1:
                    continue
                cand = level if level < strength else strength
                dm = ds[m]
                if cand > dm:
                    ds[m] = cand
                    dval[m] = outval
                    if cand == level:
                        queue.append(m)
                    else:
                        buckets[cand].append(m)
                elif cand == dm:
                    merged = dval[m] | outval
                    if merged != dval[m]:
                        dval[m] = merged
                        if cand == level:
                            queue.append(m)
                        else:
                            buckets[cand].append(m)

    changes: list[tuple[int, int]] = []

    if not has_x:
        # X-free fast path: every signal is definite, so the strongest
        # arrivals are all in dval and the possible passes are redundant
        # (a possibly-v signal at or above ds[n] would have merged into
        # dval[n] already).
        for n in members:
            definite = dval[n]
            if definite == BIT1:
                new_state = ONE
            elif definite == BIT0:
                new_state = ZERO
            else:
                new_state = X
            if new_state != member_states[n]:
                changes.append((n, new_state))
        return changes

    # ---- possible passes ----------------------------------------------
    arr0 = _possible_pass(
        net, member_states, boundary_states, adjacency_get, ds, ZERO, omega
    )
    arr1 = _possible_pass(
        net, member_states, boundary_states, adjacency_get, ds, ONE, omega
    )

    # ---- resolution -----------------------------------------------------
    arr0_get = arr0.get
    arr1_get = arr1.get
    for n in members:
        definite = dval[n]
        if definite == BIT1 and arr0_get(n, 0) < ds[n]:
            new_state = ONE
        elif definite == BIT0 and arr1_get(n, 0) < ds[n]:
            new_state = ZERO
        else:
            new_state = X
        if new_state != member_states[n]:
            changes.append((n, new_state))
    return changes


def _possible_pass(
    net: Network,
    member_states: Mapping[int, int],
    boundary_states: Mapping[int, int],
    adjacency_get,
    ds: Mapping[int, int],
    value: int,
    omega: int,
) -> dict[int, int]:
    """Strength of the strongest possibly-``value`` signal at each node.

    Transistors in state 1 or X conduct (the adjacency snapshot contains
    only conducting edges, so no per-edge check is needed); sources with
    state ``value`` or X are roots.  A signal flows through a node only
    if its strength is at least the node's definite strength (definite
    blocking); arrivals are recorded unconditionally so the endpoint can
    compare them to its own definite signal.
    """
    node_size = net.node_size
    arr: dict[int, int] = {}
    prop: dict[int, int] = {}
    buckets: list[list[int]] = [[] for _ in range(omega + 1)]
    for n, state in member_states.items():
        if state == value or state == X:
            size = node_size[n]
            arr[n] = size
            if size >= ds[n]:
                prop[n] = size
                buckets[size].append(n)
    for b, state in boundary_states.items():
        if state == value or state == X:
            prop[b] = omega
            buckets[omega].append(b)

    prop_get = prop.get
    arr_get = arr.get
    for level in range(omega, 0, -1):
        queue = buckets[level]
        qi = 0
        while qi < len(queue):
            n = queue[qi]
            qi += 1
            if prop_get(n, 0) != level:
                continue
            for _tstate, strength, m in adjacency_get(n, _NO_EDGES):
                cand = level if level < strength else strength
                if cand > arr_get(m, 0):
                    arr[m] = cand
                if cand >= ds[m] and cand > prop_get(m, 0):
                    prop[m] = cand
                    if cand == level:
                        queue.append(m)
                    else:
                        buckets[cand].append(m)
    return arr
