"""Compile-once network partitioning and the memoized solve cache.

The dynamic-locality machinery (:mod:`repro.switchlevel.vicinity`)
re-discovers the network's structure from scratch every round: a
dict/set BFS per seed group, with one transistor-state lookup per
incidence.  MOSSIM II instead partitions the network into
*channel-connected components* exactly once; this module is that
compile pass, plus the caches it enables:

1. **Partition** -- storage nodes are grouped into static
   channel-connected components (transistor channels only; input nodes
   are cut points and never belong to a component).  The partition is
   the coarsest region a vicinity can ever grow to, and the unit all
   compiled indexes and caches hang off.

2. **Lowering** -- each component becomes flat parallel arrays: the
   sorted member list with sizes, the adjacent input ``boundary``, and
   a CSR-style channel adjacency ``(edge_t, edge_strength, edge_dst)``
   laid out per member, with each edge also carrying its position in
   the component's transistor list (the conduction-mask bit) and an
   is-input flag for its target.

3. **Indexes** -- ``node_component`` maps a storage node to its
   component id (seeds map to dirty components in O(1)),
   ``gate_fanout`` maps a node to the components containing channels of
   the transistors it gates (the components a node state change can
   dirty), and ``t_component`` locates a transistor's channel.

4. **Conduction masks** -- a component's channel conduction is packed
   into one integer bit per transistor, derived from the *gate node
   states* (``ts_kind`` / ``ts_gpos`` tables) rather than read through
   transistor-state views, and memoized per packed gate states.  The
   mask deliberately merges definite (1) and unknown (X) conduction:
   the X-rich configurations of faulty circuits share structure with
   the good circuit's.

5. **Regions and the solve cache** -- a round's seeds are expanded to
   their conducting *regions* (exactly the dynamic vicinities) by a
   BFS over the flat arrays filtered by the mask -- no state-view
   reads.  Regions are memoized per ``(mask, forcing, member)``, and
   each region memoizes its steady-state responses keyed by the packed
   member / local-gate / input states, so a solve is shared across
   rounds, patterns and faulty circuits -- faulty circuits differ from
   the good circuit on only a few components, which is what makes the
   hit rate high.

The kernel is plain Python throughout: a cache key is the bytes of the
node states it covers, ``bytes(map(states.__getitem__, nodes))``, built
where it is probed.  Its results are checked bit-for-bit against the
dynamic locality (``vicinity.explore`` + ``solve_vicinity``, the oracle)
by the locality property suite.

Per-circuit *forced nodes* (node faults acting as pseudo-inputs) are
not known at compile time, so they are handled at region-build time: a
forced member becomes boundary (omega drive, never recomputed) and the
forced signature is part of the region key.  Per-circuit *forced
transistors* override the gate-derived conduction and are part of the
mask derivation.

:func:`compile_network` memoizes per :class:`~repro.switchlevel.
network.Network` instance (weakly, so instrumented fault-simulation
networks drop their compiled form with them), which is also what makes
the caches *shared by every backend* running on the same network.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Mapping, Sequence

from ..errors import NetworkNotFinalizedError
from .network import TRANS_TABLE, Network
from .steady_state import solve_vicinity
from .vicinity import NO_FORCED

__all__ = [
    "CompiledComponent",
    "CompiledNetwork",
    "Region",
    "adopt_compiled",
    "cache_stats",
    "compile_network",
]


def _pack(values) -> bytes:
    """Int sequence -> raw int64 buffer (the pickled CSR form)."""
    return array("q", values).tobytes()


def _unpack(data: bytes) -> tuple[int, ...]:
    values = array("q")
    values.frombytes(data)
    return tuple(values)

#: Component id recorded for input nodes (they belong to no component).
NO_COMPONENT = -1

#: Total cached entries (regions + solves + masks) across a network
#: before eviction starts clearing components round-robin (real
#: workloads sit far below this).
MAX_CACHE_ENTRIES = 1_000_000


class CompiledComponent:
    """One channel-connected component, lowered to flat arrays.

    The CSR rows cover the members in ``members`` order; row ``i`` owns
    the half-open edge range ``edge_start[i]:edge_start[i + 1]`` of the
    flat edge arrays.  Every incident channel edge appears in its
    member's row (member<->member edges therefore appear twice, once
    per endpoint; member<->input edges once, flagged by
    ``edge_dst_input``).
    """

    __slots__ = (
        "cid",
        "members",
        "member_set",
        "member_pos",
        "member_sizes",
        "boundary",
        "edge_start",
        "edge_t",
        "edge_ti",
        "edge_strength",
        "edge_dst",
        "edge_dst_input",
        "edge_ts",
        "edge_ts_set",
        "edge_gates",
        "ts_kind",
        "ts_gpos",
        "ts_index",
        "comp_key_nodes",
    )

    def __init__(
        self,
        cid: int,
        net: Network,
        members: tuple[int, ...],
        boundary: tuple[int, ...],
        rows: list[list[tuple[int, int, int]]],
    ):
        self.cid = cid
        self.members = members
        self.member_sizes = tuple(net.node_size[n] for n in members)
        self.boundary = boundary

        node_is_input = net.node_is_input
        starts = [0]
        edge_t: list[int] = []
        edge_strength: list[int] = []
        edge_dst: list[int] = []
        edge_dst_input: list[bool] = []
        for row in rows:
            for t, strength, dst in row:
                edge_t.append(t)
                edge_strength.append(strength)
                edge_dst.append(dst)
                edge_dst_input.append(node_is_input[dst])
            starts.append(len(edge_t))
        self.edge_start = tuple(starts)
        self.edge_t = tuple(edge_t)
        self.edge_strength = tuple(edge_strength)
        self.edge_dst = tuple(edge_dst)
        self.edge_dst_input = tuple(edge_dst_input)

        # The channel transistor states are a function of their gate
        # node states (plus per-circuit forced transistors), so
        # conduction is derived from the -- typically fewer -- gate
        # nodes instead of one read per channel transistor.
        edge_ts = tuple(sorted(set(edge_t)))
        t_gate = net.t_gate
        t_kind = net.t_kind
        self.edge_gates = tuple(sorted({t_gate[t] for t in edge_ts}))
        gate_pos = {g: i for i, g in enumerate(self.edge_gates)}
        #: Aligned with ``edge_ts``: Table 1 row and gate position.
        self.ts_kind = tuple(t_kind[t] for t in edge_ts)
        self.ts_gpos = tuple(gate_pos[t_gate[t]] for t in edge_ts)
        self._derive()

    def _derive(self) -> None:
        """(Re)build every field implied by the core arrays.

        Shared by construction and unpickling: the pickled form carries
        only the flat CSR and per-``edge_ts`` tables, and everything
        else -- index dicts and the key-node layout -- comes back
        through here.
        """
        self.member_set = frozenset(self.members)
        self.member_pos = {n: i for i, n in enumerate(self.members)}
        self.edge_ts = tuple(sorted(set(self.edge_t)))
        self.edge_ts_set = frozenset(self.edge_ts)
        ts_index = {t: i for i, t in enumerate(self.edge_ts)}
        self.ts_index = ts_index
        #: CSR edge -> index into ``edge_ts`` (its conduction-mask bit).
        self.edge_ti = tuple(ts_index[t] for t in self.edge_t)

        # Everything a solve of this component can depend on, as one
        # node tuple: member charge, boundary drive and the gate states
        # the conduction derives from.  One packed read of these bytes
        # keys the whole-call memo in ``solve_seeded``.
        in_key = self.member_set | frozenset(self.boundary)
        self.comp_key_nodes = (
            self.members
            + self.boundary
            + tuple(g for g in self.edge_gates if g not in in_key)
        )

    def __getstate__(self) -> dict:
        """Core arrays only, int tuples packed as raw int64 buffers.

        Every derived field (index dicts, the key-node layout) is
        rebuilt by ``_derive`` on restore.
        """
        return {
            "cid": self.cid,
            "members": _pack(self.members),
            "member_sizes": _pack(self.member_sizes),
            "boundary": _pack(self.boundary),
            "edge_start": _pack(self.edge_start),
            "edge_t": _pack(self.edge_t),
            "edge_strength": _pack(self.edge_strength),
            "edge_dst": _pack(self.edge_dst),
            "edge_dst_input": bytes(self.edge_dst_input),
            "edge_gates": _pack(self.edge_gates),
            "ts_kind": _pack(self.ts_kind),
            "ts_gpos": _pack(self.ts_gpos),
        }

    def __setstate__(self, state: dict) -> None:
        self.cid = state["cid"]
        self.members = _unpack(state["members"])
        self.member_sizes = _unpack(state["member_sizes"])
        self.boundary = _unpack(state["boundary"])
        self.edge_start = _unpack(state["edge_start"])
        self.edge_t = _unpack(state["edge_t"])
        self.edge_strength = _unpack(state["edge_strength"])
        self.edge_dst = _unpack(state["edge_dst"])
        self.edge_dst_input = tuple(
            bool(b) for b in state["edge_dst_input"]
        )
        self.edge_gates = _unpack(state["edge_gates"])
        self.ts_kind = _unpack(state["ts_kind"])
        self.ts_gpos = _unpack(state["ts_gpos"])
        self._derive()

    @property
    def size(self) -> int:
        return len(self.members)

    def structure(self) -> tuple:
        """Plain-data view of the lowering (determinism tests compare it)."""
        return (
            self.members,
            self.member_sizes,
            self.boundary,
            self.edge_start,
            self.edge_t,
            self.edge_strength,
            self.edge_dst,
        )


class Region:
    """One conducting region: the dynamic vicinity of its seeds.

    Discovered by a mask-filtered BFS over the compiled arrays and
    memoized per ``(mask, forcing, member)``: the members reachable
    from each other through conducting channels, the adjacent boundary
    nodes (true inputs in ``inputs``; forced pseudo-inputs complete
    ``boundary``), and the conducting adjacency restricted to edges
    into this region.  Adjacency edges carry ``(edge_ts index,
    strength, dst)`` -- *which* transistor, not its current state,
    since the mask merges definite and unknown conduction; states are
    filled in from the packed gate bytes when a solve actually runs.

    ``solves`` memoizes steady-state responses by the packed member /
    local-gate / input states -- shared across every configuration with
    this conduction, so a state change elsewhere in the component never
    forces a re-solve here.
    """

    __slots__ = (
        "members",
        "boundary",
        "adjacency",
        "key_nodes",
        "state_override",
        "solves",
    )

    def __init__(
        self,
        comp: "CompiledComponent",
        members: tuple[int, ...],
        inputs: tuple[int, ...],
        forced_boundary: tuple[int, ...],
        adjacency: dict[int, list[tuple[int, int, int]]],
        ts_seen: set[int],
        state_override: dict[int, int],
    ):
        self.members = members
        self.boundary = inputs + forced_boundary
        self.adjacency = adjacency
        # Everything the steady state depends on, as one node tuple
        # read in a single packed-states call: the members (charge),
        # the gates of the region's conducting channels (1-vs-X edge
        # values) and the adjacent true inputs (drive).  Forced
        # pseudo-input values are pinned by the region key itself.
        edge_gates = comp.edge_gates
        ts_gpos = comp.ts_gpos
        member_set = frozenset(members)
        gates = sorted(
            {edge_gates[ts_gpos[ti]] for ti in ts_seen} - member_set
            - frozenset(inputs)
        )
        self.key_nodes = members + tuple(gates) + inputs
        self.state_override = state_override
        self.solves: dict[bytes, tuple[tuple[int, int], ...]] = {}


class CompiledNetwork:
    """The compile pass's output: partition, indexes and solve caches."""

    __slots__ = (
        "__weakref__",
        "net",
        "components",
        "node_component",
        "t_component",
        "gate_fanout",
        "_masks",
        "_mask_ids",
        "_regions",
        "_calls",
        "_interns",
        "_entries",
        "_comp_entries",
        "_evict_cursor",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, net: Network):
        net.require_finalized()
        self.net = net
        self._partition(net)
        self._init_caches()

    def _init_caches(self) -> None:
        #: Per component: (packed gate states, forced-transistor sig)
        #: -> (conduction mask, interned mask id).  The small id stands
        #: in for the (arbitrarily wide) mask in region keys.
        self._masks: tuple[dict, ...] = tuple({} for _ in self.components)
        #: Per component: mask -> interned id.
        self._mask_ids: tuple[dict, ...] = tuple(
            {} for _ in self.components
        )
        #: Per component: (mask id, forced sigs, member) -> Region.
        self._regions: tuple[dict, ...] = tuple(
            {} for _ in self.components
        )
        #: Per component: (seeds, forced sigs, packed comp states) ->
        #: the full result list of one ``solve_seeded`` call.  The hit
        #: path of a whole call collapses to one packed read and one
        #: dict probe; misses fall through to the region layer, which
        #: still shares work across differing whole-component states.
        self._calls: tuple[dict, ...] = tuple(
            {} for _ in self.components
        )
        #: Per component: (members, conducting-edge mask, forced sigs)
        #: -> Region.  A region is fully determined by its members and
        #: the conducting edges among them, *not* by the component-wide
        #: mask the region memo is keyed under -- so a conduction change
        #: elsewhere in the component reuses the identical Region object
        #: (and, crucially, its warm ``solves`` memo).
        self._interns: tuple[dict, ...] = tuple(
            {} for _ in self.components
        )
        self._entries = 0
        #: Per component: its share of ``_entries`` (masks + regions +
        #: solves), so eviction can clear one component at a time.
        self._comp_entries = [0] * len(self.components)
        self._evict_cursor = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __getstate__(self) -> dict:
        """The partition and indexes; never the solve caches.

        The caches are heavy (every memoized region and solve), so a
        shipped compiled network arrives cold but fully lowered -- the
        receiver skips the partition/lowering pass and rebuilds cache
        state through normal use.
        """
        return {
            "net": self.net,
            "components": self.components,
            "node_component": _pack(self.node_component),
            "t_component": _pack(self.t_component),
            "gate_fanout": tuple(self.gate_fanout),
        }

    def __setstate__(self, state: dict) -> None:
        self.net = state["net"]
        self.components = state["components"]
        self.node_component = list(_unpack(state["node_component"]))
        self.t_component = list(_unpack(state["t_component"]))
        self.gate_fanout = list(state["gate_fanout"])
        self._init_caches()

    # ------------------------------------------------------------------
    # the compile pass proper
    # ------------------------------------------------------------------
    def _partition(self, net: Network) -> None:
        n_nodes = net.n_nodes
        node_is_input = net.node_is_input
        node_channels = net.node_channels
        t_strength = net.t_strength

        node_component = [NO_COMPONENT] * n_nodes
        components: list[CompiledComponent] = []
        for start in range(n_nodes):
            if node_is_input[start] or node_component[start] != NO_COMPONENT:
                continue
            cid = len(components)
            # Flood the channel graph from this storage node; inputs cut.
            stack = [start]
            node_component[start] = cid
            reached = [start]
            boundary: set[int] = set()
            while stack:
                n = stack.pop()
                for t, m in node_channels[n]:
                    if node_is_input[m]:
                        boundary.add(m)
                    elif node_component[m] == NO_COMPONENT:
                        node_component[m] = cid
                        reached.append(m)
                        stack.append(m)
            members = tuple(sorted(reached))
            rows = [
                [(t, t_strength[t], m) for t, m in node_channels[n]]
                for n in members
            ]
            components.append(
                CompiledComponent(
                    cid, net, members, tuple(sorted(boundary)), rows
                )
            )
        self.components = tuple(components)
        self.node_component = node_component

        # Transistor -> component of its channel (NO_COMPONENT when both
        # terminals are inputs; storage terminals always share a
        # component, by construction).
        t_component = []
        for t in range(net.n_transistors):
            cid = node_component[net.t_source[t]]
            if cid == NO_COMPONENT:
                cid = node_component[net.t_drain[t]]
            t_component.append(cid)
        self.t_component = t_component

        # gate fanout: the components a node state change can dirty
        # through the transistors it gates.
        gate_fanout: list[tuple[int, ...]] = []
        for g in range(n_nodes):
            dirty: set[int] = set()
            for t in net.node_gates[g]:
                cid = t_component[t]
                if cid != NO_COMPONENT:
                    dirty.add(cid)
            gate_fanout.append(tuple(sorted(dirty)))
        self.gate_fanout = gate_fanout

    # ------------------------------------------------------------------
    # the memoized per-region solve
    # ------------------------------------------------------------------
    def solve_seeded(
        self,
        comp: CompiledComponent,
        states,
        seeds: Sequence[int],
        forced: Mapping[int, int] = NO_FORCED,
        forced_transistors: Mapping[int, int] | None = None,
        *,
        sig_cache: dict | None = None,
    ) -> list[
        tuple[
            tuple[int, ...],
            tuple[int, ...],
            tuple[tuple[int, int], ...],
            list[int],
        ]
    ]:
        """Steady state of the seeded conducting regions of one component.

        Returns one ``(members, boundary, changes, seeds)`` entry per
        region containing a seed -- the same regions (and the same
        results) dynamic exploration hands out.  ``states`` is a plain
        list; nothing is modified.  Conduction derives from the gate
        node states, so no transistor-state view is read.
        ``forced_transistors`` must name the circuit's transistor
        forcing, which overrides the gate-derived conduction.
        ``sig_cache``, when given, memoizes the component-local forced
        signatures per component id -- valid exactly as long as the
        caller's forcing maps are immutable (one circuit's lifetime).
        Returned tuples are shared with the cache -- callers must treat
        them as immutable.
        """
        sigs = None if sig_cache is None else sig_cache.get(comp.cid)
        if sigs is None:
            if forced:
                forced_sig = tuple(
                    sorted(
                        (n, forced[n])
                        for n in forced
                        if n in comp.member_set
                    )
                )
            else:
                forced_sig = ()
            if forced_transistors:
                edge_ts_set = comp.edge_ts_set
                forced_t_sig = tuple(
                    sorted(
                        (t, state)
                        for t, state in forced_transistors.items()
                        if t in edge_ts_set
                    )
                )
            else:
                forced_t_sig = ()
            if sig_cache is not None:
                sig_cache[comp.cid] = (forced_sig, forced_t_sig)
        else:
            forced_sig, forced_t_sig = sigs

        read = states.__getitem__
        cid = comp.cid
        if len(seeds) == 1:
            seeds_t = (seeds[0],) if isinstance(seeds, list) else tuple(seeds)
        else:
            seeds_t = tuple(sorted(seeds))
        # Evict only here, before any lookups or id interning: a
        # mid-call eviction would let an already-resolved mask id be
        # re-inserted into the freshly cleared memos and later collide
        # with a different mask's id.  (Checked inline: this runs once
        # per dirty component per round.)
        if self._entries >= MAX_CACHE_ENTRIES:
            self._evict_if_full()
        # Whole-call fast path: one packed read of everything the
        # component's solves can depend on, one probe.
        call_key = (
            seeds_t,
            forced_sig,
            forced_t_sig,
            bytes(map(read, comp.comp_key_nodes)),
        )
        calls = self._calls[cid]
        cached_call = calls.get(call_key)
        if cached_call is not None:
            self.hits += len(cached_call)
            return cached_call

        gate_key = bytes(map(read, comp.edge_gates))
        masks = self._masks[cid]
        mask_key = (gate_key, forced_t_sig)
        entry = masks.get(mask_key)
        if entry is None:
            mask = self._conduction_mask(comp, gate_key, forced_t_sig)
            mask_ids = self._mask_ids[cid]
            mask_id = mask_ids.setdefault(mask, len(mask_ids))
            masks[mask_key] = (mask, mask_id)
            self._entries += 1
            self._comp_entries[cid] += 1
        else:
            mask, mask_id = entry

        regions = self._regions[cid]
        ordered: list[Region] = []
        region_seeds: dict[int, list[int]] = {}
        local: dict[int, Region] = {}
        for seed in seeds_t:
            region = local.get(seed)
            if region is None:
                region_key = (mask_id, forced_sig, forced_t_sig, seed)
                region = regions.get(region_key)
                if region is None:
                    region = self._explore_region(
                        comp, mask, forced, forced_sig, forced_t_sig, seed,
                        self._interns[cid],
                    )
                    for member in region.members:
                        regions[
                            (mask_id, forced_sig, forced_t_sig, member)
                        ] = region
                    self._entries += len(region.members)
                    self._comp_entries[cid] += len(region.members)
                for member in region.members:
                    local[member] = region
            key = id(region)
            group = region_seeds.get(key)
            if group is None:
                ordered.append(region)
                region_seeds[key] = [seed]
            else:
                group.append(seed)

        results = []
        for region in ordered:
            solve_key = bytes(map(read, region.key_nodes))
            changes = region.solves.get(solve_key)
            if changes is None:
                self.misses += 1
                changes = tuple(
                    solve_vicinity(
                        self.net,
                        states,
                        region.members,
                        region.boundary,
                        self._materialize(comp, region, gate_key),
                        forced,
                    )
                )
                region.solves[solve_key] = changes
                self._entries += 1
                self._comp_entries[cid] += 1
            else:
                self.hits += 1
            results.append(
                (
                    region.members,
                    region.boundary,
                    changes,
                    region_seeds[id(region)],
                )
            )
        calls[call_key] = results
        self._entries += 1
        self._comp_entries[cid] += 1
        return results

    def _conduction_mask(
        self,
        comp: CompiledComponent,
        gate_key: bytes,
        forced_t_sig: tuple,
    ) -> int:
        """One bit per channel transistor: conducting (1 or X) or off.

        Deliberately coarser than the gate states themselves: definite
        and unknown conduction merge, so the X-rich configurations of
        faulty circuits share regions with the good circuit's.
        """
        mask = 0
        bit = 1
        ts_gpos = comp.ts_gpos
        for index, kind in enumerate(comp.ts_kind):
            if TRANS_TABLE[kind][gate_key[ts_gpos[index]]]:
                mask |= bit
            bit <<= 1
        for t, state in forced_t_sig:
            bit = 1 << comp.ts_index[t]
            if state:
                mask |= bit
            else:
                mask &= ~bit
        return mask

    def _explore_region(
        self,
        comp: CompiledComponent,
        mask: int,
        forced: Mapping[int, int],
        forced_sig: tuple,
        forced_t_sig: tuple,
        seed: int,
        intern: dict,
    ) -> Region:
        """Mask-filtered BFS from ``seed`` over the compiled arrays.

        The flat-array walk replaces :func:`~repro.switchlevel.
        vicinity.explore`'s per-incidence transistor-state view reads
        with integer mask tests; the result is the same region.
        """
        member_pos = comp.member_pos
        edge_start = comp.edge_start
        edge_ti = comp.edge_ti
        edge_strength = comp.edge_strength
        edge_dst = comp.edge_dst
        edge_dst_input = comp.edge_dst_input
        check_forced = bool(forced)

        members: list[int] = []
        inputs: list[int] = []
        forced_boundary: list[int] = []
        adjacency: dict[int, list[tuple[int, int, int]]] = {}
        ts_seen: set[int] = set()
        seen = {seed}
        stack = [seed]
        while stack:
            n = stack.pop()
            members.append(n)
            row = member_pos[n]
            row_edges = []
            for ei in range(edge_start[row], edge_start[row + 1]):
                ti = edge_ti[ei]
                if not (mask >> ti) & 1:
                    continue
                ts_seen.add(ti)
                dst = edge_dst[ei]
                if edge_dst_input[ei]:
                    # Attach to the input: its only propagation direction.
                    adjacency.setdefault(dst, []).append(
                        (ti, edge_strength[ei], n)
                    )
                    if dst not in seen:
                        seen.add(dst)
                        inputs.append(dst)
                elif check_forced and dst in forced:
                    adjacency.setdefault(dst, []).append(
                        (ti, edge_strength[ei], n)
                    )
                    if dst not in seen:
                        seen.add(dst)
                        forced_boundary.append(dst)
                else:
                    row_edges.append((ti, edge_strength[ei], dst))
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            if row_edges:
                adjacency[n] = row_edges
        members.sort()
        inputs.sort()
        forced_boundary.sort()
        # The BFS records every conducting edge it crossed -- including
        # the ones that stopped at inputs and forced nodes -- so
        # (members, crossed edges, forced sigs) pins the whole
        # structure.  Regions rediscovered under a different
        # component-wide mask intern to the same object and inherit its
        # warm ``solves`` memo.
        ts_bits = 0
        for ti in ts_seen:
            ts_bits |= 1 << ti
        struct_key = (tuple(members), ts_bits, forced_sig, forced_t_sig)
        interned = intern.get(struct_key)
        if interned is not None:
            return interned
        ts_index = comp.ts_index
        region = Region(
            comp,
            tuple(members),
            tuple(inputs),
            tuple(forced_boundary),
            adjacency,
            ts_seen,
            {
                ts_index[t]: state
                for t, state in forced_t_sig
                if ts_index[t] in ts_seen
            },
        )
        intern[struct_key] = region
        return region

    def _materialize(
        self,
        comp: CompiledComponent,
        region: Region,
        gate_key: bytes,
    ) -> dict[int, list[tuple[int, int, int]]]:
        """Value the region's adjacency for the solver.

        The stored edges carry ``edge_ts`` indexes; the solver needs
        transistor *states* (1 vs X matters to it even though the mask
        does not distinguish them), derived here from the packed gate
        states and the region's forcing overrides.
        """
        override = region.state_override
        ts_kind = comp.ts_kind
        ts_gpos = comp.ts_gpos
        valued: dict[int, list[tuple[int, int, int]]] = {}
        if override:
            for node, edges in region.adjacency.items():
                valued[node] = [
                    (
                        override[ti]
                        if ti in override
                        else TRANS_TABLE[ts_kind[ti]][gate_key[ts_gpos[ti]]],
                        strength,
                        dst,
                    )
                    for ti, strength, dst in edges
                ]
        else:
            for node, edges in region.adjacency.items():
                valued[node] = [
                    (
                        TRANS_TABLE[ts_kind[ti]][gate_key[ts_gpos[ti]]],
                        strength,
                        dst,
                    )
                    for ti, strength, dst in edges
                ]
        return valued

    def _evict_if_full(self) -> None:
        """Round-robin eviction: clear whole components until half full.

        Clearing per component (instead of nuking every memo at once)
        keeps the rest of the network's warm state intact.  The
        mask-byte -> interned-id tables (``_mask_ids``) are deliberately
        *preserved*: region keys embed interned mask ids, so a component
        rebuilt after eviction must intern identical masks to identical
        ids or its new region keys would collide with stale ones.  The
        id tables are bounded by the distinct conduction patterns seen
        (far smaller than the solve memos they stabilize).
        """
        if self._entries < MAX_CACHE_ENTRIES:
            return
        target = MAX_CACHE_ENTRIES // 2
        n = len(self.components)
        comp_entries = self._comp_entries
        scanned = 0
        while self._entries > target and scanned < n:
            cid = self._evict_cursor % n
            self._evict_cursor += 1
            scanned += 1
            freed = comp_entries[cid]
            if freed:
                self._masks[cid].clear()
                self._regions[cid].clear()
                self._calls[cid].clear()
                self._interns[cid].clear()
                comp_entries[cid] = 0
                self._entries -= freed
        self.evictions += 1

    # ------------------------------------------------------------------
    # dirty-component mapping and reporting
    # ------------------------------------------------------------------
    def components_for_seeds(
        self, seeds: Sequence[int]
    ) -> dict[int, list[int]]:
        """Group storage seeds by component id (O(1) per seed)."""
        grouped: dict[int, list[int]] = {}
        node_component = self.node_component
        for seed in seeds:
            cid = node_component[seed]
            bucket = grouped.get(cid)
            if bucket is None:
                grouped[cid] = [seed]
            else:
                bucket.append(seed)
        return grouped

    def component_size_histogram(self) -> dict[int, int]:
        """``{member count: number of components}`` (benchmark fodder)."""
        histogram: dict[int, int] = {}
        for comp in self.components:
            histogram[comp.size] = histogram.get(comp.size, 0) + 1
        return histogram

    def stats(self) -> dict:
        """Cache counters, for run reports and benchmarks."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "entries": self._entries,
            "evictions": self.evictions,
            "components": len(self.components),
        }


#: One compiled form per live Network instance (weak: instrumented
#: fault-simulation networks drop their compiled form with them).
_COMPILED: "weakref.WeakKeyDictionary[Network, CompiledNetwork]" = (
    weakref.WeakKeyDictionary()
)


def compile_network(net: Network) -> CompiledNetwork:
    """The compiled form of ``net`` (memoized per instance).

    Raises :class:`~repro.errors.NetworkNotFinalizedError` when ``net``
    has not been finalized: the partition indexes the frozen topology.
    """
    if not net.finalized:
        raise NetworkNotFinalizedError(
            "network must be finalized before it can be compiled"
        )
    compiled = _COMPILED.get(net)
    if compiled is None:
        compiled = CompiledNetwork(net)
        _COMPILED[net] = compiled
    return compiled


def adopt_compiled(compiled: CompiledNetwork) -> CompiledNetwork:
    """Install a (typically unpickled) compiled network into the memo.

    A shard or service worker that received a :class:`CompiledNetwork`
    over the wire calls this once; every later
    :func:`compile_network` on the same :class:`~repro.switchlevel.
    network.Network` instance then returns the shipped artifact instead
    of re-running the partition.  A compiled form already memoized for
    that network wins (its caches may be warm) and is returned instead.
    """
    existing = _COMPILED.get(compiled.net)
    if existing is not None:
        return existing
    _COMPILED[compiled.net] = compiled
    return compiled


def cache_stats(net: Network) -> dict | None:
    """Solve-cache counters of ``net``'s compiled form, if it exists.

    Does *not* compile: returns ``None`` when nothing has compiled the
    network yet (callers use this to snapshot per-run deltas).
    """
    compiled = _COMPILED.get(net)
    if compiled is None:
        return None
    return compiled.stats()
