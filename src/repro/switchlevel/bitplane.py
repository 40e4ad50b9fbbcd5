"""Bit-plane (lane-packed) switch-level simulation of W circuits at once.

The batch fault-simulation backend packs W faulty circuits into the bits
of machine integers: every node carries two *planes* ``(p0, p1)`` whose
bit ``w`` encodes lane ``w``'s ternary state (``0`` -> p0, ``1`` -> p1,
``X`` -> both; at least one bit is always set).  Transistor states
become *conduction planes* ``(c_on, c_maybe)`` derived from the gate
node's planes by Table 1 -- a handful of bitwise operations evaluate
the gate function for all W circuits at once, which is where the
bit-parallel speedup comes from (cf. batch RTL fault simulation,
arXiv:2505.06687).

Faults enter as per-lane force masks: ``node_force_mask`` lanes of a
node are pinned pseudo-inputs (node stuck-at faults; their value lives
in the planes and is never overwritten), and ``t_force_on`` /
``t_force_off`` lanes of a transistor ignore its gate (stuck devices,
inserted short/open fault transistors).

Rounds are *lockstep*: one :meth:`LaneSimulator.settle` round takes all
pending (node, lane-mask) perturbations, explores the **union vicinity**
(BFS through edges conducting in *any* active lane), and solves it with
a lane-parallel version of the two-pass strength relaxation of
:mod:`repro.switchlevel.steady_state`, where the scalar comparisons on
signal strengths become per-level lane masks (``ge[n][s]`` = lanes whose
definite strength at ``n`` is at least ``s``).  The union vicinity is an
over-approximation of each lane's true vicinity, but an exact one: a
lane in which a member is unreachable from the seeds contributes no
arrivals there, so the member keeps its charge -- and because the BFS
closes over every edge of every node it reaches, each lane's slice of
the union is a union of *complete* conducting components of that lane,
every one of which is either seeded (needs solving) or quiescent (at
fixpoint, so re-solving is the identity).  Per-lane round evolution is
therefore bit-identical to running the scalar engine on each lane
alone, which is what the cross-backend parity suite checks.

Lanes that fail to settle within the round budget are *extracted* to a
scalar :class:`~repro.switchlevel.scheduler.Engine` and finished by the
shared :class:`~repro.switchlevel.kernel.SettleKernel` (with the rounds
already spent pre-loaded), so oscillation fallback behavior matches the
other backends exactly; the caller owns that handoff via
:meth:`extract_lane` / :meth:`writeback_lane`.

Fault dropping clears lanes from :attr:`active`; :meth:`compact`
repacks the planes onto the surviving lanes so dropped circuits stop
costing bit-width.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Mapping

from .network import NTYPE, PTYPE, Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .compiled import CompiledNetwork

#: Cached lane solves per simulator before the cache is cleared.
_MAX_LANE_CACHE_ENTRIES = 100_000

#: ``(p0, p1)`` bit values for a scalar state (0, 1, X).
_STATE_BITS: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1))

#: Scalar state for ``(p0_bit, p1_bit)``; (0, 0) is unreachable but maps
#: to X so a corrupted lane degrades soundly.
_BITS_STATE: tuple[tuple[int, int], ...] = ((2, 1), (0, 2))


class LaneSimulator:
    """W-lane bit-plane simulation state for one network.

    Construction leaves every node at X in every lane except pinned
    (forced) nodes, which start at their forced value; the caller then
    drives the rails/inputs and perturbs the fault sites, exactly like
    the scalar engine.
    """

    def __init__(
        self,
        net: Network,
        lane_count: int,
        *,
        node_force_mask: Mapping[int, int] | None = None,
        node_force_values: Mapping[int, tuple[int, int]] | None = None,
        t_force_on: Mapping[int, int] | None = None,
        t_force_off: Mapping[int, int] | None = None,
        compiled: "CompiledNetwork | None" = None,
    ):
        net.require_finalized()
        self.net = net
        #: Optional compile-once partition: rounds select dirty
        #: components in O(1) instead of running the union-vicinity BFS,
        #: then split each into mask-filtered *regions* (the lane analog
        #: of the scalar compiled regions: BFS over edges conducting in
        #: any active lane) so solves stay as small as the dynamic union
        #: vicinity instead of covering whole components.  Solve keys
        #: cover the region's member/boundary planes and its conduction
        #: planes but deliberately *not* the active mask: lanes are
        #: independent throughout the solver, and ``active`` only
        #: shrinks between compactions, so an entry computed under a
        #: wider active mask stays exact for every still-active lane --
        #: the hit path masks the stored change lanes by the current
        #: ``active`` instead.  On :meth:`compact` the memo is
        #: *repacked* onto the surviving lanes alongside the planes (it
        #: used to be flushed, which cold-started every component after
        #: each drop wave).
        self.compiled = compiled
        #: key -> (union of stored change lanes, change list).
        self._solve_memo: dict[tuple, tuple[int, list]] = {}
        #: (cid, conduction mask, member) -> region tuple.  A region is
        #: a pure function of its key, so entries stay valid across
        #: compaction (the mask is recomputed from the repacked planes
        #: every round).
        self._region_memo: dict[tuple, tuple] = {}
        #: (cid, members, conducting-edge bits) -> stable small int.
        #: Solve keys embed this id instead of the member/transistor
        #: tuples; never cleared, so repacked solve entries still hit
        #: after compaction rebuilds the region objects.
        self._region_ids: dict[tuple, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.lane_count = lane_count
        self.full = (1 << lane_count) - 1
        #: Lanes still being simulated; dropped lanes freeze in place.
        self.active = self.full
        self.omega = net.strengths.omega
        self.node_force_mask = dict(node_force_mask or {})
        self.t_force_on = dict(t_force_on or {})
        self.t_force_off = dict(t_force_off or {})

        full = self.full
        # All-X start, then pin forced lanes at their forced value.
        self.p0: list[int] = [full] * net.n_nodes
        self.p1: list[int] = [full] * net.n_nodes
        for node, (f0, f1) in (node_force_values or {}).items():
            mask = self.node_force_mask[node]
            self.p0[node] = (self.p0[node] & ~mask) | f0
            self.p1[node] = (self.p1[node] & ~mask) | f1
        self.c_on: list[int] = [0] * net.n_transistors
        self.c_maybe: list[int] = [0] * net.n_transistors
        for t in range(net.n_transistors):
            self.c_on[t], self.c_maybe[t] = self._conduction(t)
        #: Per compiled component: one bit per channel transistor set
        #: when it conducts in some active lane -- the region filter.
        #: Maintained incrementally at conduction-plane updates rather
        #: than rebuilt per round; a bit may go stale-high after a lane
        #: drop, which only widens regions (still exact per lane).
        self._t_loc: dict[int, tuple[int, int]] = {}
        self._comp_masks: list[int] = []
        if compiled is not None:
            self._comp_masks = [0] * len(compiled.components)
            for comp in compiled.components:
                for i, t in enumerate(comp.edge_ts):
                    self._t_loc[t] = (comp.cid, 1 << i)
            self._recompute_masks()
        #: node -> lane mask of pending perturbations.
        self.pending: dict[int, int] = {}

    def _recompute_masks(self) -> None:
        """Rebuild every component's conduction mask from the planes."""
        c_maybe = self.c_maybe
        active = self.active
        masks = self._comp_masks
        for comp in self.compiled.components:
            m = 0
            bit = 1
            for t in comp.edge_ts:
                if c_maybe[t] & active:
                    m |= bit
                bit <<= 1
            masks[comp.cid] = m

    # ------------------------------------------------------------------
    # conduction planes
    # ------------------------------------------------------------------
    def _conduction(self, t: int) -> tuple[int, int]:
        """(definitely-on, on-or-X) lane masks of transistor ``t``."""
        net = self.net
        kind = net.t_kind[t]
        if kind == NTYPE:
            gate = net.t_gate[t]
            g0, g1 = self.p0[gate], self.p1[gate]
            on, maybe = g1 & ~g0, g1
        elif kind == PTYPE:
            gate = net.t_gate[t]
            g0, g1 = self.p0[gate], self.p1[gate]
            on, maybe = g0 & ~g1, g0
        else:  # DTYPE: always conducting
            on = maybe = self.full
        f_on = self.t_force_on.get(t, 0)
        f_off = self.t_force_off.get(t, 0)
        if f_on or f_off:
            forced = f_on | f_off
            on = (on & ~forced) | f_on
            maybe = (maybe & ~forced) | f_on
        return on, maybe

    def _node_changed(self, node: int) -> None:
        """Recompute gated conduction planes; seed perturbed terminals."""
        net = self.net
        active = self.active
        pending = self.pending
        for t in net.node_gates[node]:
            on, maybe = self._conduction(t)
            diff = (on ^ self.c_on[t]) | (maybe ^ self.c_maybe[t])
            if not diff:
                continue
            self.c_on[t] = on
            self.c_maybe[t] = maybe
            loc = self._t_loc.get(t)
            if loc is not None:
                cid, bit = loc
                if maybe & active:
                    self._comp_masks[cid] |= bit
                else:
                    self._comp_masks[cid] &= ~bit
            lanes = diff & active
            if not lanes:
                continue
            for terminal in (net.t_source[t], net.t_drain[t]):
                if net.node_is_input[terminal]:
                    continue
                add = lanes & ~self.node_force_mask.get(terminal, 0)
                if add:
                    pending[terminal] = pending.get(terminal, 0) | add

    # ------------------------------------------------------------------
    # driving and perturbing
    # ------------------------------------------------------------------
    def drive(self, node: int, state: int) -> None:
        """Set an input node's state in every lane."""
        b0, b1 = _STATE_BITS[state]
        full = self.full
        new_p0 = full if b0 else 0
        new_p1 = full if b1 else 0
        if self.p0[node] == new_p0 and self.p1[node] == new_p1:
            return
        self.p0[node] = new_p0
        self.p1[node] = new_p1
        self._node_changed(node)
        # Second perturbation rule, per lane: storage nodes seen through
        # lane-conducting transistors from the changed input.
        net = self.net
        active = self.active
        for t, m in net.node_channels[node]:
            if net.node_is_input[m]:
                continue
            lanes = self.c_maybe[t] & active
            add = lanes & ~self.node_force_mask.get(m, 0)
            if add:
                self.pending[m] = self.pending.get(m, 0) | add

    def perturb(self, node: int, lanes: int) -> None:
        """Schedule recomputation of ``node`` in ``lanes`` (fault setup).

        Mirrors the scalar engine's seed expansion: input/forced lanes
        route to the storage neighbors they conduct to.
        """
        net = self.net
        lanes &= self.active
        if not lanes:
            return
        forced = self.node_force_mask.get(node, 0)
        if net.node_is_input[node]:
            indirect = lanes
        else:
            direct = lanes & ~forced
            if direct:
                self.pending[node] = self.pending.get(node, 0) | direct
            indirect = lanes & forced
        if indirect:
            for t, m in net.node_channels[node]:
                if net.node_is_input[m]:
                    continue
                through = self.c_maybe[t] & indirect
                add = through & ~self.node_force_mask.get(m, 0)
                if add:
                    self.pending[m] = self.pending.get(m, 0) | add

    # ------------------------------------------------------------------
    # the lockstep settle loop
    # ------------------------------------------------------------------
    def settle(self, max_rounds: int) -> int:
        """Run lockstep rounds until quiescent or the budget is spent.

        Returns 0 on quiescence, else the mask of lanes still pending
        after ``max_rounds`` rounds -- the caller hands those lanes to a
        scalar engine for the oscillation fallback (see module docs).
        """
        # Converged (dropped) lanes are masked out of the pending set up
        # front: entries they alone seeded vanish before the first round
        # instead of feeding the union BFS every round until compaction.
        pending = self.pending
        if pending:
            active = self.active
            for node, lanes in list(pending.items()):
                live = lanes & active
                if live:
                    pending[node] = live
                else:
                    del pending[node]
        rounds = 0
        while self.pending:
            if rounds >= max_rounds:
                mask = 0
                for lanes in self.pending.values():
                    mask |= lanes
                return mask & self.active
            rounds += 1
            self._round()
        return 0

    def _round(self) -> None:
        pending = self.pending
        self.pending = {}
        active = self.active
        seeds = [n for n, lanes in pending.items() if lanes & active]
        if not seeds:
            return
        if self.compiled is not None:
            changed = self._compiled_round(seeds)
        else:
            members, boundary, adj = self._explore(seeds)
            changed = self._solve(members, boundary, adj)
        p0, p1 = self.p0, self.p1
        for node, lanes, new_p0, new_p1 in changed:
            p0[node] = (p0[node] & ~lanes) | (new_p0 & lanes)
            p1[node] = (p1[node] & ~lanes) | (new_p1 & lanes)
        for node, _lanes, _p0, _p1 in changed:
            self._node_changed(node)

    def _compiled_round(
        self, seeds: list[int]
    ) -> list[tuple[int, int, int, int]]:
        """One round over precompiled components instead of a union BFS.

        Each dirty component is split into mask-filtered regions grown
        from the actual seeds, so a solve covers the same nodes the
        dynamic union vicinity would -- not the whole component.  Per
        lane each region slices into complete conducting subcomponents
        that are either seeded or at fixpoint, so this is exact for the
        same reason the union vicinity is (see the module docstring).
        """
        compiled = self.compiled
        node_component = compiled.node_component
        grouped: dict[int, list[int]] = {}
        for n in seeds:
            grouped.setdefault(node_component[n], []).append(n)
        changed: list[tuple[int, int, int, int]] = []
        for cid in sorted(grouped):
            changed.extend(
                self._solve_component(compiled.components[cid], grouped[cid])
            )
        return changed

    def _solve_component(
        self, comp, seeds: list[int]
    ) -> list[tuple[int, int, int, int]]:
        """Region-split, memoized lane-parallel solve of one component."""
        # One bit per channel transistor: conducting in any active lane.
        # This is the lane analog of the scalar conduction mask, and the
        # region memo key alongside the seed -- a region is a pure
        # function of (component, mask, seed).
        mask = self._comp_masks[comp.cid]
        regions = self._region_memo
        covered: set[int] | None = None
        changed: list[tuple[int, int, int, int]] = []
        for seed in sorted(seeds):
            if covered is not None and seed in covered:
                continue
            region = regions.get((comp.cid, mask, seed))
            if region is None:
                region = self._explore_compiled(comp, mask, seed)
                if len(regions) >= _MAX_LANE_CACHE_ENTRIES:
                    regions.clear()
                for member in region[1]:
                    regions[(comp.cid, mask, member)] = region
            if len(seeds) > 1:
                if covered is None:
                    covered = set(region[1])
                else:
                    covered.update(region[1])
            changed.extend(self._solve_region(region))
        return changed

    def _explore_compiled(self, comp, mask: int, seed: int) -> tuple:
        """Mask-filtered BFS from ``seed`` over the compiled arrays.

        Returns ``(region id, members, boundary, transistors, adj,
        members + boundary, node gather, transistor gather)`` -- the
        gathers are prebuilt :func:`operator.itemgetter`\\ s over the
        concatenated nodes / the transistors, so each solve-key read is
        one C call per plane -- with members/boundary/transistors
        sorted tuples and adjacency in
        :meth:`_explore`'s layout (edges valued by *global* transistor
        index, since the lane solver reads conduction planes directly).
        The region id is interned on (component, members, conducting
        edges) so structurally identical regions -- rediscovered under a
        different component-wide mask, or rebuilt after a compaction --
        share one solve-memo key space.
        """
        member_pos = comp.member_pos
        edge_start = comp.edge_start
        edge_ti = comp.edge_ti
        edge_t = comp.edge_t
        edge_strength = comp.edge_strength
        edge_dst = comp.edge_dst
        edge_dst_input = comp.edge_dst_input
        members: list[int] = []
        boundary: list[int] = []
        adj: dict[int, list[tuple[int, int, int]]] = {}
        ts_bits = 0
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
                ts_bits |= 1 << ti
                dst = edge_dst[ei]
                if edge_dst_input[ei]:
                    # Attach to the input: its only propagation direction.
                    adj.setdefault(dst, []).append(
                        (edge_t[ei], edge_strength[ei], n)
                    )
                    if dst not in seen:
                        seen.add(dst)
                        boundary.append(dst)
                else:
                    row_edges.append((edge_t[ei], edge_strength[ei], dst))
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            if row_edges:
                adj[n] = row_edges
        members.sort()
        boundary.sort()
        edge_ts = comp.edge_ts
        ts = tuple(
            edge_ts[ti] for ti in range(len(edge_ts)) if (ts_bits >> ti) & 1
        )
        region_ids = self._region_ids
        members_t = tuple(members)
        skey = (comp.cid, members_t, ts_bits)
        rid = region_ids.get(skey)
        if rid is None:
            rid = len(region_ids)
            region_ids[skey] = rid
        boundary_t = tuple(boundary)
        nodes = members_t + boundary_t
        # itemgetter with one index returns a scalar; wrap for shape.
        if not ts:
            node_get = ts_get = None  # edgeless: never gathered
        else:
            if len(nodes) == 1:
                n0 = nodes[0]
                node_get = lambda seq: (seq[n0],)  # noqa: E731
            else:
                node_get = itemgetter(*nodes)
            if len(ts) == 1:
                t0 = ts[0]
                ts_get = lambda seq: (seq[t0],)  # noqa: E731
            else:
                ts_get = itemgetter(*ts)
        return (rid, members_t, boundary_t, ts, adj, nodes, node_get, ts_get)

    def _solve_region(self, region: tuple) -> list[tuple[int, int, int, int]]:
        """Memoized lane-parallel solve of one mask-filtered region."""
        rid, members, boundary, ts, adj, nodes, node_get, ts_get = region
        if not adj:
            # An edgeless region is a lone storage node with every
            # incident channel off in every active lane: no arrivals,
            # so it keeps its charge and the solve is the identity.
            return []
        key = (
            rid,
            self.lane_count,
            node_get(self.p0),
            node_get(self.p1),
            ts_get(self.c_on),
            ts_get(self.c_maybe),
        )
        entry = self._solve_memo.get(key)
        if entry is not None:
            self.cache_hits += 1
            union, cached = entry
            active = self.active
            if union & ~active:
                # Stored under a wider active mask; per-lane results
                # are exact, so just drop the since-dropped lanes.
                cached = [
                    (n, masked, new_p0, new_p1)
                    for n, lanes, new_p0, new_p1 in cached
                    if (masked := lanes & active)
                ]
            return cached
        changed = self._solve(members, boundary, adj)
        self.cache_misses += 1
        if len(self._solve_memo) >= _MAX_LANE_CACHE_ENTRIES:
            self._solve_memo.clear()
        union = 0
        for _node, lanes, _p0, _p1 in changed:
            union |= lanes
        self._solve_memo[key] = (union, changed)
        return changed

    def _explore(
        self, seeds: list[int]
    ) -> tuple[list[int], list[int], dict[int, list[tuple[int, int, int]]]]:
        """Union vicinity of ``seeds`` over any-active-lane conduction.

        Returns (members, boundary inputs, adjacency).  Adjacency maps a
        node to its conducting edges *into the member set*, exactly like
        the scalar :func:`~repro.switchlevel.vicinity.explore` -- inputs
        carry their out-edges and are never propagated into.
        """
        net = self.net
        node_is_input = net.node_is_input
        node_channels = net.node_channels
        t_strength = net.t_strength
        c_maybe = self.c_maybe
        active = self.active
        members: list[int] = []
        boundary: list[int] = []
        seen: set[int] = set(seeds)
        stack = list(seeds)
        raw: list[tuple[int, int, int]] = []
        while stack:
            n = stack.pop()
            members.append(n)
            for t, m in node_channels[n]:
                if not (c_maybe[t] & active):
                    continue
                raw.append((n, t, m))
                if m in seen:
                    continue
                seen.add(m)
                if node_is_input[m]:
                    boundary.append(m)
                else:
                    stack.append(m)
        boundary_set = set(boundary)
        adj: dict[int, list[tuple[int, int, int]]] = {}
        for n, t, m in raw:
            if m in boundary_set:
                # Attach to the input: its only propagation direction.
                adj.setdefault(m, []).append((t, t_strength[t], n))
            else:
                adj.setdefault(n, []).append((t, t_strength[t], m))
        return members, boundary, adj

    # ------------------------------------------------------------------
    # the lane-parallel steady-state solver
    # ------------------------------------------------------------------
    def _solve(
        self,
        members: list[int],
        boundary: list[int],
        adj: dict[int, list[tuple[int, int, int]]],
    ) -> list[tuple[int, int, int, int]]:
        """Steady-state response of one union vicinity, all lanes at once.

        Returns ``[(node, changed-lane mask, new_p0, new_p1), ...]``;
        planes are not modified.  This is the two-pass relaxation of
        ``steady_state.solve_vicinity`` with every scalar strength
        comparison replaced by per-level lane masks.
        """
        omega = self.omega
        full = self.full
        active = self.active
        p0, p1 = self.p0, self.p1
        node_size = self.net.node_size
        force_mask = self.node_force_mask

        # ---- roots ----------------------------------------------------
        # ge[n][s]: lanes whose definite strength at n is >= s (monotone
        # in s; ge[omega + 1] stays 0 as a sentinel).  Members root at
        # their size -- except pinned lanes, which root at omega like the
        # pseudo-inputs they are; inputs root at omega in every lane.
        ge: dict[int, list[int]] = {}
        dv0: dict[int, int] = {}
        dv1: dict[int, int] = {}
        has_x = False
        for n in members:
            levels = [0] * (omega + 2)
            size = node_size[n]
            for s in range(1, size + 1):
                levels[s] = full
            pinned = force_mask.get(n, 0)
            if pinned:
                for s in range(size + 1, omega + 1):
                    levels[s] = pinned
            ge[n] = levels
            dv0[n] = p0[n]
            dv1[n] = p1[n]
            if p0[n] & p1[n] & active:
                has_x = True
        for b in boundary:
            levels = [0] * (omega + 2)
            for s in range(1, omega + 1):
                levels[s] = full
            ge[b] = levels
            dv0[b] = p0[b]
            dv1[b] = p1[b]
            if p0[b] & p1[b] & active:
                has_x = True
        if not has_x:
            # X transistors can exist with no X node in the vicinity
            # (the controlling gate may lie outside it).
            c_on, c_maybe = self.c_on, self.c_maybe
            for edges in adj.values():
                for t, _strength, _m in edges:
                    if c_maybe[t] & ~c_on[t] & active:
                        has_x = True
                        break
                if has_x:
                    break

        # ---- definite pass --------------------------------------------
        c_on = self.c_on
        for level in range(omega, 0, -1):
            work: list[tuple[int, int]] = []
            for n, levels in ge.items():
                finalized = levels[level] & ~levels[level + 1]
                if finalized and n in adj:
                    work.append((n, finalized))
            while work:
                n, lanes = work.pop()
                v0 = dv0[n]
                v1 = dv1[n]
                for t, strength, m in adj[n]:
                    carried = lanes & c_on[t]
                    if not carried:
                        continue
                    c = level if level < strength else strength
                    gem = ge[m]
                    up = carried & ~gem[c]
                    eq = carried & gem[c] & ~gem[c + 1]
                    if up:
                        s = c
                        while s >= 1 and (gem[s] & up) != up:
                            gem[s] |= up
                            s -= 1
                        dv0[m] = (dv0[m] & ~up) | (v0 & up)
                        dv1[m] = (dv1[m] & ~up) | (v1 & up)
                        if c == level:
                            work.append((m, up))
                    if eq:
                        add0 = v0 & eq & ~dv0[m]
                        add1 = v1 & eq & ~dv1[m]
                        if add0 | add1:
                            dv0[m] |= add0
                            dv1[m] |= add1
                            if c == level:
                                work.append((m, add0 | add1))

        # ---- possible passes ------------------------------------------
        if has_x:
            arr0 = self._possible_pass(0, members, boundary, adj, ge)
            arr1 = self._possible_pass(1, members, boundary, adj, ge)

        # ---- resolution ------------------------------------------------
        changed: list[tuple[int, int, int, int]] = []
        for n in members:
            d0 = dv0[n]
            d1 = dv1[n]
            if has_x:
                levels = ge[n]
                pa0 = arr0[n]
                pa1 = arr1[n]
                bad0 = 0
                bad1 = 0
                for s in range(1, omega + 1):
                    finalized = levels[s] & ~levels[s + 1]
                    if finalized:
                        bad0 |= finalized & pa0[s]
                        bad1 |= finalized & pa1[s]
                ones = d1 & ~d0 & ~bad0
                zeros = d0 & ~d1 & ~bad1
            else:
                # X-free fast path: every signal is definite, so a
                # possibly-v arrival at or above the definite strength
                # would already have merged into the value set.
                ones = d1 & ~d0
                zeros = d0 & ~d1
            new_p0 = ~ones & full
            new_p1 = ~zeros & full
            pinned = force_mask.get(n, 0)
            if pinned:
                new_p0 = (new_p0 & ~pinned) | (p0[n] & pinned)
                new_p1 = (new_p1 & ~pinned) | (p1[n] & pinned)
            lanes = ((new_p0 ^ p0[n]) | (new_p1 ^ p1[n])) & active
            if lanes:
                changed.append((n, lanes, new_p0, new_p1))
        return changed

    def _possible_pass(
        self,
        value: int,
        members: list[int],
        boundary: list[int],
        adj: dict[int, list[tuple[int, int, int]]],
        ge: dict[int, list[int]],
    ) -> dict[int, list[int]]:
        """Lane masks of possibly-``value`` arrivals, per strength level.

        Returns ``pa`` with ``pa[n][s]`` = lanes where a signal that
        might carry ``value`` arrives at ``n`` with strength >= s.
        Propagation through a node requires at least its definite
        strength (``ge``); pinned lanes of a member behave like the
        scalar boundary: they source at omega and absorb everything.
        """
        omega = self.omega
        node_size = self.net.node_size
        force_mask = self.node_force_mask
        vplane = self.p0 if value == 0 else self.p1
        c_maybe = self.c_maybe
        pa: dict[int, list[int]] = {}
        pp: dict[int, list[int]] = {}
        for n in members:
            levels_arr = [0] * (omega + 2)
            levels_prop = [0] * (omega + 2)
            root = vplane[n]
            if root:
                size = node_size[n]
                pinned = force_mask.get(n, 0)
                free = root & ~pinned
                if free:
                    for s in range(1, size + 1):
                        levels_arr[s] = free
                    # A member propagates its own charge only where it
                    # is at least as strong as its definite signal.
                    eligible = free & ~ge[n][size + 1]
                    if eligible:
                        for s in range(1, size + 1):
                            levels_prop[s] = eligible
                pinned_root = root & pinned
                if pinned_root:
                    for s in range(1, omega + 1):
                        levels_prop[s] |= pinned_root
            pa[n] = levels_arr
            pp[n] = levels_prop
        for b in boundary:
            levels_prop = [0] * (omega + 2)
            root = vplane[b]
            if root:
                for s in range(1, omega + 1):
                    levels_prop[s] = root
            pa[b] = [0] * (omega + 2)
            pp[b] = levels_prop

        for level in range(omega, 0, -1):
            work: list[tuple[int, int]] = []
            for n, levels in pp.items():
                finalized = levels[level] & ~levels[level + 1]
                if finalized and n in adj:
                    work.append((n, finalized))
            while work:
                n, lanes = work.pop()
                for t, strength, m in adj[n]:
                    carried = lanes & c_maybe[t]
                    if not carried:
                        continue
                    c = level if level < strength else strength
                    pam = pa[m]
                    new_arr = carried & ~pam[c]
                    if new_arr:
                        s = c
                        while s >= 1 and (pam[s] & new_arr) != new_arr:
                            pam[s] |= new_arr
                            s -= 1
                    # Definite blocking: only lanes where c >= ds[m]
                    # propagate onward.
                    passing = carried & ~ge[m][c + 1]
                    if passing:
                        ppm = pp[m]
                        up = passing & ~ppm[c]
                        if up:
                            s = c
                            while s >= 1 and (ppm[s] & up) != up:
                                ppm[s] |= up
                                s -= 1
                            if c == level:
                                work.append((m, up))
        return pa

    # ------------------------------------------------------------------
    # lane extraction / writeback (oscillation handoff) and inspection
    # ------------------------------------------------------------------
    def lane_state(self, node: int, lane: int) -> int:
        """Scalar ternary state of ``node`` in ``lane``."""
        b0 = (self.p0[node] >> lane) & 1
        b1 = (self.p1[node] >> lane) & 1
        return _BITS_STATE[b0][b1] if (b0 or b1) else 2

    def pending_lane_nodes(self, lane: int) -> set[int]:
        """Nodes with a pending perturbation in ``lane``."""
        bit = 1 << lane
        return {n for n, lanes in self.pending.items() if lanes & bit}

    def extract_lane(self, lane: int) -> tuple[list[int], list[int]]:
        """(node states, transistor states) of one lane, scalar-encoded."""
        states = [self.lane_state(n, lane) for n in range(self.net.n_nodes)]
        tstates = []
        for t in range(self.net.n_transistors):
            if (self.c_on[t] >> lane) & 1:
                tstates.append(1)
            elif (self.c_maybe[t] >> lane) & 1:
                tstates.append(2)
            else:
                tstates.append(0)
        return states, tstates

    def writeback_lane(self, lane: int, states: list[int]) -> None:
        """Overwrite one lane from scalar states; drop its pending events.

        Used after the scalar-engine oscillation fallback: the lane is
        quiescent, so conduction planes are refreshed but no new
        perturbations are derived.
        """
        bit = 1 << lane
        changed_nodes = []
        for node, state in enumerate(states):
            b0, b1 = _STATE_BITS[state]
            new_p0 = (self.p0[node] & ~bit) | (bit if b0 else 0)
            new_p1 = (self.p1[node] & ~bit) | (bit if b1 else 0)
            if new_p0 != self.p0[node] or new_p1 != self.p1[node]:
                self.p0[node] = new_p0
                self.p1[node] = new_p1
                changed_nodes.append(node)
        transistors = set()
        for node in changed_nodes:
            transistors.update(self.net.node_gates[node])
        for t in transistors:
            self.c_on[t], self.c_maybe[t] = self._conduction(t)
            loc = self._t_loc.get(t)
            if loc is not None:
                cid, bit = loc
                if self.c_maybe[t] & self.active:
                    self._comp_masks[cid] |= bit
                else:
                    self._comp_masks[cid] &= ~bit
        for node in list(self.pending):
            remaining = self.pending[node] & ~bit
            if remaining:
                self.pending[node] = remaining
            else:
                del self.pending[node]

    # ------------------------------------------------------------------
    # lane compaction (fault dropping)
    # ------------------------------------------------------------------
    def compact(self, keep: list[int]) -> None:
        """Repack all planes onto the ``keep`` lanes (ascending order)."""
        # Planes and solve memo repeat a few distinct lane masks many
        # times over (all-X, all-0, the active mask ...), so each
        # distinct value is packed once per compaction.
        packed_of: dict[int, int] = {}

        def pack(plane: int) -> int:
            packed = packed_of.get(plane)
            if packed is None:
                packed = 0
                for j, lane in enumerate(keep):
                    packed |= ((plane >> lane) & 1) << j
                packed_of[plane] = packed
            return packed

        self.p0 = [pack(plane) for plane in self.p0]
        self.p1 = [pack(plane) for plane in self.p1]
        self.c_on = [pack(plane) for plane in self.c_on]
        self.c_maybe = [pack(plane) for plane in self.c_maybe]
        self.node_force_mask = {
            n: packed
            for n, mask in self.node_force_mask.items()
            if (packed := pack(mask))
        }
        self.t_force_on = {
            t: packed
            for t, mask in self.t_force_on.items()
            if (packed := pack(mask))
        }
        self.t_force_off = {
            t: packed
            for t, mask in self.t_force_off.items()
            if (packed := pack(mask))
        }
        self.pending = {
            n: packed
            for n, lanes in self.pending.items()
            if (packed := pack(lanes))
        }
        if self._solve_memo:
            self._repack_memo(keep, pack)
        self.lane_count = len(keep)
        self.full = (1 << self.lane_count) - 1
        self.active = pack(self.active)
        if self.compiled is not None:
            # Tighten the conduction masks to the surviving lanes
            # (stale-high bits would stay exact but widen regions).
            self._recompute_masks()

    def _repack_memo(self, keep: list[int], pack) -> None:
        """Carry the solve memo across a compaction.

        Every lane mask in every key and value is repacked onto the
        surviving lanes, exactly like the planes themselves -- the memo
        used to be flushed here, which cold-started every component
        after each fault-drop wave (the reason batch hit rates trailed
        the serial backend's).  Entries are per-lane exact, so a key
        that survives repacking describes the same per-lane states it
        did before.  Colliding repacked keys (entries that differed
        only in dropped lanes) agree on every surviving lane, so either
        may win.
        """
        new_lc = len(keep)
        new_memo: dict[tuple, tuple[int, list]] = {}
        for key, (_union, changed) in self._solve_memo.items():
            rid, _lc, p0s, p1s, ons, maybes = key
            new_key = (
                rid,
                new_lc,
                tuple(map(pack, p0s)),
                tuple(map(pack, p1s)),
                tuple(map(pack, ons)),
                tuple(map(pack, maybes)),
            )
            new_changed = []
            new_union = 0
            for node, lanes, new_p0, new_p1 in changed:
                lanes = pack(lanes)
                if lanes:
                    new_changed.append(
                        (node, lanes, pack(new_p0), pack(new_p1))
                    )
                    new_union |= lanes
            new_memo[new_key] = (new_union, new_changed)
        self._solve_memo = new_memo
