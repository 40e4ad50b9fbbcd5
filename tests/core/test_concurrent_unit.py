"""Unit-level tests of ConcurrentFaultSimulator behaviors.

The big equivalence properties live in test_equivalence_props.py; these
pin the surrounding machinery: dropping, policies, record bookkeeping,
reconvergence, API validation.
"""

import pytest

from repro.cells import nmos
from repro.core.concurrent import ConcurrentFaultSimulator
from repro.core.detection import POLICY_ANY, POLICY_HARD
from repro.core.faults import NodeStuckFault
from repro.errors import FaultError, SimulationError
from repro.netlist.builder import NetworkBuilder
from repro.patterns.clocking import Phase, TestPattern
from repro.switchlevel.network import TRANS_TABLE


def two_stage_net():
    b = NetworkBuilder()
    b.input("a")
    mid = nmos.inverter(b, "a", "mid")
    out = nmos.inverter(b, mid, "out")
    return b.build(), mid, out


def patterns_for(*values):
    return [
        TestPattern(f"p{i}", (Phase({"a": v}),))
        for i, v in enumerate(values)
    ]


class TestApiValidation:
    def test_observed_required(self):
        net, _, _ = two_stage_net()
        with pytest.raises(SimulationError):
            ConcurrentFaultSimulator(net, [], [])

    def test_unknown_policy_rejected(self):
        net, _, out = two_stage_net()
        with pytest.raises(SimulationError):
            ConcurrentFaultSimulator(
                net, [], [out], detection_policy="psychic"
            )

    def test_drive_non_input_rejected(self):
        net, _, out = two_stage_net()
        simulator = ConcurrentFaultSimulator(net, [], [out])
        with pytest.raises(SimulationError):
            simulator.apply_phase({"mid": 1})

    def test_invalid_state_rejected(self):
        net, _, out = two_stage_net()
        simulator = ConcurrentFaultSimulator(net, [], [out])
        with pytest.raises(SimulationError):
            simulator.apply_phase({"a": 3})

    def test_circuit_state_of_unknown_circuit(self):
        net, _, out = two_stage_net()
        simulator = ConcurrentFaultSimulator(net, [], [out])
        with pytest.raises(FaultError):
            simulator.circuit_state_of(5, out)


class TestDroppingAndRecords:
    def test_detected_circuit_dropped_and_purged(self):
        net, mid, out = two_stage_net()
        fault = NodeStuckFault(mid, 1)
        simulator = ConcurrentFaultSimulator(net, [fault], [out])
        simulator.run(patterns_for(0, 1))
        assert simulator.live_circuits == set()
        assert simulator.total_divergence_records() == 0

    def test_no_drop_keeps_circuit_live(self):
        net, mid, out = two_stage_net()
        fault = NodeStuckFault(mid, 1)
        simulator = ConcurrentFaultSimulator(
            net, [fault], [out], drop_on_detect=False
        )
        report = simulator.run(patterns_for(0, 1, 0, 1))
        assert simulator.live_circuits == {1}
        # Multiple detection events get logged for the same circuit.
        assert len(report.log) > 1
        assert report.detected == 1

    def test_reconvergence_removes_records(self):
        net, mid, out = two_stage_net()
        # mid stuck at 1; with a=0 good mid is 1 too: no divergence.
        fault = NodeStuckFault(mid, 1)
        simulator = ConcurrentFaultSimulator(
            net, [fault], [out], drop_on_detect=False
        )
        simulator.apply_phase({"a": 0})
        assert simulator.total_divergence_records() == 0
        simulator.apply_phase({"a": 1})  # good mid=0: diverges
        assert simulator.total_divergence_records() > 0
        simulator.apply_phase({"a": 0})  # reconverges again
        assert simulator.total_divergence_records() == 0

    def test_circuit_state_view(self):
        net, mid, out = two_stage_net()
        fault = NodeStuckFault(mid, 1)
        simulator = ConcurrentFaultSimulator(
            net, [fault], [out], drop_on_detect=False
        )
        simulator.apply_phase({"a": 1})
        assert simulator.good_state_of(mid) == 0
        assert simulator.circuit_state_of(1, mid) == 1
        assert simulator.good_state_of(out) == 1
        assert simulator.circuit_state_of(1, out) == 0


class TestPolicies:
    def test_definite_difference_detected_under_both_policies(self):
        b = NetworkBuilder()
        b.input("a")
        b.input("b")
        nmos.nand(b, ["a", "b"], "mid")
        out = nmos.inverter(b, "mid", "out")
        net = b.build()
        for policy in (POLICY_HARD, POLICY_ANY):
            simulator = ConcurrentFaultSimulator(
                net,
                [NodeStuckFault("mid", 0)],
                [out],
                detection_policy=policy,
            )
            report = simulator.run(
                [TestPattern("p", (Phase({"a": 0, "b": 0}),))]
            )
            assert report.detected == 1, policy

    def test_any_detects_x_vs_definite(self):
        # Good output definite 1; fault isolates the output so it keeps
        # an X charge: "any" detects, "hard" does not.
        b = NetworkBuilder()
        b.input("a")
        b.node("out")
        pass_t = b.ntrans("a", "vdd", "out", strength="strong", name="pt")
        net = b.build()
        from repro.core.faults import TransistorStuckFault

        fault = TransistorStuckFault("pt", closed=False)
        patterns = [TestPattern("p", (Phase({"a": 1}),))]
        hard = ConcurrentFaultSimulator(
            net, [fault], ["out"], detection_policy=POLICY_HARD
        ).run(patterns)
        any_ = ConcurrentFaultSimulator(
            net, [fault], ["out"], detection_policy=POLICY_ANY
        ).run(patterns)
        assert hard.detected == 0
        assert any_.detected == 1


class TestGoodOnly:
    def test_good_only_run_matches_plain_simulator(self):
        net, mid, out = two_stage_net()
        from repro.switchlevel.simulator import Simulator

        simulator = ConcurrentFaultSimulator(net, [], [out])
        reference = Simulator(net)
        for value in (0, 1, 0, 1):
            simulator.apply_phase({"a": value})
            reference.apply({"a": value})
            assert simulator.good_state_of(out) == reference.state_of(out)

    def test_zero_faults_zero_overhead_structures(self):
        net, _, out = two_stage_net()
        simulator = ConcurrentFaultSimulator(net, [], [out])
        simulator.run(patterns_for(0, 1, 0))
        assert simulator.total_divergence_records() == 0
        assert simulator.live_circuits == set()


# --- shared round-start views -----------------------------------------------


def expected_views(simulator, cid):
    """A faulty circuit's round-start states, resolved layer by layer:
    records -> forced nodes -> round-start good states, and forced
    transistors over gate-derived transistor states."""
    net = simulator.network
    pf = simulator.prepared[cid]
    records = simulator.circuit_records[cid]
    states = [
        records.get(node, pf.forced_nodes.get(node, state))
        for node, state in enumerate(simulator._prev_states)
    ]
    merged = simulator._merged_forced_t[cid]
    tstates = [
        merged.get(t, TRANS_TABLE[net.t_kind[t]][states[net.t_gate[t]]])
        for t in range(len(net.t_kind))
    ]
    return states, tstates


def assert_good_snapshot(simulator):
    expected = simulator.network.compute_transistor_states(
        simulator._prev_states
    )
    for t, state in simulator.good_forced_transistors.items():
        expected[t] = state
    assert simulator._prev_tstates == expected


def assert_views_restored(simulator):
    assert simulator._view_states == simulator._prev_states
    assert simulator._view_tstates == simulator._prev_tstates


class _CheckingKernel:
    """Delegates to the simulator's kernel; before every faulty round it
    asserts the shared views hold exactly that circuit's states."""

    def __init__(self, simulator, raise_on_faulty=False):
        self.simulator = simulator
        self.inner = simulator._kernel
        self.raise_on_faulty = raise_on_faulty
        self.faulty_steps = 0
        self.faulty_force_x = 0

    def _check(self, circuit):
        simulator = self.simulator
        states, tstates = expected_views(simulator, circuit.cid)
        assert simulator._view_states == states
        assert simulator._view_tstates == tstates
        if self.raise_on_faulty:
            # Prove there was something to restore.
            assert (states, tstates) != (
                simulator._prev_states,
                simulator._prev_tstates,
            )
            raise RuntimeError("round failed mid-way")

    def step(self, circuit, stats=None, *, batch=False):
        if circuit is not self.simulator._good:
            self.faulty_steps += 1
            self._check(circuit)
        self.inner.step(circuit, stats, batch=batch)

    def force_x(self, circuit, stats=None, *, batch_apply=False):
        if circuit is not self.simulator._good:
            self.faulty_force_x += 1
            self._check(circuit)
        self.inner.force_x(circuit, stats, batch_apply=batch_apply)


def instrument(simulator, raise_on_faulty=False):
    """Check the view invariants around every faulty round and at every
    round boundary of ``simulator`` from now on."""
    kernel = _CheckingKernel(simulator, raise_on_faulty)
    simulator._kernel = kernel
    faulty_round = simulator._faulty_round
    sync = simulator._sync_prev_states

    def checked_faulty_round(circuit, force_x=False):
        try:
            faulty_round(circuit, force_x)
        finally:
            assert_views_restored(simulator)

    def checked_sync():
        sync()
        assert simulator._prev_states == simulator.states
        assert_good_snapshot(simulator)
        assert_views_restored(simulator)

    simulator._faulty_round = checked_faulty_round
    simulator._sync_prev_states = checked_sync
    return kernel


def ram_fault_mix(ram):
    from repro.core.faults import (
        ShortFault,
        TransistorStuckFault,
        node_stuck_universe,
        sample_faults,
    )

    faults = sample_faults(node_stuck_universe(ram.net), 10, seed=3)
    faults += [
        TransistorStuckFault("c0_0.w", closed=False),
        TransistorStuckFault("c0_0.w", closed=True),
        TransistorStuckFault("c1_1.r", closed=False),
        TransistorStuckFault("rbl0.pre", closed=False),
    ]
    faults += [ShortFault(a, b) for a, b in ram.bitline_adjacent_pairs()]
    return faults


def inverter_chain(stages):
    b = NetworkBuilder()
    b.input("a")
    node = "a"
    for k in range(stages):
        node = nmos.inverter(b, node, f"s{k}")
    return b.build(), node


class TestSharedViews:
    @pytest.mark.parametrize("locality", ["dynamic", "compiled"])
    def test_views_track_every_faulty_round(self, locality):
        from repro.circuits.ram import build_ram
        from repro.patterns.sequences import sequence1

        ram = build_ram(2, 2)
        simulator = ConcurrentFaultSimulator(
            ram.net,
            ram_fault_mix(ram),
            [ram.dout],
            locality=locality,
            drop_on_detect=False,
        )
        assert_good_snapshot(simulator)
        assert_views_restored(simulator)
        kernel = instrument(simulator)
        simulator.run(list(sequence1(ram).patterns)[:40])
        assert kernel.faulty_steps > 100
        assert_views_restored(simulator)

    def test_force_x_batch_apply_restores_views(self):
        from repro.circuits.ram import build_ram
        from repro.patterns.sequences import sequence1

        ram = build_ram(2, 2)
        simulator = ConcurrentFaultSimulator(
            ram.net,
            ram_fault_mix(ram),
            [ram.dout],
            max_rounds=1,
            drop_on_detect=False,
        )
        kernel = instrument(simulator)
        simulator.run(list(sequence1(ram).patterns)[:20])
        assert kernel.faulty_force_x > 0
        assert_views_restored(simulator)

    def test_hard_cap_exit_keeps_views_in_step(self):
        # Settle the chain first, then lower the round budget to 1: each
        # further round forces the next stage to X, so the edge advances
        # one stage per round and the settle hits the 3 * 1 + 50 round
        # hard cap long before the 80th stage sees the input change.
        net, last = inverter_chain(80)
        simulator = ConcurrentFaultSimulator(
            net,
            [NodeStuckFault("s3", 1), NodeStuckFault("s40", 0)],
            [last],
            drop_on_detect=False,
        )
        simulator.apply_phase({"a": 0})
        settled_last = simulator.good_state_of(last)
        assert settled_last in (0, 1)
        simulator.max_rounds = 1
        kernel = instrument(simulator)
        simulator.apply_phase({"a": 1})
        assert simulator.oscillation_events > 0
        assert simulator.good_state_of(last) == settled_last
        assert kernel.faulty_steps + kernel.faulty_force_x > 0
        assert simulator._stale_records == set()
        assert_good_snapshot(simulator)
        assert_views_restored(simulator)

    def test_raising_round_restores_views(self):
        net, mid, out = two_stage_net()
        simulator = ConcurrentFaultSimulator(
            net, [NodeStuckFault(mid, 1)], [out], drop_on_detect=False
        )
        simulator.apply_phase({"a": 1})  # good mid=0, faulty mid=1
        kernel = instrument(simulator, raise_on_faulty=True)
        with pytest.raises(RuntimeError, match="mid-way"):
            simulator.apply_phase({"a": 0})
        assert kernel.faulty_steps == 1
        assert_views_restored(simulator)
