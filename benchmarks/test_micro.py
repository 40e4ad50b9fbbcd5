"""Microbenchmarks of the simulation kernel.

These use pytest-benchmark's statistical timing (many rounds) on the
hot primitives: steady-state solving of a bit-line vicinity, vicinity
exploration, one good-circuit RAM pattern, one concurrent faulty-circuit
round, and state-list operations.
They are regression canaries for the kernel rather than paper figures.
"""

from __future__ import annotations

from repro.circuits.ram import build_ram
from repro.core.concurrent import ConcurrentFaultSimulator, _FaultyCircuit
from repro.core.faults import NodeStuckFault
from repro.core.statelist import StateList
from repro.patterns.clocking import READ, RamOp, expand_op
from repro.switchlevel.simulator import Simulator
from repro.switchlevel.steady_state import solve_vicinity
from repro.switchlevel.vicinity import explore


def prepared_ram_sim():
    ram = build_ram(4, 4)
    sim = Simulator(ram.net)
    # Park the RAM in a realistic state: one full write/read of cell 0,0.
    from repro.patterns.clocking import WRITE

    for op in (RamOp(WRITE, 0, 0, value=1), RamOp(READ, 0, 0)):
        for phase in expand_op(ram, op).phases:
            sim.apply(phase.settings)
    return ram, sim


def test_bitline_vicinity_solve(benchmark):
    ram, sim = prepared_ram_sim()
    net = ram.net
    engine = sim.engine
    # Open the read word line so the bit line vicinity spans the row.
    sim.apply({ram.phi_r: 1})
    seed = net.node("rbl0")
    members, boundary, adjacency = explore(net, engine.tstates, [seed])
    assert len(members) > 2

    benchmark(
        solve_vicinity,
        net,
        engine.states,
        members,
        boundary,
        adjacency,
    )


def test_vicinity_exploration(benchmark):
    ram, sim = prepared_ram_sim()
    sim.apply({ram.phi_r: 1})
    net = ram.net
    engine = sim.engine
    seed = net.node("rbl0")

    benchmark(explore, net, engine.tstates, [seed])


def test_good_circuit_pattern(benchmark):
    ram, sim = prepared_ram_sim()
    pattern = expand_op(ram, RamOp(READ, 2, 3))

    def one_pattern():
        for phase in pattern.phases:
            sim.apply(phase.settings)

    benchmark(one_pattern)


def test_faulty_circuit_round(benchmark):
    ram = build_ram(4, 4)
    from repro.patterns.clocking import WRITE

    simulator = ConcurrentFaultSimulator(
        ram.net,
        [NodeStuckFault("c0_0.s", 0)],
        [ram.dout],
        drop_on_detect=False,
    )
    # Write 1 and read it back: the stuck cell diverges from the cell
    # node through the bit lines to dout.
    for op in (RamOp(WRITE, 0, 0, value=1), RamOp(READ, 0, 0)):
        simulator.apply_pattern(expand_op(ram, op))
    records = simulator.circuit_records[1]
    assert len(records) > 5
    circuit = _FaultyCircuit(simulator, 1)
    seeds = set(records)

    def one_round():
        # Re-perturb every divergent node: patch the shared views,
        # filter the seeds, explore, solve, apply, restore.
        circuit._seeds = set(seeds)
        simulator._faulty_round(circuit)

    one_round()
    benchmark(one_round)
    assert simulator._view_states == simulator._prev_states
    assert simulator._view_tstates == simulator._prev_tstates


def test_statelist_sweep(benchmark):
    state_list = StateList()
    for cid in range(0, 400, 2):
        state_list.set(cid, cid % 3)

    def sweep():
        state_list.begin_sweep()
        hits = 0
        for cid in range(400):
            if state_list.sweep_get(cid) is not None:
                hits += 1
        return hits

    assert sweep() == 200
    benchmark(sweep)


def test_statelist_random_access(benchmark):
    state_list = StateList()
    for cid in range(0, 400, 2):
        state_list.set(cid, cid % 3)

    def lookups():
        total = 0
        for cid in range(400):
            if state_list.get(cid) is not None:
                total += 1
        return total

    benchmark(lookups)
