"""The flagship correctness property: concurrent == serial fault simulation.

The concurrent algorithm is an *optimization* of serial simulation: for
every fault, its detection pattern/phase and -- for undetected faults --
the faulty circuit's final state on every node must equal what a
standalone simulation of the faulty circuit produces.  This is checked
on random networks x random fault lists x random stimuli, plus the RAM
with its real marching sequences (smaller sample, heavier circuit).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.ram import build_ram
from repro.core.concurrent import ConcurrentFaultSimulator
from repro.core.faults import (
    NodeStuckFault,
    ShortFault,
    TransistorStuckFault,
)
from repro.core.serial import SerialFaultSimulator
from repro.netlist.builder import NetworkBuilder
from repro.patterns.clocking import Phase, TestPattern
from repro.patterns.sequences import sequence1

PROP_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def fault_sim_case(draw):
    """(net, faults, observed, patterns) over a random network."""
    n_inputs = draw(st.integers(1, 3))
    n_storage = draw(st.integers(3, 8))
    b = NetworkBuilder()
    names = [b.vdd, b.gnd]
    input_names = [b.input(f"i{k}") for k in range(n_inputs)]
    names += input_names
    storage_names = [
        b.node(f"s{k}", size=draw(st.integers(1, 2)))
        for k in range(n_storage)
    ]
    names += storage_names
    transistor_names = []
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(["ntrans", "ptrans", "dtrans"]))
        source = draw(st.sampled_from(names))
        drain = draw(st.sampled_from([n for n in names if n != source]))
        transistor_names.append(
            getattr(b, kind)(
                draw(st.sampled_from(names)),
                source,
                drain,
                strength=draw(st.integers(1, 2)),
            )
        )
    net = b.build()

    faults = []
    for _ in range(draw(st.integers(1, 6))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            faults.append(
                NodeStuckFault(
                    draw(st.sampled_from(storage_names)),
                    draw(st.integers(0, 1)),
                )
            )
        elif choice == 1:
            faults.append(
                TransistorStuckFault(
                    draw(st.sampled_from(transistor_names)),
                    closed=draw(st.booleans()),
                )
            )
        else:
            node_a = draw(st.sampled_from(storage_names))
            node_b = draw(
                st.sampled_from([n for n in storage_names if n != node_a])
            )
            faults.append(ShortFault(node_a, node_b))

    observed = draw(
        st.lists(
            st.sampled_from(storage_names), min_size=1, max_size=2, unique=True
        )
    )
    patterns = []
    for index in range(draw(st.integers(1, 5))):
        phases = tuple(
            Phase(
                {
                    name: draw(st.integers(0, 1))
                    for name in input_names
                    if draw(st.booleans())
                }
            )
            for _ in range(draw(st.integers(1, 2)))
        )
        patterns.append(TestPattern(label=f"p{index}", phases=phases))
    return net, faults, observed, patterns


def compare_runs(net, faults, observed, patterns):
    concurrent = ConcurrentFaultSimulator(
        net, faults, observed, max_rounds=60
    )
    report_c = concurrent.run(patterns)
    serial = SerialFaultSimulator(net, faults, observed, max_rounds=60)
    report_s = serial.run(patterns)

    assert report_s.n_faults == len(faults)
    for cid in range(1, len(faults) + 1):
        concurrent_result = _first(report_c, cid)
        serial_result = _first(report_s, cid)
        assert concurrent_result == serial_result, (
            f"circuit {cid} ({faults[cid - 1].describe()}): "
            f"concurrent={concurrent_result} serial={serial_result}\n"
            + _dump_case(net, faults, observed, patterns)
        )
    return concurrent, report_c


def _first(report, cid):
    """(pattern, phase) of a circuit's first detection, or (None, None)."""
    detection = report.log.first_detection(cid)
    if detection is None:
        return (None, None)
    return (detection.pattern_index, detection.phase_index)


def _dump_case(net, faults, observed, patterns):
    """Render a failing case so it can be replayed standalone."""
    from repro.netlist import sim_format

    lines = [sim_format.dumps(net)]
    lines.append(f"faults = {faults!r}")
    lines.append(f"observed = {observed!r}")
    lines.append(
        "patterns = "
        + repr([[dict(ph.settings) for ph in p.phases] for p in patterns])
    )
    return "\n".join(lines)


class TestRandomNetworkEquivalence:
    @PROP_SETTINGS
    @given(fault_sim_case())
    def test_detections_match_serial(self, case):
        net, faults, observed, patterns = case
        compare_runs(net, faults, observed, patterns)

    @PROP_SETTINGS
    @given(fault_sim_case())
    def test_undetected_final_states_match_serial(self, case):
        net, faults, observed, patterns = case
        concurrent = ConcurrentFaultSimulator(
            net, faults, observed, max_rounds=60, drop_on_detect=False
        )
        concurrent.run(patterns)
        serial = SerialFaultSimulator(net, faults, observed, max_rounds=60)
        instrumented = serial._instrumented
        for pf in instrumented.prepared:
            engine = serial._make_engine(pf)
            for pattern in patterns:
                for phase in pattern.phases:
                    serial._drive_phase(engine, phase.settings)
            for node in range(instrumented.net.n_nodes):
                expected = engine.states[node]
                actual = concurrent.circuit_records[pf.circuit_id].get(
                    node, concurrent.states[node]
                )
                assert actual == expected, (
                    f"circuit {pf.circuit_id} "
                    f"({pf.fault.describe()}), node "
                    f"{instrumented.net.node_names[node]}: "
                    f"concurrent={actual} serial={expected}\n"
                    + _dump_case(net, faults, observed, patterns)
                )


class TestRamEquivalence:
    """The real DUT with its real stimulus, small sampled fault lists."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ram_detection_equivalence(self, seed):
        from repro.core.faults import ram_fault_universe, sample_faults

        ram = build_ram(2, 2)
        sequence = sequence1(ram)
        faults = sample_faults(ram_fault_universe(ram), 12, seed=seed)
        compare_runs(ram.net, faults, [ram.dout], list(sequence.patterns))

    def test_ram_transistor_fault_equivalence(self):
        ram = build_ram(2, 2)
        sequence = sequence1(ram)
        faults = [
            TransistorStuckFault("c0_0.w", closed=False),
            TransistorStuckFault("c0_0.w", closed=True),
            TransistorStuckFault("c1_1.r", closed=False),
            TransistorStuckFault("rbl0.pre", closed=False),
        ]
        compare_runs(ram.net, faults, [ram.dout], list(sequence.patterns))
