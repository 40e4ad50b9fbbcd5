"""Serial checkpoint trimming must not skip a pattern that drives an
input through a channel conducting only in the faulty circuit.

``pass`` connects storage node ``out`` to input ``i0`` and is gated by
``s0``, which a weak always-on pull-down holds at 0 in the good circuit;
``out`` has a weak pull-down of its own.  The good circuit never
conducts through ``pass``, so raising ``i0`` touches no storage node.
With ``s0`` stuck at 1 (or ``pass`` stuck closed) the same drive pulls
``out`` to 1 -- a detection that trimming used to skip, because it
ignored input terminals when deciding a pattern could not reach the
fault.
"""

from __future__ import annotations

import pytest

from repro.core.faults import NodeStuckFault, TransistorStuckFault
from repro.core.serial import SerialFaultSimulator
from repro.netlist.builder import NetworkBuilder
from repro.patterns.clocking import Phase, TestPattern


def pass_gate_net():
    b = NetworkBuilder()
    b.input("i0")
    b.node("s0")
    b.node("out")
    b.ntrans(b.vdd, b.gnd, "s0", strength=1)
    b.ntrans(b.vdd, "out", b.gnd, strength=1)
    b.ntrans("s0", "out", "i0", strength=2, name="pass")
    return b.build()


PATTERNS = [
    TestPattern("p0", (Phase({"i0": 0}),)),
    TestPattern("p1", (Phase({"i0": 1}),)),
]


@pytest.mark.parametrize(
    "fault",
    [
        NodeStuckFault("s0", 1),
        TransistorStuckFault("pass", closed=True),
    ],
    ids=["gate-node-stuck", "pass-stuck-closed"],
)
def test_trim_keeps_pattern_driving_divergent_channel(fault):
    net = pass_gate_net()
    runs = {
        trim: SerialFaultSimulator(net, [fault], ["out"], trim=trim).run(
            PATTERNS
        )
        for trim in (True, False)
    }
    for report in runs.values():
        detection = report.log.first_detection(1)
        assert detection is not None
        assert (detection.pattern_index, detection.phase_index) == (1, 0)
