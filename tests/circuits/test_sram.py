"""Functional and fault-simulation tests for the CMOS SRAM."""

import pytest

from repro.circuits.sram import build_sram
from repro.core.concurrent import ConcurrentFaultSimulator
from repro.core.faults import (
    NodeStuckFault,
    ShortFault,
    TransistorStuckFault,
)
from repro.core.serial import SerialFaultSimulator
from repro.errors import NetworkError
from repro.patterns.clocking import READ, WRITE, RamOp
from repro.switchlevel.simulator import Simulator


@pytest.fixture(scope="module")
def sram():
    return build_sram(2, 2)


def access(sim, sram, op):
    for phase in sram.expand_op(op).phases:
        sim.apply(phase.settings)
    return sim.get(sram.dout)


class TestStructure:
    def test_is_cmos(self, sram):
        stats = sram.net.stats()
        assert stats["p_type"] > 0
        assert stats["d_type"] == 0  # no depletion loads in CMOS

    def test_six_transistor_cells(self, sram):
        # Two access transistors per cell are named; the inverter pair
        # contributes two n and two p devices.
        assert "s0_0.at" in sram.net.t_index
        assert "s0_0.ab" in sram.net.t_index

    def test_dimension_validation(self):
        with pytest.raises(NetworkError):
            build_sram(3, 2)

    def test_pattern_is_four_phases(self, sram):
        pattern = sram.expand_op(RamOp(READ, 0, 0))
        assert len(pattern) == 4


class TestFunction:
    def test_write_read_all_cells(self, sram):
        sim = Simulator(sram.net)
        values = {}
        for row in range(2):
            for col in range(2):
                value = (row + col) % 2
                values[(row, col)] = value
                access(sim, sram, RamOp(WRITE, row, col, value=value))
        for (row, col), value in values.items():
            assert access(sim, sram, RamOp(READ, row, col)) == str(value)

    def test_cell_state_is_complementary(self, sram):
        sim = Simulator(sram.net)
        access(sim, sram, RamOp(WRITE, 1, 1, value=1))
        assert sim.get(sram.store[1][1]) == "1"
        assert sim.get(sram.store_bar[1][1]) == "0"

    def test_read_is_non_destructive(self, sram):
        sim = Simulator(sram.net)
        access(sim, sram, RamOp(WRITE, 0, 1, value=1))
        for _ in range(4):
            assert access(sim, sram, RamOp(READ, 0, 1)) == "1"

    def test_overwrite_both_directions(self, sram):
        sim = Simulator(sram.net)
        access(sim, sram, RamOp(WRITE, 0, 0, value=1))
        access(sim, sram, RamOp(WRITE, 0, 0, value=0))
        assert access(sim, sram, RamOp(READ, 0, 0)) == "0"
        access(sim, sram, RamOp(WRITE, 0, 0, value=1))
        assert access(sim, sram, RamOp(READ, 0, 0)) == "1"

    def test_static_retention_without_refresh(self, sram):
        # Unlike the 3T DRAM, the SRAM cell is static: no write-back
        # machinery exists, yet data survives unrelated traffic.
        sim = Simulator(sram.net)
        access(sim, sram, RamOp(WRITE, 0, 0, value=1))
        for _ in range(3):
            access(sim, sram, RamOp(WRITE, 1, 1, value=0))
            access(sim, sram, RamOp(READ, 1, 1))
        assert access(sim, sram, RamOp(READ, 0, 0)) == "1"


def march(sram):
    ops = []
    cells = [(r, c) for r in range(sram.rows) for c in range(sram.cols)]
    for row, col in cells:
        ops.append(RamOp(WRITE, row, col, value=0))
    for row, col in cells:
        ops.append(RamOp(READ, row, col))
        ops.append(RamOp(WRITE, row, col, value=1))
    for row, col in cells:
        ops.append(RamOp(READ, row, col))
    return sram.expand_ops(ops)


class TestFaultSimulation:
    def test_cell_stuck_faults_detected_by_march(self, sram):
        faults = [
            NodeStuckFault(sram.store[0][0], 0),
            NodeStuckFault(sram.store[0][0], 1),
            NodeStuckFault(sram.store_bar[1][1], 0),
        ]
        simulator = ConcurrentFaultSimulator(
            sram.net, faults, observed=[sram.dout]
        )
        report = simulator.run(march(sram))
        assert report.detected == 3

    def test_access_transistor_stuck_open(self, sram):
        faults = [TransistorStuckFault("s0_0.at", closed=False)]
        simulator = ConcurrentFaultSimulator(
            sram.net, faults, observed=[sram.dout], detection_policy="any"
        )
        report = simulator.run(march(sram))
        assert report.detected == 1

    def test_bitline_short_detected(self, sram):
        faults = [ShortFault("bl0", "blb0")]
        simulator = ConcurrentFaultSimulator(
            sram.net, faults, observed=[sram.dout], detection_policy="any"
        )
        report = simulator.run(march(sram))
        assert report.detected == 1

    def test_concurrent_equals_serial_on_sram(self, sram):
        faults = [
            NodeStuckFault(sram.store[0][0], 1),
            NodeStuckFault(sram.store[1][0], 0),
            TransistorStuckFault("s0_1.ab", closed=True),
            ShortFault("bl0", "bl1"),
        ]
        patterns = march(sram)
        concurrent = ConcurrentFaultSimulator(
            sram.net, faults, observed=[sram.dout]
        )
        report_c = concurrent.run(patterns)
        serial = SerialFaultSimulator(sram.net, faults, observed=[sram.dout])
        report_s = serial.run(patterns)
        assert report_s.n_faults == len(faults)
        for circuit_id in range(1, len(faults) + 1):
            assert report_c.log.detection_pattern(
                circuit_id
            ) == report_s.log.detection_pattern(circuit_id)
