"""Unit tests for the serial fault simulator and the paper's estimator."""

import pytest

from repro.cells import nmos
from repro.core.concurrent import ConcurrentFaultSimulator
from repro.core.faults import NodeStuckFault, TransistorStuckFault
from repro.core.serial import SerialFaultSimulator, estimate_serial_seconds
from repro.errors import SimulationError
from repro.netlist.builder import NetworkBuilder
from repro.patterns.clocking import Phase, TestPattern


def inverter_chain(stages=3):
    b = NetworkBuilder()
    b.input("a")
    previous = "a"
    for i in range(stages):
        previous = nmos.inverter(b, previous, f"n{i}")
    return b.build(), previous


def toggle_patterns(count=3):
    return [
        TestPattern(f"t{i}", (Phase({"a": i % 2}),)) for i in range(count)
    ]


def simulated_patterns(report):
    """Indexes of the patterns the run spent time on (``perf`` clock:
    a simulated pattern always advances it)."""
    return [record.index for record in report.patterns if record.seconds]


class TestSerialRuns:
    def test_detects_output_stuck(self):
        net, out = inverter_chain()
        faults = [NodeStuckFault(out, 0), NodeStuckFault(out, 1)]
        report = SerialFaultSimulator(net, faults, [out]).run(
            toggle_patterns()
        )
        assert report.detected == 2
        assert report.n_patterns == 3

    def test_detection_stops_early(self):
        net, out = inverter_chain()
        faults = [NodeStuckFault(out, 0)]
        report = SerialFaultSimulator(net, faults, [out], trim=False).run(
            toggle_patterns(10), clock="perf"
        )
        detected = report.log.detection_pattern(1)
        assert detected is not None
        # Only the patterns up to detection were simulated.
        assert simulated_patterns(report) == list(range(detected + 1))
        assert [record.live_after for record in report.patterns] == [
            0 if index >= detected else 1 for index in range(10)
        ]
        assert report.patterns[detected].detections == 1

    def test_undetected_fault_runs_full_sequence(self):
        net, out = inverter_chain()
        # A stuck value on the first stage input-side node that matches
        # the constant input never shows: drive a constantly.
        faults = [NodeStuckFault("n0", 1)]
        patterns = [TestPattern("c", (Phase({"a": 0}),))] * 4
        report = SerialFaultSimulator(net, faults, [out], trim=False).run(
            patterns, clock="perf"
        )
        assert report.log.detection_pattern(1) is None
        assert simulated_patterns(report) == [0, 1, 2, 3]
        assert [record.live_after for record in report.patterns] == [1] * 4

    def test_transistor_fault(self):
        net, out = inverter_chain(1)
        faults = [TransistorStuckFault(net.t_names[1], closed=True)]
        report = SerialFaultSimulator(net, faults, ["n0"]).run(
            toggle_patterns()
        )
        assert report.detected == 1

    def test_requires_observed_nodes(self):
        net, _ = inverter_chain()
        with pytest.raises(SimulationError):
            SerialFaultSimulator(net, [], [])

    def test_rejects_bad_policy(self):
        net, out = inverter_chain()
        with pytest.raises(SimulationError):
            SerialFaultSimulator(net, [], [out], detection_policy="maybe")

    def test_reference_seconds_recorded(self):
        # The good reference run is timed into the total, on top of the
        # faulty circuits' per-pattern seconds.
        net, out = inverter_chain()
        simulator = SerialFaultSimulator(net, [NodeStuckFault(out, 0)], [out])
        report = simulator.run(toggle_patterns(), clock="perf")
        assert simulator.good_settles == report.good_settles == 1
        assert report.total_seconds > report.section_seconds(0, 3) > 0

    def test_coverage_property(self):
        net, out = inverter_chain()
        faults = [NodeStuckFault(out, 0), NodeStuckFault("n0", 0)]
        report = SerialFaultSimulator(net, faults, [out]).run(
            toggle_patterns()
        )
        assert report.coverage == report.detected / 2


class TestEstimator:
    def make_report(self, n_patterns=10):
        net, out = inverter_chain()
        faults = [NodeStuckFault(out, 0), NodeStuckFault(out, 1)]
        simulator = ConcurrentFaultSimulator(net, faults, [out])
        return simulator.run(toggle_patterns(n_patterns))

    def test_estimate_counts_patterns_to_detect(self):
        report = self.make_report()
        # Both faults detected on pattern 0 or 1 -> cheap estimate.
        estimate = estimate_serial_seconds(report, 1.0)
        expected = sum(
            report.log.detection_pattern(cid) + 1 for cid in (1, 2)
        )
        assert estimate == pytest.approx(expected)

    def test_undetected_faults_cost_full_sequence(self):
        net, out = inverter_chain()
        # Fault on an internal node with constant stimulus: undetected.
        faults = [NodeStuckFault("n0", 1)]
        simulator = ConcurrentFaultSimulator(net, faults, [out])
        patterns = [TestPattern("c", (Phase({"a": 0}),))] * 5
        report = simulator.run(patterns)
        assert report.detected == 0
        assert estimate_serial_seconds(report, 2.0) == pytest.approx(10.0)

    def test_estimate_scales_with_good_time(self):
        report = self.make_report()
        assert estimate_serial_seconds(
            report, 2.0
        ) == pytest.approx(2 * estimate_serial_seconds(report, 1.0))
