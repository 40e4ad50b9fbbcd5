"""The backend registry and the three-way cross-backend parity property.

Every registered strategy (serial / concurrent / batch) must produce
identical detections -- same fault, same pattern, same phase -- and,
for undetected faults, identical final states on every node.  This is
checked on random networks x random fault lists x random stimuli (the
same generator as the serial-vs-concurrent flagship suite) and on the
RAM with its real marching sequence.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, os.path.dirname(__file__))
from test_equivalence_props import fault_sim_case  # noqa: E402

from repro.circuits.ram import build_ram
from repro.core.backends import (
    BatchBackend,
    FaultSimBackend,
    SimPolicy,
    available_backends,
    backend_options_summary,
    get_backend,
    register_backend,
    run_backend,
    supports_progress,
)
from repro.core.batch import BatchFaultSimulator
from repro.core.serial import SerialFaultSimulator
from repro.errors import SimulationError
from repro.patterns.sequences import sequence1

PROP_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def first_detections(report, n_faults):
    result = {}
    for circuit_id in range(1, n_faults + 1):
        detection = report.log.first_detection(circuit_id)
        result[circuit_id] = (
            (detection.pattern_index, detection.phase_index)
            if detection
            else None
        )
    return result


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == [
            "batch", "concurrent", "serial", "sharded"
        ]

    def test_get_backend_unknown_name(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            get_backend("quantum")

    def test_get_backend_forwards_options(self):
        backend = get_backend("batch", locality="compiled")
        assert isinstance(backend, BatchBackend)
        assert backend.locality == "compiled"

    def test_get_backend_rejects_unsupported_options(self):
        # Regression: this used to leak a raw TypeError
        # ("SerialBackend() got an unexpected keyword argument") through
        # the CLI.  The error names the backend, the offending option
        # and the options it does accept.
        with pytest.raises(SimulationError) as excinfo:
            get_backend("serial", jobs=8)
        message = str(excinfo.value)
        assert "serial" in message
        assert "jobs" in message
        assert "accepts: locality" in message

    def test_get_backend_rejects_unknown_option_names_accepted_ones(self):
        with pytest.raises(SimulationError) as excinfo:
            get_backend("batch", localty="compiled")  # typo'd option
        message = str(excinfo.value)
        assert "batch" in message
        assert "accepts: locality" in message

    def test_get_backend_preserves_backend_raised_errors(self):
        # Errors a constructor raises itself pass through untouched.
        with pytest.raises(SimulationError, match="jobs must be"):
            get_backend("sharded", jobs=-1)

    def test_register_rejects_unnamed(self):
        class Nameless(FaultSimBackend):
            def run(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(SimulationError):
            register_backend(Nameless)

    def test_register_rejects_duplicates(self):
        with pytest.raises(SimulationError):
            register_backend(BatchBackend)

    def test_policy_validation(self):
        with pytest.raises(SimulationError):
            SimPolicy(detection_policy="psychic")
        with pytest.raises(SimulationError):
            SimPolicy(clock="sundial")

    def test_reports_are_tagged_with_backend(self, ram_case):
        net, faults, observed, patterns = ram_case
        for name in available_backends():
            report = run_backend(name, net, faults, observed, patterns)
            # sharded decorates its tag with the inner strategy and the
            # shard count, e.g. "sharded(concurrentx2)".
            assert report.backend == name or report.backend.startswith(
                f"{name}("
            )


#: What the shared backend adapter must leave unchanged: the registry's
#: option summaries (built from each backend's explicit ``__init__``)
#: and which backends stream per-pattern progress.
OPTION_SUMMARIES = {
    "batch": "accepts: locality='dynamic', collapse=True, "
    "static_prune=True, good_trace=None",
    "concurrent": "accepts: locality='dynamic', collapse=True, trim=True, "
    "static_prune=True, good_trace=None",
    "serial": "accepts: locality='dynamic', collapse=True, trim=True, "
    "static_prune=True, good_trace=None",
    "sharded": "accepts: jobs=2, inner_backend='concurrent', pool=None, "
    "**inner_options",
}
STREAMING = {
    "batch": True, "concurrent": True, "serial": False, "sharded": False
}


class TestAdapterContract:
    def test_option_summaries(self):
        assert {
            name: backend_options_summary(name)
            for name in available_backends()
        } == OPTION_SUMMARIES

    def test_supports_progress(self):
        assert {
            name: supports_progress(get_backend(name))
            for name in available_backends()
        } == STREAMING

    @pytest.mark.parametrize("name", sorted(OPTION_SUMMARIES))
    def test_unknown_option_is_typed_error(self, name):
        with pytest.raises(SimulationError) as excinfo:
            get_backend(name, bogus=1)
        # sharded forwards unknown options to its inner backend, which
        # rejects them under the sharded prefix.
        inner = "concurrent" if name == "sharded" else name
        expected = (
            f"invalid options for backend {inner!r} (given: bogus); "
            f"backend {inner!r} {OPTION_SUMMARIES[inner]}"
        )
        if name == "sharded":
            expected = "sharded: " + expected
        assert str(excinfo.value) == expected


@pytest.fixture(scope="module")
def ram_case():
    from repro.core.faults import ram_fault_universe, sample_faults

    ram = build_ram(2, 2)
    sequence = sequence1(ram)
    faults = sample_faults(ram_fault_universe(ram), 12, seed=0)
    return ram.net, faults, [ram.dout], list(sequence.patterns)


class TestThreeWayParity:
    """serial == concurrent == batch, detections and final states."""

    @PROP_SETTINGS
    @given(fault_sim_case())
    def test_detections_match_across_backends(self, case):
        net, faults, observed, patterns = case
        policy = SimPolicy(max_rounds=60)
        reports = {
            name: run_backend(name, net, faults, observed, patterns, policy)
            for name in available_backends()
        }
        baseline = first_detections(reports["serial"], len(faults))
        for name in ("concurrent", "batch"):
            assert first_detections(reports[name], len(faults)) == baseline, (
                name
            )

    @PROP_SETTINGS
    @given(fault_sim_case())
    def test_undetected_final_states_match_across_backends(self, case):
        net, faults, observed, patterns = case
        from repro.core.concurrent import ConcurrentFaultSimulator

        concurrent = ConcurrentFaultSimulator(
            net, faults, observed, max_rounds=60, drop_on_detect=False
        )
        concurrent.run(patterns)
        batch = BatchFaultSimulator(
            net, faults, observed, max_rounds=60, drop_on_detect=False
        )
        batch.run(patterns)
        serial = SerialFaultSimulator(net, faults, observed, max_rounds=60)
        instrumented = serial._instrumented
        names = instrumented.net.node_names
        for pf in instrumented.prepared:
            engine = serial._make_engine(pf)
            for pattern in patterns:
                for phase in pattern.phases:
                    serial._drive_phase(engine, phase.settings)
            for node in range(instrumented.net.n_nodes):
                expected = engine.states[node]
                got_concurrent = concurrent.circuit_records[
                    pf.circuit_id
                ].get(node, concurrent.states[node])
                got_batch = batch.circuit_state_of(
                    pf.circuit_id, names[node]
                )
                assert got_concurrent == expected, (
                    "concurrent", pf.circuit_id, names[node]
                )
                assert got_batch == expected, (
                    "batch", pf.circuit_id, names[node]
                )

    def test_ram_parity(self, ram_case):
        net, faults, observed, patterns = ram_case
        reports = {
            name: run_backend(name, net, faults, observed, patterns)
            for name in available_backends()
        }
        baseline = first_detections(reports["serial"], len(faults))
        for name in ("concurrent", "batch"):
            assert first_detections(reports[name], len(faults)) == baseline

    @PROP_SETTINGS
    @given(fault_sim_case())
    def test_detections_match_across_localities(self, case):
        # compiled == static == dynamic through the whole backend stack,
        # including fault overlays (forced nodes/transistors, inserted
        # wire-fault devices).
        net, faults, observed, patterns = case
        policy = SimPolicy(max_rounds=60)
        baseline = first_detections(
            run_backend("serial", net, faults, observed, patterns, policy),
            len(faults),
        )
        for backend in ("serial", "concurrent", "batch"):
            report = run_backend(
                backend, net, faults, observed, patterns, policy,
                locality="compiled",
            )
            assert first_detections(report, len(faults)) == baseline, backend
        report = run_backend(
            "serial", net, faults, observed, patterns, policy,
            locality="static",
        )
        assert first_detections(report, len(faults)) == baseline

    def test_ram_parity_compiled_locality(self, ram_case):
        net, faults, observed, patterns = ram_case
        baseline = first_detections(
            run_backend("serial", net, faults, observed, patterns),
            len(faults),
        )
        for backend in ("serial", "concurrent", "batch"):
            report = run_backend(
                backend, net, faults, observed, patterns,
                locality="compiled",
            )
            assert first_detections(report, len(faults)) == baseline, backend
            assert report.solve_cache is not None
            assert report.solve_cache["hits"] > 0

    def test_solve_cache_option_rejected_by_registry(self):
        # The compiled solve cache is always on: ``solve_cache`` is an
        # unknown option on every backend, with the registry's error.
        for backend in ("serial", "concurrent", "batch"):
            with pytest.raises(SimulationError, match="solve_cache"):
                get_backend(backend, solve_cache=False)
        with pytest.raises(SimulationError, match="solve_cache"):
            get_backend("sharded", inner_backend="serial", solve_cache=False)

    def test_sharded_forwards_locality_to_inner(self, ram_case):
        net, faults, observed, patterns = ram_case
        baseline = first_detections(
            run_backend("serial", net, faults, observed, patterns),
            len(faults),
        )
        report = run_backend(
            "sharded", net, faults, observed, patterns,
            jobs=2, inner_backend="concurrent", locality="compiled",
        )
        assert first_detections(report, len(faults)) == baseline
        assert report.solve_cache is not None

    def test_unknown_locality_rejected_by_registry(self):
        for backend in ("serial", "concurrent", "batch"):
            with pytest.raises(SimulationError, match="locality"):
                get_backend(backend, locality="quantum")
        with pytest.raises(SimulationError, match="locality"):
            get_backend("sharded", inner_backend="serial", locality="quantum")


class TestBatchMechanics:
    def test_one_plane_holds_every_fault(self, ram_case):
        net, faults, observed, patterns = ram_case
        simulator = BatchFaultSimulator(net, faults, observed)
        assert simulator.lanes.lane_count == len(faults)
        assert [pf.circuit_id for pf in simulator.pfs] == list(
            range(1, len(faults) + 1)
        )

    def test_dropping_compacts_lanes(self):
        from repro.core.faults import ram_fault_universe, sample_faults

        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        net, observed = ram.net, [ram.dout]
        faults = sample_faults(ram_fault_universe(ram), 24, seed=1)
        simulator = BatchFaultSimulator(net, faults, observed)
        report = simulator.run(patterns)
        assert report.detected > len(faults) // 2
        # Compaction shrank the plane (it stops below the minimum
        # width, so the packed width may still exceed the live count).
        assert simulator.lanes.lane_count < len(faults)
        assert simulator.lanes.lane_count >= len(simulator.live_circuits)

    def test_no_drop_keeps_all_lanes(self, ram_case):
        net, faults, observed, patterns = ram_case
        simulator = BatchFaultSimulator(
            net, faults, observed, drop_on_detect=False
        )
        simulator.run(patterns)
        assert simulator.lanes.lane_count == len(faults)
        assert simulator.live_circuits == set(range(1, len(faults) + 1))

    @pytest.mark.parametrize(
        "locality, n_faults",
        [
            pytest.param("dynamic", 120, id="dynamic"),
            pytest.param("compiled", 120, id="compiled"),
            pytest.param("compiled", 48, id="compiled-within-64"),
        ],
    )
    def test_plane_wider_than_64_lanes(
        self, locality, n_faults, monkeypatch
    ):
        # More lanes than a machine word: compaction repacks from above
        # 64 lanes, and under the compiled locality the solve memo is
        # repacked with the planes.  The within-64 case covers the
        # narrow planes a compiled batch job usually runs.
        from repro.core.faults import ram_fault_universe, sample_faults
        from repro.switchlevel.bitplane import LaneSimulator

        ram = build_ram(4, 4)
        patterns = list(sequence1(ram).patterns)
        net, observed = ram.net, [ram.dout]
        faults = sample_faults(ram_fault_universe(ram), n_faults, seed=3)
        compactions = []
        memo_repacks = []
        compact = LaneSimulator.compact
        repack_memo = LaneSimulator._repack_memo

        def spy_compact(self, keep):
            compactions.append((self.lane_count, len(keep)))
            compact(self, keep)

        def spy_repack_memo(self, keep, pack):
            memo_repacks.append((self.lane_count, len(self._solve_memo)))
            repack_memo(self, keep, pack)

        monkeypatch.setattr(LaneSimulator, "compact", spy_compact)
        monkeypatch.setattr(LaneSimulator, "_repack_memo", spy_repack_memo)
        simulator = BatchFaultSimulator(
            net, faults, observed, drop_on_detect=True, locality=locality
        )
        assert simulator.lanes.lane_count == len(faults)
        report = simulator.run(patterns)
        serial = SerialFaultSimulator(net, faults, observed).run(patterns)
        assert first_detections(report, len(faults)) == first_detections(
            serial, len(faults)
        )
        wide = n_faults > 64
        assert any(
            (width > 64) == wide for width, _kept in compactions
        ), compactions
        if locality == "compiled":
            assert any(
                (width > 64) == wide and entries
                for width, entries in memo_repacks
            ), memo_repacks

    def test_empty_fault_list(self, ram_case):
        net, _faults, observed, patterns = ram_case
        simulator = BatchFaultSimulator(net, [], observed)
        report = simulator.run(patterns)
        assert report.detected == 0
        assert report.n_patterns == len(patterns)
        assert simulator.lanes.lane_count == 0

    def test_fully_pruned_fault_list(self):
        from repro.analysis.static import classify_faults
        from repro.core.faults import transistor_stuck_universe

        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        net, observed = ram.net, [ram.dout]
        universe = transistor_stuck_universe(net)
        verdict = classify_faults(net, universe, observed)
        pruned = [
            universe[circuit_id - 1]
            for circuit_id in verdict.unexcitable + verdict.unobservable
        ]
        assert pruned
        report = run_backend("batch", net, pruned, observed, patterns)
        assert report.static_pruned["kept"] == 0
        assert report.detected == 0
        assert report.n_faults == len(pruned)

    def test_serial_backend_run_report_shape(self, ram_case):
        net, faults, observed, patterns = ram_case
        report = run_backend("serial", net, faults, observed, patterns)
        assert report.backend == "serial"
        assert report.n_patterns == len(patterns)
        assert report.total_seconds >= 0
        live = [p.live_after for p in report.patterns]
        assert live[-1] == report.n_faults - report.detected
        assert all(b <= a for a, b in zip(live, live[1:]))
