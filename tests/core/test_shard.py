"""The sharded (fault-partitioned multiprocess) backend.

Sharding must be *exact*: for every inner strategy and every jobs
count, the merged report's detections are identical -- same fault, same
pattern, same phase, under the inner backend's own circuit numbering --
to an unsharded run of that inner backend.  The acceptance workload is
the RAM16 Figure-1 setup at jobs in {1, 2, 4}.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))
from test_equivalence_props import fault_sim_case  # noqa: E402

from repro.circuits.ram import build_ram
from repro.core.backends import SimPolicy, get_backend, run_backend
from repro.core.faults import ram_fault_universe, sample_faults
from repro.core.goodtrace import record_good_trace
from repro.core.inject import needs_rewrite
from repro.core.shard import ShardedBackend, cost_blocks, resolve_jobs
from repro.errors import SimulationError
from repro.patterns.sequences import sequence1


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


class TestCostBlocks:
    def test_contiguous_cover_uniform_costs(self):
        for n in (0, 1, 2, 7, 16, 33):
            for jobs in (1, 2, 3, 4, 8):
                blocks = cost_blocks([1.0] * n, jobs)
                # Contiguous and covering.
                assert blocks[0][0] == 0
                assert blocks[-1][1] == n
                for (_, a_end), (b_start, _) in zip(blocks, blocks[1:]):
                    assert a_end == b_start
                sizes = [end - start for start, end in blocks]
                if n:
                    assert all(size >= 1 for size in sizes)
                    if jobs == 1:
                        # The inline, overhead-free path.
                        assert blocks == [(0, n)]
                    else:
                        # Over-decomposed for work stealing, never
                        # beyond the item count.
                        assert len(blocks) == min(n, jobs * 4)

    def test_balances_by_cost_not_count(self):
        # One huge item followed by many tiny ones: the cut isolates
        # the heavy item instead of splitting the list down the middle.
        blocks = cost_blocks([100, 1, 1, 1, 1, 1], 2, blocks_per_job=1)
        assert blocks == [(0, 1), (1, 6)]

    def test_heavier_tail_shifts_cuts(self):
        blocks = cost_blocks([1, 1, 1, 1, 96], 2, blocks_per_job=1)
        assert blocks == [(0, 4), (4, 5)]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SimulationError):
            cost_blocks([1] * 10, 0)


class TestResolveJobs:
    def test_ints_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_auto_is_positive_and_machine_bounded(self):
        import os

        resolved = resolve_jobs("auto")
        assert isinstance(resolved, int)
        assert 1 <= resolved <= (os.cpu_count() or 1)

    def test_rejects_bad_values(self):
        for jobs in (0, -3, True, 1.5, "many"):
            with pytest.raises(SimulationError, match="jobs"):
                resolve_jobs(jobs)

    def test_backend_accepts_auto(self):
        backend = ShardedBackend(jobs="auto")
        assert isinstance(backend.jobs, int)
        assert backend.jobs >= 1


class TestShardedConfig:
    def test_defaults(self):
        backend = ShardedBackend()
        assert backend.jobs == 2
        assert backend.inner_backend == "concurrent"
        assert backend.inner_options == {}

    def test_rejects_bad_jobs(self):
        for jobs in (0, -3, True, 1.5):
            with pytest.raises(SimulationError, match="jobs"):
                ShardedBackend(jobs=jobs)

    def test_rejects_nested_sharding(self):
        with pytest.raises(SimulationError, match="cannot itself"):
            ShardedBackend(inner_backend="sharded")

    def test_rejects_unknown_inner_backend(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            ShardedBackend(inner_backend="quantum")

    def test_inner_options_validated_eagerly(self):
        with pytest.raises(SimulationError, match="batch"):
            ShardedBackend(inner_backend="batch", trim=False)
        backend = ShardedBackend(inner_backend="concurrent", trim=False)
        assert backend.inner_options == {"trim": False}

    def test_get_backend_round_trip(self):
        backend = get_backend(
            "sharded", jobs=3, inner_backend="serial"
        )
        assert isinstance(backend, ShardedBackend)
        assert backend.jobs == 3
        assert backend.inner_backend == "serial"


@pytest.fixture(scope="module")
def ram16_case():
    """The acceptance workload: RAM16, Test Sequence 1, sampled faults."""
    ram = build_ram(4, 4)
    sequence = sequence1(ram)
    faults = sample_faults(ram_fault_universe(ram), 24, seed=1985)
    return ram.net, faults, [ram.dout], list(sequence.patterns)


class TestShardedParity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_ram16_detection_identical_to_inner(self, ram16_case, jobs):
        net, faults, observed, patterns = ram16_case
        inner = run_backend("concurrent", net, faults, observed, patterns)
        sharded = run_backend(
            "sharded", net, faults, observed, patterns,
            jobs=jobs, inner_backend="concurrent",
        )
        assert first_detections(sharded, len(faults)) == first_detections(
            inner, len(faults)
        )
        assert sharded.detected == inner.detected
        assert sharded.n_faults == inner.n_faults

    @pytest.mark.parametrize("inner_name", ["serial", "batch"])
    def test_small_ram_parity_all_inner_backends(self, inner_name):
        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 10, seed=7)
        inner = run_backend(
            inner_name, ram.net, faults, [ram.dout], patterns
        )
        sharded = run_backend(
            "sharded", ram.net, faults, [ram.dout], patterns,
            jobs=3, inner_backend=inner_name,
        )
        assert first_detections(sharded, len(faults)) == first_detections(
            inner, len(faults)
        )


class TestGoodCircuitOnce:
    """The tentpole economy: under sharding the good circuit settles
    exactly once (in the parent), not once per worker."""

    def test_trace_ships_and_good_settles_once(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        for inner in ("serial", "concurrent", "batch"):
            report = run_backend(
                "sharded", net, faults, observed, patterns,
                jobs=2, inner_backend=inner,
            )
            assert report.shard_stats["trace_shipped"] is True
            assert report.good_settles == 1

    def test_jobs1_settles_good_once_natively(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        report = run_backend(
            "sharded", net, faults, observed, patterns,
            jobs=1, inner_backend="concurrent",
        )
        # Inline single block: no recording overhead, the inner
        # backend's own (single) good simulation is the reference.
        assert report.shard_stats["trace_shipped"] is False
        assert report.good_settles == 1

    def test_rewrite_universe_falls_back_to_per_block_good(self):
        from repro.core.faults import ShortFault

        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 6, seed=7)
        faults.append(
            ShortFault(ram.read_bitlines[0], ram.read_bitlines[1])
        )
        inner = run_backend(
            "concurrent", ram.net, faults, [ram.dout], patterns
        )
        report = run_backend(
            "sharded", ram.net, faults, [ram.dout], patterns,
            jobs=2, inner_backend="concurrent",
        )
        # Short faults rewrite the network, so no parent trace is
        # valid in the blocks; each block re-derives its good circuit
        # and the answer stays exact.
        assert report.shard_stats["trace_shipped"] is False
        assert report.good_settles >= 1
        assert first_detections(report, len(faults)) == first_detections(
            inner, len(faults)
        )


class TestShardedMerge:
    def test_report_shape_and_tag(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        report = run_backend(
            "sharded", net, faults, observed, patterns,
            SimPolicy(clock="perf"), jobs=4, inner_backend="concurrent",
        )
        assert report.backend == "sharded(concurrentx4)"
        # One wall-clock entry per cost block, over-decomposed beyond
        # the job count (up to 4 blocks per job) for work stealing.
        assert report.shard_stats is not None
        assert len(report.shard_seconds) == report.shard_stats["blocks"]
        assert 4 <= report.shard_stats["blocks"] <= 16
        assert report.shard_stats["jobs"] == 4
        block_faults = report.shard_stats["block_faults"]
        assert len(block_faults) == report.shard_stats["blocks"]
        assert all(count >= 1 for count in block_faults)
        # Blocks cover the post-collapse representatives, never more
        # than the universe.
        assert sum(block_faults) <= report.n_faults
        assert report.shard_stats["imbalance_ratio"] >= 1.0
        assert all(seconds > 0 for seconds in report.shard_seconds)
        assert report.n_patterns == len(patterns)
        live = [p.live_after for p in report.patterns]
        assert live[-1] == report.n_faults - report.detected
        assert all(b <= a for a, b in zip(live, live[1:]))
        # Merged detections read chronologically.
        keys = [
            (d.pattern_index, d.phase_index)
            for d in report.log.detections
        ]
        assert keys == sorted(keys)

    def test_perf_clock_reports_fanout_wall_not_shard_sum(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        report = run_backend(
            "sharded", net, faults, observed, patterns,
            SimPolicy(clock="perf"), jobs=2, inner_backend="concurrent",
        )
        # The parent's fan-out window contains every shard, so wall
        # clock is at least the slowest shard -- and is NOT the sum of
        # overlapping shard times on multi-core machines.
        assert report.total_seconds >= max(report.shard_seconds)

    def test_merge_total_seconds_override(self):
        from repro.core.report import RunReport
        from repro.core.shard import _ShardResult, merge_shard_reports

        results = [
            _ShardResult(0, RunReport(n_faults=1, total_seconds=2.0), 2.1),
            _ShardResult(1, RunReport(n_faults=1, total_seconds=3.0), 3.1),
        ]
        summed = merge_shard_reports(results, [], 2, "sharded(x2)")
        assert summed.total_seconds == 5.0  # process clock: aggregate CPU
        walled = merge_shard_reports(
            results, [], 2, "sharded(x2)", total_seconds=3.2
        )
        assert walled.total_seconds == 3.2  # perf clock: fan-out wall

    def test_per_pattern_records_sum_across_shards(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        inner = run_backend("concurrent", net, faults, observed, patterns)
        sharded = run_backend(
            "sharded", net, faults, observed, patterns,
            jobs=2, inner_backend="concurrent",
        )
        # Detections per pattern are count-identical (seconds are not
        # comparable across process boundaries).
        assert [p.detections for p in sharded.patterns] == [
            p.detections for p in inner.patterns
        ]
        assert [p.live_after for p in sharded.patterns] == [
            p.live_after for p in inner.patterns
        ]

    def test_more_jobs_than_faults(self):
        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 3, seed=3)
        report = run_backend(
            "sharded", ram.net, faults, [ram.dout], patterns,
            jobs=8, inner_backend="concurrent",
        )
        # Shard count shrank to the fault count.
        assert report.backend == "sharded(concurrentx3)"
        assert len(report.shard_seconds) == 3
        assert report.n_faults == 3

    def test_zero_faults(self):
        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        report = run_backend(
            "sharded", ram.net, [], [ram.dout], patterns,
            jobs=4, inner_backend="concurrent",
        )
        assert report.n_faults == 0
        assert report.detected == 0
        assert report.n_patterns == len(patterns)

    def test_circuit_id_remapping_is_global(self, ram16_case):
        net, faults, observed, patterns = ram16_case
        inner = run_backend("concurrent", net, faults, observed, patterns)
        sharded = run_backend(
            "sharded", net, faults, observed, patterns,
            jobs=4, inner_backend="concurrent",
        )
        # Global ids span the whole universe (not shard-local 1..k), and
        # every detected circuit's description matches its fault.
        assert sharded.log.detected_circuits() == (
            inner.log.detected_circuits()
        )
        for detection in sharded.log.detections:
            assert 1 <= detection.circuit_id <= len(faults)
            assert detection.description == (
                faults[detection.circuit_id - 1].describe()
            )


class _InlinePool:
    """An in-process 'executor': keeps the Hypothesis sweep off real
    process pools while exercising the full task/merge machinery."""

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


def _detection_log(report):
    return [
        (d.pattern_index, d.phase_index, d.circuit_id, d.description)
        for d in report.log.detections
    ]


class TestShardedEquivalenceProps:
    """Random networks x faults x stimuli: sharding and good-trace
    precomputation must both be invisible in the answer."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.data_too_large,
        ],
    )
    @given(
        case=fault_sim_case(),
        jobs=st.integers(1, 4),
        inner=st.sampled_from(["serial", "concurrent", "batch"]),
    )
    def test_sharded_and_trace_fed_runs_are_bit_identical(
        self, case, jobs, inner
    ):
        net, faults, observed, patterns = case
        reference = run_backend(inner, net, faults, observed, patterns)
        backend = ShardedBackend(
            jobs=jobs, inner_backend=inner, pool=_InlinePool()
        )
        sharded = backend.run(net, faults, observed, patterns)
        assert _detection_log(sharded) == _detection_log(reference)
        assert sharded.detected == reference.detected
        assert sharded.n_faults == reference.n_faults
        assert [p.detections for p in sharded.patterns] == [
            p.detections for p in reference.patterns
        ]
        if not needs_rewrite(list(faults)):
            trace = record_good_trace(net, observed, patterns)
            if inner != "concurrent" or trace.replayable:
                fed = run_backend(
                    inner, net, faults, observed, patterns,
                    good_trace=trace,
                )
                assert _detection_log(fed) == _detection_log(reference)
                assert fed.good_settles == 0


class TestExecutorManagement:
    """The per-run executor is cpu-capped; injected pools are used
    as-is and never shut down."""

    def test_cpu_cap(self, monkeypatch):
        from repro.core import shard

        monkeypatch.setattr(shard.os, "cpu_count", lambda: 4)
        assert shard._cpu_cap(1) == 1
        assert shard._cpu_cap(4) == 4
        assert shard._cpu_cap(64) == 4
        monkeypatch.setattr(shard.os, "cpu_count", lambda: None)
        assert shard._cpu_cap(64) == 1

    def test_per_run_executor_capped_at_cpu_count(self, monkeypatch):
        from repro.core import shard

        captured = {}
        real_executor = shard.ProcessPoolExecutor

        class CapturingExecutor(real_executor):
            def __init__(self, max_workers=None, **kwargs):
                captured["max_workers"] = max_workers
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(shard, "ProcessPoolExecutor", CapturingExecutor)
        monkeypatch.setattr(shard.os, "cpu_count", lambda: 2)
        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 8, seed=3)
        run_backend(
            "sharded", ram.net, faults, [ram.dout], patterns,
            jobs=8, inner_backend="concurrent",
        )
        # 8 shards requested, but the pool never exceeds the CPUs.
        assert captured["max_workers"] == 2

    def test_injected_pool_is_used_and_not_shut_down(self):
        class RecordingPool:
            def __init__(self):
                self.calls = 0
                self.shut_down = False

            def map(self, fn, tasks):
                self.calls += 1
                return [fn(task) for task in tasks]

            def shutdown(self, *args, **kwargs):
                self.shut_down = True

        pool = RecordingPool()
        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 8, seed=3)
        inner = run_backend(
            "concurrent", ram.net, faults, [ram.dout], patterns
        )
        backend = ShardedBackend(jobs=2, inner_backend="concurrent",
                                 pool=pool)
        report = backend.run(ram.net, faults, [ram.dout], patterns)
        assert pool.calls == 1
        assert pool.shut_down is False
        # Results through the injected pool stay exact.
        assert first_detections(report, len(faults)) == first_detections(
            inner, len(faults)
        )
        # A second run reuses the same pool -- no per-run churn.
        backend.run(ram.net, faults, [ram.dout], patterns)
        assert pool.calls == 2
        assert pool.shut_down is False

    def test_single_shard_runs_inline_without_pool(self):
        class ExplodingPool:
            def map(self, fn, tasks):  # pragma: no cover - must not run
                raise AssertionError("single shard must not use the pool")

        ram = build_ram(2, 2)
        patterns = list(sequence1(ram).patterns)
        faults = sample_faults(ram_fault_universe(ram), 4, seed=3)
        backend = ShardedBackend(jobs=1, inner_backend="concurrent",
                                 pool=ExplodingPool())
        report = backend.run(ram.net, faults, [ram.dout], patterns)
        assert report.n_faults == len(faults)

    def test_rejects_pool_without_map(self):
        with pytest.raises(SimulationError, match="map"):
            ShardedBackend(pool=object())

    def test_shared_executor_is_a_singleton(self):
        from repro.core.shard import shared_executor

        assert shared_executor() is shared_executor()
