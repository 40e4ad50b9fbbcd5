"""Worker-pool behavior: warm cache, cancellation, clean shutdown."""

from __future__ import annotations

import time

import pytest

from repro.circuits.ram import build_ram
from repro.core.backends import SimPolicy
from repro.core.faults import (
    ShortFault,
    node_stuck_universe,
    ram_fault_universe,
    sample_faults,
)
from repro.errors import SimulationError
from repro.netlist.sim_format import dumps
from repro.patterns.sequences import sequence1
from repro.service.protocol import JobSpec, report_from_wire
from repro.service.workers import CircuitCache, WorkerPool

POLICY = SimPolicy(clock="perf")


def make_job(rows=2, cols=2, n_faults=8, patterns_repeat=1) -> JobSpec:
    """A stuck-fault RAM job (stuck faults only: the instrumented
    network then *is* the cached instance, so warm state carries)."""
    ram = build_ram(rows, cols)
    patterns = tuple(sequence1(ram).patterns) * patterns_repeat
    universe = node_stuck_universe(ram.net)
    faults = sample_faults(universe, min(n_faults, len(universe)), seed=7)
    return JobSpec(
        netlist=dumps(ram.net),
        observed=(ram.dout,),
        faults=tuple(faults),
        patterns=patterns,
        policy=POLICY,
    )


def make_short_job() -> JobSpec:
    """A shorted-bitlines job.  Short (and open) faults rewrite the
    network into a fresh universe, so warm state only carries if
    ``prepare`` memoizes the rewrite against the cached instance."""
    ram = build_ram(2, 2)
    shorts = tuple(
        fault
        for fault in ram_fault_universe(ram)
        if isinstance(fault, ShortFault)
    )
    assert shorts, "RAM universe lost its bitline shorts"
    return JobSpec(
        netlist=dumps(ram.net),
        observed=(ram.dout,),
        faults=shorts,
        patterns=tuple(sequence1(ram).patterns),
        policy=POLICY,
    )


def drain_job(pool: WorkerPool, job_id: str, timeout: float = 60.0) -> dict:
    """Collect this job's events until its terminal one."""
    events: dict = {"patterns": [], "terminal": None}
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        event = pool.next_event(timeout=1.0)
        if event is None:
            continue
        pool.note_event(event)
        kind, worker_id, event_job, payload = event
        if event_job != job_id:
            continue
        if kind == "started":
            events["started"] = payload
        elif kind == "pattern":
            events["patterns"].append(payload)
        else:
            events["terminal"] = (kind, payload)
            return events
    raise AssertionError(f"job {job_id} produced no terminal event")


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=1) as shared_pool:
        yield shared_pool


class TestCircuitCache:
    def test_lru_eviction(self):
        cache = CircuitCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.fingerprints() == ["a", "c"]
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            CircuitCache(capacity=0)


class TestWarmCache:
    def test_second_job_is_warm(self, pool):
        job = make_job()
        pool.submit("cold-1", job)
        cold = drain_job(pool, "cold-1")
        pool.submit("warm-1", job)
        warm = drain_job(pool, "warm-1")

        assert cold["started"]["warm"] is False
        assert warm["started"]["warm"] is True

        kind, payload = warm["terminal"]
        assert kind == "done"
        # The contract under test: a warm job skips parse + compile
        # entirely and starts with a fully warmed solve cache.
        assert payload["timings"]["compile_seconds"] == 0.0
        report = report_from_wire(payload["report"])
        assert report.solve_cache is not None
        assert report.solve_cache["misses"] == 0
        assert report.solve_cache["hit_rate"] == 1.0

        cold_kind, cold_payload = cold["terminal"]
        assert cold_kind == "done"
        assert cold_payload["timings"]["compile_seconds"] > 0.0
        cold_report = report_from_wire(cold_payload["report"])
        assert cold_report.solve_cache["misses"] > 0

        # Same circuit, same faults, same patterns: identical results.
        assert report.detected == cold_report.detected
        assert report.log.detections == cold_report.log.detections

    def test_warm_short_fault_job_reuses_rewritten_universe(self, pool):
        """Short faults rewrite the network; the ``prepare`` memo makes
        a warm job reuse the rewritten instance -- and with it the
        compiled form and its solve cache -- instead of silently
        rebuilding both behind ``compile_seconds == 0``."""
        job = make_short_job()
        pool.submit("short-cold", job)
        cold = drain_job(pool, "short-cold")
        pool.submit("short-warm", job)
        warm = drain_job(pool, "short-warm")

        cold_kind, cold_payload = cold["terminal"]
        warm_kind, warm_payload = warm["terminal"]
        assert cold_kind == "done"
        assert warm_kind == "done"
        assert warm["started"]["warm"] is True
        assert warm_payload["timings"]["compile_seconds"] == 0.0

        cold_report = report_from_wire(cold_payload["report"])
        warm_report = report_from_wire(warm_payload["report"])
        # Non-vacuous: the job really ran the short faults, both times,
        # with identical detections.
        assert cold_report.n_faults == len(job.faults)
        assert warm_report.detected == cold_report.detected
        assert warm_report.log.detections == cold_report.log.detections

        # Warmth evidence on the *rewritten* universe: the cold run
        # populated its solve cache from nothing; the warm run starts
        # with it full.
        assert cold_report.solve_cache["misses"] > 0
        assert warm_report.solve_cache["hits"] > 0
        assert (
            warm_report.solve_cache["misses"]
            < cold_report.solve_cache["misses"]
        )

    def test_pattern_events_stream_and_match_report(self, pool):
        job = make_job()
        pool.submit("stream-1", job)
        events = drain_job(pool, "stream-1")
        kind, payload = events["terminal"]
        assert kind == "done"
        report = report_from_wire(payload["report"])
        assert len(events["patterns"]) == len(report.patterns)
        streamed = [
            detection
            for pattern in events["patterns"]
            for detection in pattern["detections"]
        ]
        assert len(streamed) == len(report.log.detections)

    def test_affinity_routing_prefers_cached_worker(self):
        with WorkerPool(workers=2) as wide:
            job = make_job()
            first = wide.submit("affine-1", job)
            drain_job(wide, "affine-1")
            # Both workers are idle; the one that ran the job holds the
            # circuit and must be picked again.
            assert wide.pick_worker(job.fingerprint) == first
            second = wide.submit("affine-2", job)
            assert second == first
            events = drain_job(wide, "affine-2")
            assert events["started"]["warm"] is True


class TestCancellation:
    def test_cancel_mid_run_frees_worker(self, pool):
        job = make_job(rows=4, cols=4, n_faults=32, patterns_repeat=2)
        pool.submit("cancel-1", job)
        # Wait for the first streamed pattern, then cancel mid-run.
        deadline = time.monotonic() + 60.0
        saw_pattern = False
        while time.monotonic() < deadline and not saw_pattern:
            event = pool.next_event(timeout=1.0)
            if event is None:
                continue
            pool.note_event(event)
            if event[0] == "pattern" and event[2] == "cancel-1":
                saw_pattern = True
        assert saw_pattern
        assert pool.cancel("cancel-1") is True

        events = drain_job(pool, "cancel-1")
        kind, payload = events["terminal"]
        assert kind == "cancelled"
        # The run stopped early: nowhere near the full pattern count.
        assert 0 < payload["patterns_completed"] < len(job.patterns)

        # The worker is free again and serves the next job normally.
        assert pool.has_idle()
        next_job = make_job()
        pool.submit("after-cancel", next_job)
        kind, _ = drain_job(pool, "after-cancel")["terminal"]
        assert kind == "done"

    def test_cancel_unknown_job_is_false(self, pool):
        assert pool.cancel("no-such-job") is False

    def test_cancel_before_pickup_is_kept(self):
        """A cancel issued before the worker dequeues its job still
        cancels it (the worker must not clear the event on pickup)."""
        with WorkerPool(workers=1) as fresh:
            job = make_job(rows=4, cols=4, n_faults=32, patterns_repeat=3)
            fresh.submit("early-cancel", job)
            assert fresh.cancel("early-cancel") is True
            kind, payload = drain_job(fresh, "early-cancel")["terminal"]
            assert kind == "cancelled"
            assert payload["patterns_completed"] < len(job.patterns)

    def test_stale_cancel_does_not_leak_into_next_job(self, pool):
        """A cancel that lands after the job finished but before its
        terminal event was noted leaves the event set; the next job
        dispatched to that worker still runs to completion."""
        pool.submit("finishing", make_job())
        deadline = time.monotonic() + 60.0
        terminal = None
        while terminal is None and time.monotonic() < deadline:
            event = pool.next_event(timeout=1.0)
            if event is not None and event[2] == "finishing":
                if event[0] in ("done", "cancelled", "error"):
                    terminal = event
                else:
                    pool.note_event(event)
        assert terminal is not None and terminal[0] == "done"
        # The worker still counts as busy until the event is noted.
        assert pool.cancel("finishing") is True
        pool.note_event(terminal)
        pool.submit("after-stale-cancel", make_job())
        kind, _ = drain_job(pool, "after-stale-cancel")["terminal"]
        assert kind == "done"


class TestErrors:
    def test_bad_job_reports_error_event_and_frees_worker(self, pool):
        job = make_job()
        bad = JobSpec(
            netlist=job.netlist,
            observed=("definitely-not-a-node",),
            faults=job.faults,
            patterns=job.patterns,
            policy=job.policy,
        )
        pool.submit("bad-1", bad)
        events = drain_job(pool, "bad-1")
        kind, payload = events["terminal"]
        assert kind == "error"
        assert payload["kind"] in ("simulation", "network")
        assert pool.has_idle()

    def test_solve_cache_option_is_unknown(self, pool):
        # The compiled solve cache has no switch: a job naming one gets
        # the registry's typed invalid-options error.
        job = make_job()
        bad = JobSpec(
            netlist=job.netlist,
            observed=job.observed,
            faults=job.faults,
            patterns=job.patterns,
            policy=job.policy,
            options={"solve_cache": False},
        )
        pool.submit("bad-2", bad)
        events = drain_job(pool, "bad-2")
        kind, payload = events["terminal"]
        assert kind == "error"
        assert payload["kind"] == "simulation"
        assert "solve_cache" in payload["message"]
        assert pool.has_idle()

    def test_submit_to_busy_pool_rejected(self, pool):
        job = make_job(rows=4, cols=4, n_faults=16)
        pool.submit("busy-1", job)
        with pytest.raises(SimulationError, match="busy|idle"):
            pool.submit("busy-2", job)
        drain_job(pool, "busy-1")


class TestShutdown:
    def test_clean_shutdown_no_orphans(self):
        fresh = WorkerPool(workers=2)
        processes = fresh.processes
        assert all(process.is_alive() for process in processes)
        exitcodes = fresh.shutdown()
        assert exitcodes == [0, 0]
        assert not any(process.is_alive() for process in processes)

    def test_shutdown_cancels_running_job(self):
        fresh = WorkerPool(workers=1)
        job = make_job(rows=4, cols=4, n_faults=32, patterns_repeat=2)
        fresh.submit("shutdown-1", job)
        exitcodes = fresh.shutdown(cancel_running=True, timeout=30.0)
        # The worker consumed the sentinel after aborting the job at a
        # pattern boundary: a clean exit, not a termination.
        assert exitcodes == [0]

    def test_shutdown_is_idempotent(self):
        fresh = WorkerPool(workers=1)
        assert fresh.shutdown() == [0]
        assert fresh.shutdown() == [0]
        with pytest.raises(SimulationError, match="shut down"):
            fresh.submit("late", make_job())
