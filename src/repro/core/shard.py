"""Sharded fault simulation: fault-partitioned multiprocess backend.

The paper wins throughput by simulating many faulty circuits per unit
of work *within one process*; the next scaling axis is to partition the
fault universe itself.  ``ShardedBackend`` (registered as ``"sharded"``)
cuts the fault list into cost-balanced contiguous blocks, runs any inner
registered strategy (``serial`` / ``concurrent`` / ``batch``) on each
block in a process pool -- an injected persistent executor when the
caller provides one (see :func:`shared_executor`), otherwise a per-run
:class:`concurrent.futures.ProcessPoolExecutor` -- and merges the
per-block :class:`~repro.core.report.RunReport`\\ s back into one.

Sharding is exact, not approximate, because the strategies share no
state across faulty circuits beyond the good-circuit reference: every
faulty circuit's trajectory (and therefore its detections) is
independent of which other faults ride in the same run.  The merged
detections are byte-identical to an unsharded run of the inner backend
-- the parity suite holds ``sharded(inner)`` to the inner backend's
detections for ``jobs`` in {1, 2, 4}.

The good circuit runs once
--------------------------

A naive fan-out re-settles the good circuit over the whole pattern
sequence in every worker, so the duplicated good work grows with the
job count.  Instead the parent runs the good circuit exactly once
(:func:`~repro.core.goodtrace.record_good_trace`) and ships the
recorded :class:`~repro.core.goodtrace.GoodTrace` inside each block's
task; the inner simulators then consume checkpoints, observed
responses and replay rounds instead of re-simulating the reference.
The trace travels only when it is valid everywhere: fault universes
that rewrite the network (short/open instrumentation) and traces that
hit the oscillation fallback fall back to per-worker good simulation.
When the inner locality is ``compiled``, the parent's
:class:`~repro.switchlevel.compiled.CompiledNetwork` rides along too
(it pickles as raw CSR buffers, minus caches), so workers skip the
partition/lowering pass as well.

Cost-balanced blocks
--------------------

Faults are not equally expensive: a collapse-class representative
stands for all its members, and a fault in a large channel-connected
component stirs more re-solving than one in a two-node cell.  The
fault list is therefore split by *estimated cost* -- class size times
(1 + component size at the fault site) -- into more blocks than
workers (see :func:`cost_blocks`), and blocks are dispatched
heaviest-first through one executor ``map``; free workers drain the
queue, so a surprisingly slow block steals less tail latency than a
static one-slice-per-job split would allow.  The merged report records
the balance actually achieved in ``RunReport.shard_stats``
(per-block fault counts and the max/min busy-seconds ratio across
worker processes).

Circuit-id remapping
--------------------

Backends number faulty circuits 1..N in fault-list order (0 is the good
circuit).  A block covering ``faults[start:end]`` sees its slice as
local circuits ``1..end-start``; the merge adds the block's ``start``
offset back, so global ids are preserved exactly as if the inner
backend had run the whole list:

    global_circuit_id = block_offset + local_circuit_id

Merge rules
-----------

* **detections** -- remapped to global ids, then ordered by
  ``(pattern, phase, circuit)`` so the merged log reads like a single
  chronological run; first-detection per circuit is unchanged by
  construction.
* **per-pattern records** -- ``seconds``, ``detections`` and
  ``live_after`` are summed across blocks (each block reports its local
  live count, and the fault universe is a disjoint union).
* **totals** -- under the ``process`` clock ``total_seconds`` sums the
  blocks' totals plus the parent's good-trace recording (aggregate CPU
  seconds, the multi-process analog of the paper's CPU measurements);
  under the ``perf`` clock it is the parent's wall clock for the whole
  fan-out, so consumers that present ``total_seconds`` as wall time
  stay honest about parallel runs.  Per-block wall-clock lands in
  ``RunReport.shard_seconds``, so consumers can compute parallel
  speedup and block balance either way.
* **good_settles** -- the merged count is the parent's recording (one)
  when the trace shipped, plus whatever the blocks report; with the
  trace in play it totals exactly 1.
* **backend tag** -- ``"sharded(<inner>x<shards>)"`` where ``shards``
  is ``min(jobs, n_faults)``, keeping archived rows attributable to
  both the strategy and the parallelism degree.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from ..errors import SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import (
    NO_COMPONENT,
    CompiledNetwork,
    adopt_compiled,
    compile_network,
)
from ..switchlevel.network import Network
from .backends import (
    DEFAULT_POLICY,
    CollapsePlan,
    FaultSimBackend,
    SimPolicy,
    get_backend,
    register_backend,
)
from .faults import Fault, NodeStuckFault, TransistorStuckFault
from .goodtrace import GoodTrace, record_good_trace
from .inject import needs_rewrite
from .report import PatternRecord, RunReport

__all__ = [
    "ShardedBackend",
    "cost_blocks",
    "resolve_jobs",
    "shared_executor",
]

#: Default number of worker processes.
DEFAULT_JOBS = 2

#: Blocks per job (when ``jobs > 1``): the over-decomposition factor
#: that lets fast workers steal queued blocks from slow ones.
BLOCKS_PER_JOB = 4


def resolve_jobs(jobs: int | str) -> int:
    """Resolve a job count: positive ints pass through, ``"auto"``
    becomes the number of CPUs usable by *this process* (affinity-aware
    where the platform reports it), never less than 1."""
    if jobs == "auto":
        counter = getattr(os, "process_cpu_count", None)
        if counter is not None:  # pragma: no cover - python >= 3.13
            return max(1, counter() or 1)
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                return max(1, len(affinity(0)))
            except OSError:  # pragma: no cover - exotic platforms
                pass
        return max(1, os.cpu_count() or 1)  # pragma: no cover
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise SimulationError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}"
        )
    return jobs


def _cpu_cap(n_tasks: int) -> int:
    """Worker-process cap for a fan-out of ``n_tasks`` blocks.

    More workers than cores is pure fork-and-contend overhead (the
    BENCH_shard 0.8-0.9x "speedup" pathology on a 1-CPU box), so the
    executor never gets more than ``os.cpu_count()`` workers; extra
    blocks simply queue.
    """
    return max(1, min(n_tasks, os.cpu_count() or 1))


_SHARED_EXECUTOR: ProcessPoolExecutor | None = None


def shared_executor() -> ProcessPoolExecutor:
    """The process-wide persistent shard executor (lazily created).

    Long-lived callers -- the service worker pool above all -- inject
    this into :class:`ShardedBackend` so repeated sharded jobs reuse
    one warm set of worker processes instead of paying fork + import
    per run.  Capped at ``os.cpu_count()`` workers and shut down
    automatically at interpreter exit.
    """
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is None:
        _SHARED_EXECUTOR = ProcessPoolExecutor(
            max_workers=_cpu_cap(os.cpu_count() or 1)
        )
        atexit.register(_shutdown_shared_executor)
    return _SHARED_EXECUTOR


def _shutdown_shared_executor() -> None:
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is not None:
        _SHARED_EXECUTOR.shutdown(wait=True, cancel_futures=True)
        _SHARED_EXECUTOR = None


def cost_blocks(
    costs: Sequence[float],
    jobs: int,
    blocks_per_job: int = BLOCKS_PER_JOB,
) -> list[tuple[int, int]]:
    """Split ``len(costs)`` items into contiguous ``(start, end)``
    blocks of near-equal *total cost*.

    ``jobs == 1`` produces a single block (the inline, overhead-free
    path); otherwise up to ``jobs * blocks_per_job`` blocks are cut so
    the dispatch queue stays ahead of uneven block runtimes.  Blocks
    are never empty: with fewer items than blocks the count shrinks.

    >>> cost_blocks([1, 1, 1, 1, 1, 1], 3, blocks_per_job=1)
    [(0, 2), (2, 4), (4, 6)]
    >>> cost_blocks([9, 1, 1, 1], 2, blocks_per_job=1)
    [(0, 1), (1, 4)]
    >>> cost_blocks([1, 1], 4)
    [(0, 1), (1, 2)]
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    n = len(costs)
    if n == 0:
        return [(0, 0)]
    count = 1 if jobs == 1 else min(n, jobs * blocks_per_job)
    total = float(sum(costs)) or float(n)
    blocks: list[tuple[int, int]] = []
    start = 0
    acc = 0.0
    for index, cost in enumerate(costs):
        acc += cost
        produced = len(blocks)
        remaining = count - produced - 1
        if remaining == 0:
            break
        items_left = n - (index + 1)
        if acc * count >= total * (produced + 1) or items_left == remaining:
            blocks.append((start, index + 1))
            start = index + 1
    blocks.append((start, n))
    return blocks


def _fault_cost(
    net: Network, compiled: CompiledNetwork | None, fault: Fault, members: int
) -> float:
    """Estimated simulation cost of one collapse representative.

    Class size times (1 + the size of the channel-connected component
    at the fault site): a representative answers for every member, and
    a fault in a big component stirs proportionally more re-solving.
    Name lookups are best-effort -- unknown names (they would fail
    later, in injection) and faults without a single site cost the
    class size alone.
    """
    size = 0
    if compiled is not None:
        cid = NO_COMPONENT
        if isinstance(fault, NodeStuckFault):
            node = net.node_index.get(fault.node)
            if node is not None:
                cid = compiled.node_component[node]
        elif isinstance(fault, TransistorStuckFault):
            t = net.t_index.get(fault.transistor)
            if t is not None:
                cid = compiled.t_component[t]
        if cid != NO_COMPONENT:
            size = compiled.components[cid].size
    return members * (1 + size)


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker process needs to simulate its block."""

    offset: int
    inner_backend: str
    inner_options: dict
    net: Network
    faults: tuple[Fault, ...]
    observed: tuple[str, ...]
    patterns: tuple[TestPattern, ...]
    policy: SimPolicy
    #: Parent-recorded good run; ``None`` when each block must derive
    #: its own reference (rewrite universes, non-replayable traces).
    good_trace: GoodTrace | None = None
    #: Parent-compiled artifact; pickled alongside ``net`` in the same
    #: task, so ``compiled.net is net`` still holds after transport.
    compiled: CompiledNetwork | None = None


@dataclass(frozen=True)
class _ShardResult:
    """One block's report plus its wall-clock cost and worker identity."""

    offset: int
    report: RunReport
    wall_seconds: float
    pid: int = 0


def _simulate_shard(task: _ShardTask) -> _ShardResult:
    """Run one block through its inner backend (executes in a worker
    process; must stay a module-level function so it survives pickling
    under every multiprocessing start method)."""
    if task.compiled is not None:
        adopt_compiled(task.compiled)
    options = dict(task.inner_options)
    if task.good_trace is not None:
        options["good_trace"] = task.good_trace
    backend = get_backend(task.inner_backend, **options)
    start = time.perf_counter()
    report = backend.run(
        task.net,
        list(task.faults),
        list(task.observed),
        list(task.patterns),
        task.policy,
    )
    return _ShardResult(
        offset=task.offset,
        report=report,
        wall_seconds=time.perf_counter() - start,
        pid=os.getpid(),
    )


def merge_shard_reports(
    results: Sequence[_ShardResult],
    patterns: Sequence[TestPattern],
    n_faults: int,
    backend_tag: str,
    total_seconds: float | None = None,
) -> RunReport:
    """Fold per-block reports into one global :class:`RunReport`,
    remapping block-local circuit ids to global ids (see the module
    docstring for the merge rules).  ``total_seconds`` overrides the
    default sum-of-block-totals (used for wall-clock runs, where the
    blocks overlap in time and summing would overstate the cost)."""
    merged = RunReport(n_faults=n_faults, backend=backend_tag)
    remapped = []
    for result in results:
        for detection in result.report.log.detections:
            remapped.append(
                replace(
                    detection,
                    circuit_id=detection.circuit_id + result.offset,
                )
            )
    # Stable sort: within one circuit detections stay chronological, so
    # first-detection per circuit is exactly the block's own.
    remapped.sort(
        key=lambda d: (d.pattern_index, d.phase_index, d.circuit_id)
    )
    for detection in remapped:
        merged.log.record(detection)
    for index, pattern in enumerate(patterns):
        records = [result.report.patterns[index] for result in results]
        merged.patterns.append(
            PatternRecord(
                index=index,
                label=pattern.label,
                seconds=sum(record.seconds for record in records),
                detections=sum(record.detections for record in records),
                live_after=sum(record.live_after for record in records),
            )
        )
    merged.total_seconds = (
        sum(r.report.total_seconds for r in results)
        if total_seconds is None
        else total_seconds
    )
    merged.oscillation_events = sum(
        r.report.oscillation_events for r in results
    )
    merged.good_settles = sum(r.report.good_settles for r in results)
    merged.shard_seconds = [r.wall_seconds for r in results]
    trims = [r.report.trim for r in results if r.report.trim]
    if trims:
        # Blocks may run different inner backends over time; sum
        # counter-wise over whatever keys each block reported.
        merged.trim = {
            key: sum(t.get(key, 0) for t in trims)
            for t in trims
            for key in t
        }
    caches = [
        r.report.solve_cache for r in results if r.report.solve_cache
    ]
    if caches:
        hits = sum(c["hits"] for c in caches)
        misses = sum(c["misses"] for c in caches)
        lookups = hits + misses
        merged.solve_cache = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
    return merged


def _imbalance_ratio(results: Sequence[_ShardResult]) -> float:
    """Max/min busy seconds across the worker processes that took part
    (1.0 for a single worker or vanishing denominators)."""
    busy: dict[int, float] = {}
    for result in results:
        busy[result.pid] = busy.get(result.pid, 0.0) + result.wall_seconds
    if len(busy) < 2:
        return 1.0
    low = min(busy.values())
    if low <= 0.0:
        return 1.0
    return max(busy.values()) / low


@register_backend
class ShardedBackend(FaultSimBackend):
    """Fault-partitioned multiprocess simulation over any inner backend.

    ``jobs`` bounds the worker count (``"auto"`` resolves to the CPUs
    usable by this process); ``inner_backend`` names the registered
    strategy each block runs; remaining keyword options are forwarded
    to the inner backend's constructor (e.g. ``locality`` or
    ``trim``).  A single block runs inline, so ``jobs=1`` is the
    (nearly) overhead-free baseline for speedup measurements.

    ``pool`` injects a persistent executor (anything with
    ``Executor``'s ``map``, e.g. :func:`shared_executor`): blocks run on
    it and it is *not* shut down between runs, which is how the service
    worker pool keeps sharded jobs from paying per-run fork churn.
    Without it, a per-run :class:`~concurrent.futures.ProcessPoolExecutor`
    is the fallback, capped at ``min(jobs, os.cpu_count())`` workers
    regardless of the block count.
    """

    name = "sharded"

    def __init__(
        self,
        jobs: int | str = DEFAULT_JOBS,
        inner_backend: str = "concurrent",
        pool: Executor | None = None,
        **inner_options: Any,
    ):
        try:
            jobs = resolve_jobs(jobs)
        except SimulationError as error:
            raise SimulationError(f"sharded: {error}") from None
        if inner_backend == self.name:
            raise SimulationError(
                "sharded: the inner backend cannot itself be 'sharded'"
            )
        if pool is not None and not callable(getattr(pool, "map", None)):
            raise SimulationError(
                "sharded: pool must be an executor with a map() method, "
                f"got {type(pool).__name__}"
            )
        # Validate the inner backend name and options eagerly, so a bad
        # combination fails at configuration time, not inside a worker.
        try:
            get_backend(inner_backend, **inner_options)
        except SimulationError as error:
            raise SimulationError(f"sharded: {error}") from None
        self.jobs = jobs
        self.inner_backend = inner_backend
        self.pool = pool
        self.inner_options = dict(inner_options)

    def _probe_inner_option(self, options: dict, option: str, value) -> bool:
        """Whether the inner backend accepts ``option`` (third-party
        inner backends may not know the built-ins' knobs)."""
        try:
            get_backend(self.inner_backend, **{**options, option: value})
        except SimulationError:
            return False
        return True

    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
    ) -> RunReport:
        pattern_list = tuple(patterns)
        fault_list = tuple(faults)
        # Collapse once, over the whole universe: equivalences that
        # straddle a block boundary would be invisible to the blocks
        # themselves.  The inner backends then run with collapsing off
        # (when they know the option) so classes are not re-derived per
        # block; detections expand back after the merge.
        inner_options = dict(self.inner_options)
        collapse_enabled = bool(inner_options.pop("collapse", True))
        static_enabled = bool(inner_options.pop("static_prune", True))
        plan = CollapsePlan(
            net,
            fault_list,
            observed,
            collapse_enabled,
            static_prune=static_enabled,
        )
        run_faults = tuple(plan.run_faults)
        for option in ("collapse", "static_prune"):
            if self._probe_inner_option(inner_options, option, False):
                inner_options[option] = False

        # The cost model and every shipped artifact hang off the
        # parent's compiled form; universes that rewrite the network
        # (short/open instrumentation) simulate a *different* good
        # circuit, so nothing recorded here would be valid there.
        rewrite = needs_rewrite(list(run_faults))
        compiled = None
        if run_faults and not rewrite and net.finalized:
            compiled = compile_network(net)
        class_sizes = [
            len(plan._members[index + 1]) if plan._members else 1
            for index in range(len(run_faults))
        ]
        costs = [
            _fault_cost(net, compiled, fault, members)
            for fault, members in zip(run_faults, class_sizes)
        ]
        blocks = cost_blocks(costs, self.jobs)

        # Simulate the good circuit once, here, on the compiled path;
        # blocks then carry the recording instead of re-deriving it.
        trace = None
        if (
            compiled is not None
            and len(blocks) > 1
            and self._probe_inner_option(inner_options, "good_trace", None)
        ):
            record_start = time.process_time()
            trace = record_good_trace(
                net,
                observed,
                pattern_list,
                max_rounds=policy.max_rounds,
            )
            trace.seconds = time.process_time() - record_start
            if not trace.replayable:
                # Oscillation fallback: checkpoints survive but the
                # round log does not reproduce the run, and the
                # concurrent inner backend refuses such traces.
                trace = None
        ship_compiled = (
            compiled is not None
            and len(blocks) > 1
            and inner_options.get("locality") == "compiled"
        )

        tasks = [
            _ShardTask(
                offset=start,
                inner_backend=self.inner_backend,
                inner_options=inner_options,
                net=net,
                faults=run_faults[start:end],
                observed=tuple(observed),
                patterns=pattern_list,
                policy=policy,
                good_trace=trace if len(blocks) > 1 else None,
                compiled=compiled if ship_compiled else None,
            )
            for start, end in blocks
        ]
        # Heaviest blocks first: the executor hands queued tasks to
        # whichever worker frees up, so leading with the expensive
        # blocks keeps the tail short (LPT scheduling).
        block_cost = {
            start: sum(costs[start:end]) for start, end in blocks
        }
        tasks.sort(key=lambda task: -block_cost[task.offset])

        start = time.perf_counter()
        if len(tasks) == 1:
            results = [_simulate_shard(tasks[0])]
        elif self.pool is not None:
            # Injected persistent executor: use, never shut down.
            results = list(self.pool.map(_simulate_shard, tasks))
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, _cpu_cap(len(tasks)))
            ) as pool:
                results = list(pool.map(_simulate_shard, tasks))
        wall_seconds = time.perf_counter() - start
        shards = max(1, min(self.jobs, len(run_faults)))
        tag = f"sharded({self.inner_backend}x{shards})"
        merged = merge_shard_reports(
            results,
            pattern_list,
            len(run_faults),
            tag,
            # The perf clock asks for wall time: the blocks overlap, so
            # the parent's fan-out wall clock is the run's cost.  The
            # process clock keeps the aggregate CPU sum.
            total_seconds=(
                wall_seconds if policy.clock == "perf" else None
            ),
        )
        if trace is not None:
            # The parent's good run is real work; one settle, total.
            merged.good_settles += 1
            if policy.clock == "process":
                merged.total_seconds += trace.seconds
        merged.shard_stats = {
            "jobs": self.jobs,
            "blocks": len(results),
            "block_faults": [len(task.faults) for task in tasks],
            "imbalance_ratio": _imbalance_ratio(results),
            "trace_shipped": trace is not None,
        }
        return plan.finish(merged, policy.drop_on_detect)
