"""The persistent warm-state worker pool.

Per-run ``ProcessPoolExecutor`` churn pays fork + import + netlist
parse + compile + solve-cache warmup on every job and discards all of
it with the process.  :class:`WorkerPool` replaces that with a fixed
set of long-lived worker processes, each holding an LRU of parsed
networks keyed by the *circuit fingerprint* (the netlist content hash,
:func:`~repro.service.protocol.circuit_fingerprint`).  Because the
compiled form (:func:`repro.switchlevel.compiled.compile_network`) and
its solve cache are memoized per :class:`~repro.switchlevel.network.Network`
*instance*, keeping the instance alive keeps the whole warm state
alive: a second job on the same circuit skips parse + compile entirely
(``compile_seconds == 0``) and starts with a hot solve cache.

Lifecycle of one worker::

     spawn -> [ block on task queue ] <--------------------+
                  |                                        |
                  v                                        |
              (job_id, JobSpec)                            |
                  |  clear cancel event                    |
                  v                                        |
              fingerprint lookup -> hit:  reuse Network    |
                  |                  miss: parse + compile |
                  v                        + LRU insert    |
              run backend, emitting "pattern" events       |
              (cancel event checked at pattern bounds)     |
                  |                                        |
                  v                                        |
              "done" / "cancelled" / "error" event --------+

     task queue sentinel (None) -> clean exit (exitcode 0)

The parent talks to workers through one task queue *per worker* (so
jobs can be routed to the worker that already holds the circuit -- the
fingerprint-affinity mirror) and a single shared result queue.  Each
worker runs at most one job at a time; queueing policy lives in the
server, which makes cancelling a *queued* job a purely parent-side
operation.  Cancelling a *running* job sets the worker's
``multiprocessing.Event``; the simulators' per-pattern ``progress``
hook checks it at every pattern boundary.

Sharded jobs get the process-wide persistent shard executor
(:func:`repro.core.shard.shared_executor`) injected, so even the
multiprocess backend stops paying per-run fork churn.  Because
``CompiledNetwork`` pickles, the warm compiled artifact held in the
worker's cache travels to the shards with the network -- warm sharded
jobs recompile nothing anywhere.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.queues
import os
import queue as queue_module
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.synchronize import Event as MpEvent
from typing import Any, Callable, Iterable

from ..core import shard as shard_module
from ..core.backends import get_backend, supports_progress
from ..core.detection import Detection
from ..core.report import PatternRecord
from ..errors import SimulationError
from ..netlist.sim_format import loads as load_netlist
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import compile_network
from ..switchlevel.network import Network
from .protocol import (
    ErrorFrame,
    JobSpec,
    detection_to_wire,
    record_to_wire,
    report_to_wire,
)

__all__ = ["DEFAULT_CACHE_SIZE", "CircuitCache", "WorkerPool"]

#: Parsed networks (and their compiled warm state) each worker retains.
DEFAULT_CACHE_SIZE = 4

#: Backends that understand the ``locality`` option; the service
#: defaults them to ``compiled`` -- persistent warm state is the whole
#: point of a resident worker -- unless the job says otherwise.
_LOCALITY_BACKENDS = frozenset({"serial", "concurrent", "batch", "sharded"})

#: Event kinds that end a job and free its worker.
_TERMINAL_KINDS = frozenset({"done", "cancelled", "error"})


class CircuitCache:
    """A tiny LRU of parsed networks keyed by circuit fingerprint."""

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE):
        if capacity < 1:
            raise SimulationError(
                f"circuit cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[str, Network] = OrderedDict()

    def get(self, fingerprint: str) -> Network | None:
        """The cached network for ``fingerprint`` (refreshed), or None."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    def put(self, fingerprint: str, network: Network) -> None:
        self._entries[fingerprint] = network
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            # Dropping the Network drops its memoized compiled form and
            # solve cache with it (they are keyed weakly on the
            # instance), so eviction really releases the memory.
            self._entries.popitem(last=False)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprints(self) -> list[str]:
        """Cached fingerprints, least recently used first."""
        return list(self._entries)


class _Cancelled(Exception):
    """Internal: the job's cancel event fired at a pattern boundary."""

    def __init__(self, patterns_completed: int = 0):
        super().__init__("job cancelled")
        self.patterns_completed = patterns_completed


def _cancellable(
    patterns: Iterable[TestPattern],
    cancel_event: MpEvent,
    counter: list[int],
) -> Iterable[TestPattern]:
    """Wrap a pattern sequence with a cancel check before each yield.

    This is the cancellation path for backends without a ``progress``
    hook; backends that list() their patterns up front (serial,
    sharded) only hit the first check, so their cancellation
    granularity is the whole run.
    """
    for pattern in patterns:
        if cancel_event.is_set():
            raise _Cancelled(counter[0])
        yield pattern


def _execute_job(
    worker_id: int,
    job_id: str,
    spec: JobSpec,
    cache: CircuitCache,
    cancel_event: MpEvent,
    emit: Callable[[str, str, dict], None],
) -> None:
    """Run one job inside a worker process, emitting result events."""
    worker_start = time.perf_counter()
    fingerprint = spec.fingerprint
    network = cache.get(fingerprint)
    warm = network is not None

    options = dict(spec.options)
    if spec.backend in _LOCALITY_BACKENDS:
        options.setdefault("locality", "compiled")
    locality = options.get("locality")

    emit(
        "started",
        job_id,
        {
            "worker": worker_id,
            "fingerprint": fingerprint,
            "warm": warm,
            "cache_entries": len(cache),
        },
    )

    compile_seconds = 0.0
    if not warm:
        compile_start = time.perf_counter()
        network = load_netlist(spec.netlist)
        if locality == "compiled":
            # Compile eagerly so compile cost lands in compile_seconds,
            # not inside the first pattern's simulate time.  The sharded
            # backend ships this compiled artifact to its shards, so the
            # parent compile pays off there too.
            compile_network(network)
        compile_seconds = time.perf_counter() - compile_start
        cache.put(fingerprint, network)

    if spec.backend == "sharded":
        # Persistent shard executor: sharded jobs reuse one warm set of
        # shard processes instead of forking a pool per run.
        options["pool"] = shard_module.shared_executor()
    backend = get_backend(spec.backend, **options)

    patterns_completed = [0]

    def progress(
        record: PatternRecord, detections: list[Detection]
    ) -> None:
        patterns_completed[0] += 1
        emit(
            "pattern",
            job_id,
            {
                "record": record_to_wire(record),
                "detections": [detection_to_wire(d) for d in detections],
            },
        )
        if cancel_event.is_set():
            raise _Cancelled(patterns_completed[0])

    streamed = supports_progress(backend)
    run_kwargs: dict[str, Any] = {"progress": progress} if streamed else {}
    pattern_feed = _cancellable(spec.patterns, cancel_event,
                                patterns_completed)

    simulate_start = time.perf_counter()
    if cancel_event.is_set():
        raise _Cancelled(0)
    report = backend.run(
        network,
        list(spec.faults),
        list(spec.observed),
        pattern_feed,
        spec.policy,
        **run_kwargs,
    )
    simulate_seconds = time.perf_counter() - simulate_start

    if not streamed:
        # Backends without a progress hook (serial, sharded, any
        # third-party strategy) stream their per-pattern frames after
        # the run, so the client-visible protocol stays uniform.
        by_pattern: dict[int, list] = {}
        for detection in report.log.detections:
            by_pattern.setdefault(detection.pattern_index, []).append(
                detection
            )
        for record in report.patterns:
            emit(
                "pattern",
                job_id,
                {
                    "record": record_to_wire(record),
                    "detections": [
                        detection_to_wire(d)
                        for d in by_pattern.get(record.index, ())
                    ],
                },
            )

    emit(
        "done",
        job_id,
        {
            "report": report_to_wire(report),
            "warm": warm,
            "fingerprint": fingerprint,
            "timings": {
                "compile_seconds": compile_seconds,
                "simulate_seconds": simulate_seconds,
                "worker_seconds": time.perf_counter() - worker_start,
            },
        },
    )


def _worker_main(
    worker_id: int,
    task_queue: multiprocessing.queues.Queue[Any],
    result_queue: multiprocessing.queues.Queue[Any],
    cancel_event: MpEvent,
    cache_size: int,
) -> None:
    """Worker process entry point: serve jobs until the None sentinel."""
    # The parent coordinates shutdown through sentinels (and SIGTERM as
    # the hard fallback); a terminal Ctrl-C must not tear workers down
    # mid-protocol with KeyboardInterrupt tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    cache = CircuitCache(cache_size)

    def emit(kind: str, job_id: str, payload: dict) -> None:
        result_queue.put((kind, worker_id, job_id, payload))

    while True:
        task = task_queue.get()
        if task is None:
            break
        job_id, spec = task
        # The event was cleared at dispatch (WorkerPool.submit): a cancel
        # that arrived while the task sat in the queue stays set here.
        try:
            _execute_job(worker_id, job_id, spec, cache, cancel_event, emit)
        except _Cancelled as cancelled:
            emit(
                "cancelled",
                job_id,
                {"patterns_completed": cancelled.patterns_completed},
            )
        except Exception as exc:
            frame = ErrorFrame.from_exception(exc, job_id)
            emit("error", job_id, {"kind": frame.kind,
                                   "message": frame.message})


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: Any
    cancel_event: Any
    #: Job currently dispatched to the worker (None when idle).
    job_id: str | None = None
    #: Parent-side mirror of the worker's circuit-cache contents, used
    #: for fingerprint-affinity routing (least recently used first).
    cached: OrderedDict[str, None] = field(default_factory=OrderedDict)


class WorkerPool:
    """A fixed set of persistent warm-state fault-simulation workers.

    ``workers`` defaults to ``os.cpu_count()``.  ``cache_size`` is the
    per-worker circuit LRU capacity.  ``start_method`` selects the
    multiprocessing start method (None = platform default).

    The pool is deliberately queue-free on the parent side: it holds at
    most one outstanding job per worker and raises if asked for more,
    so callers (the asyncio server) own the queueing policy -- which is
    what makes cancelling a queued job race-free.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        start_method: str | None = None,
    ):
        count = workers if workers is not None else (os.cpu_count() or 1)
        if count < 1:
            raise SimulationError(f"workers must be >= 1, got {count}")
        self.cache_size = cache_size
        self._ctx = multiprocessing.get_context(start_method)
        self._results = self._ctx.Queue()
        self._closed = False
        self._handles: list[_WorkerHandle] = []
        for worker_id in range(count):
            task_queue = self._ctx.Queue()
            cancel_event = self._ctx.Event()
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, task_queue, self._results, cancel_event,
                      cache_size),
                name=f"faultsim-worker-{worker_id}",
            )
            process.start()
            self._handles.append(
                _WorkerHandle(worker_id, process, task_queue, cancel_event)
            )
        # Backstop: a parent that forgets shutdown() still reaps its
        # workers at interpreter exit instead of orphaning them.
        atexit.register(self.shutdown)

    # -- introspection -------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._handles)

    @property
    def processes(self) -> list[multiprocessing.Process]:
        return [handle.process for handle in self._handles]

    def idle_workers(self) -> list[int]:
        """Ids of workers with no outstanding job, affinity order not
        applied (see :meth:`pick_worker`)."""
        return [
            handle.worker_id
            for handle in self._handles
            if handle.job_id is None and handle.process.is_alive()
        ]

    def has_idle(self) -> bool:
        return bool(self.idle_workers())

    def running_job(self, worker_id: int) -> str | None:
        return self._handles[worker_id].job_id

    # -- dispatch ------------------------------------------------------

    def pick_worker(self, fingerprint: str) -> int | None:
        """An idle worker id, preferring one whose cache mirror already
        holds ``fingerprint`` (warm dispatch); None if all are busy."""
        idle = self.idle_workers()
        if not idle:
            return None
        for worker_id in idle:
            if fingerprint in self._handles[worker_id].cached:
                return worker_id
        return idle[0]

    def submit(
        self, job_id: str, spec: JobSpec, worker_id: int | None = None
    ) -> int:
        """Dispatch one job to an idle worker; returns the worker id."""
        if self._closed:
            raise SimulationError("worker pool is shut down")
        if worker_id is None:
            worker_id = self.pick_worker(spec.fingerprint)
            if worker_id is None:
                raise SimulationError("no idle worker available")
        handle = self._handles[worker_id]
        if handle.job_id is not None:
            raise SimulationError(
                f"worker {worker_id} is busy with job {handle.job_id}"
            )
        handle.job_id = job_id
        # Mirror the worker's LRU so affinity routing tracks evictions.
        handle.cached[spec.fingerprint] = None
        handle.cached.move_to_end(spec.fingerprint)
        while len(handle.cached) > self.cache_size:
            handle.cached.popitem(last=False)
        # A cancel aimed at the worker's previous job can leave the event
        # set; clear it here, before the task is queued, and not in the
        # worker -- clearing there would also drop a cancel for *this*
        # job issued before the worker picked it up.
        handle.cancel_event.clear()
        handle.task_queue.put((job_id, spec))
        return worker_id

    def cancel(self, job_id: str) -> bool:
        """Signal the worker running ``job_id`` to stop at the next
        pattern boundary; False if no worker is running it."""
        for handle in self._handles:
            if handle.job_id == job_id:
                handle.cancel_event.set()
                return True
        return False

    # -- events --------------------------------------------------------

    def next_event(
        self, timeout: float | None = None
    ) -> tuple[str, int, str, Any] | None:
        """The next worker event ``(kind, worker_id, job_id, payload)``,
        or None on timeout.  Call :meth:`note_event` on every event so
        busy/idle bookkeeping stays truthful."""
        try:
            return self._results.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def note_event(self, event: tuple[str, int, str, Any]) -> None:
        """Record an event's effect on worker state (terminal events
        free the worker for the next dispatch)."""
        kind, worker_id, _job_id, _payload = event
        if kind in _TERMINAL_KINDS:
            self._handles[worker_id].job_id = None

    def reap(self) -> list[tuple]:
        """Synthesize terminal events for workers that died mid-job.

        A worker that crashes (OOM kill, segfault in a C extension)
        never emits its terminal event; without this the job -- and the
        clients streaming it -- would hang forever.
        """
        events = []
        for handle in self._handles:
            if handle.job_id is not None and not handle.process.is_alive():
                events.append(
                    (
                        "error",
                        handle.worker_id,
                        handle.job_id,
                        {
                            "kind": "internal",
                            "message": (
                                f"worker {handle.worker_id} died "
                                f"(exitcode {handle.process.exitcode})"
                            ),
                        },
                    )
                )
                handle.job_id = None
        return events

    # -- shutdown ------------------------------------------------------

    def shutdown(
        self, cancel_running: bool = True, timeout: float = 10.0
    ) -> list[int | None]:
        """Stop every worker and join it; returns their exit codes.

        With ``cancel_running`` (the default) in-flight jobs are asked
        to stop at their next pattern boundary first, so the sentinel
        is consumed promptly.  Workers that outlive ``timeout`` are
        terminated, then killed -- no orphans either way.
        """
        if self._closed:
            return [handle.process.exitcode for handle in self._handles]
        self._closed = True
        if cancel_running:
            for handle in self._handles:
                if handle.job_id is not None:
                    handle.cancel_event.set()
        for handle in self._handles:
            try:
                handle.task_queue.put(None)
            except (ValueError, OSError):  # queue already closed
                pass
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(2.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
            handle.task_queue.close()
        return [handle.process.exitcode for handle in self._handles]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
