"""W3: a closed-loop job mix against a fresh 2-worker fault-sim server.

One client submits one job at a time and waits for its result (a closed
loop: a slower service receives less load).  One client keeps the load
within one core: with two clients on a 2-vCPU machine, both workers and
the client side competed for its cores, and the job latencies measured
the machine's other load more than the service.  Jobs are built the way
``fmossim submit`` builds them: netlist text, parsed client-side, fault
universe from the parsed network, ``JobSpec`` carrying the raw text.
The mix, by global job index ``i``:

* ``i % 8`` in (1, 5): 6 faults from the paper universe on
  ``concurrent``; every other job: 16 transistor stuck-open/closed
  faults on ``batch``.  Each job is seeded from ``(seed, i)``.  The
  service forces the ``compiled`` locality.
* ``i % 8`` in (3, 6): the job targets a 4x8 or an 8x4 RAM whose text
  carries a job comment, so its fingerprint is new and the worker's
  circuit cache misses (parse + compile); every other job targets the
  one RAM16 text and is warm after its worker's first job.

So a quarter of the jobs are warm concurrent jobs, the cheapest; half
are warm batch jobs; a quarter are cold, the dearest.  The medians then
fall in the middle of the warm batch jobs, whose cost varies least,
instead of on the edge between two kinds of job.

After the loop, one probe job built with ``job_from_network`` records the
known defect (explicit transistor names are lost in the dumped text, so
the worker cannot resolve the faults); it is reported as
``service.defect_probe_failed`` and not counted as an op.  Every loop
job is then re-simulated locally on the other strategy (batch for
concurrent jobs and vice versa, default ``dynamic`` locality) in two
child interpreters, and its first detections must match.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from inputs import (
    first_detections,
    paper_universe,
    ram_source,
    stratified_sample,
    transistor_universe,
)
from repro.core.backends import SimPolicy, run_backend
from repro.core.faults import transistor_stuck_universe
from repro.errors import NetworkError
from repro.netlist import sim_format
from repro.patterns.sequences import sequence1
from repro.service.client import ServiceClient, job_from_network
from repro.service.protocol import (
    DoneFrame,
    JobSpec,
    PatternFrame,
    StartedFrame,
    SubmitRequest,
    encode_frame,
)
from repro.service.server import FaultSimServer

WORKERS = 2
CLIENTS = 1
#: Faults per job, by backend.
JOB_FAULTS = {"concurrent": 6, "batch": 16}
#: Server starts per run; ``setup_s`` is their median and the last one
#: serves the loop.  One start takes about 10 ms, but a noisy one: the
#: pool's processes are spawned within it.
SETUP_REPEATS = 15
RAM16 = (4, 4)
COLD_GEOMETRIES = {3: (4, 8), 6: (8, 4)}
#: Job slots (``i % 8``) on ``concurrent``; the rest run ``batch``.
CONCURRENT_SLOTS = (1, 5)
#: Bound on a reference-check child; a whole run must end within 180 s.
REFERENCE_TIMEOUT = 120
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class JobRecord:
    index: int
    backend: str
    geometry: tuple[int, int]
    text: str
    request_bytes: int
    faults: list = field(repr=False, default_factory=list)
    submitted: float = 0.0
    first_frame: float = 0.0
    done: float = 0.0
    timings: dict = field(default_factory=dict)
    warm: bool = False
    solve_cache: dict = field(default_factory=dict)
    detections: list = field(repr=False, default_factory=list)
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.submitted


def build_job(seed: int, index: int) -> tuple[JobSpec, JobRecord]:
    geometry = COLD_GEOMETRIES.get(index % 8, RAM16)
    source = ram_source(*geometry)
    text = source.text
    if geometry != RAM16:
        text = f"; job {seed}-{index}\n" + text
    net = sim_format.loads(text)
    if index % 8 in CONCURRENT_SLOTS:
        backend, universe = "concurrent", paper_universe(net, source)
    else:
        backend, universe = "batch", transistor_universe(net, source)
    faults = stratified_sample(universe, JOB_FAULTS[backend],
                               seed * 100_003 + index)
    spec = JobSpec(
        netlist=text,
        observed=source.observed,
        faults=tuple(faults),
        patterns=sequence1(source.ram).patterns,
        policy=SimPolicy(),
        backend=backend,
    )
    request = SubmitRequest(job=spec, stream=True).to_wire()
    record = JobRecord(index, backend, geometry, text,
                       len(encode_frame(request)), faults)
    return spec, record


class Harness:
    """A FaultSimServer on a background thread's event loop."""

    def __init__(self) -> None:
        self.server = FaultSimServer(port=0, workers=WORKERS)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._ready.wait(timeout=60) or self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def main():
            try:
                await self.server.start()
            except BaseException as error:
                self._error = error
                raise
            finally:
                self._ready.set()
            await self.server._stopped.wait()

        self.loop.run_until_complete(main())

    def client(self) -> ServiceClient:
        host, port = self.server.address
        return ServiceClient(host=host, port=port)

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        )
        future.result(timeout=60)
        self.thread.join(timeout=30)
        self.loop.close()


def start_server() -> tuple[Harness, float]:
    """Start a server; returns it and the seconds until it answered
    ``ping`` with its full worker pool."""
    start = time.perf_counter()
    harness = Harness()
    pong = harness.client().ping()
    elapsed = time.perf_counter() - start
    if pong.workers != WORKERS:
        harness.stop()
        raise RuntimeError(f"pool reports {pong.workers} workers")
    return harness, elapsed


def closed_loop(harness: Harness, seed: int, seconds: float, tracer=None):
    """Run the client threads for ``seconds``; returns (records, wall).
    With a ``tracer``, each job's submit-to-done window is a ``job``
    span carrying the server's ``total_seconds`` for it as
    ``server_s``."""
    lock = threading.Lock()
    next_index = [0]
    records: list[JobRecord] = []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds

    def submit(client: ServiceClient, spec: JobSpec, record: JobRecord):
        record.submitted = time.perf_counter()
        try:
            for frame in client.submit(spec):
                if isinstance(frame, StartedFrame):
                    record.warm = frame.warm
                elif isinstance(frame, PatternFrame):
                    record.first_frame = (
                        record.first_frame or time.perf_counter()
                    )
                elif isinstance(frame, DoneFrame):
                    record.done = time.perf_counter()
                    record.timings = dict(frame.timings)
                    record.solve_cache = dict(frame.report.solve_cache or {})
                    record.detections = first_detections(
                        frame.report, len(record.faults)
                    )
        except Exception as error:  # a failed job is a failed op
            record.error = f"{type(error).__name__}: {error}"
        if not record.done and record.error is None:
            record.error = "stream ended without a done frame"

    def client_main() -> None:
        client = harness.client()
        while time.perf_counter() < deadline:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            spec, record = build_job(seed, index)
            with tracer.span("job") if tracer else nullcontext({}) as attrs:
                submit(client, spec, record)
                attrs["server_s"] = record.timings.get("total_seconds", 0.0)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_main) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client thread did not finish")
    records.sort(key=lambda r: r.index)
    wall = max((r.done or r.submitted) for r in records) - loop_start
    return records, wall


def defect_probe(harness: Harness) -> int:
    """Submit a transistor-stuck job built with ``job_from_network``;
    returns 1 when the worker fails to resolve its transistor names."""
    ram = ram_source(*RAM16).ram
    named = [
        f for f in transistor_stuck_universe(ram.net)
        if "." in f.transistor
    ][:4]
    job = job_from_network(ram.net, [ram.dout], named,
                           list(sequence1(ram).patterns), backend="batch")
    try:
        harness.client().run(job)
    except NetworkError:
        return 1
    return 0


def _reference(args) -> list:
    """First detections of one job on the other strategy, run locally
    at library defaults."""
    text, geometry, backend, faults = args
    net = sim_format.loads(text)
    source = ram_source(*geometry)
    other = "batch" if backend == "concurrent" else "concurrent"
    report = run_backend(other, net, faults, list(source.observed),
                         list(sequence1(source.ram).patterns))
    return first_detections(report, len(faults))


def check_references(records: list[JobRecord]) -> int:
    """Mismatching (or failed) jobs after local re-simulation.

    The jobs are split over ``WORKERS`` child interpreters, each running
    this module with pickled jobs on its standard input (plain
    subprocesses: no process outlives the check).
    """
    done = [r for r in records if r.error is None]
    jobs = [(r.text, r.geometry, r.backend, r.faults) for r in done]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    children = []

    def communicate(child, share) -> list:
        out, _ = child.communicate(pickle.dumps(share),
                                   timeout=REFERENCE_TIMEOUT)
        if child.returncode != 0:
            raise RuntimeError(f"reference check exited {child.returncode}")
        return pickle.loads(out)

    try:
        for part in range(WORKERS):
            child = subprocess.Popen(
                [sys.executable, __file__], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            children.append((child, jobs[part::WORKERS]))
        expected: list = [None] * len(jobs)
        with ThreadPoolExecutor(WORKERS) as threads:
            shares = threads.map(lambda pair: communicate(*pair), children)
            for part, share in enumerate(shares):
                expected[part::WORKERS] = share
    finally:
        for child, _ in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    mismatched = sum(
        1 for r, want in zip(done, expected) if r.detections != want
    )
    return mismatched + len(records) - len(done)


if __name__ == "__main__":
    jobs = pickle.loads(sys.stdin.buffer.read())
    sys.stdout.buffer.write(pickle.dumps([_reference(job) for job in jobs]))
