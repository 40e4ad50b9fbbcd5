"""Spans around the calls into each layer, recorded from outside ``src/``.

:func:`install` replaces module bindings of the program's per-run entry
points with wrappers that record a span (name, start, end, parent,
thread) in a :class:`Tracer`.  Only per-run entry points are wrapped,
never per-round kernels, so the wrappers fire about ten times per
grading run.  ``compile_network`` is therefore wrapped at its callers'
bindings, not at ``repro.switchlevel.kernel``, which calls it on every
compiled-locality round.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import repro.analysis.static
import repro.core.backends
import repro.core.batch
import repro.core.concurrent
import repro.core.shard
import repro.netlist.sim_format
import repro.netlist.validate
import repro.switchlevel.compiled
from repro.core.batch import BatchFaultSimulator
from repro.core.concurrent import ConcurrentFaultSimulator
from repro.core.inject import needs_rewrite


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: Pickled bytes each sharded block's task shipped.
        self.task_bytes: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end,
                     threading.get_ident(), attrs)
            )

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper;
        ``attrs(args, kwargs)`` adds span attributes."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            with self.span(name, **extra):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_seconds(self) -> dict:
        """Per span name: duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.seconds
                )
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - child_time.get(span.span_id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def tree(self) -> list[dict]:
        return [asdict(span) for span in sorted(
            self.spans, key=lambda s: (s.start, s.span_id)
        )]


class _MeasuringPool(ProcessPoolExecutor):
    """The sharded backend's per-run pool, recording a ``shard.pool``
    span over its ``with`` block (worker start-up, the blocks, the wait
    for the slowest one, shut-down) and how many bytes each block's task
    ships: the network, the compiled artifact and the good-circuit
    trace, when present."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self._span = tracer.span("shard.pool")

    def __enter__(self):
        self._span.__enter__()
        return super().__enter__()

    def __exit__(self, *exc_info):
        try:
            return super().__exit__(*exc_info)
        finally:
            self._span.__exit__(None, None, None)

    def map(self, fn, *iterables, **kwargs):
        tasks = list(iterables[0])
        if tasks:
            # Every block ships the same objects; pickle them once.
            first = tasks[0]
            size = len(pickle.dumps(
                (first.net, first.compiled, first.good_trace)
            ))
            self._tracer.task_bytes.extend(size for _ in tasks)
        return super().map(fn, tasks, *iterables[1:], **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every layer's per-run entry points (see the module doc)."""

    def prepare_attrs(args, kwargs):
        return {"rewritten": needs_rewrite(list(args[1]))}

    tracer.wrap(repro.netlist.sim_format, "loads", "netlist.parse")
    tracer.wrap(repro.netlist.validate, "validate", "netlist.lint")
    tracer.wrap(repro.analysis.static, "classify_faults", "analysis.classify")
    tracer.wrap(repro.core.backends, "collapse_faults", "faults.collapse")
    for module in (
        repro.switchlevel.compiled,  # validate imports it lazily
        repro.analysis.static,
        repro.core.concurrent,
        repro.core.batch,
        repro.core.shard,
    ):
        tracer.wrap(module, "compile_network", "compiled.compile")
    tracer.wrap(repro.core.shard, "record_good_trace", "goodtrace.record")
    for module in (repro.core.concurrent, repro.core.batch):
        tracer.wrap(module, "prepare", "inject.prepare", prepare_attrs)
    tracer.wrap(ConcurrentFaultSimulator, "run", "concurrent.run")
    tracer.wrap(BatchFaultSimulator, "run", "batch.run")
    tracer.wrap(repro.core.shard, "merge_shard_reports", "shard.merge")
    tracer.patch(
        repro.core.shard,
        "ProcessPoolExecutor",
        functools.partial(_MeasuringPool, tracer=tracer),
    )
