"""Fault simulation as a service.

The paper's whole argument is the throughput of a *long-lived*
concurrent fault simulator, yet a CLI run pays full netlist-parse +
compile + solve-cache-warmup cost every time and throws the warm state
away with the process.  This package keeps it alive:

:mod:`~repro.service.protocol`
    A versioned, length-prefixed JSON message protocol (submit /
    status / cancel / result-stream frames) with typed request and
    response dataclasses, plus the wire codecs for faults, patterns,
    policies and run reports.
:mod:`~repro.service.workers`
    A persistent multiprocess worker pool.  Workers are long-lived and
    hold parsed networks -- and therefore their
    :class:`~repro.switchlevel.compiled.CompiledNetwork` and solve
    caches -- in an LRU keyed by a circuit fingerprint (the netlist
    content hash), so a second job on the same circuit skips the
    compile and starts with a hot cache.
:mod:`~repro.service.server`
    An asyncio TCP front end over the :mod:`~repro.core.backends`
    registry: accepts netlist + patterns + policy jobs, queues them,
    supports cancellation, streams per-pattern detection results as
    they land, and shuts down gracefully on SIGTERM/SIGINT.
:mod:`~repro.service.client`
    A small synchronous client used by the ``fmossim serve`` /
    ``fmossim submit`` CLI subcommands and by the tests.

Everything is stdlib-only (asyncio + multiprocessing + json), like
the rest of the package.
"""

from __future__ import annotations

from .client import ServiceClient, ServiceResult
from .protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    JobSpec,
    ProtocolError,
    circuit_fingerprint,
)
from .server import FaultSimServer
from .workers import WorkerPool

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "FaultSimServer",
    "JobSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceResult",
    "WorkerPool",
    "circuit_fingerprint",
]
