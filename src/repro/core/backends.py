"""The fault-simulation backend registry.

The paper is a *performance comparison between fault-simulation
strategies* on one switch-level model; this module makes the strategy a
first-class, pluggable axis.  Every backend implements the same
contract::

    backend.run(net, faults, observed, patterns, policy) -> RunReport

where ``policy`` is a :class:`SimPolicy` (detection rule, fault
dropping, round budget, clock source) and the returned
:class:`~repro.core.report.RunReport` carries the per-pattern
measurements every consumer layer understands -- the experiment
harness, the CLI, the benchmark suite and the archived result rows all
select a backend by name and stay agnostic of its mechanics.

Registered backends:

``serial``
    One circuit at a time, from scratch
    (:class:`~repro.core.serial.SerialFaultSimulator`) -- the paper's
    baseline and the correctness reference.
``concurrent``
    The paper's algorithm: one good circuit plus divergence records
    (:class:`~repro.core.concurrent.ConcurrentFaultSimulator`).
``batch``
    Bit-parallel lockstep simulation of every circuit in one bit-plane
    (:class:`~repro.core.batch.BatchFaultSimulator`).
``sharded``
    Fault-partitioned multiprocess simulation: the fault list is split
    into contiguous shards, each simulated by an inner backend in its
    own worker process (:class:`~repro.core.shard.ShardedBackend`).

The single-process strategies run on the shared settle kernel
(:mod:`repro.switchlevel.kernel`) and are held to byte-identical
detections and final states by the cross-backend parity suite
(``tests/core/test_backends.py``).

Third-party strategies register with the :func:`register_backend`
decorator::

    @register_backend
    class MyBackend(FaultSimBackend):
        name = "mine"
        def run(self, net, faults, observed, patterns, policy=SimPolicy()):
            ...
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Iterable, Sequence, Type

from ..errors import SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import cache_stats
from ..switchlevel.kernel import DEFAULT_MAX_ROUNDS, LOCALITIES
from ..switchlevel.network import Network
from .batch import BatchFaultSimulator
from .concurrent import ConcurrentFaultSimulator
from .detection import POLICIES, POLICY_HARD, Detection, DetectionLog
from .faults import Fault, collapse_faults
from .goodtrace import GoodTrace
from .report import PatternRecord, RunReport
from .serial import SerialFaultSimulator, serial_run_report

#: Per-pattern streaming callback: called with the pattern record
#: and the detections that pattern produced.
ProgressCallback = Callable[[PatternRecord, list[Detection]], None]

__all__ = [
    "CollapsePlan",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_POLICY",
    "FaultSimBackend",
    "SimPolicy",
    "available_backends",
    "backend_options_summary",
    "get_backend",
    "register_backend",
    "run_backend",
    "supports_progress",
]


@dataclass(frozen=True)
class SimPolicy:
    """Strategy-independent knobs of a fault-simulation run."""

    detection_policy: str = POLICY_HARD
    drop_on_detect: bool = True
    max_rounds: int = DEFAULT_MAX_ROUNDS
    #: ``process`` (CPU seconds, as the paper measured) or ``perf``
    #: (wall clock).
    clock: str = "process"

    def __post_init__(self) -> None:
        if self.detection_policy not in POLICIES:
            raise SimulationError(
                f"unknown detection policy {self.detection_policy!r}"
            )
        if self.clock not in ("process", "perf"):
            raise SimulationError(f"unknown clock {self.clock!r}")


#: The default policy instance (hard detections, dropping on).
DEFAULT_POLICY = SimPolicy()


class FaultSimBackend(ABC):
    """One fault-simulation strategy behind the common contract.

    Backends whose strategy walks the pattern sequence in order may
    additionally accept a keyword-only ``progress`` callback on
    :meth:`run` (called per pattern with ``(record, detections)``); the
    service layer probes for it with :func:`supports_progress` and
    streams results mid-run where available.
    """

    #: Registry key; subclasses must set it.
    name: ClassVar[str] = ""

    @abstractmethod
    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
    ) -> RunReport:
        """Fault-simulate ``patterns`` and report the measurements."""


_REGISTRY: dict[str, Type[FaultSimBackend]] = {}


def register_backend(cls: Type[FaultSimBackend]) -> Type[FaultSimBackend]:
    """Class decorator adding a backend to the registry (by its name)."""
    if not cls.name:
        raise SimulationError(f"backend {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise SimulationError(f"backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_options_summary(name: str) -> str:
    """Human-readable constructor options of a registered backend."""
    cls = _REGISTRY[name]
    if cls.__init__ is object.__init__:
        return "accepts no options"
    parts = []
    for pname, param in list(
        inspect.signature(cls.__init__).parameters.items()
    )[1:]:
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            parts.append(f"**{pname}")
        elif param.default is inspect.Parameter.empty:
            parts.append(pname)
        else:
            parts.append(f"{pname}={param.default!r}")
    if not parts:
        return "accepts no options"
    return "accepts: " + ", ".join(parts)


def get_backend(name: str, **options: Any) -> FaultSimBackend:
    """Instantiate the backend registered as ``name``.

    ``options`` are forwarded to the backend constructor (e.g.
    ``locality`` for the single-process strategies, ``jobs``/
    ``inner_backend`` for ``sharded``).  Unknown or invalid options
    raise :class:`~repro.errors.SimulationError` naming the backend and
    the options it accepts, instead of leaking the constructor's raw
    ``TypeError`` to callers such as the CLI.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r}; available: "
            + ", ".join(available_backends())
        ) from None
    try:
        return cls(**options)
    except SimulationError:
        raise
    except TypeError:
        given = ", ".join(sorted(options)) or "none"
        raise SimulationError(
            f"invalid options for backend {name!r} (given: {given}); "
            f"backend {name!r} {backend_options_summary(name)}"
        ) from None


def supports_progress(backend: FaultSimBackend) -> bool:
    """True if the backend's :meth:`~FaultSimBackend.run` accepts a
    per-pattern ``progress`` callback (mid-run result streaming)."""
    return "progress" in inspect.signature(backend.run).parameters


def run_backend(
    name: str,
    net: Network,
    faults: Sequence[Fault],
    observed: Sequence[str],
    patterns: Iterable[TestPattern],
    policy: SimPolicy = DEFAULT_POLICY,
    **options: Any,
) -> RunReport:
    """One-shot convenience: resolve ``name``, run, return the report."""
    return get_backend(name, **options).run(
        net, faults, observed, patterns, policy
    )


class CollapsePlan:
    """Shrink a fault universe before a run, expand the report after.

    Built by every backend at the top of :meth:`~FaultSimBackend.run`.
    Two stages, each independently optional:

    1. **Static pruning** (``static_prune``): the testability analysis
       of :mod:`repro.analysis.static` proves part of the universe
       unexcitable or unobservable; those faults are never simulated
       (they stay in the reported universe as permanently-undetected
       members, so the answer is bit-identical to a full run).
    2. **Collapsing** (``enabled``): the surviving faults are grouped
       into structural equivalence classes and one representative per
       class is simulated.

    ``run_faults`` is what the inner simulator should simulate;
    :meth:`finish` rewrites the resulting report back over the full
    universe -- detections are cloned to every class member and mapped
    to their original circuit ids, the per-pattern detection/live
    counts are recomputed, and the ``collapse`` / ``static_pruned``
    stats blocks are attached.  When neither stage removes anything the
    plan is inert and :meth:`finish` returns the report untouched.
    """

    def __init__(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        enabled: bool,
        static_prune: bool = False,
    ):
        fault_list = list(faults)
        self.faults: tuple[Fault, ...] = tuple(fault_list)
        self.n_universe = len(fault_list)
        self.static = None
        #: kept-space circuit id (1-based) -> original circuit id, when
        #: static pruning removed anything; ``None`` when inert.
        self._origin: tuple[int, ...] | None = None
        kept = fault_list
        if static_prune and fault_list:
            # Deferred import: repro.analysis pulls in the harness,
            # which imports this module back at startup.
            from ..analysis.static import classify_faults

            classification = classify_faults(net, fault_list, observed)
            if classification.pruned:
                self.static = classification
                self._origin = classification.kept
                kept = [fault_list[gid - 1] for gid in classification.kept]
        self.collapsed = None
        self._members: dict[int, tuple[int, ...]] | None = None
        self.run_faults: Sequence[Fault] = kept
        if enabled and kept:
            collapsed = collapse_faults(net, kept, observed)
            if collapsed.collapsed:
                self.collapsed = collapsed
                self.run_faults = list(collapsed.representatives)
                #: representative circuit id (1-based position in
                #: ``run_faults``) -> kept-space member circuit ids.
                self._members = {
                    rep + 1: members
                    for rep, members in enumerate(collapsed.classes)
                }

    @property
    def active(self) -> bool:
        return self.collapsed is not None or self.static is not None

    def _to_universe(self, kept_id: int) -> int:
        """Map a kept-space circuit id back to the original universe."""
        if self._origin is None:
            return kept_id
        return self._origin[kept_id - 1]

    def _expand(self, detections: Iterable[Detection]) -> list[Detection]:
        """Clone representative detections to every class member and
        restore original circuit ids."""
        expanded = []
        for detection in detections:
            members = (
                self._members[detection.circuit_id]
                if self._members is not None
                else (detection.circuit_id,)
            )
            for member in members:
                gid = self._to_universe(member)
                expanded.append(
                    replace(
                        detection,
                        circuit_id=gid,
                        description=self.faults[gid - 1].describe(),
                    )
                )
        expanded.sort(
            key=lambda d: (d.pattern_index, d.phase_index, d.circuit_id)
        )
        return expanded

    def wrap_progress(
        self, progress: ProgressCallback | None, drop_on_detect: bool
    ) -> ProgressCallback | None:
        """Per-pattern ``progress`` callback that streams *expanded*
        detections and full-universe live counts."""
        if progress is None or not self.active:
            return progress
        n_faults = self.n_universe
        detected: set[int] = set()

        def wrapped(
            record: PatternRecord, detections: list[Detection]
        ) -> None:
            expanded = self._expand(detections)
            before = len(detected)
            for detection in expanded:
                detected.add(detection.circuit_id)
            progress(
                PatternRecord(
                    index=record.index,
                    label=record.label,
                    seconds=record.seconds,
                    detections=len(detected) - before,
                    live_after=(
                        n_faults - len(detected)
                        if drop_on_detect
                        else n_faults
                    ),
                ),
                tuple(expanded),
            )

        return wrapped

    def finish(self, report: RunReport, drop_on_detect: bool) -> RunReport:
        """Rewrite a representative-universe report over the full one."""
        if not self.active:
            return report
        log = DetectionLog()
        for detection in self._expand(report.log.detections):
            log.record(detection)
        report.log = log
        report.n_faults = self.n_universe
        cumulative = log.cumulative_by_pattern(len(report.patterns))
        previous = 0
        for record, total in zip(report.patterns, cumulative):
            record.detections = total - previous
            previous = total
            record.live_after = (
                report.n_faults - total if drop_on_detect else report.n_faults
            )
        if self.collapsed is not None:
            stats = self.collapsed.stats()
            if self._origin is not None:
                # The collapse ran over the kept subset; translate its
                # expansion map back to original circuit ids.
                stats["expansion"] = {
                    key: [self._to_universe(m) for m in members]
                    for key, members in stats["expansion"].items()
                }
            report.collapse = stats
        if self.static is not None:
            report.static_pruned = self.static.stats()
        return report


# ---------------------------------------------------------------------------
# the three built-in strategies
# ---------------------------------------------------------------------------


def _validate_locality(locality: str) -> str:
    """Reject unknown locality modes at backend-configuration time."""
    if locality not in LOCALITIES:
        raise SimulationError(
            f"unknown locality mode {locality!r}; expected one of "
            + ", ".join(LOCALITIES)
        )
    return locality


def _cache_delta(net: Network, before: dict | None) -> dict | None:
    """Per-run solve-cache counters: current stats minus ``before``."""
    after = cache_stats(net)
    if after is None:
        return None
    hits = after["hits"] - (before["hits"] if before else 0)
    misses = after["misses"] - (before["misses"] if before else 0)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
        "entries": after["entries"],
        "components": after["components"],
    }


@register_backend
class SerialBackend(FaultSimBackend):
    """Every faulty circuit simulated individually (the baseline)."""

    name = "serial"

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        trim: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        self.locality = _validate_locality(locality)
        self.collapse = collapse
        self.trim = trim
        self.static_prune = static_prune
        self.good_trace = good_trace

    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
    ) -> RunReport:
        pattern_list = list(patterns)
        plan = CollapsePlan(
            net, faults, observed, self.collapse,
            static_prune=self.static_prune,
        )
        simulator = SerialFaultSimulator(
            net,
            plan.run_faults,
            observed,
            detection_policy=policy.detection_policy,
            drop_on_detect=policy.drop_on_detect,
            max_rounds=policy.max_rounds,
            locality=self.locality,
            trim=self.trim,
            good_trace=self.good_trace,
        )
        before = cache_stats(simulator.network)
        serial_report = simulator.run(pattern_list, clock=policy.clock)
        report = serial_run_report(
            serial_report,
            pattern_list,
            drop_on_detect=policy.drop_on_detect,
        )
        report.oscillation_events = simulator.oscillation_events
        report.good_settles = simulator.good_settles
        if self.locality == "compiled":
            report.solve_cache = _cache_delta(simulator.network, before)
        return plan.finish(report, policy.drop_on_detect)


@register_backend
class ConcurrentBackend(FaultSimBackend):
    """The paper's algorithm: good circuit + divergence records."""

    name = "concurrent"

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        trim: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        self.locality = _validate_locality(locality)
        self.collapse = collapse
        self.trim = trim
        self.static_prune = static_prune
        self.good_trace = good_trace

    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
        *,
        progress: ProgressCallback | None = None,
    ) -> RunReport:
        plan = CollapsePlan(
            net, faults, observed, self.collapse,
            static_prune=self.static_prune,
        )
        simulator = ConcurrentFaultSimulator(
            net,
            plan.run_faults,
            observed,
            detection_policy=policy.detection_policy,
            drop_on_detect=policy.drop_on_detect,
            max_rounds=policy.max_rounds,
            locality=self.locality,
            trim=self.trim,
            good_trace=self.good_trace,
        )
        before = cache_stats(simulator.network)
        report = simulator.run(
            patterns,
            clock=policy.clock,
            progress=plan.wrap_progress(progress, policy.drop_on_detect),
        )
        if self.locality == "compiled":
            report.solve_cache = _cache_delta(simulator.network, before)
        return plan.finish(report, policy.drop_on_detect)


@register_backend
class BatchBackend(FaultSimBackend):
    """Bit-parallel lockstep simulation, every circuit in one pass."""

    name = "batch"

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        self.locality = _validate_locality(locality)
        self.collapse = collapse
        self.static_prune = static_prune
        self.good_trace = good_trace

    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
        *,
        progress: ProgressCallback | None = None,
    ) -> RunReport:
        plan = CollapsePlan(
            net, faults, observed, self.collapse,
            static_prune=self.static_prune,
        )
        simulator = BatchFaultSimulator(
            net,
            plan.run_faults,
            observed,
            detection_policy=policy.detection_policy,
            drop_on_detect=policy.drop_on_detect,
            max_rounds=policy.max_rounds,
            locality=self.locality,
            good_trace=self.good_trace,
        )
        before = cache_stats(simulator.network)
        lanes = simulator.lanes
        hits_before, misses_before = lanes.cache_hits, lanes.cache_misses
        report = simulator.run(
            patterns,
            clock=policy.clock,
            progress=plan.wrap_progress(progress, policy.drop_on_detect),
        )
        if self.locality == "compiled":
            # One pool: the scalar good engine's network-level cache
            # plus the plane's lane cache.
            scalar = _cache_delta(simulator.network, before) or {}
            hits = scalar.get("hits", 0) + lanes.cache_hits - hits_before
            misses = (
                scalar.get("misses", 0) + lanes.cache_misses - misses_before
            )
            lookups = hits + misses
            report.solve_cache = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
            }
        return plan.finish(report, policy.drop_on_detect)


# Imported last: shard.py needs the registry above at import time, and
# importing it registers the "sharded" backend.
from . import shard  # noqa: E402,F401
