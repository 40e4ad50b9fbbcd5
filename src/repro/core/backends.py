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

The single-process strategies are one adapter over their simulator
classes (which share :mod:`repro.core.strategy`), run on the shared
settle kernel (:mod:`repro.switchlevel.kernel`) and are held to
byte-identical detections and final states by the cross-backend parity
suite (``tests/core/test_backends.py``).

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
from ..switchlevel.kernel import DEFAULT_MAX_ROUNDS
from ..switchlevel.network import Network
from .batch import BatchFaultSimulator
from .concurrent import ConcurrentFaultSimulator
from .detection import POLICY_HARD, Detection, DetectionLog
from .faults import Fault, collapse_faults
from .goodtrace import GoodTrace
from .report import PatternRecord, RunReport, solve_cache_stats
from .serial import SerialFaultSimulator
from .strategy import ProgressCallback, check_settings

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
        check_settings(detection_policy=self.detection_policy)
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
        self.collapsed = None
        #: Universe circuit id of each fault left after static pruning.
        kept_ids: Sequence[int] = range(1, len(fault_list) + 1)
        if static_prune and fault_list:
            # Deferred import: repro.analysis pulls in the harness,
            # which imports this module back at startup.
            from ..analysis.static import classify_faults

            classification = classify_faults(net, fault_list, observed)
            if classification.pruned:
                self.static = classification
                kept_ids = classification.kept
        self.run_faults: Sequence[Fault] = [
            fault_list[gid - 1] for gid in kept_ids
        ]
        #: Representative circuit id (1-based position in
        #: ``run_faults``) -> the universe circuit ids it stands for;
        #: key 0, when present, holds the faults equivalent to the good
        #: circuit (never simulated, never detected).
        self.members: dict[int, tuple[int, ...]] = {
            rep: (gid,) for rep, gid in enumerate(kept_ids, 1)
        }
        if enabled and self.run_faults:
            collapsed = collapse_faults(net, self.run_faults, observed)
            if collapsed.collapsed:
                self.collapsed = collapsed
                self.run_faults = list(collapsed.representatives)
                classes = dict(enumerate(collapsed.classes, 1))
                if collapsed.null_members:
                    classes[0] = collapsed.null_members
                self.members = {
                    rep: tuple(kept_ids[m - 1] for m in positions)
                    for rep, positions in classes.items()
                }

    @property
    def active(self) -> bool:
        return self.collapsed is not None or self.static is not None

    def _expand(self, detections: Iterable[Detection]) -> list[Detection]:
        """Clone representative detections to every class member, under
        the members' universe circuit ids."""
        expanded = [
            replace(
                detection,
                circuit_id=gid,
                description=self.faults[gid - 1].describe(),
            )
            for detection in detections
            for gid in self.members[detection.circuit_id]
        ]
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
        report.recount(drop_on_detect)
        if self.collapsed is not None:
            report.collapse = {
                **self.collapsed.stats(),
                "expansion": {
                    str(rep): list(gids)
                    for rep, gids in self.members.items()
                    if rep == 0 or len(gids) > 1
                },
            }
        if self.static is not None:
            report.static_pruned = self.static.stats()
        return report


# ---------------------------------------------------------------------------
# the three built-in strategies
# ---------------------------------------------------------------------------


class _SimulatorBackend(FaultSimBackend):
    """A single-process strategy: one :class:`~repro.core.strategy.
    FaultSimulator` class behind the registry contract.

    :meth:`run` shrinks the universe (:class:`CollapsePlan`), simulates
    what is left, reads the simulator's solve-cache counters around the
    run and expands the report back over the full universe.
    """

    #: The :class:`~repro.core.strategy.FaultSimulator` subclass this
    #: backend runs.
    simulator: ClassVar[Callable[..., Any]]

    def __init__(
        self,
        locality: str,
        collapse: bool,
        static_prune: bool,
        **simulator_options: Any,
    ):
        check_settings(locality)
        self.locality = locality
        self.collapse = collapse
        self.static_prune = static_prune
        self.simulator_options = simulator_options

    def run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy = DEFAULT_POLICY,
    ) -> RunReport:
        return self._run(net, faults, observed, patterns, policy, None)

    def _run(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        patterns: Iterable[TestPattern],
        policy: SimPolicy,
        progress: ProgressCallback | None,
    ) -> RunReport:
        plan = CollapsePlan(
            net, faults, observed, self.collapse,
            static_prune=self.static_prune,
        )
        simulator = self.simulator(
            net,
            plan.run_faults,
            observed,
            detection_policy=policy.detection_policy,
            drop_on_detect=policy.drop_on_detect,
            max_rounds=policy.max_rounds,
            locality=self.locality,
            **self.simulator_options,
        )
        run_options: dict[str, Any] = {"clock": policy.clock}
        if progress is not None:
            run_options["progress"] = plan.wrap_progress(
                progress, policy.drop_on_detect
            )
        hits, misses = simulator.solve_cache_counts()
        report = simulator.run(patterns, **run_options)
        if self.locality == "compiled":
            hits_after, misses_after = simulator.solve_cache_counts()
            report.solve_cache = solve_cache_stats(
                hits_after - hits, misses_after - misses
            )
        return plan.finish(report, policy.drop_on_detect)


class _StreamingBackend(_SimulatorBackend):
    """A strategy that walks the patterns in order, so its :meth:`run`
    takes the per-pattern ``progress`` callback."""

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
        return self._run(net, faults, observed, patterns, policy, progress)


@register_backend
class SerialBackend(_SimulatorBackend):
    """Every faulty circuit simulated individually (the baseline)."""

    name = "serial"
    simulator = SerialFaultSimulator

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        trim: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        super().__init__(
            locality, collapse, static_prune, trim=trim, good_trace=good_trace
        )


@register_backend
class ConcurrentBackend(_StreamingBackend):
    """The paper's algorithm: good circuit + divergence records."""

    name = "concurrent"
    simulator = ConcurrentFaultSimulator

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        trim: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        super().__init__(
            locality, collapse, static_prune, trim=trim, good_trace=good_trace
        )


@register_backend
class BatchBackend(_StreamingBackend):
    """Bit-parallel lockstep simulation, every circuit in one pass."""

    name = "batch"
    simulator = BatchFaultSimulator

    def __init__(
        self,
        locality: str = "dynamic",
        collapse: bool = True,
        static_prune: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        super().__init__(
            locality, collapse, static_prune, good_trace=good_trace
        )


# Imported last: shard.py needs the registry above at import time, and
# importing it registers the "sharded" backend.
from . import shard  # noqa: E402,F401
