"""The paper's contribution: concurrent switch-level fault simulation,
plus the pluggable backend registry it is benchmarked through."""

from .backends import (
    DEFAULT_POLICY,
    FaultSimBackend,
    SimPolicy,
    available_backends,
    backend_options_summary,
    get_backend,
    register_backend,
    run_backend,
)
from .batch import BatchFaultSimulator
from .concurrent import ConcurrentFaultSimulator
from .detection import POLICY_ANY, POLICY_HARD, Detection, DetectionLog
from .faults import (
    Fault,
    NodeStuckFault,
    OpenFault,
    ShortFault,
    TransistorStuckFault,
    node_stuck_universe,
    ram_fault_universe,
    sample_faults,
    transistor_stuck_universe,
)
from .goodtrace import GoodTrace, record_good_trace
from .inject import Instrumented, PreparedFault, needs_rewrite, prepare
from .report import PatternRecord, RunReport
from .serial import SerialFaultSimulator, estimate_serial_seconds
from .shard import ShardedBackend, cost_blocks, resolve_jobs
from .statelist import StateList

__all__ = [
    "FaultSimBackend",
    "SimPolicy",
    "DEFAULT_POLICY",
    "available_backends",
    "backend_options_summary",
    "get_backend",
    "register_backend",
    "run_backend",
    "ShardedBackend",
    "cost_blocks",
    "resolve_jobs",
    "GoodTrace",
    "record_good_trace",
    "BatchFaultSimulator",
    "ConcurrentFaultSimulator",
    "SerialFaultSimulator",
    "estimate_serial_seconds",
    "Fault",
    "NodeStuckFault",
    "TransistorStuckFault",
    "ShortFault",
    "OpenFault",
    "node_stuck_universe",
    "transistor_stuck_universe",
    "ram_fault_universe",
    "sample_faults",
    "prepare",
    "needs_rewrite",
    "Instrumented",
    "PreparedFault",
    "StateList",
    "Detection",
    "DetectionLog",
    "POLICY_HARD",
    "POLICY_ANY",
    "RunReport",
    "PatternRecord",
]
