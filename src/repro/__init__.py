"""Reproduction of FMOSSIM, the concurrent switch-level fault simulator.

Bryant & Schuster, "Performance Evaluation of FMOSSIM, a Concurrent
Switch-Level Fault Simulator", DAC 1985.

Quick tour
----------
* Build circuits with :class:`repro.netlist.NetworkBuilder` and the cell
  library in :mod:`repro.cells`.
* Logic-simulate the fault-free circuit with
  :class:`repro.switchlevel.Simulator`.
* Enumerate faults with :mod:`repro.core.faults` and fault-simulate with
  :class:`repro.core.ConcurrentFaultSimulator` (the paper's algorithm),
  :class:`repro.core.SerialFaultSimulator` (the baseline) or
  :class:`repro.core.BatchFaultSimulator`; every one returns a
  :class:`repro.core.RunReport`.  :func:`repro.core.run_backend` picks
  a strategy by name and adds fault collapsing and static pruning.
* Regenerate the paper's figures with :mod:`repro.harness.experiments`.
"""

from .netlist import NetworkBuilder
from .switchlevel import ONE, X, ZERO, Simulator

__version__ = "1.0.0"

__all__ = [
    "ZERO",
    "ONE",
    "X",
    "Simulator",
    "NetworkBuilder",
    "__version__",
]
