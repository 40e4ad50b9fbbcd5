"""Three-way locality equivalence: compiled == dynamic == static.

The settle localities differ only in *which region is recomputed* per
round (dynamic vicinities, static DC-connected components, or compiled
channel-connected components with memoized regions); the states they
produce must be identical after every input setting.  Checked on random
finalized networks with random stimuli, with and without forced nodes
and forced transistors (the fault-overlay boundaries).  Dynamic
exploration is the oracle the memoized compiled kernel is held to.
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist.builder import NetworkBuilder
from repro.switchlevel.kernel import LOCALITIES
from repro.switchlevel.scheduler import Engine

PROP_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def locality_case(draw):
    """(net, forced_nodes, forced_transistors, settings sequence)."""
    n_inputs = draw(st.integers(1, 3))
    n_storage = draw(st.integers(3, 8))
    b = NetworkBuilder()
    names = [b.vdd, b.gnd]
    input_names = [b.input(f"i{k}") for k in range(n_inputs)]
    names += input_names
    storage_names = [
        b.node(f"s{k}", size=draw(st.integers(1, 2)))
        for k in range(n_storage)
    ]
    names += storage_names
    n_transistors = draw(st.integers(2, 12))
    for _ in range(n_transistors):
        kind = draw(st.sampled_from(["ntrans", "ptrans", "dtrans"]))
        source = draw(st.sampled_from(names))
        drain = draw(st.sampled_from([n for n in names if n != source]))
        getattr(b, kind)(
            draw(st.sampled_from(names)),
            source,
            drain,
            strength=draw(st.integers(1, 2)),
        )
    net = b.build()

    forced_nodes = {}
    for name in draw(
        st.lists(st.sampled_from(storage_names), max_size=2, unique=True)
    ):
        forced_nodes[net.node(name)] = draw(st.integers(0, 1))
    forced_transistors = {}
    for t in draw(
        st.lists(st.integers(0, n_transistors - 1), max_size=2, unique=True)
    ):
        forced_transistors[t] = draw(st.integers(0, 1))

    sequence = []
    for _ in range(draw(st.integers(1, 6))):
        sequence.append(
            {
                name: draw(st.integers(0, 1))
                for name in input_names
                if draw(st.booleans())
            }
        )
    return net, forced_nodes, forced_transistors, sequence


def run_locality(net, forced_nodes, forced_transistors, sequence,
                 locality):
    """Drive the sequence under one locality; return per-step states."""
    engine = Engine(
        net,
        forced_nodes=forced_nodes,
        forced_transistors=forced_transistors,
        locality=locality,
        max_rounds=40,
    )
    for name, state in (("vdd", 1), ("gnd", 0)):
        engine.drive(net.node(name), state)
    # Activate the fault overlays exactly like the serial simulator.
    for node in forced_nodes:
        engine.perturb(node)
    for t in forced_transistors:
        for terminal in (net.t_source[t], net.t_drain[t]):
            if not net.node_is_input[terminal]:
                engine.perturb(terminal)
    engine.settle()
    trace = [list(engine.states)]
    for setting in sequence:
        for name, state in setting.items():
            if net.node(name) not in forced_nodes:
                engine.drive(net.node(name), state)
        engine.settle()
        trace.append(list(engine.states))
    return trace


class TestLocalityParity:
    @PROP_SETTINGS
    @given(locality_case())
    def test_locality_parity(self, case):
        net, forced_nodes, forced_transistors, sequence = case
        traces = {
            locality: run_locality(
                net, forced_nodes, forced_transistors, sequence, locality
            )
            for locality in LOCALITIES
        }
        baseline = traces["dynamic"]
        for locality in ("static", "compiled"):
            assert traces[locality] == baseline, (
                f"{locality} diverged from dynamic "
                f"(forced_nodes={forced_nodes}, "
                f"forced_transistors={forced_transistors})"
            )


class TestWithoutNumpy:
    """The package grades with numpy unimportable.

    The compiled kernel is plain Python; this guards against a numpy
    import creeping back into any module a grading run touches.
    """

    def test_grades_compiled_without_numpy(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from dataclasses import astuple\n"
            "from repro.circuits.ram import build_ram\n"
            "from repro.core.backends import run_backend\n"
            "from repro.core.faults import ram_fault_universe, sample_faults\n"
            "from repro.patterns.sequences import sequence1\n"
            "ram = build_ram(4, 4)\n"
            "patterns = list(sequence1(ram).patterns)\n"
            "faults = sample_faults(ram_fault_universe(ram), 16, seed=5)\n"
            "def detections(name, **options):\n"
            "    report = run_backend(name, ram.net, faults, [ram.dout],\n"
            "                         patterns, **options)\n"
            "    return sorted(astuple(d) for d in report.log.detections)\n"
            "serial = detections('serial')\n"
            "assert serial, 'no detections to compare'\n"
            "for name in ('concurrent', 'batch'):\n"
            "    got = detections(name, locality='compiled')\n"
            "    assert got == serial, name\n"
            "assert 'numpy' not in {m.split('.')[0] for m in sys.modules\n"
            "                       if sys.modules[m] is not None}\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.environ.get("PYTHONPATH"), _SRC_DIR) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


_SRC_DIR = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "src",
)
