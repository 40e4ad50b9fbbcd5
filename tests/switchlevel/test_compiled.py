"""Unit tests for the compile-once pass (`switchlevel/compiled.py`).

The partition/lowering itself (cut points, CSR layout, indexes), the
compile-time preconditions, determinism of recompilation, and the solve
cache's observable behavior.  End-to-end equivalence against the other
localities lives in ``test_locality_props.py``.
"""

from __future__ import annotations

import pytest

from repro.cells import nmos
from repro.errors import NetworkNotFinalizedError
from repro.netlist.builder import NetworkBuilder
from repro.switchlevel.compiled import (
    NO_COMPONENT,
    cache_stats,
    compile_network,
)
from repro.switchlevel.network import Network
from repro.switchlevel.scheduler import Engine


def inverter_net():
    b = NetworkBuilder()
    b.input("a")
    nmos.inverter(b, "a", "out")
    return b.build()


def pass_chain_net(stages: int = 5):
    """vdd -> p0 -(g)- p1 -(g)- ... : one channel-connected component."""
    b = NetworkBuilder()
    b.input("a")
    b.input("g")
    previous = b.node("p0")
    b.ntrans("a", "vdd", previous, strength="strong")
    for i in range(1, stages):
        node = b.node(f"p{i}")
        b.ntrans("g", previous, node, strength="strong")
        previous = node
    return b.build()


class TestPreconditions:
    def test_unfinalized_network_rejected(self):
        net = Network()
        net.add_node("a", is_input=True)
        net.add_node("s")
        with pytest.raises(NetworkNotFinalizedError):
            compile_network(net)

    def test_memoized_per_instance(self):
        net = inverter_net()
        assert compile_network(net) is compile_network(net)

    def test_cache_stats_does_not_compile(self):
        net = inverter_net()
        assert cache_stats(net) is None
        compile_network(net)
        assert cache_stats(net) is not None


class TestPartition:
    def test_inverter_partition(self):
        net = inverter_net()
        compiled = compile_network(net)
        # One storage node -> one component; vdd/gnd are cut points.
        assert len(compiled.components) == 1
        comp = compiled.components[0]
        out = net.node("out")
        assert comp.members == (out,)
        assert comp.boundary == tuple(
            sorted((net.node("vdd"), net.node("gnd")))
        )
        assert compiled.node_component[out] == 0
        for name in ("a", "vdd", "gnd"):
            assert compiled.node_component[net.node(name)] == NO_COMPONENT

    def test_off_transistors_do_not_cut(self):
        # The partition is static: an off pass transistor still joins
        # its terminals into one component (unlike a dynamic vicinity).
        net = pass_chain_net()
        compiled = compile_network(net)
        assert len(compiled.components) == 1
        assert compiled.components[0].size == 5

    def test_inputs_cut_components(self):
        b = NetworkBuilder()
        b.input("a")
        nmos.inverter(b, "a", "o1")
        nmos.inverter(b, "a", "o2")
        net = b.build()
        compiled = compile_network(net)
        assert len(compiled.components) == 2
        assert {comp.size for comp in compiled.components} == {1}

    def test_gate_fanout_maps_gates_to_channel_components(self):
        net = pass_chain_net()
        compiled = compile_network(net)
        # Both inputs gate transistors whose channels are in comp 0.
        assert compiled.gate_fanout[net.node("a")] == (0,)
        assert compiled.gate_fanout[net.node("g")] == (0,)
        # The pass nodes gate nothing.
        assert compiled.gate_fanout[net.node("p1")] == ()

    def test_t_component_locates_channels(self):
        net = inverter_net()
        compiled = compile_network(net)
        for t in range(net.n_transistors):
            assert compiled.t_component[t] == 0

    def test_recompilation_is_deterministic(self):
        def build():
            return compile_network(pass_chain_net())

        first, second = build(), build()
        assert first is not second  # distinct networks -> fresh compiles
        assert len(first.components) == len(second.components)
        for a, b in zip(first.components, second.components):
            assert a.structure() == b.structure()
        assert first.node_component == second.node_component
        assert first.gate_fanout == second.gate_fanout
        assert first.t_component == second.t_component

    def test_component_size_histogram(self):
        b = NetworkBuilder()
        b.input("a")
        nmos.inverter(b, "a", "o1")
        nmos.inverter(b, "a", "o2")
        b.node("chain0")
        b.node("chain1")
        b.ntrans("a", "chain0", "chain1", strength="strong")
        net = b.build()
        compiled = compile_network(net)
        assert compiled.component_size_histogram() == {1: 2, 2: 1}


class TestSolveCache:
    def _settled_engine(self, net):
        engine = Engine(net, locality="compiled")
        for name, state in (("vdd", 1), ("gnd", 0)):
            engine.drive(net.node(name), state)
        engine.settle()
        return engine

    def test_repeated_configurations_hit(self):
        net = inverter_net()
        engine = self._settled_engine(net)
        for value in (0, 1, 0, 1, 0, 1):
            engine.drive(net.node("a"), value)
            engine.settle()
        stats = cache_stats(net)
        assert stats["hits"] > 0
        # Only a handful of distinct configurations exist.
        assert stats["misses"] <= 4
        assert stats["hit_rate"] > 0.3

    def test_cached_solves_are_correct(self):
        net = inverter_net()
        engine = self._settled_engine(net)
        out = net.node("out")
        for value, expected in ((0, 1), (1, 0), (0, 1), (1, 0)):
            engine.drive(net.node("a"), value)
            engine.settle()
            assert engine.states[out] == expected

    def test_cache_shared_across_engines(self):
        # The cache lives on the (compiled) network, so a second engine
        # over the same network re-uses the first engine's solves --
        # the serial backend's per-fault engines share one pool.
        net = inverter_net()
        first = self._settled_engine(net)
        first.drive(net.node("a"), 0)
        first.settle()
        before = cache_stats(net)["hits"]
        second = self._settled_engine(net)
        second.drive(net.node("a"), 0)
        second.settle()
        assert cache_stats(net)["hits"] > before


class TestEviction:
    """Round-robin eviction keeps the cache bounded without corrupting it.

    Eviction clears whole components but preserves the interned
    mask-id tables; solves produced after an eviction must still match
    the dynamic locality exactly.
    """

    def _mux_tree_net(self, lanes: int = 4):
        """``lanes`` independent pass-gate muxes: one component each."""
        b = NetworkBuilder()
        for k in range(lanes):
            b.input(f"s{k}")
            b.input(f"a{k}")
            b.input(f"b{k}")
            out = b.node(f"m{k}")
            b.ntrans(f"s{k}", f"a{k}", out, strength="strong")
            b.ptrans(f"s{k}", f"b{k}", out, strength="strong")
        return b.build()

    def test_post_eviction_solves_match_dynamic(self, monkeypatch):
        from repro.switchlevel import compiled as compiled_module

        monkeypatch.setattr(compiled_module, "MAX_CACHE_ENTRIES", 6)
        net = self._mux_tree_net()
        # _COMPILED memoizes per network instance; a fresh net per test
        # run keeps the tiny cap from leaking into other tests.
        engines = {}
        for locality in ("compiled", "dynamic"):
            engine = Engine(net, locality=locality)
            for name, state in (("vdd", 1), ("gnd", 0)):
                engine.drive(net.node(name), state)
            engine.settle()
            engines[locality] = engine

        patterns = []
        for step in range(24):
            patterns.append(
                {
                    f"s{k}": (step >> k) & 1
                    for k in range(4)
                }
                | {f"a{k}": step & 1 for k in range(4)}
                | {f"b{k}": (step >> 1) & 1 for k in range(4)}
            )
        # Replay the early patterns after the cap has forced evictions:
        # these are the solves most likely to hit half-cleared state.
        patterns += patterns[:8]

        for pattern in patterns:
            for engine in engines.values():
                for name, state in pattern.items():
                    engine.drive(net.node(name), state)
                engine.settle()
            assert (
                list(engines["compiled"].states)
                == list(engines["dynamic"].states)
            ), f"post-eviction divergence on {pattern}"

        stats = cache_stats(net)
        assert stats["evictions"] > 0, "cap never reached; test is inert"
        # Eviction runs before each cached call, so entries may briefly
        # overshoot the cap within a call -- bounded, not exact.
        assert stats["entries"] <= 2 * 6
