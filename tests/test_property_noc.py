"""Property-based tests for topology, routing and network delivery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.conventional import ConventionalNetwork
from repro.noc.packet import Packet
from repro.noc.smart import SmartNetwork
from repro.noc.topology import ClusterMap, Mesh
from repro.noc.vms import xy_tree_children
from repro.params import NocConfig
from repro.sim.kernel import Simulator

tiles64 = st.integers(min_value=0, max_value=63)


class TestRoutingProperties:
    @given(src=tiles64, dst=tiles64)
    @settings(max_examples=100, deadline=None)
    def test_xy_path_length_is_manhattan(self, src, dst):
        m = Mesh(8, 8)
        path = m.xy_path(src, dst)
        assert len(path) == m.hops(src, dst) + 1
        # consecutive path elements are mesh neighbours
        for a, b in zip(path, path[1:]):
            assert m.hops(a, b) == 1

    @given(src=tiles64, dst=tiles64,
           hpc=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=100, deadline=None)
    def test_smart_hops_bounds(self, src, dst, hpc):
        m = Mesh(8, 8)
        sh = m.smart_hops(src, dst, hpc)
        hops = m.hops(src, dst)
        assert sh <= hops  # never worse than per-hop
        assert sh * hpc >= hops  # each SMART-hop covers <= hpc

    @given(at=tiles64, dst=tiles64, max_hops=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_xy_next_stop_makes_progress(self, at, dst, max_hops):
        m = Mesh(8, 8)
        nxt, moved = m.xy_next_stop(at, dst, max_hops)
        if at == dst:
            assert moved == 0
        else:
            assert 1 <= moved <= max_hops
            assert m.hops(nxt, dst) == m.hops(at, dst) - moved


class TestTreeProperties:
    @given(w=st.integers(1, 6), h=st.integers(1, 6),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tree_is_spanning_and_acyclic(self, w, h, data):
        rx = data.draw(st.integers(0, w - 1))
        ry = data.draw(st.integers(0, h - 1))
        seen = {(rx, ry)}
        edges = 0
        frontier = [(rx, ry)]
        while frontier:
            nxt = []
            for node in frontier:
                for child in xy_tree_children(w, h, (rx, ry), node):
                    assert child not in seen  # acyclic / no double visit
                    seen.add(child)
                    edges += 1
                    nxt.append(child)
            frontier = nxt
        assert len(seen) == w * h          # spanning
        assert edges == w * h - 1          # tree


class TestDeliveryProperties:
    @given(pairs=st.lists(st.tuples(tiles64, tiles64), min_size=1,
                          max_size=40),
           net_cls=st.sampled_from([SmartNetwork, ConventionalNetwork]))
    @settings(max_examples=25, deadline=None)
    def test_every_packet_delivered_exactly_once(self, pairs, net_cls):
        sim = Simulator()
        net = net_cls(sim, Mesh(8, 8), NocConfig())
        delivered = []
        for t in range(64):
            net.attach(t, lambda p, t=t: delivered.append((t, p.payload)))
        packets = []
        for i, (src, dst) in enumerate(pairs):
            p = Packet(src=src, dst=dst, size_flits=1 + (i % 3),
                       payload=i)
            packets.append(p)
            sim.schedule(i % 7, lambda p=p: net.send(p))
        sim.run(until=200_000)
        assert len(delivered) == len(packets)
        assert net.in_flight == 0
        # each at the right tile, each exactly once
        assert sorted(delivered, key=lambda d: d[1]) == [
            (p.dst, p.payload) for p in packets]

    @given(pairs=st.lists(st.tuples(tiles64, tiles64), min_size=1,
                          max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_smart_latency_bounded_by_conventional_plus_contention(
            self, pairs):
        """SMART under light load is never slower than per-hop routing
        of the same packet in an empty network."""
        for src, dst in pairs[:3]:
            if src == dst:
                continue
            lat = {}
            for cls in (SmartNetwork, ConventionalNetwork):
                sim = Simulator()
                net = cls(sim, Mesh(8, 8), NocConfig())
                for t in range(64):
                    net.attach(t, lambda p: None)
                p = Packet(src=src, dst=dst)
                sim.schedule(0, lambda p=p: net.send(p))
                sim.run(until=10_000)
                lat[cls] = p.latency
            assert lat[SmartNetwork] <= lat[ConventionalNetwork]
