"""NoC tests: latencies matching the paper, contention, multicast,
bandwidth, and backpressure across the three fabrics."""

import pytest

from repro.errors import NetworkError
from repro.noc.conventional import ConventionalNetwork
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.packet import Packet
from repro.noc.smart import SmartNetwork
from repro.noc.topology import ClusterMap, Mesh
from repro.noc.vms import VirtualMesh
from repro.params import NocConfig, NocKind
from repro.noc.interface import build_network
from repro.sim.kernel import Simulator


def make_net(cls, mesh_side=8, **cfg_kw):
    sim = Simulator()
    mesh = Mesh(mesh_side, mesh_side)
    net = cls(sim, mesh, NocConfig(**cfg_kw))
    delivered = []
    for t in range(mesh.num_tiles):
        net.attach(t, lambda p, t=t: delivered.append((t, sim.cycle, p)))
    return sim, net, delivered


def send_one(sim, net, src, dst, size=1):
    p = Packet(src=src, dst=dst, size_flits=size)
    sim.schedule(0, lambda: net.send(p))
    return p


class TestSmartLatency:
    def test_corner_to_corner_is_8_cycles(self):
        """Paper Section 2: 14 hops with HPCmax=4 = 4 SMART-hops =
        8 cycles best case (+1 NIC ejection in our accounting)."""
        sim, net, _ = make_net(SmartNetwork)
        p = send_one(sim, net, 0, 63)
        sim.run(until=100)
        assert p.latency == 8

    def test_one_smart_hop_is_2_cycles(self):
        sim, net, _ = make_net(SmartNetwork)
        p = send_one(sim, net, 0, 4)  # 4 hops X-only
        sim.run(until=100)
        assert p.latency <= 3

    def test_turn_forces_extra_smart_hop(self):
        """SMART 1D: X+Y requires at least two SMART-hops."""
        sim, net, _ = make_net(SmartNetwork)
        p_straight = send_one(sim, net, 0, 3)
        sim.run(until=100)
        sim2, net2, _ = make_net(SmartNetwork)
        p_turn = send_one(sim2, net2, 0, 8 * 2 + 2)  # (2,2): 2+2 hops
        sim2.run(until=100)
        assert p_turn.latency > p_straight.latency

    def test_loopback(self):
        sim, net, delivered = make_net(SmartNetwork)
        p = send_one(sim, net, 5, 5)
        sim.run(until=10)
        assert delivered and p.latency >= 1

    def test_hpc_max_1_behaves_like_per_hop(self):
        sim, net, _ = make_net(SmartNetwork, hpc_max=1)
        p = send_one(sim, net, 0, 4)
        sim.run(until=100)
        # 4 hops x 2 cycles each
        assert p.latency >= 8


class TestConventionalLatency:
    def test_corner_to_corner_is_28_cycles(self):
        """Paper: conventional NoC takes 28 cycles best case."""
        sim, net, _ = make_net(ConventionalNetwork)
        p = send_one(sim, net, 0, 63)
        sim.run(until=200)
        assert p.latency == 28

    def test_two_cycles_per_hop(self):
        sim, net, _ = make_net(ConventionalNetwork)
        p = send_one(sim, net, 0, 1)
        sim.run(until=100)
        assert p.latency <= 3  # injection overlap on the first hop


class TestFlattenedButterfly:
    def test_single_express_hop(self):
        sim, net, _ = make_net(FlattenedButterflyNetwork)
        p = send_one(sim, net, 0, 4)  # one 4-hop express channel
        sim.run(until=100)
        # 4-stage pipeline + link, single traversal
        assert p.latency <= 7

    def test_slower_than_smart_for_short_trips(self):
        """The paper's key point: every high-radix hop pays the deep
        pipeline, so local traffic is slower than on SMART."""
        sim_s, net_s, _ = make_net(SmartNetwork)
        ps = send_one(sim_s, net_s, 0, 2)
        sim_s.run(until=100)
        sim_f, net_f, _ = make_net(FlattenedButterflyNetwork)
        pf = send_one(sim_f, net_f, 0, 2)
        sim_f.run(until=100)
        assert pf.latency > ps.latency

    def test_all_or_nothing_traversal(self):
        """Express channels have no premature stops: two flits wanting
        the same channel serialize, the loser waits at its source."""
        sim, net, _ = make_net(FlattenedButterflyNetwork)
        p1 = Packet(src=0, dst=4)
        p2 = Packet(src=0, dst=4)
        sim.schedule(0, lambda: (net.send(p1), net.send(p2)))
        sim.run(until=200)
        assert p1.latency != p2.latency
        assert net.stats.value("fbfly.premature_stops") == 0


class TestContention:
    def test_premature_stop_under_crossing_traffic(self):
        """Two flits crossing the same link segment: one stops early and
        resumes (paper Figure 2c)."""
        sim, net, _ = make_net(SmartNetwork)
        # Both traverse the row-0 links eastward
        p1 = Packet(src=0, dst=7)
        p2 = Packet(src=1, dst=7)
        sim.schedule(0, lambda: (net.send(p1), net.send(p2)))
        sim.run(until=200)
        assert p1.delivered_at > 0 and p2.delivered_at > 0
        assert net.stats.value("smart.premature_stops") + \
            net.stats.value("smart.arb_losses") > 0

    def test_heavy_load_all_delivered(self):
        sim, net, delivered = make_net(SmartNetwork)
        n = 200
        for i in range(n):
            src, dst = (i * 13) % 64, (i * 29 + 7) % 64
            if src == dst:
                dst = (dst + 1) % 64
            p = Packet(src=src, dst=dst)
            sim.schedule(i % 10, lambda p=p: net.send(p))
        sim.run(until=5000)
        assert len(delivered) == n
        assert net.in_flight == 0

    def test_multiflit_packets_reserve_link_bandwidth(self):
        """A 3-flit data packet occupies its links for 3 cycles, so a
        trailing packet on the same path is delayed."""
        sim, net, _ = make_net(SmartNetwork)
        big = Packet(src=0, dst=7, size_flits=3)
        small = Packet(src=0, dst=7)
        sim.schedule(0, lambda: (net.send(big), net.send(small)))
        sim.run(until=200)
        solo_sim, solo_net, _ = make_net(SmartNetwork)
        solo = send_one(solo_sim, solo_net, 0, 7)
        solo_sim.run(until=200)
        assert small.delivered_at - small.injected_at > solo.latency

    @pytest.mark.parametrize("kind,flit_hops,arb_losses,cycle", [
        (NocKind.CONVENTIONAL, 46456, 450, 11991),
        (NocKind.SMART, 217133, 6242, 17950),
        (NocKind.FLATTENED_BUTTERFLY, 80215, 0, 18003),
    ], ids=["conventional", "smart", "flattened_butterfly"])
    def test_contended_traffic_counts_pinned(self, kind, flit_hops,
                                             arb_losses, cycle):
        """Cross-commit pin of router behaviour under contention:
        12 000 seeded-LCG packets (5 VNs, 1/5-flit mix, bursty
        injection) on an 8x8 mesh. The counts are committed constants —
        a router rewrite that moves any of them changed arbitration or
        routing, not just speed."""
        sim = Simulator()
        mesh = Mesh(8, 8)
        net = build_network(sim, mesh, NocConfig(kind=kind))
        delivered = []
        for tile in range(mesh.num_tiles):
            net.attach(tile, delivered.append)
        # seeded from the kind's code points (str hashes are randomized
        # per process); no RNG state shared with the simulator's streams
        state = 0x0C0C0C ^ sum(ord(c) for c in kind.value)

        def draw(bound):
            nonlocal state
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            return state % bound

        packets = 12_000
        sent = 0

        def inject():
            nonlocal sent
            for _ in range(1 + draw(3)):  # bursty: a few packets per event
                if sent >= packets:
                    return
                src = draw(mesh.num_tiles)
                dst = draw(mesh.num_tiles)
                draw(5)  # the VN draw of the pinned sequence (no fabric reads it)
                size = 1 + 4 * (draw(4) == 0)
                net.send(Packet(src=src, dst=dst, size_flits=size))
                sent += 1
            if sent < packets:
                sim.schedule(1 + draw(4), inject)

        inject()
        sim.run()
        value = net.stats.value
        assert len(delivered) == value(f"{net.name}.injected") == packets
        assert (value(f"{net.name}.flit_hops"),
                value(f"{net.name}.arb_losses"),
                sim.cycle) == (flit_hops, arb_losses, cycle)


class TestEjectionOrder:
    def test_same_tick_ejections_keep_their_event_order(self):
        """Two flits eject in the same tick at different tiles, next to
        user events for the very same delivery cycle. The sequence
        below was recorded at the parent commit (one event per
        ejection): a tick's ejections sit between what was scheduled
        before the tick and what their own receivers schedule, in
        arbitration order, each seeing ``in_flight`` already counted
        down for itself only."""
        sim = Simulator()
        net = SmartNetwork(sim, Mesh(8, 8), NocConfig())
        log = []

        def receiver(tile):
            def on_packet(packet):
                log.append(("recv", tile, sim.cycle, net.in_flight))
                if tile == 1:
                    sim.schedule(0, lambda: log.append(
                        ("late", sim.cycle, net.in_flight)))
            return on_packet

        for tile in range(64):
            net.attach(tile, receiver(tile))
        p1 = Packet(src=0, dst=1)
        p2 = Packet(src=8, dst=9, size_flits=5)
        sim.schedule(0, lambda: (net.send(p1), net.send(p2)))
        sim.schedule(2, lambda: log.append(
            ("early", sim.cycle, net.in_flight)))
        sim.run()
        assert log == [("early", 2, 2), ("recv", 1, 2, 1),
                       ("recv", 9, 2, 0), ("late", 2, 0)]
        assert (p1.delivered_at, p2.delivered_at) == (2, 2)
        assert sim.pending_events() == 0 and net.in_flight == 0


class TestRoutePlans:
    """The default planner walks ``at +- 1`` / ``at +- width``
    arithmetically; the reference below is the mesh's own XY helper,
    one unit step at a time, stopping at turns."""

    @staticmethod
    def reference_plan(mesh, at, dst, max_hops):
        links, routers = [], []
        while len(links) < max_hops:
            nxt, moved = mesh.xy_next_stop(at, dst, 1)
            if moved == 0:
                break
            if links and nxt - at != links[-1][1] - links[-1][0]:
                break  # direction changed — SMART 1D: no bypass at a turn
            links.append((at, nxt))
            routers.append(nxt)
            at = nxt
        return links, routers

    @pytest.mark.parametrize("width,height", [(8, 8), (4, 2), (1, 5)])
    def test_arithmetic_plan_equals_xy_walk(self, width, height):
        mesh = Mesh(width, height)
        for max_hops in range(1, 9):
            net = SmartNetwork(Simulator(), mesh, NocConfig(hpc_max=max_hops))
            for at in range(mesh.num_tiles):
                for dst in range(mesh.num_tiles):
                    assert net._compute_plan(at, dst) == \
                        self.reference_plan(mesh, at, dst, max_hops), \
                        (max_hops, at, dst)

    def test_interned_plan_keeps_links_distinct_and_routers(self):
        sim, net, _ = make_net(SmartNetwork)
        links, routers = net._compute_plan(0, 63)
        ids, interned_routers, hops = net._intern_plan(0, 63)
        assert interned_routers == tuple(routers) == (1, 2, 3, 4)
        assert [net._link_ids[link] for link in links] == list(ids)
        assert len(set(ids)) == len(ids) == hops == 4
        # the table hands back the very same plan on a hit
        assert net._plans[0 * 64 + 63] == (ids, interned_routers, hops)

    def test_empty_plan_stops_the_movers(self):
        """``at == dst`` plans nothing; a flit is never buffered at its
        leg destination, so buffering one there is a NetworkError."""
        sim, net, _ = make_net(SmartNetwork)
        assert net._compute_plan(9, 9) == ([], [])
        p = Packet(src=9, dst=9)
        p.at = 9
        with pytest.raises(NetworkError):
            net._buffer_flit(p, 0)

    @pytest.mark.parametrize("cls", [SmartNetwork, ConventionalNetwork,
                                     FlattenedButterflyNetwork])
    def test_out_of_range_tile_is_a_network_error(self, cls):
        sim, net, _ = make_net(cls, mesh_side=4)
        for at, dst in ((0, 16), (0, -1), (16, 0), (3, 4 * 4 + 3)):
            with pytest.raises(NetworkError):
                net._compute_plan(at, dst)
        # ...and never an IndexError (or an aliased entry) from the flat
        # plan table: 1 * 16 + 19 would index tile 2's row
        for dst in (16, 19, -1, 400):
            with pytest.raises(NetworkError):
                net.send(Packet(src=1, dst=dst))
        assert net.in_flight == 0


class TestVmsMulticast:
    def make_vms(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        return VirtualMesh(cm, 11)

    def test_smart_broadcast_reaches_all_other_members(self):
        vms = self.make_vms()
        sim, net, delivered = make_net(SmartNetwork)
        p = Packet(src=vms.members[0], dst=None)
        sim.schedule(0, lambda: net.multicast(p, vms))
        sim.run(until=300)
        tiles = sorted(t for t, _, _ in delivered)
        assert tiles == sorted(set(vms.members) - {vms.members[0]})
        assert net.in_flight == 0

    def test_conventional_falls_back_to_unicasts(self):
        vms = self.make_vms()
        sim, net, delivered = make_net(ConventionalNetwork)
        p = Packet(src=vms.members[0], dst=None)
        sim.schedule(0, lambda: net.multicast(p, vms))
        sim.run(until=500)
        assert len(delivered) == len(vms.members) - 1

    @pytest.mark.parametrize("cls", [SmartNetwork, ConventionalNetwork],
                             ids=["smart", "conventional"])
    def test_each_copy_is_its_own_delivery_record(self, cls):
        """Every receiver is handed a packet of its own: ``dst`` names
        its tile and ``delivered_at`` is the cycle it was handed over —
        not that of the tree's last leg (forks used to share one
        record, so the two copies SMART delivers at cycle 2 read 4)."""
        vms = self.make_vms()
        sim, net, delivered = make_net(cls)
        p = Packet(src=vms.members[0], dst=None, payload="probe")
        sim.schedule(0, lambda: net.multicast(p, vms))
        sim.run(until=500)
        assert len(delivered) == len(vms.members) - 1
        assert len({id(copy) for _, _, copy in delivered}) == len(delivered)
        for tile, cycle, copy in delivered:
            assert copy is not p and copy.payload == "probe"
            assert (copy.src, copy.dst) == (p.src, tile)
            assert (copy.injected_at, copy.delivered_at) == (0, cycle)
            assert copy.latency == cycle
        if cls is SmartNetwork:  # Figure 3: 2 cycles per VMS leg
            assert sorted(c for _, c, _ in delivered) == [2, 2, 4]

    def test_smart_broadcast_faster_than_conventional(self):
        vms = self.make_vms()
        results = {}
        for cls in (SmartNetwork, ConventionalNetwork):
            sim, net, delivered = make_net(cls)
            p = Packet(src=vms.members[0], dst=None)
            sim.schedule(0, lambda: net.multicast(p, vms))
            sim.run(until=500)
            results[cls] = max(c for _, c, _ in delivered)
        assert results[SmartNetwork] < results[ConventionalNetwork]


class TestBuildNetwork:
    @pytest.mark.parametrize("kind,cls", [
        (NocKind.SMART, SmartNetwork),
        (NocKind.CONVENTIONAL, ConventionalNetwork),
        (NocKind.FLATTENED_BUTTERFLY, FlattenedButterflyNetwork),
    ])
    def test_factory(self, kind, cls):
        sim = Simulator()
        net = build_network(sim, Mesh(4, 4), NocConfig(kind=kind))
        assert isinstance(net, cls)

    def test_nic_backlog_reported(self):
        sim, net, _ = make_net(SmartNetwork)
        assert net.nic_backlog(0) == 0
