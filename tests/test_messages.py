"""Unit tests for coherence message definitions and packets."""

import pytest

from repro.coherence.messages import (DATA_KINDS, VN_OF_KIND, Msg, MsgKind,
                                      Unit)
from repro.errors import NetworkError
from repro.noc.interface import build_network
from repro.noc.packet import Packet, VirtualNetwork
from repro.noc.topology import ClusterMap, Mesh
from repro.noc.vms import VirtualMesh
from repro.params import NocConfig, NocKind
from repro.sim.kernel import Simulator


class TestMsg:
    def test_every_kind_has_a_vn(self):
        for kind in MsgKind:
            assert kind in VN_OF_KIND, f"{kind} missing a VN assignment"

    def test_requests_and_responses_on_separate_vns(self):
        """Protocol deadlock freedom needs responses never blocked
        behind requests."""
        assert VN_OF_KIND[MsgKind.GETS] != VN_OF_KIND[MsgKind.DATA_L1]
        assert VN_OF_KIND[MsgKind.TOK_GETX] != VN_OF_KIND[MsgKind.TOK_DATA]
        assert VN_OF_KIND[MsgKind.DIR_GETX] != VN_OF_KIND[MsgKind.DATA_L2]

    def test_forwards_separate_from_requests(self):
        assert VN_OF_KIND[MsgKind.DIR_FWD_GETX] != VN_OF_KIND[MsgKind.DIR_GETX]
        assert VN_OF_KIND[MsgKind.INV_L1] is VirtualNetwork.FORWARD

    def test_migration_rides_its_own_vn(self):
        assert VN_OF_KIND[MsgKind.IVR_MIGRATE] is VirtualNetwork.MIGRATION

    def test_data_kinds_carry_data(self):
        m = Msg(MsgKind.DATA_L1, 0x10, 0, Unit.L1)
        assert m.kind.carries_data
        m2 = Msg(MsgKind.GETS, 0x10, 0, Unit.L2)
        assert not m2.kind.carries_data

    def test_all_data_kinds_are_known_kinds(self):
        assert DATA_KINDS <= set(MsgKind)

    def test_msg_ids_unique(self):
        """A message's identity is the object: no id is drawn per
        message (nothing under ``src/`` ever read one), so equal-field
        messages compare equal and stay two objects."""
        a = Msg(MsgKind.GETS, 0, 0, Unit.L2)
        b = Msg(MsgKind.GETS, 0, 0, Unit.L2)
        assert a == b and a is not b
        assert "msg_id" not in Msg.__slots__

    def test_repr_mentions_kind_and_line(self):
        m = Msg(MsgKind.TOK_GETS, 0xabc, 3, Unit.L2, requestor=3)
        assert "TOK_GETS" in repr(m) and "0xabc" in repr(m)


def fabrics():
    return [build_network(Simulator(), Mesh(4, 4), NocConfig(kind=kind))
            for kind in NocKind]


class TestPacket:
    """A packet is a plain record; what it may carry is checked where
    it enters a fabric."""

    def test_needs_dst_or_group(self):
        for net in fabrics():
            with pytest.raises(NetworkError):
                net.send(Packet(src=0, dst=None))
            assert net.in_flight == 0

    def test_size_validation(self):
        for net in fabrics():
            vms = VirtualMesh(ClusterMap(net.mesh, 2, 2), 0)
            with pytest.raises(NetworkError):
                net.send(Packet(src=0, dst=1, size_flits=0))
            with pytest.raises(NetworkError):
                net.multicast(Packet(src=vms.members[0], dst=None,
                                     size_flits=0), vms)
            assert net.in_flight == 0

    def test_latency_requires_delivery(self):
        p = Packet(src=0, dst=1)
        with pytest.raises(ValueError):
            _ = p.latency
        p.injected_at, p.delivered_at = 5, 11
        assert p.latency == 6

    def test_clone_for(self):
        p = Packet(src=0, dst=None, size_flits=5, payload="x")
        p.injected_at = 7
        c = p.clone_for(4, 2, mcast_root=0, vms="tree")
        assert (c.src, c.at, c.dst, c.size_flits, c.payload) == (
            0, 4, 2, 5, "x")
        assert (c.injected_at, c.delivered_at) == (7, -1)
        assert (c.mcast_root, c.vms) == (0, "tree")
        assert c is not p and p.dst is None  # a copy; the original untouched
        plain = p.clone_for(0, 3)
        assert plain.mcast_root is None and plain.vms is None
        assert "pkt_id" not in Packet.__slots__
