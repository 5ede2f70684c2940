"""Unit tests for coherence message definitions and packets."""

import pytest

from repro.coherence.messages import (DATA_KINDS, VN_OF_KIND, Msg, MsgKind,
                                      Unit)
from repro.noc.packet import Packet, VirtualNetwork


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
        assert m.carries_data
        m2 = Msg(MsgKind.GETS, 0x10, 0, Unit.L2)
        assert not m2.carries_data

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


class TestPacket:
    def test_needs_dst_or_group(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=None, vn=VirtualNetwork.REQUEST)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, vn=VirtualNetwork.REQUEST, size_flits=0)

    def test_latency_requires_delivery(self):
        p = Packet(src=0, dst=1, vn=VirtualNetwork.REQUEST)
        with pytest.raises(ValueError):
            _ = p.latency
        p.injected_at, p.delivered_at = 5, 11
        assert p.latency == 6

    def test_clone_for(self):
        p = Packet(src=0, dst=None, vn=VirtualNetwork.REQUEST,
                   mcast_group=(1, 2, 3), payload="x")
        c = p.clone_for(2)
        assert c.dst == 2 and c.payload == "x" and not c.is_multicast
        assert c is not p and p.dst is None  # a copy; the original untouched
        assert "pkt_id" not in Packet.__slots__
