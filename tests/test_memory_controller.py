"""Unit tests for the memory controller: memory timing, token home,
persistent-request arbiter, off-chip accounting."""

import pytest

from repro.coherence.messages import Msg, MsgKind, Unit
from repro.errors import ProtocolError
from repro.params import Organization
from tests.conftest import AccessDriver, build_system


class TestMemoryTiming:
    def test_memory_latency_dominates_cold_miss(self):
        drv = AccessDriver(build_system(Organization.SHARED))
        lat = drv.read(0, 0x123)
        mem = drv.system.config.memory.access_latency
        assert mem < lat < mem + 120

    def test_directory_latency_charged(self):
        """Private org pays directory latency on top of memory."""
        drv_p = AccessDriver(build_system(Organization.PRIVATE))
        lat_p = drv_p.read(0, 0x123)
        dir_lat = drv_p.system.config.memory.directory_latency
        mem = drv_p.system.config.memory.access_latency
        assert lat_p >= mem + dir_lat


class TestOffchipAccounting:
    def test_fetch_counted_once_per_cold_line(self):
        drv = AccessDriver(build_system(Organization.SHARED))
        for i in range(5):
            drv.read(0, 0x1000 + i)
        assert drv.system.stats.value("offchip_fetches") == 5

    def test_clean_writeback_not_counted(self):
        drv = AccessDriver(build_system(Organization.SHARED))
        l2 = drv.system.l2s[drv.system.ctx.home_tile(0, 0x0)]
        # read-only lines evicted clean must not bump writebacks
        n_tiles = drv.system.config.num_tiles
        stride = l2.array.num_sets * n_tiles * l2.array.index_stride
        for i in range(l2.array.assoc + 2):
            drv.read(0, 0x0 + i * stride)
        drv.settle()
        assert drv.system.stats.value("offchip_writebacks") == 0


    def test_counters_appear_with_the_first_count(self):
        """A counter that exists is part of a result (the stats wire
        encoding lists every one), so binding them once must not
        create them early."""
        drv = AccessDriver(build_system(Organization.SHARED))
        counters = drv.system.stats._counters
        assert "offchip_fetches" not in counters
        assert "offchip_writebacks" not in counters
        drv.read(0, 0x40)
        assert drv.system.stats.value("offchip_fetches") == 1
        assert "offchip_writebacks" not in counters


class TestTokenHome:
    def test_initial_state_full_tokens(self):
        system = build_system(Organization.LOCO_CC_VMS)
        mc = system.mcs[0]
        total = system.ctx.cluster_map.num_clusters
        assert mc.token_state(0xABC) == (total, True)

    def test_token_overflow_detected(self):
        system = build_system(Organization.LOCO_CC_VMS)
        mc = system.mcs[0]
        total = system.ctx.cluster_map.num_clusters
        bad = Msg(MsgKind.TOK_WB, 0xABC, 0, Unit.MC, requestor=0,
                  tokens=total + 1)
        with pytest.raises(ProtocolError):
            mc.handle(bad)

    def test_unknown_message_rejected(self):
        system = build_system(Organization.SHARED)
        mc = system.mcs[0]
        bad = Msg(MsgKind.DATA_L1, 0x1, 0, Unit.MC)
        with pytest.raises(ProtocolError):
            mc.handle(bad)


class TestPersistentArbiter:
    def test_fifo_grant_chain(self):
        system = build_system(Organization.LOCO_CC_VMS)
        mc = system.mcs[0]
        granted = []
        # intercept grants by patching send
        orig = system.ctx.send

        def spy(msg, dst):
            if msg.kind is MsgKind.PERSIST_GRANT:
                granted.append(dst)
            orig(msg, dst)

        system.ctx.send = spy
        line = 0xF0
        for t in (3, 7, 1):
            mc.handle(Msg(MsgKind.PERSIST_START, line, t, Unit.MC,
                          requestor=t))
        assert granted == [3]  # head granted immediately
        mc.handle(Msg(MsgKind.PERSIST_DONE, line, 3, Unit.MC, requestor=3))
        assert granted == [3, 7]
        mc.handle(Msg(MsgKind.PERSIST_DONE, line, 7, Unit.MC, requestor=7))
        assert granted == [3, 7, 1]
        # stray DONE from a non-grantee is ignored
        mc.handle(Msg(MsgKind.PERSIST_DONE, line, 9, Unit.MC, requestor=9))
        mc.handle(Msg(MsgKind.PERSIST_DONE, line, 1, Unit.MC, requestor=1))
        assert line not in mc._persist
