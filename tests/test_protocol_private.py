"""Integration tests: private-L2 baseline (directory at the memory
controllers) and the shared directory machinery it exercises."""

import pytest

from repro.cache.line import L1State, L2State
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.params import Organization
from tests.conftest import (DIRECT_MAPPED_L2, NEW_VALUE, OLD_VALUE,
                            RACE_ORDERS, AccessDriver, ScriptedHome,
                            build_system, holder_script, wb_l1)

ORG = Organization.PRIVATE


@pytest.fixture
def drv():
    return AccessDriver(build_system(ORG))


class TestPrivateBasics:
    def test_home_is_local_tile(self, drv):
        ctx = drv.system.ctx
        for tile in range(ctx.mesh.num_tiles):
            assert ctx.home_tile(tile, 0x123) == tile

    def test_local_hit_is_fast(self, drv):
        drv.read(0, 0x100)
        # L1 hit
        assert drv.read(0, 0x100) <= 2
        # L2 hit after L1 eviction would also be local; check L2 state
        line = drv.system.l2s[0].array.lookup(0x100, touch=False)
        assert line is not None and line.l2_state is L2State.E

    def test_replication_across_private_l2s(self, drv):
        """The defining property (and cost) of private caches: every
        reader gets its own copy."""
        for t in (0, 3, 9):
            drv.read(t, 0x100)
        copies = sum(1 for l2 in drv.system.l2s
                     if l2.array.contains(0x100))
        assert copies == 3
        # but only one off-chip fetch: later readers got it from the owner
        assert drv.system.stats.value("offchip_fetches") == 1

    def test_owner_forwarding_on_read(self, drv):
        drv.write(0, 0x200)
        drv.read(5, 0x200)
        owner_line = drv.system.l2s[0].array.lookup(0x200, touch=False)
        reader_line = drv.system.l2s[5].array.lookup(0x200, touch=False)
        assert owner_line.l2_state is L2State.O
        assert reader_line.l2_state is L2State.S


class TestPrivateWrites:
    def test_getx_invalidates_all_replicas(self, drv):
        for t in (0, 1, 2):
            drv.read(t, 0x300)
        drv.write(3, 0x300)
        for t in (0, 1, 2):
            assert not drv.system.l2s[t].array.contains(0x300)
            assert drv.system.l1s[t].resident_state(0x300) is L1State.I
        line = drv.system.l2s[3].array.lookup(0x300, touch=False)
        assert line.l2_state is L2State.M

    def test_ownership_chain(self, drv):
        drv.write(0, 0x400)
        drv.write(7, 0x400)
        drv.write(12, 0x400)
        assert not drv.system.l2s[0].array.contains(0x400)
        assert not drv.system.l2s[7].array.contains(0x400)
        line = drv.system.l2s[12].array.lookup(0x400, touch=False)
        assert line is not None and line.l2_state is L2State.M

    def test_directory_tracks_owner(self, drv):
        drv.write(4, 0x500)
        drv.settle()  # let the DIR_DONE commit reach the directory
        ctx = drv.system.ctx
        mc = drv.system.mcs[ctx.mc_tiles.index(ctx.mc_tile(0x500))]
        entry = mc.directory.peek(0x500)
        assert entry is not None and entry.owner == 4


class TestEvictionRaces:
    def test_dirty_eviction_notifies_directory(self, drv):
        l2 = drv.system.l2s[0]
        sets = l2.array.num_sets
        assoc = l2.array.assoc
        lines = [0x1000 + i * sets for i in range(assoc + 1)]
        for ln in lines:
            drv.write(0, ln)
        drv.settle()
        ctx = drv.system.ctx
        evicted = [ln for ln in lines if not l2.array.contains(ln)]
        assert evicted
        for ln in evicted:
            mc = drv.system.mcs[ctx.mc_tiles.index(ctx.mc_tile(ln))]
            entry = mc.directory.peek(ln)
            assert entry is None or entry.owner != 0
        assert drv.system.stats.value("offchip_writebacks") >= 1

    def test_read_after_owner_eviction_refetches(self, drv):
        l2 = drv.system.l2s[0]
        sets = l2.array.num_sets
        assoc = l2.array.assoc
        lines = [0x1000 + i * sets for i in range(assoc + 1)]
        for ln in lines:
            drv.write(0, ln)
        drv.settle()
        victim = next(ln for ln in lines if not l2.array.contains(ln))
        fetches_before = drv.system.stats.value("offchip_fetches")
        drv.read(9, victim)
        assert drv.system.stats.value("offchip_fetches") > fetches_before

    def test_concurrent_writers_private(self, drv):
        drv.parallel([(t, 0x900, True) for t in range(6)])
        drv.settle()
        owners = [t for t in range(16)
                  if drv.system.l2s[t].array.contains(0x900)
                  and drv.system.l2s[t].array.lookup(
                      0x900, touch=False).l2_state.is_owner]
        assert len(owners) == 1


# ----------------------------------------------------------------------
# directed race table: forward ops answered with DATA_L2, and a grant
# parked behind one that must fall back to the miss path
# ----------------------------------------------------------------------
TILE = 5                      # a private L2 and its one L1
LINE = 0x240
PEER = 11                     # the L2 the directory forwards for


def _fwd(kind, line_addr=LINE):
    return Msg(kind, line_addr, 0, Unit.L2, requestor=PEER)


@pytest.mark.parametrize("order", RACE_ORDERS)
class TestForwardOpRaces:
    def test_forwarded_getx_hands_over_the_newest_data(self, order):
        sh = ScriptedHome(ORG)
        sh.resident(TILE, LINE, l2_state=L2State.E, sharers={TILE},
                    dirty_l1=TILE, shadow=OLD_VALUE)
        sh.deliver(TILE, _fwd(MsgKind.DIR_FWD_GETX))
        [inv] = sh.take()
        assert inv.kind is MsgKind.INV_L1 and inv.fwd
        assert not sh.system.l2s[TILE].array.contains(LINE)
        sh.deliver_held(TILE, holder_script(order, MsgKind.ACK_INV_L1, LINE,
                                            TILE, fwd=True))
        [resp] = sh.take()
        data = order != "holder_nack"
        assert resp.kind is MsgKind.DATA_L2 and resp.requestor == PEER
        assert resp.dirty == data and not resp.nack
        assert resp.value == (NEW_VALUE if data else OLD_VALUE)
        assert sh.idle(TILE)

    def test_forwarded_gets_shares_the_newest_data(self, order):
        sh = ScriptedHome(ORG)
        line = sh.resident(TILE, LINE, l2_state=L2State.M, sharers={TILE},
                           dirty_l1=TILE, shadow=OLD_VALUE)
        sh.deliver(TILE, _fwd(MsgKind.DIR_FWD_GETS))
        [recall] = sh.take()
        assert recall.kind is MsgKind.RECALL_L1 and recall.fwd
        sh.deliver_held(TILE, holder_script(order, MsgKind.RECALL_RESP, LINE,
                                            TILE, fwd=True))
        [resp] = sh.take()
        data = order != "holder_nack"
        assert resp.kind is MsgKind.DATA_L2 and resp.dirty
        assert resp.value == line.shadow == (NEW_VALUE if data
                                             else OLD_VALUE)
        assert line.l2_state is L2State.O
        assert sh.idle(TILE)


class TestDirectoryCorners:
    def test_shared_victim_that_absorbs_dirty_data_is_written_back(self):
        """S -> O at eviction: a plain S victim evicts silently, one
        that took an L1's modified data owes the directory a DIR_WB."""
        sh = ScriptedHome(ORG, l2=DIRECT_MAPPED_L2)
        conflict = LINE + 4
        victim = sh.resident(TILE, LINE, l2_state=L2State.S,
                             sharers={TILE}, dirty_l1=TILE,
                             shadow=OLD_VALUE)
        sh.deliver(TILE, Msg(MsgKind.GETS, conflict, TILE, Unit.L2,
                             requestor=TILE))
        assert [m.kind for m in sh.take()] == [MsgKind.DIR_GETS]
        mc = sh.ctx.mc_tile(conflict)
        sh.deliver(TILE, Msg(MsgKind.DIR_ACK, conflict, mc, Unit.L2))
        sh.deliver(TILE, Msg(MsgKind.DATA_L2, conflict, mc, Unit.L2,
                             exclusive=True, offchip=True, value=0))
        assert [m.kind for m in sh.take()] == [MsgKind.DIR_DONE,
                                               MsgKind.INV_L1]
        [ack] = holder_script("dirty_reply", MsgKind.ACK_INV_L1, LINE, TILE)
        sh.deliver(TILE, ack)
        [wb] = sh.take(MsgKind.DIR_WB)
        assert (wb.line_addr, wb.dirty, wb.value) == (LINE, True, NEW_VALUE)
        assert victim.l2_state is L2State.O
        assert [m.kind for m in sh.take()] == [MsgKind.DATA_L1]
        assert sh.idle(TILE)

    def test_orphan_wb_goes_to_the_directory(self):
        sh = ScriptedHome(ORG)
        sh.deliver(TILE, wb_l1(LINE, TILE))
        [wb] = sh.take()
        assert wb.kind is MsgKind.DIR_WB and wb.dirty
        assert (wb.line_addr, wb.value) == (LINE, NEW_VALUE)
        assert sh.idle(TILE)


class TestGrantParkedBehindAForwardRecall:
    """LOCO CC (a cluster home with several L1s): a local grant that
    finds a forward recall of the dirty L1 data in flight parks behind
    it and re-checks its permissions when the data has landed."""

    HOLDER, LOCAL = 1, 4      # L1s of cluster 0

    def _parked(self, kind):
        sh = ScriptedHome(Organization.LOCO_CC)
        home = sh.ctx.home_tile(self.HOLDER, LINE)
        sh.resident(home, LINE, l2_state=L2State.M, sharers={self.HOLDER},
                    dirty_l1=self.HOLDER, shadow=OLD_VALUE)
        sh.deliver(home, _fwd(MsgKind.DIR_FWD_GETS))
        assert [m.kind for m in sh.take()] == [MsgKind.RECALL_L1]
        sh.deliver(home, Msg(kind, LINE, self.LOCAL, Unit.L2,
                             requestor=self.LOCAL))
        assert sh.take() == []                  # a hit, parked
        return sh, home

    def _recalled(self, sh, home):
        [resp] = holder_script("dirty_reply", MsgKind.RECALL_RESP, LINE,
                               self.HOLDER, fwd=True)
        sh.deliver(home, resp)
        [data] = sh.take(MsgKind.DATA_L2)
        assert data.value == NEW_VALUE and data.requestor == PEER

    def _fill(self, sh, home, acks=0):
        mc = sh.ctx.mc_tile(LINE)
        sh.deliver(home, Msg(MsgKind.DIR_ACK, LINE, mc, Unit.L2,
                             ack_count=acks))
        sh.deliver(home, Msg(MsgKind.DATA_L2, LINE, mc, Unit.L2,
                             value=NEW_VALUE))

    def test_write_grant_demoted_to_o_upgrades_through_the_directory(self):
        sh, home = self._parked(MsgKind.GETX)
        self._recalled(sh, home)                # M -> O: not writable now
        assert [m.kind for m in sh.take()] == [MsgKind.DIR_GETX]
        self._fill(sh, home)
        assert [m.kind for m in sh.take()] == [MsgKind.DIR_DONE,
                                               MsgKind.INV_L1]
        sh.deliver(home, Msg(MsgKind.ACK_INV_L1, LINE, self.HOLDER,
                             Unit.L2))
        [grant] = sh.take()
        assert grant.kind is MsgKind.DATA_L1 and grant.writable
        assert grant.value == NEW_VALUE and sh.idle(home)

    @pytest.mark.parametrize("kind", [MsgKind.GETS, MsgKind.GETX],
                             ids=lambda k: k.name)
    def test_grant_whose_line_was_invalidated_refetches(self, kind):
        sh, home = self._parked(kind)
        # the directory invalidates our copy while the recall is out
        sh.deliver(home, Msg(MsgKind.DIR_INV, LINE, 0, Unit.L2,
                             requestor=PEER))
        assert sh.take() == []                  # queued behind the op
        assert not sh.system.l2s[home].array.contains(LINE)
        self._recalled(sh, home)
        refetch = (MsgKind.DIR_GETX if kind is MsgKind.GETX
                   else MsgKind.DIR_GETS)
        assert [m.kind for m in sh.take()] == [MsgKind.INV_L1, refetch]
        sh.deliver(home, Msg(MsgKind.ACK_INV_L1, LINE, self.HOLDER,
                             Unit.L2, fwd=True))
        [ack] = sh.take()
        assert ack.kind is MsgKind.DIR_ACK and ack.fwd
        self._fill(sh, home)
        assert [m.kind for m in sh.take()] == [MsgKind.DIR_DONE,
                                               MsgKind.DATA_L1]
        assert sh.idle(home)
