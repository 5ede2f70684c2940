"""Integration tests: shared-L2 baseline protocol on a tiny CMP."""

import pytest

from repro.cache.line import L1State, L2State
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.params import Organization
from tests.conftest import (DIRECT_MAPPED_L2, NEW_VALUE, OLD_VALUE,
                            RACE_ORDERS, AccessDriver, ScriptedHome,
                            build_system, holder_script, wb_l1)

ORG = Organization.SHARED


@pytest.fixture
def drv():
    return AccessDriver(build_system(ORG))


def home_of(drv, line):
    return drv.system.ctx.home_tile(0, line)


class TestReadPath:
    def test_cold_read_goes_offchip(self, drv):
        lat = drv.read(0, 0x100)
        assert lat > drv.system.config.memory.access_latency
        assert drv.system.stats.value("offchip_fetches") == 1
        assert drv.system.stats.value("l2_misses") == 1

    def test_second_read_hits_l1(self, drv):
        drv.read(0, 0x100)
        lat = drv.read(0, 0x100)
        assert lat <= 2
        assert drv.system.stats.value("l1_hits") == 1

    def test_remote_reader_hits_home_l2(self, drv):
        drv.read(0, 0x100)
        lat = drv.read(5, 0x100)
        assert drv.system.stats.value("offchip_fetches") == 1  # no refetch
        assert drv.system.stats.value("l2_hits") >= 1
        assert lat < drv.system.config.memory.access_latency

    def test_home_l2_state_and_sharers(self, drv):
        drv.read(0, 0x100)
        drv.read(5, 0x100)
        home = home_of(drv, 0x100)
        line = drv.system.l2s[home].array.lookup(0x100, touch=False)
        assert line.l2_state in (L2State.E, L2State.M)
        assert {0, 5} <= line.sharers


class TestWritePath:
    def test_write_grants_m_in_l1(self, drv):
        drv.write(3, 0x200)
        assert drv.system.l1s[3].resident_state(0x200) is L1State.M

    def test_write_invalidates_other_sharers(self, drv):
        drv.read(0, 0x200)
        drv.read(1, 0x200)
        drv.write(2, 0x200)
        assert drv.system.l1s[0].resident_state(0x200) is L1State.I
        assert drv.system.l1s[1].resident_state(0x200) is L1State.I
        assert drv.system.l1s[2].resident_state(0x200) is L1State.M

    def test_read_after_write_recalls_dirty_data(self, drv):
        drv.write(2, 0x200)
        drv.read(7, 0x200)
        # writer downgraded to S by the recall, reader has S
        assert drv.system.l1s[2].resident_state(0x200) is L1State.S
        assert drv.system.l1s[7].resident_state(0x200) is L1State.S

    def test_upgrade_from_s(self, drv):
        drv.read(4, 0x300)
        drv.write(4, 0x300)
        assert drv.system.l1s[4].resident_state(0x300) is L1State.M
        # upgrade must not refetch from memory
        assert drv.system.stats.value("offchip_fetches") == 1

    def test_write_write_pingpong(self, drv):
        for i in range(6):
            drv.write(i % 2, 0x400)
        assert drv.system.l1s[1].resident_state(0x400) is L1State.M
        assert drv.system.l1s[0].resident_state(0x400) is L1State.I


class TestEvictions:
    def test_l2_capacity_eviction_writes_back_dirty(self, drv):
        home = home_of(drv, 0x0)
        l2 = drv.system.l2s[home]
        sets = l2.array.num_sets
        assoc = l2.array.assoc
        n_tiles = drv.system.config.num_tiles
        # fill one set of the home beyond capacity with dirty lines
        lines = [0x0 + i * sets * n_tiles for i in range(assoc + 2)]
        for ln in lines:
            assert home_of(drv, ln) == home
            assert l2.array.set_index(ln) == l2.array.set_index(0x0)
            drv.write(0, ln)
        drv.settle()
        assert drv.system.stats.value("l2_evictions") >= 2
        assert drv.system.stats.value("offchip_writebacks") >= 1

    def test_inclusive_eviction_invalidates_l1(self, drv):
        home = home_of(drv, 0x0)
        l2 = drv.system.l2s[home]
        sets = l2.array.num_sets
        assoc = l2.array.assoc
        n_tiles = drv.system.config.num_tiles
        lines = [0x0 + i * sets * n_tiles for i in range(assoc + 1)]
        for ln in lines:
            drv.read(1, ln)
        drv.settle()
        # the first line was evicted from L2 -> its L1 copy must be gone
        resident = [ln for ln in lines
                    if drv.system.l1s[1].resident_state(ln) is not L1State.I]
        assert len(resident) <= assoc

    def test_l1_eviction_writes_back_m_line(self, drv):
        l1 = drv.system.l1s[0]
        sets = l1.array.num_sets
        assoc = l1.array.assoc
        lines = [0x1000 + i * sets for i in range(assoc + 1)]
        for ln in lines:
            drv.write(0, ln)
        drv.settle()
        # first line evicted from L1; its dirty data went back to home
        home = home_of(drv, lines[0])
        hl = drv.system.l2s[home].array.lookup(lines[0], touch=False)
        assert hl is not None
        assert hl.dirty_l1 is None


class TestConcurrency:
    def test_racing_writers_serialize(self, drv):
        drv.parallel([(t, 0x500, True) for t in range(8)])
        m_holders = [t for t in range(16)
                     if drv.system.l1s[t].resident_state(0x500)
                     is L1State.M]
        assert len(m_holders) == 1

    def test_racing_readers_all_get_s(self, drv):
        drv.parallel([(t, 0x600, False) for t in range(8)])
        for t in range(8):
            assert drv.system.l1s[t].resident_state(0x600) is L1State.S
        # single memory fetch despite 8 concurrent requests
        assert drv.system.stats.value("offchip_fetches") == 1

    def test_mixed_read_write_race(self, drv):
        drv.parallel([(t, 0x700, t % 2 == 0) for t in range(6)])
        drv.settle()
        m = [t for t in range(16)
             if drv.system.l1s[t].resident_state(0x700) is L1State.M]
        s = [t for t in range(16)
             if drv.system.l1s[t].resident_state(0x700) is L1State.S]
        assert len(m) <= 1
        if m:
            # an M copy forbids any S copies
            assert not s


# ----------------------------------------------------------------------
# directed race table: the home's own L1 reply rounds
# ----------------------------------------------------------------------
HOME = 3
LINE = 0x100 + HOME           # homed at tile 3 (line % 16)
HOLDER, SHARER, READER = 2, 6, 9
CONFLICT = LINE + 16 * 4      # same home, same set of the 4-set slice


def _gets(line_addr, requestor=READER):
    return Msg(MsgKind.GETS, line_addr, requestor, Unit.L2,
               requestor=requestor)


def _mem_data(sh, line_addr, value=0):
    return Msg(MsgKind.MEM_DATA, line_addr, sh.ctx.mc_tile(line_addr),
               Unit.L2, value=value)


@pytest.mark.parametrize("order", RACE_ORDERS)
class TestReplyRoundRaces:
    """A dirty L1 copy hands its data back on the reply or on the
    ``WB_L1`` of a concurrent L1 eviction, in either order; the home's
    transaction continues exactly once, with the newest data."""

    def test_read_grant_recall(self, order):
        sh = ScriptedHome(ORG)
        line = sh.resident(HOME, LINE, l2_state=L2State.E,
                           sharers={HOLDER}, dirty_l1=HOLDER,
                           shadow=OLD_VALUE)
        sh.deliver(HOME, _gets(LINE))
        [recall] = sh.take()
        assert recall.kind is MsgKind.RECALL_L1 and not recall.fwd
        sh.deliver_held(HOME, holder_script(order, MsgKind.RECALL_RESP,
                                            LINE, HOLDER))
        [grant] = sh.take()
        assert grant.kind is MsgKind.DATA_L1 and not grant.writable
        assert grant.requestor == READER
        data = order != "holder_nack"
        assert grant.value == (NEW_VALUE if data else OLD_VALUE)
        # the clean copy absorbed modified data: E -> M
        assert line.l2_state is (L2State.M if data else L2State.E)
        assert READER in line.sharers and line.dirty_l1 is None
        assert sh.idle(HOME)

    def test_eviction_collects_the_victims_dirty_data(self, order):
        sh = ScriptedHome(ORG, l2=DIRECT_MAPPED_L2)
        victim = sh.resident(HOME, LINE, l2_state=L2State.E,
                             sharers={HOLDER, SHARER}, dirty_l1=HOLDER,
                             shadow=OLD_VALUE)
        sh.deliver(HOME, _gets(CONFLICT))
        assert [m.kind for m in sh.take()] == [MsgKind.MEM_READ]
        sh.deliver(HOME, _mem_data(sh, CONFLICT))
        invs = sh.take()
        assert [m.kind for m in invs] == [MsgKind.INV_L1] * 2
        assert not sh.system.l2s[HOME].array.contains(LINE)
        sh.deliver(HOME, Msg(MsgKind.ACK_INV_L1, LINE, SHARER, Unit.L2))
        sh.deliver_held(HOME, holder_script(order, MsgKind.ACK_INV_L1,
                                            LINE, HOLDER))
        data = order != "holder_nack"
        wbs = sh.take(MsgKind.MEM_WB)
        # the victim went E -> M, so its disposal writes the data back
        assert [(m.line_addr, m.value) for m in wbs] == \
            ([(LINE, NEW_VALUE)] if data else [])
        assert victim.l2_state is (L2State.M if data else L2State.E)
        [grant] = sh.take()                    # the fill went on, once
        assert grant.kind is MsgKind.DATA_L1
        assert (grant.line_addr, grant.requestor) == (CONFLICT, READER)
        assert sh.idle(HOME)


class TestWritebackCorners:
    def test_wb_into_a_clean_resident_line_takes_ownership(self):
        """No transaction in sight: the L1's modified data makes the
        home's clean copy the dirty one (E -> M, S -> O)."""
        for before, after in ((L2State.E, L2State.M),
                              (L2State.S, L2State.O)):
            sh = ScriptedHome(ORG)
            line = sh.resident(HOME, LINE, l2_state=before,
                               sharers={HOLDER}, dirty_l1=HOLDER,
                               shadow=OLD_VALUE)
            sh.deliver(HOME, wb_l1(LINE, HOLDER))
            assert line.l2_state is after and line.shadow == NEW_VALUE
            assert line.dirty_l1 is None and not line.sharers
            assert sh.take() == [] and sh.idle(HOME)

    def test_wb_during_a_refetch_is_folded_at_install(self):
        """The home gave the line away and is fetching it again when a
        late ``WB_L1`` lands: newer than the fill, so it is folded in at
        install and pushed off-chip as an orphan."""
        sh = ScriptedHome(ORG)
        sh.deliver(HOME, _gets(LINE))
        assert [m.kind for m in sh.take()] == [MsgKind.MEM_READ]
        sh.deliver(HOME, wb_l1(LINE, HOLDER))
        [orphan] = sh.take()
        assert orphan.kind is MsgKind.MEM_WB and orphan.dirty
        assert orphan.value == NEW_VALUE
        sh.deliver(HOME, _mem_data(sh, LINE, value=OLD_VALUE))
        [grant] = sh.take()
        assert grant.kind is MsgKind.DATA_L1 and grant.value == NEW_VALUE
        line = sh.system.l2s[HOME].array.lookup(LINE, touch=False)
        assert line.shadow == NEW_VALUE
        assert sh.idle(HOME)

    def test_orphan_wb_goes_to_memory(self):
        """``WB_L1`` for a line the home no longer tracks at all."""
        sh = ScriptedHome(ORG)
        sh.deliver(HOME, wb_l1(LINE, HOLDER))
        [orphan] = sh.take()
        assert orphan.kind is MsgKind.MEM_WB and orphan.dirty
        assert (orphan.line_addr, orphan.value) == (LINE, NEW_VALUE)
        assert sh.idle(HOME)
