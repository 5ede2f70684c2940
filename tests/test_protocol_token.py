"""Integration tests: LOCO's token/VMS inter-cluster protocol."""

import pytest

from repro.cache.line import L1State, L2State
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.params import Organization
from tests.conftest import (DIRECT_MAPPED_L2, NEW_VALUE, OLD_VALUE,
                            RACE_ORDERS, AccessDriver, ScriptedHome,
                            build_system, holder_script, wb_l1)

ORG = Organization.LOCO_CC_VMS


@pytest.fixture
def drv():
    return AccessDriver(build_system(ORG))


def token_census(system, line_addr):
    """(cached tokens, owner flags, mem tokens, mem owner)."""
    cached = 0
    owners = 0
    for l2 in system.l2s:
        ln = l2.array.lookup(line_addr, touch=False)
        if ln is not None:
            cached += ln.tokens
            owners += 1 if ln.owner_token else 0
    ctx = system.ctx
    mc = system.mcs[ctx.mc_tiles.index(ctx.mc_tile(line_addr))]
    mem_tokens, mem_owner = mc.token_state(line_addr)
    return cached, owners, mem_tokens, mem_owner


class TestTokenReads:
    def test_first_read_gets_all_tokens_as_e(self, drv):
        """Memory is the owner of an uncached line and sends every
        token, so the first cluster installs E — private data never
        needs invalidation broadcasts."""
        drv.read(0, 0x100)
        home = drv.system.ctx.home_tile(0, 0x100)
        line = drv.system.l2s[home].array.lookup(0x100, touch=False)
        total = drv.system.ctx.cluster_map.num_clusters
        assert line.tokens == total
        assert line.owner_token
        assert line.l2_state is L2State.E

    def test_remote_cluster_read_replicates(self, drv):
        cm = drv.system.ctx.cluster_map
        # tile 0 is in cluster 0; find a tile in another cluster
        other = next(t for t in range(16) if cm.cluster_of(t) == 1)
        drv.read(0, 0x100)
        drv.read(other, 0x100)
        home0 = drv.system.ctx.home_tile(0, 0x100)
        home1 = drv.system.ctx.home_tile(other, 0x100)
        assert home0 != home1
        l0 = drv.system.l2s[home0].array.lookup(0x100, touch=False)
        l1_ = drv.system.l2s[home1].array.lookup(0x100, touch=False)
        assert l0 is not None and l1_ is not None
        assert l0.tokens + l1_.tokens == cm.num_clusters
        assert l0.owner_token != l1_.owner_token or True  # exactly one owner
        assert (l0.owner_token + l1_.owner_token) == 1
        # only one off-chip fetch: the second cluster found it on-chip
        assert drv.system.stats.value("offchip_fetches") == 1
        assert drv.system.stats.value("fills_onchip") == 1

    def test_conservation_after_reads(self, drv):
        cm = drv.system.ctx.cluster_map
        tiles = [next(t for t in range(16) if cm.cluster_of(t) == c)
                 for c in range(cm.num_clusters)]
        for t in tiles:
            drv.read(t, 0x200)
        drv.settle()
        cached, owners, mem, mem_owner = token_census(drv.system, 0x200)
        assert cached + mem == cm.num_clusters
        assert owners + (1 if mem_owner else 0) == 1


class TestTokenWrites:
    def test_write_collects_all_tokens(self, drv):
        cm = drv.system.ctx.cluster_map
        other = next(t for t in range(16) if cm.cluster_of(t) == 1)
        drv.read(0, 0x300)
        drv.read(other, 0x300)
        drv.write(0, 0x300)
        drv.settle()
        home0 = drv.system.ctx.home_tile(0, 0x300)
        line = drv.system.l2s[home0].array.lookup(0x300, touch=False)
        assert line.tokens == cm.num_clusters
        assert line.l2_state is L2State.M
        # the other cluster's copy is gone, and its L1 sharer is dead
        home1 = drv.system.ctx.home_tile(other, 0x300)
        assert not drv.system.l2s[home1].array.contains(0x300)
        assert drv.system.l1s[other].resident_state(0x300) is L1State.I

    def test_upgrade_within_cluster_with_all_tokens_is_silent(self, drv):
        """E at the home -> write needs no broadcast (can_write)."""
        drv.read(0, 0x400)
        bcasts = drv.system.stats.value("tok_broadcasts")
        drv.write(0, 0x400)
        assert drv.system.stats.value("tok_broadcasts") == bcasts

    def test_write_pingpong_across_clusters(self, drv):
        cm = drv.system.ctx.cluster_map
        other = next(t for t in range(16) if cm.cluster_of(t) == 1)
        for i in range(4):
            drv.write(0 if i % 2 == 0 else other, 0x500)
        drv.settle()
        cached, owners, mem, mem_owner = token_census(drv.system, 0x500)
        assert cached + mem == cm.num_clusters
        assert owners + (1 if mem_owner else 0) == 1

    def test_concurrent_cross_cluster_writers_converge(self, drv):
        cm = drv.system.ctx.cluster_map
        tiles = [next(t for t in range(16) if cm.cluster_of(t) == c)
                 for c in range(cm.num_clusters)]
        drv.parallel([(t, 0x600, True) for t in tiles],
                     max_cycles=500_000)
        drv.settle(10_000)
        cached, owners, mem, mem_owner = token_census(drv.system, 0x600)
        assert cached + mem == cm.num_clusters
        assert owners + (1 if mem_owner else 0) == 1


class TestVictimTokenReturn:
    def test_clean_eviction_returns_tokens_to_memory(self, drv):
        home = drv.system.ctx.home_tile(0, 0x0)
        l2 = drv.system.l2s[home]
        sets = l2.array.num_sets
        cm = drv.system.ctx.cluster_map
        stride = sets * cm.cluster_size
        lines = [0x0 + i * stride for i in range(l2.array.assoc + 2)]
        for ln in lines:
            assert drv.system.ctx.home_tile(0, ln) == home
            drv.read(0, ln)
        drv.settle()
        evicted = [ln for ln in lines if not l2.array.contains(ln)]
        assert evicted
        for ln in evicted:
            cached, owners, mem, mem_owner = token_census(drv.system, ln)
            assert cached + mem == cm.num_clusters, f"leak on {ln:#x}"


class TestSearchDelayStat:
    def test_onchip_fill_samples_search_delay(self, drv):
        cm = drv.system.ctx.cluster_map
        other = next(t for t in range(16) if cm.cluster_of(t) == 1)
        drv.read(0, 0x700)
        drv.read(other, 0x700)
        assert drv.system.stats.sample_count("search_delay") == 1
        assert drv.system.stats.mean("search_delay") > 0


class TestPersistentEscalation:
    def test_forced_starvation_resolves(self):
        """Pin tokens at a competing collector and check the persistent
        mechanism eventually completes a GETX."""
        system = build_system(ORG)
        drv = AccessDriver(system)
        cm = system.ctx.cluster_map
        t0 = 0
        t1 = next(t for t in range(16) if cm.cluster_of(t) == 1)
        # Seed: both clusters share the line
        drv.read(t0, 0x800)
        drv.read(t1, 0x800)
        # Force a token split: both write simultaneously, repeatedly.
        for _ in range(3):
            drv.parallel([(t0, 0x800, True), (t1, 0x800, True)],
                         max_cycles=800_000)
        drv.settle(10_000)
        cached, owners, mem, mem_owner = token_census(system, 0x800)
        assert cached + mem == cm.num_clusters
        assert owners + (1 if mem_owner else 0) == 1


class TestGrantWindowRace:
    def test_simultaneous_writers_converge_to_one_m_copy(self):
        """Regression: a peer TOK_GETX arriving while a home is granting
        M to a local L1 (waiting on intra-cluster INV acks) used to
        surrender the tokens and invalidate the line mid-grant; the
        grant continuation then completed on the dead line and left a
        second, unbacked L1 M copy. The home must park peer requests for
        the duration of the grant window (hypothesis-found writer set)."""
        from repro.cmp.system import CmpSystem
        from repro.traces.events import Op, TraceEvent
        from tests.conftest import tiny_config

        writers = [0, 1, 2, 3, 7, 9, 12]
        traces = [[] for _ in range(16)]
        for w in writers:
            traces[w].append(TraceEvent(Op.STORE, 0x200))
        system = CmpSystem(tiny_config(Organization.LOCO_CC_VMS_IVR),
                           traces)
        assert system.run(max_cycles=10_000_000).finished
        m = [t for t in range(16)
             if system.l1s[t].resident_state(0x200) is L1State.M]
        assert m == [t for t in m if t in writers] and len(m) == 1
        # The surviving M copy must be backed by its home L2 (inclusion).
        home = system.ctx.home_tile(m[0], 0x200)
        assert system.l2s[home].array.lookup(0x200, touch=False) is not None
        system.check_token_conservation()

    def test_two_cluster_write_race_during_local_grant(self):
        """Two same-cluster writers force a deferred local grant; a
        third writer in another cluster fires into the grant window."""
        system = build_system(Organization.LOCO_CC_VMS_IVR)
        drv = AccessDriver(system)
        cm = system.ctx.cluster_map
        local = [t for t in range(16) if cm.cluster_of(t) == 0][:2]
        remote = next(t for t in range(16) if cm.cluster_of(t) == 3)
        drv.parallel([(local[0], 0x340, True), (local[1], 0x340, True),
                      (remote, 0x340, True)], max_cycles=2_000_000)
        drv.settle(10_000)
        m = [t for t in range(16)
             if system.l1s[t].resident_state(0x340) is L1State.M]
        assert len(m) == 1
        system.check_token_conservation()


# ----------------------------------------------------------------------
# directed race table: forward ops (a peer cluster's request makes this
# home purge or recall its L1 copies) and the token corners no run hits
# ----------------------------------------------------------------------
LINE = 0x101
HOLDER, READER = 1, 4         # L1s of cluster 0
PEER = 15                     # a home of another cluster
TOTAL = 4                     # tokens per line: one per cluster


def _home(sh):
    return sh.ctx.home_tile(HOLDER, LINE)


def _owned_by_cluster0(sh, state=L2State.E, **fields):
    """Cluster 0 holds every token of LINE; HOLDER's L1 has it M."""
    return sh.resident(_home(sh), LINE, l2_state=state, tokens=TOTAL,
                       owner_token=True, sharers={HOLDER}, dirty_l1=HOLDER,
                       shadow=OLD_VALUE, **fields)


def _peer(kind, **fields):
    return Msg(kind, LINE, PEER, Unit.L2, requestor=PEER, **fields)


@pytest.mark.parametrize("order", RACE_ORDERS)
class TestForwardOpRaces:
    def test_forward_purge_surrenders_the_newest_data(self, order):
        sh = ScriptedHome(ORG)
        home = _home(sh)
        _owned_by_cluster0(sh)
        sh.deliver(home, _peer(MsgKind.TOK_GETX))
        [inv] = sh.take()
        assert inv.kind is MsgKind.INV_L1 and inv.fwd
        assert not sh.system.l2s[home].array.contains(LINE)
        sh.deliver_held(home, holder_script(order, MsgKind.ACK_INV_L1, LINE,
                                            HOLDER, fwd=True))
        [resp] = sh.take()                      # surrendered exactly once
        data = order != "holder_nack"
        assert resp.kind is MsgKind.TOK_DATA and resp.owner_token
        assert (resp.tokens, resp.dirty) == (TOTAL, data)
        assert resp.value == (NEW_VALUE if data else OLD_VALUE)
        assert sh.idle(home)

    def test_forward_recall_shares_the_newest_data(self, order):
        sh = ScriptedHome(ORG)
        home = _home(sh)
        line = _owned_by_cluster0(sh)
        sh.deliver(home, _peer(MsgKind.TOK_GETS))
        [recall] = sh.take()
        assert recall.kind is MsgKind.RECALL_L1 and recall.fwd
        sh.deliver_held(home, holder_script(order, MsgKind.RECALL_RESP, LINE,
                                            HOLDER, fwd=True))
        [resp] = sh.take()
        data = order != "holder_nack"
        assert resp.kind is MsgKind.TOK_DATA and not resp.owner_token
        assert resp.tokens == 1 and line.tokens == TOTAL - 1
        assert resp.value == line.shadow == (NEW_VALUE if data
                                             else OLD_VALUE)
        assert line.l2_state is L2State.O       # shared, still the owner
        assert sh.idle(home)


class TestTokenCorners:
    def test_late_token_response_merges_into_the_resident_line(self):
        """``_absorb_tokens``: a response that outlived its transaction
        must not lose its tokens."""
        sh = ScriptedHome(ORG)
        home = _home(sh)
        line = sh.resident(home, LINE, l2_state=L2State.S, tokens=1,
                           shadow=OLD_VALUE)
        sh.deliver(home, _peer(MsgKind.TOK_DATA, tokens=TOTAL - 1,
                               owner_token=True, dirty=True,
                               value=NEW_VALUE))
        assert sh.take() == []
        assert (line.tokens, line.owner_token) == (TOTAL, True)
        assert line.shadow == NEW_VALUE and line.l2_state is L2State.M

    def test_late_token_response_without_a_line_returns_to_memory(self):
        sh = ScriptedHome(ORG)
        sh.deliver(_home(sh), _peer(MsgKind.TOK_DATA, tokens=TOTAL - 1,
                                    owner_token=True, dirty=True,
                                    value=NEW_VALUE))
        [wb] = sh.take()
        assert wb.kind is MsgKind.TOK_WB and wb.unit is Unit.MC
        assert (wb.tokens, wb.owner_token, wb.dirty, wb.value) == \
            (TOTAL - 1, True, True, NEW_VALUE)

    def test_orphan_wb_returns_data_without_tokens(self):
        sh = ScriptedHome(ORG)
        sh.deliver(_home(sh), wb_l1(LINE, HOLDER))
        [wb] = sh.take()
        assert wb.kind is MsgKind.TOK_WB and wb.dirty
        assert (wb.tokens, wb.owner_token, wb.value) == (0, False, NEW_VALUE)
        assert sh.idle(_home(sh))

    def test_collector_spares_a_token_for_a_persistent_reader(self):
        """A collecting home that already has valid data answers a
        starving *persistent* TOK_GETS with one plain token."""
        sh = ScriptedHome(ORG)
        home = _home(sh)
        sh.deliver(home, Msg(MsgKind.GETX, LINE, READER, Unit.L2,
                             requestor=READER))
        assert {m.kind for m in sh.take()} == {MsgKind.TOK_GETX}
        sh.deliver(home, _peer(MsgKind.TOK_DATA, tokens=TOTAL - 1,
                               owner_token=True, value=OLD_VALUE))
        sh.deliver(home, _peer(MsgKind.TOK_GETS))      # not persistent
        assert sh.take() == []
        sh.deliver(home, _peer(MsgKind.TOK_GETS, persistent=True))
        [spare] = sh.take()
        assert spare.kind is MsgKind.TOK_DATA and not spare.owner_token
        assert (spare.tokens, spare.value) == (1, OLD_VALUE)
        # what the home keeps + what it gave away == what it was sent
        sh.deliver(home, _peer(MsgKind.TOK_ACK, tokens=2))
        [grant] = sh.take()
        assert grant.kind is MsgKind.DATA_L1 and grant.writable
        line = sh.system.l2s[home].array.lookup(LINE, touch=False)
        assert line.tokens + spare.tokens == (TOTAL - 1) + 2
        assert sh.idle(home)

    def test_ivr_victim_is_written_back_when_the_nic_is_backed_up(self):
        """Section 3.3 deadlock avoidance: never queue a migration
        behind a full outgoing NIC."""
        sh = ScriptedHome(Organization.LOCO_CC_VMS_IVR, l2=DIRECT_MAPPED_L2)
        home = _home(sh)
        conflict = LINE + 4 * 4      # same home, same one-line set
        sh.resident(home, LINE, l2_state=L2State.M, tokens=TOTAL,
                    owner_token=True, shadow=NEW_VALUE)
        sh.system.network.nic_backlog = lambda tile: 17
        sh.deliver(home, Msg(MsgKind.GETS, conflict, READER, Unit.L2,
                             requestor=READER))
        sh.take(MsgKind.TOK_GETS)
        sh.deliver(home, Msg(MsgKind.TOK_DATA, conflict, PEER, Unit.L2,
                             tokens=TOTAL, owner_token=True, value=0))
        [wb] = sh.take(MsgKind.TOK_WB)
        assert (wb.line_addr, wb.tokens, wb.owner_token, wb.dirty,
                wb.value) == (LINE, TOTAL, True, True, NEW_VALUE)
        assert [m.kind for m in sh.take()] == [MsgKind.DATA_L1]
        assert sh.system.stats.value("ivr_backlog_writebacks") == 1
        assert sh.system.stats.value("ivr_migrations") == 0
        assert sh.idle(home)


def test_stale_persist_grant_is_released_not_adopted():
    """A PERSIST_GRANT that outlived its transaction finds a *new* fetch
    of the same line (the deferred GETX replayed at retire is enough).
    That fetch never asked for persistence: adopting the grant would
    re-broadcast as persistent with no arbitration at the memory
    controller and never send PERSIST_DONE."""
    sh = ScriptedHome(ORG)
    home = _home(sh)
    sh.deliver(home, Msg(MsgKind.GETX, LINE, READER, Unit.L2,
                         requestor=READER))
    assert {m.kind for m in sh.take()} == {MsgKind.TOK_GETX}
    sh.deliver(home, Msg(MsgKind.PERSIST_GRANT, LINE, sh.ctx.mc_tile(LINE),
                         Unit.L2, requestor=home))
    [done] = sh.take()
    assert done.kind is MsgKind.PERSIST_DONE and done.unit is Unit.MC
    sh.deliver(home, _peer(MsgKind.TOK_DATA, tokens=TOTAL, owner_token=True,
                           value=OLD_VALUE))
    [grant] = sh.take()                 # and no second PERSIST_DONE
    assert grant.kind is MsgKind.DATA_L1 and grant.writable
    assert sh.idle(home)
