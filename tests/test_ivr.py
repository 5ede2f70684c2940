"""Integration tests for Inter-cluster Victim Replacement (Section 3.3)."""

import pytest

from repro.coherence.messages import Msg, MsgKind, Unit
from repro.params import IvrConfig, Organization
from tests.conftest import AccessDriver, build_system

ORG = Organization.LOCO_CC_VMS_IVR


def fill_home_set(drv, tile, base_line, count):
    """Touch ``count`` lines that all map to the same home tile and the
    same L2 set, overflowing it."""
    system = drv.system
    home = system.ctx.home_tile(tile, base_line)
    l2 = system.l2s[home]
    stride = l2.array.num_sets * system.ctx.cluster_map.cluster_size
    lines = [base_line + i * stride for i in range(count)]
    for ln in lines:
        assert system.ctx.home_tile(tile, ln) == home
        drv.read(tile, ln)
    return home, lines


class TestMigration:
    def test_overflow_migrates_instead_of_writing_back(self):
        drv = AccessDriver(build_system(ORG))
        assoc = drv.system.config.l2.assoc
        fill_home_set(drv, 0, 0x0, assoc + 3)
        drv.settle()
        assert drv.system.stats.value("ivr_migrations") >= 3
        assert drv.system.stats.value("ivr_installs") >= 1

    def test_migrated_line_found_by_vms_search(self):
        """The paper's key IVR property: a cluster retrieves its data
        stored in other clusters via the fast global search."""
        drv = AccessDriver(build_system(ORG))
        assoc = drv.system.config.l2.assoc
        home, lines = fill_home_set(drv, 0, 0x0, assoc + 2)
        drv.settle()
        # the victim (oldest line) should be somewhere on-chip
        victim = lines[0]
        resident = any(l2.array.contains(victim) for l2 in drv.system.l2s)
        if resident:
            fetches = drv.system.stats.value("offchip_fetches")
            drv.read(0, victim)
            assert drv.system.stats.value("offchip_fetches") == fetches, \
                "migrated line should be served on-chip"

    def test_vms_only_writes_back_instead(self):
        drv = AccessDriver(build_system(Organization.LOCO_CC_VMS))
        assoc = drv.system.config.l2.assoc
        fill_home_set(drv, 0, 0x0, assoc + 3)
        drv.settle()
        assert drv.system.stats.value("ivr_migrations") == 0

    def test_migration_counter_bounds_hops(self):
        """Victims stop migrating at the threshold and write back."""
        cfg_kw = dict(ivr=IvrConfig(replacement_threshold=1))
        drv = AccessDriver(build_system(ORG, **cfg_kw))
        assoc = drv.system.config.l2.assoc
        fill_home_set(drv, 0, 0x0, assoc + 3)
        drv.settle()
        # threshold 1: first eviction already writes back
        assert drv.system.stats.value("ivr_migrations") == 0

    def test_round_robin_policy(self):
        cfg_kw = dict(ivr=IvrConfig(target_policy="round_robin"))
        drv = AccessDriver(build_system(ORG, **cfg_kw))
        assoc = drv.system.config.l2.assoc
        fill_home_set(drv, 0, 0x0, assoc + 4)
        drv.settle()
        assert drv.system.stats.value("ivr_migrations") >= 1

    def test_round_robin_policy_covers_the_onward_hop(self):
        """A denied migrant's next hop follows ``target_policy`` too:
        under ``round_robin`` it advances the shared cursor and draws
        nothing from the ``ivr`` stream."""
        system = build_system(ORG, ivr=IvrConfig(target_policy="round_robin"))
        cm = system.ctx.cluster_map
        l2 = system.l2s[0]
        others = [c for c in range(cm.num_clusters) if c != l2.my_cluster]
        sent = []
        system.ctx.send = lambda msg, dst: sent.append((msg, dst))
        for hop in range(len(others) + 1):
            migrant = Msg(MsgKind.IVR_MIGRATE, 0x40, 5, Unit.L2, requestor=5,
                          tokens=1, migrations=1)
            l2._forward_or_writeback(migrant)
            onward, dst = sent[-1]
            assert onward.kind is MsgKind.IVR_MIGRATE
            assert onward.migrations == 2
            assert dst == cm.home_tile(others[hop % len(others)],
                                       cm.hnid_of_line(0x40))
        assert system.stats.value("ivr_rr_cursor") == len(others) + 1
        assert system.stats.value("ivr_forwards") == len(others) + 1
        assert "ivr" not in system.rng._streams


class TestTimestampArbitration:
    def test_newer_migrant_displaces_older_resident(self):
        """Fill a remote home set with OLD lines, then overflow a local
        set: the newer migrants should displace the old residents."""
        drv = AccessDriver(build_system(ORG))
        system = drv.system
        cm = system.ctx.cluster_map
        assoc = system.config.l2.assoc
        # Stage 1: a core in cluster 1 fills lines (they become old).
        other = next(t for t in range(16) if cm.cluster_of(t) == 1)
        sets = system.l2s[0].array.num_sets
        stride = sets * cm.cluster_size
        old_lines = [0x0 + i * stride for i in range(assoc)]
        for ln in old_lines:
            drv.read(other, ln)
        # Stage 2: age them, then hammer the same set from cluster 0.
        drv.settle(system.config.ivr.timestamp_quantum * 20)
        new_lines = [0x100000 + i * stride for i in range(assoc + 4)]
        hot_home = system.ctx.home_tile(0, new_lines[0])
        for ln in new_lines:
            if system.l2s[0].array.set_index(ln) != \
                    system.l2s[0].array.set_index(0x0):
                continue
            drv.read(0, ln)
            drv.read(0, ln)
        drv.settle()
        assert system.stats.value("ivr_installs") + \
            system.stats.value("ivr_merges") + \
            system.stats.value("ivr_forwards") + \
            system.stats.value("ivr_threshold_writebacks") >= 1

    def test_conservation_with_heavy_ivr(self):
        drv = AccessDriver(build_system(ORG))
        system = drv.system
        assoc = system.config.l2.assoc
        for base in (0x0, 0x10, 0x20):
            fill_home_set(drv, 0, base, assoc + 2)
        drv.settle(20_000)
        system.check_token_conservation()


class TestDemandTouchResetsCounter:
    def test_counter_reset_on_access(self):
        drv = AccessDriver(build_system(ORG))
        system = drv.system
        assoc = system.config.l2.assoc
        home, lines = fill_home_set(drv, 0, 0x0, assoc + 2)
        drv.settle()
        # re-touch the first line (wherever it is now)
        drv.read(0, lines[0])
        for l2 in system.l2s:
            ln = l2.array.lookup(lines[0], touch=False)
            if ln is not None and ln.sharers:
                assert ln.migrations == 0
