"""Unit tests for the cache substrate: arrays, replacement, MSHRs,
lines, timestamps."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, L1State, L2State
from repro.cache.mshr import MshrFile
from repro.cache.replacement import LruPolicy
from repro.cache.timestamp import CoarseTimestamp
from repro.errors import ConfigError, ProtocolError
from repro.params import CacheConfig
from repro.sim.kernel import Simulator


def small_array(sets=4, assoc=2):
    cfg = CacheConfig(size_bytes=sets * assoc * 32, assoc=assoc,
                      line_bytes=32, access_latency=1)
    return CacheArray(cfg)


class TestCacheArray:
    def test_allocate_and_lookup(self):
        a = small_array()
        line, victim = a.allocate(0x10)
        assert victim is None
        assert a.lookup(0x10) is line
        assert a.contains(0x10)

    def test_lookup_missing_returns_none(self):
        assert small_array().lookup(0x99) is None

    def test_double_allocate_rejected(self):
        a = small_array()
        a.allocate(0x10)
        with pytest.raises(ConfigError):
            a.allocate(0x10)

    def test_lru_eviction_order(self):
        a = small_array(sets=1, assoc=2)
        a.allocate(1)
        a.allocate(2)
        a.lookup(1)  # 1 becomes MRU
        _, victim = a.allocate(3)
        assert victim is not None and victim.line_addr == 2

    def test_set_isolation(self):
        a = small_array(sets=4, assoc=2)
        # addresses 0,4,8 map to set 0; 1 maps to set 1
        a.allocate(0)
        a.allocate(4)
        _, victim = a.allocate(8)
        assert victim.line_addr == 0
        assert a.contains(1) is False
        a.allocate(1)
        assert a.contains(4) and a.contains(8)

    def test_invalidate_frees_way(self):
        a = small_array(sets=1, assoc=2)
        a.allocate(1)
        a.allocate(2)
        a.invalidate(1)
        _, victim = a.allocate(3)
        assert victim is None

    def test_invalidate_missing_returns_none(self):
        assert small_array().invalidate(0x5) is None

    def test_set_full(self):
        a = small_array(sets=1, assoc=2)
        assert not a.set_full(1)
        a.allocate(1)
        a.allocate(2)
        assert a.set_full(3)
        assert not a.set_full(1)  # resident line: not "full" for it

    def test_victim_candidate_nondestructive(self):
        a = small_array(sets=1, assoc=2)
        a.allocate(1)
        a.allocate(2)
        cand = a.victim_candidate(3)
        assert cand.line_addr == 1
        assert a.contains(1) and a.contains(2)

    def test_victim_candidate_none_when_space(self):
        a = small_array(sets=1, assoc=2)
        a.allocate(1)
        assert a.victim_candidate(3) is None

    def test_victim_ranking_order(self):
        a = small_array(sets=1, assoc=4)
        for i in (1, 2, 3, 4):
            a.allocate(i)
        a.lookup(1)
        ranking = [ln.line_addr for ln in a.victim_ranking(9)]
        assert ranking[0] == 2  # LRU first
        assert ranking[-1] == 1  # MRU last

    def test_resident_count(self):
        a = small_array()
        a.allocate(1)
        a.allocate(2)
        assert a.resident_count == 2
        assert len(list(a.lines())) == 2


class TestReplacementPolicies:
    def test_lru_victim_is_least_recent(self):
        p = LruPolicy(4)
        for w in (0, 1, 2, 3):
            p.touch(w)
        p.touch(0)
        assert p.victim() == 1


class TestMshrFile:
    def test_allocate_get_retire(self):
        f = MshrFile(4)
        m = f.allocate(0x10, "GETS", requestor=3)
        assert f.get(0x10) is m
        assert f.busy(0x10)
        f.defer(0x10, "queued-item")
        assert f.retire(0x10) == ["queued-item"]
        assert not f.busy(0x10)

    def test_double_allocate_rejected(self):
        f = MshrFile(4)
        f.allocate(0x10, "GETS")
        with pytest.raises(ProtocolError):
            f.allocate(0x10, "GETX")

    def test_capacity_and_force(self):
        f = MshrFile(1)
        f.allocate(1, "A")
        assert f.full
        with pytest.raises(ProtocolError):
            f.allocate(2, "B")
        m = f.allocate(2, "EVICT", force=True)
        assert m.kind == "EVICT"

    def test_retire_unknown_rejected(self):
        with pytest.raises(ProtocolError):
            MshrFile(4).retire(0x10)

    def test_defer_unknown_rejected(self):
        with pytest.raises(ProtocolError):
            MshrFile(4).defer(0x10, "x")


class TestLineStates:
    def test_l1_predicates(self):
        assert not L1State.I.readable
        assert L1State.S.readable and not L1State.S.writable
        assert L1State.M.writable

    def test_l2_predicates(self):
        assert L2State.M.is_owner and L2State.M.dirty and L2State.M.writable
        assert L2State.O.is_owner and L2State.O.dirty
        assert not L2State.O.writable
        assert L2State.E.is_owner and not L2State.E.dirty
        assert L2State.E.writable
        assert not L2State.S.is_owner
        assert not L2State.I.readable

    def test_line_defaults(self):
        ln = CacheLine(0x10)
        assert ln.tokens == 0 and not ln.owner_token
        assert ln.sharers == set()
        assert not ln.valid
        ln.l2_state = L2State.S
        assert ln.valid

    def test_touch(self):
        ln = CacheLine(0x10)
        ln.touch(42)
        assert ln.timestamp == 42


class TestCoarseTimestamp:
    def test_quantization(self):
        sim = Simulator()
        ts = CoarseTimestamp(sim, quantum=64)
        assert ts.now() == 0
        sim.schedule(200, lambda: None)
        sim.run()
        assert ts.now() == 200 // 64

    def test_newer(self):
        assert CoarseTimestamp.newer(5, 3)
        assert not CoarseTimestamp.newer(3, 3)

    def test_bad_quantum(self):
        with pytest.raises(ConfigError):
            CoarseTimestamp(Simulator(), 0)


class _ReferenceListLru:
    """The seed's O(assoc) list-based LRU, kept as a behavioral oracle
    for the OrderedDict implementation."""

    def __init__(self, assoc):
        self._order = list(range(assoc))

    def touch(self, way):
        self._order.remove(way)
        self._order.append(way)

    def victim(self):
        return self._order[0]

    def victim_ranking(self):
        return list(self._order)


class TestLruEquivalence:
    def test_matches_reference_list_lru_on_random_ops(self):
        import random
        rng = random.Random(20140301)
        for assoc in (1, 2, 4, 8, 16):
            fast, ref = LruPolicy(assoc), _ReferenceListLru(assoc)
            for _ in range(500):
                way = rng.randrange(assoc)
                fast.touch(way)
                ref.touch(way)
                assert fast.victim() == ref.victim()
                assert fast.victim_ranking() == ref.victim_ranking()

    def test_initial_order_is_way_order(self):
        p = LruPolicy(4)
        assert p.victim_ranking() == [0, 1, 2, 3]
        assert p.victim() == 0


class TestWayBookkeepingInvariants:
    def _check_way_invariants(self, a):
        """Per-line ways and the way->addr map must stay mutually
        inverse and disjoint from the free list, per set."""
        for idx in range(a.num_sets):
            lines = a._sets[idx]
            addr_of_way = a._addr_of_way[idx]
            free = a._free_ways[idx]
            ways = {addr: line.way for addr, line in lines.items()}
            assert len(set(ways.values())) == len(ways)  # no way reuse
            for addr, way in ways.items():
                assert addr_of_way[way] == addr
                assert way not in free
            for way, addr in enumerate(addr_of_way):
                if addr is not None:
                    assert ways[addr] == way
            assert len(ways) + len(free) == a.assoc
            if a._policies[idx] is None:  # set not materialised yet
                assert not lines

    def test_free_way_reused_after_invalidate(self):
        a = small_array(sets=1, assoc=2)
        line0, _ = a.allocate(0)
        a.allocate(1)
        freed_way = line0.way
        a.invalidate(0)
        assert line0.way == -1  # off-array lines carry no way
        self._check_way_invariants(a)
        line2, _ = a.allocate(2)
        assert line2.way == freed_way
        self._check_way_invariants(a)

    def test_invariants_through_mixed_churn(self):
        import random
        rng = random.Random(7)
        a = small_array(sets=4, assoc=4)
        resident = set()
        for step in range(800):
            addr = rng.randrange(64)
            if addr in resident and rng.random() < 0.4:
                a.invalidate(addr)
                resident.discard(addr)
            elif addr not in resident:
                _, victim = a.allocate(addr)
                resident.add(addr)
                if victim is not None:
                    resident.discard(victim.line_addr)
            else:
                a.lookup(addr)
            self._check_way_invariants(a)
        assert a.resident_count == len(resident)

    def test_victim_candidate_is_pure(self):
        a = small_array(sets=1, assoc=2)
        a.allocate(0)
        a.allocate(1)
        a.lookup(0)  # make 1 the LRU
        before_rank = [ln.line_addr for ln in a.victim_ranking(2)]
        cand1 = a.victim_candidate(2)
        cand2 = a.victim_candidate(2)
        assert cand1 is cand2
        assert cand1.line_addr == 1
        assert [ln.line_addr for ln in a.victim_ranking(2)] == before_rank
        assert a.resident_count == 2

    def test_index_stride_spreads_congruent_addresses(self):
        # An address-interleaved slice only sees addresses congruent
        # mod stride; the stride must be stripped before set indexing.
        stride = 4
        cfg = CacheConfig(size_bytes=8 * 2 * 32, assoc=2, line_bytes=32,
                          access_latency=1)
        a = CacheArray(cfg, index_stride=stride)
        seen = {a.set_index(base * stride) for base in range(a.num_sets)}
        assert seen == set(range(a.num_sets))

    def test_inverse_way_unmapped_rejected(self):
        a = small_array(sets=1, assoc=2)
        with pytest.raises(ConfigError):  # untouched set
            a._inverse_way(0, 0)
        line, _ = a.allocate(0)
        way = line.way
        a.invalidate(0)
        with pytest.raises(ConfigError):  # materialised, way freed
            a._inverse_way(0, way)
