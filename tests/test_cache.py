"""Unit tests for the cache substrate: arrays (recency order), MSHRs,
lines, timestamps."""

import pickle

import pytest

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, L1State, L2State
from repro.cache.mshr import MshrFile
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

    def test_index_stride_spreads_congruent_addresses(self):
        # An address-interleaved slice only sees addresses congruent
        # mod stride; the stride must be stripped before set indexing.
        stride = 4
        cfg = CacheConfig(size_bytes=8 * 2 * 32, assoc=2, line_bytes=32,
                          access_latency=1)
        a = CacheArray(cfg, index_stride=stride)
        seen = {a.set_index(base * stride) for base in range(a.num_sets)}
        assert seen == set(range(a.num_sets))

    def test_untouched_sets_share_one_empty_dict_across_pickle(self):
        a = small_array(sets=4, assoc=2)
        a.allocate(1)
        a.lookup(5)  # read-only queries never materialise a set
        a.invalidate(6)
        b = pickle.loads(pickle.dumps(a))
        for arr in (a, b):
            shared = [s is arr._empty for s in arr._sets]
            assert shared == [True, False, True, True]
            assert arr._empty == {}
        b.allocate(2)  # materialises its own set; the shared one stays empty
        assert b._sets[2] is not b._empty and b._empty == {}
        assert [ln.line_addr for ln in b.lines()] == [1, 2]

    def test_zero_associativity_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=32, assoc=0, line_bytes=32,
                        access_latency=1)


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
