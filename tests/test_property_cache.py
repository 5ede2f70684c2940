"""Property-based tests (hypothesis) for the cache substrate."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine
from repro.errors import ConfigError
from repro.params import CacheConfig


def array_config(sets, assoc):
    return CacheConfig(size_bytes=sets * assoc * 32, assoc=assoc,
                       line_bytes=32, access_latency=1)


ops = st.lists(
    st.tuples(st.sampled_from(["access", "invalidate"]),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=300)


model_ops = st.lists(
    st.tuples(st.sampled_from(["access", "access", "invalidate", "peek",
                               "pickle"]),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=300)


class TestCacheArrayProperties:
    @given(ops=ops, sets=st.sampled_from([1, 2, 4, 8]),
           assoc=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity_and_stays_consistent(self, ops, sets,
                                                         assoc):
        a = CacheArray(array_config(sets, assoc))
        resident = set()
        for op, addr in ops:
            if op == "access":
                line = a.lookup(addr)
                if line is None:
                    _, victim = a.allocate(addr)
                    resident.add(addr)
                    if victim is not None:
                        resident.discard(victim.line_addr)
            else:
                if a.invalidate(addr) is not None:
                    resident.discard(addr)
            # invariants
            assert a.resident_count == len(resident)
            assert a.resident_count <= sets * assoc
            for r in resident:
                assert a.contains(r)

    @given(ops=model_ops, sets=st.sampled_from([1, 2, 4]),
           assoc=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_lru_model(self, ops, sets, assoc):
        """Every set of the array must behave exactly like a textbook
        LRU list of its own, across a pickle round trip too."""
        a = CacheArray(array_config(sets, assoc))
        model = [[] for _ in range(sets)]  # per set: LRU .. MRU

        for op, addr in ops:
            lru = model[a.set_index(addr)]
            if op == "access":
                if a.lookup(addr) is None:
                    _, victim = a.allocate(addr)
                    if len(lru) == assoc:
                        assert victim.line_addr == lru.pop(0)
                    else:
                        assert victim is None
                    lru.append(addr)
                else:
                    lru.remove(addr)
                    lru.append(addr)
            elif op == "invalidate":
                if a.invalidate(addr) is not None:
                    lru.remove(addr)
            elif op == "peek":
                line = a.lookup(addr, touch=False)
                assert (line is not None) == (addr in lru)
            else:
                a = pickle.loads(pickle.dumps(a))
            assert [ln.line_addr for ln in a.victim_ranking(addr)] == lru
            assert a.set_full(addr) == (len(lru) == assoc
                                        and addr not in lru)
        assert sorted(ln.line_addr for ln in a.lines()) == \
            sorted(addr for lru in model for addr in lru)

    @given(addrs=st.lists(st.integers(0, 10_000), min_size=1,
                          max_size=100),
           stride=st.sampled_from([1, 4, 16, 64]))
    @settings(max_examples=40, deadline=None)
    def test_index_stride_distributes(self, addrs, stride):
        """With stride S, addresses differing only below S map to the
        same set; the set index never exceeds num_sets."""
        a = CacheArray(array_config(8, 2), index_stride=stride)
        for addr in addrs:
            idx = a.set_index(addr)
            assert 0 <= idx < 8
            assert idx == a.set_index((addr // stride) * stride)


def eager_array(config, index_stride):
    """Reference: an array whose every set owns its dict from
    construction (the layout before sets were made lazy)."""
    a = CacheArray(config, index_stride=index_stride)
    a._sets = [{} for _ in range(a.num_sets)]
    return a


def outcome(array, op, addr):
    """What one operation returns (lines as their addresses), or that
    it raised."""
    def plain(value):
        if isinstance(value, CacheLine):
            return value.line_addr
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value
    try:
        if op == "lookup_quiet":
            return plain(array.lookup(addr, touch=False))
        return plain(getattr(array, op)(addr))
    except ConfigError:
        return "ConfigError"


array_ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "lookup_quiet", "contains",
                               "allocate", "invalidate", "victim_ranking",
                               "set_full"]),
              st.integers(min_value=0, max_value=400)),
    min_size=1, max_size=200)


class TestLazySetsDifferential:
    @given(ops=array_ops, stride=st.sampled_from([1, 16]),
           sets=st.sampled_from([1, 4, 8]), assoc=st.sampled_from([1, 2, 4]))
    @settings(max_examples=120, deadline=None)
    def test_fresh_array_answers_like_a_materialised_one(
            self, ops, stride, sets, assoc):
        config = array_config(sets, assoc)
        lazy = CacheArray(config, index_stride=stride)
        eager = eager_array(config, stride)
        for op, addr in ops:
            assert outcome(lazy, op, addr) == outcome(eager, op, addr), \
                (op, addr)
        assert lazy.resident_count == eager.resident_count
        assert sorted(ln.line_addr for ln in lazy.lines()) == \
            sorted(ln.line_addr for ln in eager.lines())
