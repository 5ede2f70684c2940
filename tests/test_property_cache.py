"""Property-based tests (hypothesis) for the cache substrate."""

import pickle
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine
from repro.cache.replacement import LruPolicy
from repro.errors import ConfigError
from repro.params import CacheConfig


def array_config(sets, assoc):
    return CacheConfig(size_bytes=sets * assoc * 32, assoc=assoc,
                       line_bytes=32, access_latency=1)


ops = st.lists(
    st.tuples(st.sampled_from(["access", "invalidate"]),
              st.integers(min_value=0, max_value=255)),
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

    @given(ops=ops)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_lru_model(self, ops):
        """The array with one set must behave exactly like a textbook
        LRU list."""
        assoc = 4
        a = CacheArray(array_config(1, assoc))
        model = []  # LRU .. MRU

        for op, addr in ops:
            if op == "access":
                if a.lookup(addr) is None:
                    _, victim = a.allocate(addr)
                    if victim is not None:
                        assert victim.line_addr == model[0]
                        model.pop(0)
                    model.append(addr)
                else:
                    model.remove(addr)
                    model.append(addr)
            else:
                if a.invalidate(addr) is not None:
                    model.remove(addr)
            assert set(model) == {ln.line_addr for ln in a.lines()}

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
    """Reference: an array whose every set owns its dict, policy and
    way maps from construction (the layout before sets were made
    lazy)."""
    a = CacheArray(config, index_stride=index_stride)
    for idx in range(a.num_sets):
        a._policies[idx] = LruPolicy(a.assoc)
        a._sets[idx] = {}
        a._addr_of_way[idx] = [None] * a.assoc
        a._free_ways[idx] = list(range(a.assoc))
    return a


def outcome(array, op, addr):
    """What one operation returns (lines as (addr, way)), or that it
    raised."""
    def plain(value):
        if isinstance(value, CacheLine):
            return value.line_addr, value.way
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
                               "allocate", "invalidate", "victim_candidate",
                               "victim_ranking", "set_full",
                               "set_occupancy"]),
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
        assert sorted((ln.line_addr, ln.way) for ln in lazy.lines()) == \
            sorted((ln.line_addr, ln.way) for ln in eager.lines())


class TestLruPolicyProperties:
    @given(touches=st.lists(st.integers(0, 3), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_victim_is_least_recently_touched(self, touches):
        p = LruPolicy(4)
        for w in touches:
            p.touch(w)
        last_touch = {w: i for i, w in enumerate(touches)}
        victim = p.victim()
        untouched = [w for w in range(4) if w not in last_touch]
        if untouched:
            assert victim in untouched
        else:
            assert last_touch[victim] == min(last_touch.values())

    @given(touches=st.lists(st.integers(0, 7), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_ranking_is_permutation(self, touches):
        p = LruPolicy(8)
        for w in touches:
            p.touch(w)
        assert sorted(p.victim_ranking()) == list(range(8))


lru_ops = st.lists(
    st.tuples(st.sampled_from(["touch", "touch", "victim",
                               "victim_ranking", "pickle"]),
              st.integers(min_value=0, max_value=15)),
    min_size=1, max_size=120)


class TestListLruDifferential:
    @given(ops=lru_ops, assoc=st.integers(min_value=1, max_value=16))
    @settings(max_examples=120, deadline=None)
    def test_list_lru_matches_ordered_dict_model(self, ops, assoc):
        """The list ``LruPolicy`` against the hash-linked order it
        replaced (``move_to_end`` / first key / key order), with a
        pickle round trip wherever the op stream asks for one."""
        policy = LruPolicy(assoc)
        model = OrderedDict((way, None) for way in range(assoc))
        for op, arg in ops:
            way = arg % assoc
            if op == "touch":
                policy.touch(way)
                model.move_to_end(way)
            elif op == "victim":
                assert policy.victim() == next(iter(model))
            elif op == "victim_ranking":
                ranking = policy.victim_ranking()
                assert ranking == list(model)
                ranking.clear()  # a copy: the caller may not reach in
            else:
                policy = pickle.loads(pickle.dumps(policy))
                assert policy.assoc == assoc
        assert policy.victim_ranking() == list(model)
