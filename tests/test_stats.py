"""Unit tests for statistics primitives."""

import json

import pytest

from repro.sim.stats import Counter, LatencySampler, Stats


class TestCounter:
    def test_inc_default_and_amount(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6


class TestLatencySampler:
    def test_moments(self):
        s = LatencySampler("s")
        for v in (1.0, 2.0, 3.0):
            s.add(v)
        assert s.count == 3
        assert s.total == 6.0
        assert s.mean == 2.0

    def test_empty_mean(self):
        assert LatencySampler("s").mean == 0.0


class TestStats:
    def test_on_demand_creation(self):
        st = Stats()
        st.counter("a").inc()
        assert st.value("a") == 1
        assert st.value("never") == 0

    def test_same_name_same_object(self):
        st = Stats()
        assert st.counter("a") is st.counter("a")
        assert st.sampler("s") is st.sampler("s")

    def test_merge_counters_and_samplers(self):
        a, b = Stats(), Stats()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc(1)
        a.sampler("s").add(1.0)
        b.sampler("s").add(3.0)
        a.merge(b)
        assert a.value("c") == 5
        assert a.value("only_b") == 1
        assert a.mean("s") == 2.0

    def test_to_dict(self):
        st = Stats()
        st.counter("c").inc(7)
        st.sampler("s").add(4.0)
        d = st.to_dict()
        assert d["c"] == 7
        assert d["s.mean"] == 4.0
        assert d["s.count"] == 1

    def test_mark_and_delta(self):
        st = Stats()
        st.counter("c").inc(10)
        st.sampler("s").add(100.0)
        st.mark()
        st.counter("c").inc(5)
        st.sampler("s").add(2.0)
        st.sampler("s").add(4.0)
        assert st.delta("c") == 5
        assert st.delta_mean("s") == 3.0
        # raw values unaffected
        assert st.value("c") == 15

    def test_delta_without_mark_is_raw(self):
        st = Stats()
        st.counter("c").inc(4)
        assert st.delta("c") == 4

    def test_delta_mean_no_new_samples_is_zero(self):
        """Regression: a mark with no post-warmup samples used to fall
        back to the overall (warmup-contaminated) mean."""
        st = Stats()
        st.sampler("s").add(7.0)
        st.mark()
        assert st.delta_mean("s") == 0.0

    def test_delta_mean_sampler_created_after_mark_uses_all_samples(self):
        st = Stats()
        st.mark()
        st.sampler("late").add(3.0)
        st.sampler("late").add(5.0)
        assert st.delta_mean("late") == 4.0

    def test_delta_mean_unmarked_is_overall_mean(self):
        st = Stats()
        st.sampler("s").add(2.0)
        st.sampler("s").add(4.0)
        assert st.delta_mean("s") == 3.0

    def test_counter_created_after_mark(self):
        st = Stats()
        st.mark()
        st.counter("late").inc(3)
        assert st.delta("late") == 3


def _unmarked():
    st = Stats()
    st.counter("c").inc(4)
    for v in (0.1, 0.2, 0.7):
        st.sampler("s").add(v)
    st.sampler("empty")
    return st


def _marked():
    st = _unmarked()
    st.mark()
    st.counter("c").inc(3)
    st.sampler("s").add(1.3)
    return st


def _created_after_mark():
    st = _marked()
    st.counter("late").inc(2)
    st.sampler("late_s").add(5.5)
    st.sampler("late_s").add(0.25)
    return st


class TestWireForm:
    @pytest.mark.parametrize("build", [_unmarked, _marked,
                                       _created_after_mark])
    def test_json_round_trip_is_exact(self, build):
        st = build()
        wire = json.loads(json.dumps(st.to_wire()))
        back = Stats.from_wire(wire)
        d = st.to_dict()
        assert back.to_dict() == d
        assert back.marked == st.marked
        counters = [k for k in d if not k.endswith((".mean", ".count"))]
        samplers = [k[:-len(".mean")] for k in d if k.endswith(".mean")]
        assert counters and samplers
        for name in counters:
            assert back.delta(name) == st.delta(name)
        for name in samplers:
            assert back.delta_mean(name) == st.delta_mean(name)
        assert back.to_wire() == wire

    def test_sampler_is_count_and_total(self):
        wire = _created_after_mark().to_wire()
        assert wire["samplers"]["s"] == [4, 0.1 + 0.2 + 0.7 + 1.3]
        assert wire["mark_samplers"] == {"s": [3, 0.1 + 0.2 + 0.7],
                                         "empty": [0, 0.0]}
        assert wire["mark_counters"] == {"c": 4}
        assert "mark_counters" not in _unmarked().to_wire()

    def test_decode_refuses_a_six_field_sampler(self):
        """A v8-era full result (``[count, total, sq_total, min, max,
        samples]`` samplers) is a typed refusal, not a wrong mean."""
        from repro.errors import ConfigError
        from repro.harness.units import RESULT_MARKER, decode_result
        wire = {RESULT_MARKER: 1, "runtime": 1, "instructions": 1,
                "finished": True, "per_core_finish": [1],
                "stats": {"counters": {},
                          "samplers": {"s": [1, 2.0, 4.0, 2.0, 2.0, None]}}}
        with pytest.raises(ConfigError, match="malformed encoded RunResult"):
            decode_result(wire, None)
