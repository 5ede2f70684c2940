"""Tests for the parameter-sweep utility."""

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import ExperimentConfig
from repro.harness.parallel import run_units
from repro.harness.sweep import best, grid_units, sweep
from repro.harness.units import SweepUnit
from repro.params import Organization


class TestSweep:
    def test_cross_product(self):
        rows = sweep("water_spatial", metric="runtime",
                     organization=[Organization.SHARED,
                                   Organization.PRIVATE],
                     scale=[0.04])
        assert len(rows) == 2
        orgs = {r["organization"] for r in rows}
        assert orgs == {Organization.SHARED, Organization.PRIVATE}
        assert all(r["runtime"] > 0 for r in rows)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep("lu", metric="runtime", flux_capacitor=[1])

    def test_metric_from_stats_dict(self):
        rows = sweep("water_spatial", metric="l2_misses",
                     organization=[Organization.SHARED], scale=[0.04])
        assert rows[0]["l2_misses"] >= 0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            sweep("water_spatial", metric="nonsense",
                  organization=[Organization.SHARED], scale=[0.04])

    @pytest.mark.parametrize("metric,jobs", [
        ("stats", None), ("config", None), ("to_dict", None),
        ("stats", 2)])
    def test_non_numeric_attribute_is_not_a_metric(self, metric, jobs):
        """``hasattr(result, metric)`` is not enough: only a number
        fits a row, the JSON cache and the wire."""
        with pytest.raises(ConfigError, match="unknown metric"):
            sweep("water_spatial", metric=metric, jobs=jobs,
                  organization=[Organization.SHARED,
                                Organization.PRIVATE], scale=[0.04])

    def test_full_result_when_no_metric(self):
        rows = sweep("water_spatial",
                     organization=[Organization.SHARED], scale=[0.04])
        assert rows[0]["result"].finished

    def test_best(self):
        rows = [{"x": 1, "m": 5.0}, {"x": 2, "m": 3.0}]
        assert best(rows, "m")["x"] == 2
        assert best(rows, "m", minimize=False)["x"] == 1

    def test_best_empty_rejected(self):
        with pytest.raises(ConfigError):
            best([], "m")


class TestParallelSweep:
    AXES = dict(organization=[Organization.SHARED, Organization.PRIVATE],
                scale=[0.04], seed=[1, 2])

    def test_rows_bit_identical_to_serial(self):
        serial = sweep("water_spatial", metric="runtime", **self.AXES)
        par = sweep("water_spatial", metric="runtime", jobs=2,
                    **self.AXES)
        assert par == serial  # same order, same values, same types

    def test_sweep_jobs_kwarg_delegates(self):
        rows = sweep("water_spatial", metric="runtime", jobs=2,
                     organization=[Organization.SHARED], scale=[0.04])
        assert len(rows) == 1 and rows[0]["runtime"] > 0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep("lu", metric="runtime", jobs=2, flux_capacitor=[1])

    def test_json_cache_roundtrip(self, tmp_path):
        first = sweep("water_spatial", metric="runtime", jobs=2,
                      cache_dir=str(tmp_path), **self.AXES)
        assert len(list(tmp_path.glob("*.json"))) == len(first)
        again = sweep("water_spatial", metric="runtime", jobs=2,
                      cache_dir=str(tmp_path), **self.AXES)
        assert again == first

    def test_full_results_and_aggregate(self):
        from repro.harness.parallel import aggregate_stats
        rows = sweep("water_spatial", jobs=2,
                     organization=[Organization.SHARED,
                                   Organization.PRIVATE],
                     scale=[0.04])
        results = [r["result"] for r in rows]
        assert all(r.finished for r in results)
        merged = aggregate_stats(results)
        assert merged.value("instructions") == sum(
            r.stats.value("instructions") for r in results)

    def test_pool_width_capped_at_fan_out(self, monkeypatch):
        """``jobs=cpu_count()`` on a 2-cell sweep must not fork a pile
        of idle children (fork-start pools launch every worker up
        front)."""
        from repro.harness import parallel
        widths = []

        class RecordingPool(parallel.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                widths.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        rows = sweep("water_spatial", metric="runtime", jobs=8,
                     organization=[Organization.SHARED,
                                   Organization.PRIVATE], scale=[0.04])
        assert len(rows) == 2
        assert widths == [2]


class TestOneDispatchLoop:
    """Every combination of the execution options goes through one
    cache filter, one coalescing step, one batch pre-pass and one
    dispatch loop, and returns the cold serial rows."""

    BENCH = "water_spatial"
    METRICS = ["runtime", "mpki"]
    #: 2 prefixes x 2 metrics = 4 units, 2 simulations; the one-core
    #: cell is batchable, the four-core cell is not
    AXES = dict(organization=[Organization.SHARED], cores=[1, 4],
                cluster=[(1, 1)], scale=[0.04], warmup_fraction=[0.5])

    @pytest.fixture(scope="class")
    def cold(self):
        return sweep(self.BENCH, metric=self.METRICS, **self.AXES)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["nocache", "cache_dir"])
    @pytest.mark.parametrize("batch", [None, 4], ids=["scalar", "batch4"])
    @pytest.mark.parametrize("images", ["cold", "dir"])
    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    def test_rows_equal_cold_serial(self, jobs, images, batch, cached,
                                    cold, tmp_path, monkeypatch):
        from repro.harness import experiment, units
        from repro.harness.experiment import (WarmupImageCache,
                                              clear_trace_cache)
        cache_dir = str(tmp_path / "rows") if cached else None
        store = (WarmupImageCache(str(tmp_path / "images"))
                 if images == "dir" else None)
        opts = dict(metric=self.METRICS, jobs=jobs, batch=batch,
                    cache_dir=cache_dir, warmup_snapshots=store is not None,
                    warmup_cache=store, **self.AXES)
        assert sweep(self.BENCH, **opts) == cold
        if store is not None:
            # one image per prefix, whichever process built it (a
            # caller's store gets it even though nothing forks: each
            # prefix is one simulation); only an in-process run counts
            # on the caller's own cache object
            assert len(list((tmp_path / "images").glob(
                "*.warmup.snap"))) == 2
            assert (store.misses, store.hits) == \
                ((2, 0) if jobs is None else (0, 0))
        if not cached:
            return
        files = sorted(p.name for p in (tmp_path / "rows").iterdir())
        assert len(files) == 4
        assert all(name.endswith(".json") for name in files)
        # a second call is served from the row cache: it simulates
        # nothing, in this process or in a pool forked from it
        clear_trace_cache()

        def poisoned(*args, **kwargs):
            raise AssertionError("cached sweep must not simulate")

        monkeypatch.setattr(units, "run_benchmark", poisoned)
        assert sweep(self.BENCH, **opts) == cold
        assert experiment._trace_cache == {}


@pytest.fixture
def dispatched(monkeypatch):
    """The cells each ``run_units`` call hands its local backend."""
    from repro.harness import parallel
    calls = []
    real = parallel._run_local

    def spy(cells, *args):
        calls.append(list(cells))
        return real(cells, *args)

    monkeypatch.setattr(parallel, "_run_local", spy)
    return calls


class TestOneSimulationPerConfig:
    """``run_units`` never simulates the same config twice in one
    call: units that differ only in the metric they read or the
    horizon they allow are served by one cell, and each gets the value
    — and the cache file — it would have got alone."""

    BENCH = "water_spatial"
    NAMES = ["runtime", "mpki", "offchip_accesses"]

    @classmethod
    def exp(cls, org=Organization.SHARED, cores=16, cluster=(2, 2), **kw):
        return ExperimentConfig(cls.BENCH, org, cores=cores,
                                cluster=cluster, scale=0.04, **kw)

    @staticmethod
    def units(exps, metrics, max_cycles=50_000_000):
        return [SweepUnit(e, max_cycles, m) for e in exps for m in metrics]

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    def test_metric_list_adds_columns_not_simulations(self, jobs,
                                                      simulations):
        axes = dict(organization=[Organization.SHARED,
                                  Organization.LOCO_CC], cores=[16],
                    cluster=[(2, 2)], scale=[0.04])
        rows = sweep(self.BENCH, metric=self.NAMES, jobs=jobs, **axes)
        assert simulations() == ["cold", "cold"]
        for name in self.NAMES:
            assert [r[name] for r in rows] == [
                r[name] for r in sweep(self.BENCH, metric=name, **axes)]

    def test_full_result_member_serves_the_named_ones(self, simulations,
                                                      dispatched):
        from repro.cmp.system import RunResult
        units = self.units([self.exp()],
                           ["mpki", None, ("runtime", "mpki")])
        alone = [u.run() for u in units]
        simulations()
        mpki, result, pair = run_units(units)
        assert simulations() == ["cold"]
        assert [[c.metric for c in cells] for cells in dispatched] \
            == [[None]]
        assert isinstance(result, RunResult)
        assert (mpki, pair) == (alone[0], alone[2])
        assert list(pair) == ["runtime", "mpki"]    # the member's order

    def test_exact_duplicates_simulate_once(self, simulations):
        units = self.units([self.exp()], ["runtime"] * 3)
        values = run_units(units)
        assert simulations() == ["cold"]
        assert values == [units[0].run()] * 3

    def test_tuple_members_get_their_own_sub_dict(self, simulations,
                                                  dispatched):
        units = self.units([self.exp()], [("runtime", "mpki"),
                                          ("offchip_accesses", "mpki")])
        alone = [u.run() for u in units]
        simulations()
        values = run_units(units)
        assert simulations() == ["cold"]
        assert dispatched[0][0].metric == ("runtime", "mpki",
                                           "offchip_accesses")
        assert values == alone
        assert [list(v) for v in values] == [list(u.metric) for u in units]

    def test_ladder_is_one_simulation_at_its_smallest_horizon(
            self, simulations, dispatched):
        """A horizon only decides whether a run finishes: a run that
        finishes by one follows the same trajectory under every larger
        one, so a ``max_cycles`` ladder is one cell at its lowest
        rung."""
        runtime = SweepUnit(self.exp(), metric="runtime").run()
        units = [SweepUnit(self.exp(), horizon, metric)
                 for horizon, metric in (
                     (50_000_000, "runtime"), (runtime, "mpki"),
                     (40_000_000, ("runtime", "offchip_accesses")))]
        alone = [u.run() for u in units]
        simulations()
        assert run_units(units) == alone
        assert simulations() == ["cold"]
        assert [(c.max_cycles, c.metric) for c in dispatched[0]] == [
            (runtime, ("runtime", "mpki", "offchip_accesses"))]

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    def test_unfinishable_lowest_rung_fails_its_group_and_caches_none_of_it(
            self, jobs, tmp_path):
        """...even though the higher rungs would finish on their own."""
        from repro.errors import SimulationError
        runtime = SweepUnit(self.exp(), metric="runtime").run()
        units = self.units([self.exp(Organization.PRIVATE)], ["runtime"]) \
            + [SweepUnit(self.exp(), horizon, "runtime")
               for horizon in (50_000_000, runtime, runtime - 1)]
        assert units[2].run() == runtime
        with pytest.raises(SimulationError,
                           match=f"the {runtime - 1}-cycle limit"):
            run_units(units, jobs=jobs, cache_dir=str(tmp_path))
        # the earlier group completed and is kept, as ever
        assert [p.name for p in tmp_path.iterdir()] \
            == [units[0].key() + ".json"]

    def test_partial_cache_hit_asks_for_the_missing_names_only(
            self, tmp_path, simulations, dispatched):
        """...and every member's cache file is, byte for byte, the
        one it writes when it is dispatched alone."""
        units = self.units([self.exp()], self.NAMES + [("mpki", "runtime")])
        alone, merged = tmp_path / "alone", tmp_path / "merged"
        for unit in units:
            run_units([unit], cache_dir=str(alone))
        run_units(units[:1], cache_dir=str(merged))
        del dispatched[:]
        simulations()
        values = run_units(units, cache_dir=str(merged))
        assert simulations() == ["cold"]
        assert [[c.metric for c in cells] for cells in dispatched] \
            == [[("mpki", "offchip_accesses", "runtime")]]
        assert values == run_units(units, cache_dir=str(alone))
        assert simulations() == []
        names = sorted(p.name for p in alone.iterdir())
        assert names == sorted(u.key() + ".json" for u in units)
        assert names == sorted(p.name for p in merged.iterdir())
        for name in names:
            assert (merged / name).read_bytes() \
                == (alone / name).read_bytes()

    def test_merged_tuple_rides_the_batcher(self, simulations,
                                            monkeypatch):
        """...and LOCO with one-tile clusters rides it as private."""
        import repro.batch
        exps = [self.exp(org, cores=1, cluster=(1, 1), seed=seed)
                for org in (Organization.SHARED, Organization.PRIVATE,
                            Organization.LOCO_CC)
                for seed in (1, 2)]
        units = self.units(exps, ["runtime", "mpki"])
        alone = [u.run() for u in units]
        simulations()
        batched = []
        real = repro.batch.run_batched

        def spy(cells, batch):
            batched.append([c.metric for c in cells])
            return real(cells, batch)

        monkeypatch.setattr(repro.batch, "run_batched", spy)
        assert run_units(units, batch=4) == alone
        assert batched == [[("runtime", "mpki")] * 4]
        assert simulations() == []      # every cell rode a batch

    @pytest.mark.parametrize("full", [False, True],
                             ids=["named", "with_full_result"])
    def test_bad_name_fails_its_group_and_caches_none_of_it(
            self, full, tmp_path):
        units = self.units([self.exp(Organization.PRIVATE)], ["runtime"]) \
            + self.units([self.exp()], ["runtime", "nonsense", "mpki"]
                         + [None] * full)
        with pytest.raises(ConfigError, match="unknown metric 'nonsense'"):
            run_units(units, cache_dir=str(tmp_path))
        # the earlier group completed and is kept, as ever
        assert [p.name for p in tmp_path.iterdir()] \
            == [units[0].key() + ".json"]

    def test_singletons_are_dispatched_as_they_are(self, dispatched):
        units = self.units([self.exp(), self.exp(Organization.PRIVATE)],
                           [("runtime", "mpki")]) \
            + self.units([self.exp(Organization.LOCO_CC)], ["runtime"])
        wires = [u.to_wire() for u in units]
        run_units(units)
        (cells,) = dispatched
        assert all(cell is unit for cell, unit in zip(cells, units))
        assert [c.to_wire() for c in cells] == wires

    def test_output_order_is_the_input_order(self, simulations):
        a, b = self.exp(), self.exp(Organization.PRIVATE)
        units = self.units([a, b, a, b], ["runtime"]) \
            + self.units([b, a], ["mpki"])
        alone = [u.run() for u in units]
        simulations()
        assert run_units(units) == alone
        assert run_units(units, jobs=2) == alone
        assert simulations() == ["cold"] * 4


class TestOneSimulationPerMachine:
    """Configs that declare one machine (``ExperimentConfig.machine``)
    are one simulation: a grid of every organization x three cluster
    shapes simulates its 10 distinct machines, not its 15 configs, and
    every unit still gets the value, full-result config and cache file
    it would have got alone."""

    BENCH = "barnes"
    AXES = dict(organization=list(Organization),
                cluster=[(1, 1), (2, 2), (4, 1)], cores=[16], scale=[0.02])
    MACHINES = 10

    @pytest.fixture(scope="class")
    def alone(self):
        """Each config's cold result, simulated on its own."""
        return [u.run() for u in
                grid_units(self.BENCH, None, 50_000_000, self.AXES)[3]]

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    def test_grid_simulates_each_machine_once(self, jobs, alone,
                                              simulations, dispatched):
        from repro.harness.units import encode_result
        simulations()
        rows = sweep(self.BENCH, jobs=jobs, **self.AXES)
        assert len(simulations()) == self.MACHINES
        (cells,) = dispatched
        assert len(cells) == self.MACHINES
        assert all(c.exp == c.exp.machine() for c in cells)
        assert len(rows) == len(alone) == 15
        for row, want in zip(rows, alone):
            assert row["result"].config == want.config
            assert encode_result(row["result"]) == encode_result(want)

    def test_cache_files_keep_their_unit_keys(self, alone, tmp_path,
                                              simulations):
        from repro.harness.units import metric_of
        names = ("runtime", "mpki")
        units = grid_units(self.BENCH, list(names), 50_000_000,
                           self.AXES)[3]
        simulations()
        values = run_units(units, cache_dir=str(tmp_path))
        assert len(simulations()) == self.MACHINES
        assert values == [metric_of(result, name)
                          for result in alone for name in names]
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(u.key() + ".json" for u in units)


class TestSweepCacheRobustness:
    """The JSON result cache must survive corrupt/partial files (an
    interrupted writer, a bad disk) by recomputing, never by crashing
    or returning garbage."""

    AXES = dict(organization=[Organization.SHARED], scale=[0.04],
                seed=[1])

    def _one_cache_file(self, tmp_path):
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        return files[0]

    def test_corrupt_cache_file_recomputed(self, tmp_path):
        first = sweep("water_spatial", metric="runtime", jobs=1,
                      cache_dir=str(tmp_path), **self.AXES)
        path = self._one_cache_file(tmp_path)
        path.write_text("{not json at all")
        again = sweep("water_spatial", metric="runtime", jobs=1,
                      cache_dir=str(tmp_path), **self.AXES)
        assert again == first
        # the recompute repaired the cache file
        import json
        assert json.loads(path.read_text())["value"] == first[0]["runtime"]

    def test_partial_cache_file_recomputed(self, tmp_path):
        first = sweep("water_spatial", metric="runtime", jobs=1,
                      cache_dir=str(tmp_path), **self.AXES)
        path = self._one_cache_file(tmp_path)
        path.write_text('{"config": "x", "metric": "runtime"}')  # no value
        again = sweep("water_spatial", metric="runtime", jobs=1,
                      cache_dir=str(tmp_path), **self.AXES)
        assert again == first

    @pytest.mark.parametrize("text", ["[]", "3", "null",
                                      '{"value": null}'])
    def test_well_formed_json_of_the_wrong_shape_recomputed(self, text,
                                                            tmp_path):
        """Valid JSON that is not an object with a number under
        ``value`` is a miss like any other garbage: never a crash out
        of ``sweep()``, never a ``None`` in a row."""
        first = sweep("water_spatial", metric="runtime",
                      cache_dir=str(tmp_path), **self.AXES)
        path = self._one_cache_file(tmp_path)
        good = path.read_bytes()
        path.write_text(text)
        again = sweep("water_spatial", metric="runtime",
                      cache_dir=str(tmp_path), **self.AXES)
        assert again == first
        assert path.read_bytes() == good    # repaired

    @pytest.mark.parametrize("value", [
        "3", '{"runtime": 1}', '{"runtime": 1, "mpki": null}',
        '{"runtime": 1, "mpki": 2, "finished": true}'])
    def test_tuple_unit_served_only_a_dict_covering_its_names(
            self, value, tmp_path):
        unit = SweepUnit(ExperimentConfig("water_spatial",
                                          Organization.SHARED, scale=0.04),
                         metric=("runtime", "mpki"))
        first = run_units([unit], cache_dir=str(tmp_path))
        path = self._one_cache_file(tmp_path)
        good = path.read_bytes()
        path.write_text('{"value": %s}' % value)
        assert run_units([unit], cache_dir=str(tmp_path)) == first
        assert path.read_bytes() == good

    def test_cache_ignored_for_full_results(self, tmp_path):
        rows = sweep("water_spatial", jobs=1,
                     cache_dir=str(tmp_path), **self.AXES)
        assert rows[0]["result"].finished
        assert list(tmp_path.glob("*.json")) == []  # never cached

    def test_workload_unit_rides_the_cache(self, tmp_path, monkeypatch):
        """A metric-reduced Table-2 workload cell (a Fig 15 cell) is
        stored and served like any other unit — it *is* a SweepUnit."""
        unit = SweepUnit(ExperimentConfig("W0", Organization.SHARED,
                                          cluster=(4, 1), scale=0.04),
                         metric=("runtime",))
        first = run_units([unit], cache_dir=str(tmp_path))
        assert first[0]["runtime"] > 0
        assert self._one_cache_file(tmp_path).name == unit.key() + ".json"

        def poisoned(self, warmup_images=None):
            raise AssertionError("cached unit must not simulate")

        monkeypatch.setattr(SweepUnit, "run", poisoned)
        assert run_units([unit], cache_dir=str(tmp_path)) == first

    def test_failed_store_raises_and_leaves_no_staging_file(self, tmp_path):
        """A directory squatting on the final ``<key>.json`` path makes
        the publish fail; the staging file must not survive it."""
        (unit,) = grid_units("water_spatial", "runtime", 50_000_000,
                             self.AXES)[3]
        (tmp_path / (unit.key() + ".json")).mkdir()
        with pytest.raises(OSError):
            sweep("water_spatial", metric="runtime",
                  cache_dir=str(tmp_path), **self.AXES)
        assert [p.name for p in tmp_path.iterdir()
                if ".tmp" in p.name] == []


class TestStatsMerge:
    def _small_stats(self):
        from repro.sim.stats import Stats
        s = Stats()
        s.counter("a").inc(3)
        s.sampler("lat").add(10.0)
        s.sampler("lat").add(20.0)
        return s

    def test_merge_accumulates_everything(self):
        a, b = self._small_stats(), self._small_stats()
        b.counter("a").inc(7)
        b.sampler("lat").add(100.0)
        a.merge(b)
        assert a.value("a") == 3 + 10
        assert a.sample_count("lat") == 5
        lat = a.sampler("lat")
        assert lat.total == pytest.approx(160.0)

    def test_seed_identical_remerge_doubles_exactly(self):
        """Merging two runs of the SAME seed must double every counter
        and sampler count/total exactly (the parallel layer's determinism contract:
        aggregation is a pure fold over per-run stats)."""
        from repro.harness.experiment import ExperimentConfig, run_benchmark
        from repro.harness.parallel import aggregate_stats
        exp = ExperimentConfig(benchmark="water_spatial",
                               organization=Organization.SHARED,
                               scale=0.04, seed=3)
        r1 = run_benchmark(exp)
        r2 = run_benchmark(exp)
        assert r1.stats.to_dict() == r2.stats.to_dict()
        merged = aggregate_stats([r1, r2])
        for name in ("instructions", "l2_misses", "offchip_fetches"):
            assert merged.value(name) == 2 * r1.stats.value(name)
        assert merged.sampler("l2_hit_latency").mean == pytest.approx(
            r1.stats.sampler("l2_hit_latency").mean)
