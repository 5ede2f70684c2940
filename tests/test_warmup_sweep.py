"""Warmup-image forking at the sweep layer: equivalence and reuse.

A caller's ``warmup_cache`` is a store of warmup checkpoints that
outlives the call: the first call over a set of configs simulates each
warmup once and fills the store, a later call over the kept store forks
every cell from its image — and both return rows bit-identical to the
cold path. Within one call every config is one simulation anyway
(``tests/test_sweep.py::TestOneSimulationPerConfig``), so nothing forks
inside a call. (Speed is judged by ``benchmarks/e2e`` alone.)
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, WarmupImageCache,
                                      run_benchmark, warmup_key)
from repro.harness.parallel import run_units
from repro.harness.sweep import sweep
from repro.harness.units import SweepUnit
from repro.params import Organization

BENCH = "water_spatial"
AXES = dict(organization=[Organization.SHARED, Organization.LOCO_CC],
            scale=[0.04], warmup_fraction=[0.5])
METRICS = ["runtime", "mpki", "offchip_accesses"]


def config_units(orgs=(Organization.SHARED, Organization.LOCO_CC)):
    """One multi-metric cell per organization: distinct configs, so
    each is one simulation and one warmup image."""
    return [SweepUnit(ExperimentConfig(benchmark=BENCH, organization=org,
                                       cores=16, cluster=(2, 2),
                                       scale=0.04, warmup_fraction=0.5),
                      50_000_000, tuple(METRICS)) for org in orgs]


class TestWarmupKey:
    def test_prefix_excludes_nothing_but_postwarmup_knobs(self):
        a = ExperimentConfig(benchmark=BENCH,
                             organization=Organization.SHARED, scale=0.04)
        same = ExperimentConfig(benchmark=BENCH,
                                organization=Organization.SHARED,
                                scale=0.04)
        other = ExperimentConfig(benchmark=BENCH,
                                 organization=Organization.LOCO_CC,
                                 scale=0.04)
        assert warmup_key(a) == warmup_key(same)
        assert warmup_key(a) != warmup_key(other)
        assert len(warmup_key(a)) == 24

    def test_key_is_stable_across_calls(self):
        exp = ExperimentConfig(benchmark=BENCH,
                               organization=Organization.SHARED,
                               scale=0.04, seed=3)
        assert warmup_key(exp) == warmup_key(exp)


class TestWarmupForkedSweep:
    def test_rows_bit_identical_and_warmups_skipped(self, tmp_path,
                                                    simulations):
        """Two calls over one kept store: the first simulates each
        warmup and fills the store, the second forks every cell."""
        units = config_units()
        cold = [u.run() for u in units]
        simulations()
        for jobs in (None, 2):
            store = str(tmp_path / f"jobs{jobs}")
            for words in (["miss", "miss"], ["hit", "hit"]):
                assert run_units(units, jobs=jobs,
                                 warmup_cache=store) == cold
                assert simulations() == words
            assert len(list((tmp_path / f"jobs{jobs}").glob(
                "*.warmup.snap"))) == 2

    def test_lone_cell_of_a_transient_store_runs_cold(self, simulations):
        """No caller ``warmup_cache``: there is no store to fill, so
        ``warmup_snapshots=True`` runs every cell cold, serial or
        pooled."""
        axes = dict(AXES, cores=[16], cluster=[(2, 2)])
        cold = sweep(BENCH, metric=METRICS, **axes)
        simulations()
        for jobs in (None, 2):
            assert sweep(BENCH, metric=METRICS, jobs=jobs,
                         warmup_snapshots=True, **axes) == cold
            assert simulations() == ["cold", "cold"]

    def test_parallel_warmup_forked_matches_serial_cold(self):
        cold = sweep(BENCH, metric=METRICS, **AXES)
        par = sweep(BENCH, metric=METRICS, warmup_snapshots=True,
                    jobs=3, **AXES)
        assert par == cold

    def test_disk_cache_shared_across_sweep_calls(self, tmp_path):
        cold = sweep(BENCH, metric="runtime", **AXES)
        first = sweep(BENCH, metric="runtime", warmup_snapshots=True,
                      warmup_cache=str(tmp_path), **AXES)
        assert first == cold
        assert len(list(tmp_path.glob("*.warmup.snap"))) == 2
        # a second sweep over the same prefixes builds nothing new
        cache = WarmupImageCache(str(tmp_path))
        again = sweep(BENCH, metric="mpki", warmup_snapshots=True,
                      warmup_cache=cache, **AXES)
        assert [r["mpki"] for r in again] \
            == [r["mpki"] for r in sweep(BENCH, metric="mpki", **AXES)]
        assert cache.misses == 0 and cache.hits == 2

    def test_image_dir_survives_pooled_sweep(self, tmp_path, simulations):
        """A WarmupImageCache keeps its reuse contract across a pool:
        the images workers build land in its directory, so a second
        call — pooled or serial — forks every cell."""
        units = config_units()
        cold = [u.run() for u in units]
        cache = WarmupImageCache(str(tmp_path))
        simulations()
        assert run_units(units, jobs=2, warmup_cache=cache) == cold
        assert simulations() == ["miss", "miss"]
        assert len(list(tmp_path.glob("*.warmup.snap"))) == 2
        for jobs in (2, None):
            assert run_units(units, jobs=jobs, warmup_cache=cache) == cold
            assert simulations() == ["hit", "hit"]
        assert (cache.misses, cache.hits) == (0, 2)   # the serial call

    def test_metric_list_without_snapshots_matches_single_metric(self):
        multi = sweep(BENCH, metric=["runtime", "mpki"], **AXES)
        runtime = sweep(BENCH, metric="runtime", **AXES)
        mpki = sweep(BENCH, metric="mpki", **AXES)
        assert [r["runtime"] for r in multi] \
            == [r["runtime"] for r in runtime]
        assert [r["mpki"] for r in multi] == [r["mpki"] for r in mpki]

    def test_bad_metric_list_rejected(self):
        with pytest.raises(ConfigError):
            sweep(BENCH, metric=[1, 2], **AXES)
        with pytest.raises(ConfigError):
            sweep(BENCH, metric=[], **AXES)


class TestWarmupCacheRobustness:
    """Like the sweep JSON cache, the image store must survive corrupt
    or stale files by rebuilding — never by crashing or restoring
    garbage."""

    EXP = ExperimentConfig(benchmark=BENCH,
                           organization=Organization.SHARED,
                           scale=0.04, warmup_fraction=0.5)

    def _image_path(self, tmp_path):
        files = list(tmp_path.glob("*.warmup.snap"))
        assert len(files) == 1
        return files[0]

    def test_corrupt_image_rebuilt(self, tmp_path):
        cold = run_benchmark(self.EXP)
        run_benchmark(self.EXP, warmup_images=WarmupImageCache(str(tmp_path)))
        path = self._image_path(tmp_path)
        path.write_bytes(b"garbage, not a snapshot")
        again = run_benchmark(self.EXP,
                              warmup_images=WarmupImageCache(str(tmp_path)))
        assert again.stats.to_dict() == cold.stats.to_dict()
        # the rebuild repaired the image on disk
        assert path.read_bytes().startswith(b"RSNAP")

    def test_version_mismatched_image_rebuilt(self, tmp_path):
        """Snapshot version/format drift is treated exactly like
        corruption: recompute, repair, never restore blindly."""
        from tests.test_snapshot import _doctor_header
        cold = run_benchmark(self.EXP)
        run_benchmark(self.EXP, warmup_images=WarmupImageCache(str(tmp_path)))
        path = self._image_path(tmp_path)
        path.write_bytes(_doctor_header(path.read_bytes(), format=999))
        cache = WarmupImageCache(str(tmp_path))
        again = run_benchmark(self.EXP, warmup_images=cache)
        assert again.stats.to_dict() == cold.stats.to_dict()
        fixed = WarmupImageCache(str(tmp_path))
        final = run_benchmark(self.EXP, warmup_images=fixed)
        assert fixed.hits == 1  # repaired image restores cleanly now
        assert final.stats.to_dict() == cold.stats.to_dict()

    def test_fingerprint_mismatched_image_rebuilt(self, tmp_path):
        from tests.test_snapshot import _doctor_header
        run_benchmark(self.EXP, warmup_images=WarmupImageCache(str(tmp_path)))
        path = self._image_path(tmp_path)
        path.write_bytes(_doctor_header(path.read_bytes(),
                                        fingerprint="f" * 32))
        cache = WarmupImageCache(str(tmp_path))
        again = run_benchmark(self.EXP, warmup_images=cache)
        assert again.finished
