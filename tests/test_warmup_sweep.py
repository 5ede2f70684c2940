"""Warmup-image forking at the sweep layer: equivalence and reuse.

``run_units(..., warmup_snapshots=True)`` must return rows bit-identical
to the cold path while simulating each config prefix's warmup exactly
once — every further cell of the prefix forks from the image. Cells that
differ only in the metric they read are one simulation anyway
(``tests/test_sweep.py::TestOneSimulationPerConfig``), so what forks is
a ``max_cycles`` ladder within a call, or a later call over a kept
image store. (Speed is judged by ``benchmarks/e2e`` alone.)
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


#: horizons of the ladder, all past the end of the run
LADDER = (50_000_000, 40_000_000, 30_000_000)


def ladder_units(org=Organization.SHARED, horizons=LADDER):
    """One config prefix at several horizons: cells that share a warmup
    image and are still one simulation each."""
    exp = ExperimentConfig(benchmark=BENCH, organization=org, cores=16,
                           cluster=(2, 2), scale=0.04, warmup_fraction=0.5)
    return [SweepUnit(exp, horizon, tuple(METRICS)) for horizon in horizons]


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
    def test_rows_bit_identical_and_warmups_skipped(self, simulations):
        units = ladder_units()
        cold = [u.run() for u in units]
        simulations()
        for jobs in (None, 2):
            cache = WarmupImageCache()
            assert run_units(units, jobs=jobs, warmup_snapshots=True,
                             warmup_cache=cache) == cold
            # 1 prefix x 3 horizons: the leader simulates the warmup
            # once, the other |cells|-1 fork from its image.
            assert simulations() == ["hit", "hit", "miss"]
            if jobs is None:    # a pool counts in its workers
                assert (cache.misses, cache.hits) == (1, 2)

    def test_lone_cell_of_a_transient_store_runs_cold(self, simulations):
        """No caller ``warmup_cache``: the image of a prefix with one
        cell in the call would be written and deleted unread."""
        lone = ladder_units(Organization.LOCO_CC, LADDER[:1])
        units = ladder_units() + lone
        cold = [u.run() for u in units]
        simulations()
        for jobs in (None, 2):
            assert run_units(units, jobs=jobs,
                             warmup_snapshots=True) == cold
            assert simulations() == ["cold", "hit", "hit", "miss"]
        # a metric list is one cell per prefix: nothing to fork at all
        axes = dict(AXES, cores=[16], cluster=[(2, 2)])
        assert sweep(BENCH, metric=METRICS, warmup_snapshots=True,
                     **axes) == sweep(BENCH, metric=METRICS, **axes)
        assert simulations() == ["cold"] * 4

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

    def test_memory_cache_survives_pooled_sweep(self):
        """A memory-only WarmupImageCache keeps its reuse contract
        across a pool: images workers build are folded back in — the
        lone cell's too, a caller's store gets every image — so a later
        serial call forks instead of rebuilding."""
        units = ladder_units() + ladder_units(Organization.LOCO_CC,
                                              LADDER[:1])
        cold = [u.run() for u in units]
        cache = WarmupImageCache()
        assert run_units(units, jobs=2, warmup_snapshots=True,
                         warmup_cache=cache) == cold
        assert len(cache._mem) == 2    # worker-built images harvested
        assert run_units(units, warmup_snapshots=True,
                         warmup_cache=cache) == cold
        assert cache.hits == 4 and cache.misses == 0

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
