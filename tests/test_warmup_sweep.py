"""Warmup-image forking at the sweep layer: equivalence and payoff.

``sweep(..., warmup_snapshots=True)`` must return rows bit-identical to
the cold path while simulating each config prefix's warmup exactly once
— every further cell of the prefix forks from the image. The wall-clock
assertion pins the payoff the subsystem exists for: a warmup-forked
sweep must beat the cold sweep on the smoke workload.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, WarmupImageCache,
                                      run_benchmark, warmup_key)
from repro.harness.sweep import sweep
from repro.params import Organization

BENCH = "water_spatial"
AXES = dict(organization=[Organization.SHARED, Organization.LOCO_CC],
            scale=[0.04], warmup_fraction=[0.5])
METRICS = ["runtime", "mpki", "offchip_accesses"]


def retry_once_on_miss(check):
    """Re-run a *timing* assertion that lost to machine noise.

    ``check`` re-measures from scratch on every call, so one bounded
    retry only filters a scheduler stall: a genuine regression fails
    both attempts and still fails the test. Only ``AssertionError`` is
    retried; real errors propagate at once.
    """
    try:
        return check()
    except AssertionError:
        return check()


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
    def test_rows_bit_identical_and_warmups_skipped(self):
        cold = sweep(BENCH, metric=METRICS, **AXES)
        cache = WarmupImageCache()
        warm = sweep(BENCH, metric=METRICS, warmup_snapshots=True,
                     warmup_cache=cache, **AXES)
        assert warm == cold
        # 2 prefixes x 3 metrics = 6 cells; each prefix simulates its
        # warmup once and forks the other |cells|-1 times.
        assert cache.misses == 2
        assert cache.hits == 4

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
        across a pool: images workers build are folded back in, so a
        later serial sweep forks instead of rebuilding."""
        cold = sweep(BENCH, metric=METRICS, **AXES)
        cache = WarmupImageCache()
        par = sweep(BENCH, metric=METRICS, warmup_snapshots=True,
                    jobs=2, warmup_cache=cache, **AXES)
        assert par == cold
        assert len(cache._mem) == 2    # worker-built images harvested
        serial = sweep(BENCH, metric="runtime", warmup_snapshots=True,
                       warmup_cache=cache, **AXES)
        assert [r["runtime"] for r in serial] \
            == [r["runtime"] for r in cold]
        assert cache.hits == 2 and cache.misses == 0

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


class TestWarmupPayoff:
    def test_warmup_forked_sweep_beats_cold_wallclock(self):
        """A 4-cell sweep sharing one config prefix: cold pays the
        warmup 4 times, forked pays it once. With warmup at 60% of the
        trace the forked sweep must win wall-clock with a wide margin
        (~2.5x modeled; asserted conservatively for noisy CI boxes,
        with one bounded re-measure so a scheduler stall during the
        warm variant cannot produce a spurious red)."""
        axes = dict(organization=[Organization.SHARED], scale=[0.06],
                    warmup_fraction=[0.6])
        metrics = ["runtime", "mpki", "offchip_accesses",
                   "l2_hit_latency"]                      # 4 cells
        sweep(BENCH, metric="runtime", **axes)  # prime the trace memo
        cold = sweep(BENCH, metric=metrics, **axes)

        def measure() -> None:
            t0 = time.perf_counter()
            cold_again = sweep(BENCH, metric=metrics, **axes)
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = sweep(BENCH, metric=metrics, warmup_snapshots=True,
                         **axes)
            t_warm = time.perf_counter() - t0
            # the payoff assertion itself is untouched by the retry
            assert warm == cold == cold_again
            assert t_warm < t_cold, (t_warm, t_cold)

        retry_once_on_miss(measure)
