"""Concurrent builds of one warmup image must never corrupt the store.

A kept image directory can be written by several sweeps at once (and
by the pool workers of each) — racing on the *same* prefix key when
two of them reach one config before its image exists. The
contract pinned here: writers publish atomically (rename-into-place of
a privately named temp file), so a reader observes either no image, a
complete old image, or a complete new image — never a torn one — and a
writer killed mid-write leaves at most a stray temp file, which no
reader ever opens.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from repro.harness.experiment import (ExperimentConfig, WarmupImageCache,
                                      run_benchmark, warmup_key)
from repro.params import Organization
from repro.sim.snapshot import save_file

EXP = ExperimentConfig(benchmark="water_spatial",
                       organization=Organization.SHARED,
                       scale=0.04, warmup_fraction=0.5)


def _race_build(cache_dir: str, barrier, out) -> None:
    """Child entry point: wait on the barrier, then build/fork."""
    cache = WarmupImageCache(cache_dir)
    barrier.wait()
    result = run_benchmark(EXP, warmup_images=cache)
    out.put((os.getpid(), result.stats.to_dict(),
             cache.misses, cache.hits))


class TestRacingProcesses:
    def test_same_prefix_race_leaves_one_valid_image(self, tmp_path):
        """Several processes hitting an empty shared directory with the
        same prefix at once: every run must return the cold-path stats,
        and the directory must end with exactly one restorable image."""
        cold = run_benchmark(EXP).stats.to_dict()
        n = 4
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        out = ctx.Queue()
        procs = [ctx.Process(target=_race_build,
                             args=(str(tmp_path), barrier, out))
                 for _ in range(n)]
        for p in procs:
            p.start()
        results = [out.get(timeout=180) for _ in range(n)]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        for _pid, stats, _misses, _hits in results:
            assert stats == cold
        images = list(tmp_path.glob("*.warmup.snap"))
        assert len(images) == 1
        # whatever survived the race restores cleanly (a fresh run
        # forks from it instead of rebuilding)
        cache = WarmupImageCache(str(tmp_path))
        again = run_benchmark(EXP, warmup_images=cache)
        assert again.stats.to_dict() == cold
        assert cache.hits == 1 and cache.misses == 0


class TestInterleavedWriters:
    def test_same_key_writers_never_tear_the_image(self, tmp_path):
        """Many threads publishing different payloads under one key:
        the final file must be *exactly* one of the payloads. (The old
        per-pid temp naming gave every thread the same temp file, so
        interleaved writes could install a torn image.)"""
        path = str(tmp_path / "race.warmup.snap")
        payloads = [bytes([i]) * (1 << 20) for i in range(8)]
        errors = []
        barrier = threading.Barrier(len(payloads))

        def write(blob: bytes) -> None:
            try:
                barrier.wait()
                for _ in range(5):
                    save_file(path, blob)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = open(path, "rb").read()
        assert final in payloads, "torn image: mixed writer payloads"
        # no reader-visible debris: temp files never match the image
        # glob the cache scans
        assert list(tmp_path.glob("*.warmup.snap")) == [tmp_path / "race.warmup.snap"]

    def test_partial_write_of_final_path_is_rebuilt(self, tmp_path):
        """Simulate the failure the atomic rename exists to prevent (a
        torn final file, as a non-atomic writer crashed mid-write): the
        cache must treat it as a miss, rebuild, and repair the file."""
        cold = run_benchmark(EXP).stats.to_dict()
        run_benchmark(EXP, warmup_images=WarmupImageCache(str(tmp_path)))
        (image,) = tmp_path.glob("*.warmup.snap")
        whole = image.read_bytes()
        image.write_bytes(whole[:len(whole) // 2])  # torn image
        cache = WarmupImageCache(str(tmp_path))
        again = run_benchmark(EXP, warmup_images=cache)
        assert again.stats.to_dict() == cold
        assert cache.misses == 1 and cache.hits == 0
        # repaired on disk: complete again and restorable
        assert image.read_bytes().startswith(b"RSNAP")
        fixed = WarmupImageCache(str(tmp_path))
        assert run_benchmark(EXP, warmup_images=fixed).stats.to_dict() \
            == cold
        assert fixed.hits == 1 and fixed.misses == 0

    def test_stray_temp_from_killed_writer_is_harmless(self, tmp_path):
        """A writer SIGKILLed mid-write leaves a `.tmp-` file; readers
        must ignore it and the real image must keep working."""
        run_benchmark(EXP, warmup_images=WarmupImageCache(str(tmp_path)))
        key = warmup_key(EXP)
        stray = tmp_path / f"{key}.warmup.snap.tmp-deadbeef"
        stray.write_bytes(b"half a snapsho")
        cache = WarmupImageCache(str(tmp_path))
        result = run_benchmark(EXP, warmup_images=cache)
        assert result.finished
        assert cache.hits == 1 and cache.misses == 0
        assert stray.exists()  # never opened, never deleted, never read
