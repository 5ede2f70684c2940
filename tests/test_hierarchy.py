"""Reconfigurable per-tile memory hierarchy: scratchpad partitions.

Covers the partitioned L2 sizing, the global-SPM address convention,
remote scratchpad traffic on the NoC, snapshot round-trips with SPM
state in the image, the batcher declining hierarchy/dataflow units,
and — the headline regression — that a scratchpad-partitioned machine
*measurably* shifts cache/NoC behaviour against its all-cache twin at
the same geometry while committing the identical instruction stream.
"""

from __future__ import annotations

import pytest

from repro.cmp.system import CmpSystem
from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      _traces_for, run_benchmark)
from repro.batch.grouping import batchable
from repro.harness.units import SweepUnit
from repro.params import CacheConfig, HierarchyConfig, Organization
from repro.traces.events import SPM_STRIDE, spm_addr


def _twin_configs(bench: str = "dataflow_gemm", **kw):
    spm = ExperimentConfig(bench, Organization.SHARED, cores=16,
                           cluster=(2, 2), scale=0.25,
                           hierarchy=HierarchyAxes(0.5), **kw)
    allc = ExperimentConfig(bench, Organization.SHARED, cores=16,
                            cluster=(2, 2), scale=0.25, **kw)
    return spm, allc


class TestPartitionedSizing:
    def test_partition_splits_sram(self):
        l2 = CacheConfig(size_bytes=32 * 1024, assoc=8, line_bytes=64,
                         access_latency=6)
        cache, spm_lines = l2.partitioned(0.5)
        assert cache.size_bytes + spm_lines * l2.line_bytes \
            == l2.size_bytes
        assert cache.line_bytes == l2.line_bytes
        assert spm_lines > 0

    def test_zero_fraction_is_identity(self):
        l2 = CacheConfig(size_bytes=32 * 1024, assoc=8, line_bytes=64,
                         access_latency=6)
        cache, spm_lines = l2.partitioned(0.0)
        assert cache is l2
        assert spm_lines == 0

    def test_hierarchy_config_validation(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(scratchpad_fraction=1.0)
        with pytest.raises(ConfigError):
            HierarchyConfig(spm_latency=0)
        with pytest.raises(ConfigError):
            HierarchyConfig(tile_fractions=((3, 0.5), (3, 0.25)))

    def test_per_tile_overrides(self):
        h = HierarchyConfig(scratchpad_fraction=0.25,
                            tile_fractions=((0, 0.5), (5, 0.0)))
        assert h.enabled
        assert h.fraction_for(0) == 0.5
        assert h.fraction_for(5) == 0.0
        assert h.fraction_for(9) == 0.25

    def test_default_hierarchy_leaves_l2_config_untouched(self):
        # The bit-identity guarantee: a default-hierarchy machine's
        # home L2 slices are built from the *same object* as before,
        # and it carries no scratchpad units at all.
        _, allc = _twin_configs()
        cfg = allc.system_config()
        system = CmpSystem(cfg, _traces_for(allc)[0])
        assert system.ctx.l2_config_for(3) is cfg.l2
        assert system.ctx.spm_lines_for(3) == 0
        assert system.spms == []

    def test_partitioned_machine_shrinks_home_l2(self):
        spm, _ = _twin_configs()
        cfg = spm.system_config()
        system = CmpSystem(cfg, _traces_for(spm)[0])
        assert system.ctx.l2_config_for(3).size_bytes < cfg.l2.size_bytes
        assert system.ctx.spm_lines_for(3) > 0
        assert len(system.spms) == 16


class TestSpmAddressing:
    def test_global_addr_convention(self):
        assert spm_addr(0, 7) == 7
        assert spm_addr(3, 7) == 3 * SPM_STRIDE + 7

    def test_ownership(self):
        spm, _ = _twin_configs()
        system = CmpSystem(spm.system_config(), _traces_for(spm)[0])
        unit = system.spms[2]
        assert unit.owner_of(spm_addr(2, 5)) == 2
        assert unit.owner_of(spm_addr(9, 5)) == 9

    def test_slots_wrap_modulo_capacity(self):
        spm, _ = _twin_configs()
        system = CmpSystem(spm.system_config(), _traces_for(spm)[0])
        unit = system.spms[0]
        assert unit._slot(spm_addr(0, 3)) == \
            unit._slot(spm_addr(0, 3 + unit.capacity))


class TestCrossoverRegression:
    """The paired scratchpad-vs-cache twin at one geometry."""

    def test_partition_shifts_machine_behaviour(self):
        spm, allc = _twin_configs()
        r_spm = run_benchmark(spm, max_cycles=5_000_000)
        r_allc = run_benchmark(allc, max_cycles=5_000_000)
        assert r_spm.finished and r_allc.finished
        # identical committed instruction stream (paired comparison)
        assert r_spm.instructions == r_allc.instructions
        # the SPM machine routes its SPM ops off the coherence path...
        assert r_spm.spm_refs > 0
        assert r_allc.spm_refs == 0
        assert r_spm.spm_remote_ops > 0
        # ...which demonstrably shifts the cache and NoC picture: the
        # streaming operand traffic stops thrashing the L2 slices
        assert r_spm.stats.delta("l2_misses") < \
            r_allc.stats.delta("l2_misses")
        assert r_spm.runtime != r_allc.runtime

    def test_spm_run_deterministic(self):
        spm, _ = _twin_configs(seed=3)
        a = run_benchmark(spm, max_cycles=5_000_000)
        b = run_benchmark(spm, max_cycles=5_000_000)
        assert a.runtime == b.runtime
        assert a.stats.to_dict() == b.stats.to_dict()


class TestSnapshotWithScratchpad:
    def test_checkpoint_restore_resume_bit_identical(self):
        spm, _ = _twin_configs()
        traces, _pop = _traces_for(spm)
        cold = CmpSystem(spm.system_config(), traces,
                         warmup_fraction=0.5)
        assert cold.run_until_warmup(max_cycles=5_000_000)
        blob = cold.checkpoint()
        warm = CmpSystem.restore(blob, traces)
        # the image carries scratchpad slot state
        assert any(u.data for u in warm.spms)
        ra = cold.resume(max_cycles=5_000_000)
        rb = warm.resume(max_cycles=5_000_000)
        assert ra.runtime == rb.runtime
        assert ra.stats.to_dict() == rb.stats.to_dict()


class TestBatcherDeclines:
    def _unit(self, **kw):
        exp = ExperimentConfig("water_spatial", Organization.SHARED,
                               cores=1, cluster=(1, 1), scale=0.05, **kw)
        return SweepUnit(exp, 1_000_000, "runtime")

    def test_default_single_tile_unit_batches(self):
        assert batchable(self._unit())

    def test_hierarchy_unit_declines(self):
        assert not batchable(self._unit(hierarchy=HierarchyAxes(0.5)))
        assert not batchable(self._unit(
            hierarchy=HierarchyAxes(0.25, 3)))

    def test_dataflow_unit_declines(self):
        exp = ExperimentConfig("dataflow_gemm", Organization.SHARED,
                               cores=1, cluster=(1, 1), scale=0.05)
        assert not batchable(SweepUnit(exp, 1_000_000, "runtime"))
