"""Unit tests for configuration validation (paper Table 1)."""

import pytest

from repro.errors import ConfigError
from repro.params import (CacheConfig, IvrConfig, MemoryConfig, NocConfig,
                          NocKind, Organization, SystemConfig, paper_config)


class TestCacheConfig:
    def test_num_sets(self):
        c = CacheConfig(size_bytes=16 * 1024, assoc=4, line_bytes=32,
                        access_latency=1)
        assert c.num_sets == 128

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, assoc=3, line_bytes=32,
                        access_latency=1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, assoc=2, line_bytes=32,
                        access_latency=-1)


class TestNocConfig:
    def test_defaults_match_table1(self):
        n = NocConfig()
        assert n.hpc_max == 4
        assert n.link_bytes == 16
        assert n.num_vns == 5
        assert n.vcs_per_vn == 4

    def test_bad_hpc_rejected(self):
        with pytest.raises(ConfigError):
            NocConfig(hpc_max=0)


class TestIvrConfig:
    def test_defaults(self):
        i = IvrConfig()
        assert i.replacement_threshold == 4

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            IvrConfig(target_policy="magic")


class TestSystemConfig:
    def test_paper_64(self):
        cfg = paper_config(64)
        assert cfg.mesh_width == 8 and cfg.mesh_height == 8
        assert cfg.num_tiles == 64
        assert cfg.cluster_size == 16
        assert cfg.num_clusters == 4
        assert cfg.l1.size_bytes == 16 * 1024
        assert cfg.l2.size_bytes == 64 * 1024
        assert cfg.memory.access_latency == 200
        assert cfg.memory.directory_latency == 10
        assert cfg.memory.num_controllers == 4

    def test_paper_256(self):
        cfg = paper_config(256)
        assert cfg.mesh_width == 16
        assert cfg.num_clusters == 16

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            paper_config(60)

    def test_cluster_must_tile_mesh(self):
        with pytest.raises(ConfigError):
            SystemConfig(mesh_width=8, mesh_height=8, cluster_width=3,
                         cluster_height=4)

    def test_line_sizes_must_match(self):
        with pytest.raises(ConfigError):
            SystemConfig(l1=CacheConfig(1024, 2, 32, 1),
                         l2=CacheConfig(4096, 4, 64, 4))

    def test_data_flits(self):
        cfg = paper_config(64)
        # 32B line over 16B links: 1 header + 2 payload
        assert cfg.data_flits() == 3

    def test_with_helpers(self):
        cfg = paper_config(64)
        c2 = cfg.with_cluster(4, 1)
        assert c2.cluster_size == 4 and cfg.cluster_size == 16
        c3 = cfg.with_noc(NocKind.CONVENTIONAL)
        assert c3.noc.kind is NocKind.CONVENTIONAL
        c4 = cfg.with_organization(Organization.PRIVATE)
        assert c4.organization is Organization.PRIVATE


class TestOrganizationFlags:
    def test_loco_flags(self):
        assert not Organization.LOCO_CC.uses_vms
        assert Organization.LOCO_CC_VMS.uses_vms
        assert not Organization.LOCO_CC_VMS.uses_ivr
        assert Organization.LOCO_CC_VMS_IVR.uses_ivr
        assert not Organization.PRIVATE.uses_vms
