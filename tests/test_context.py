"""Tests for the system context: address mapping, unit dispatch, MC
placement."""

import pytest

from repro.cmp.system import HOME_L2
from repro.coherence.context import SystemContext, edge_mc_tiles
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.errors import ConfigError
from repro.noc.topology import Mesh
from repro.params import Organization
from tests.conftest import build_system


class TestMcPlacement:
    def test_four_edges(self):
        mesh = Mesh(8, 8)
        tiles = edge_mc_tiles(mesh, 4)
        assert len(set(tiles)) == 4
        coords = [mesh.coord(t) for t in tiles]
        # one controller per edge
        assert any(c.y == 0 for c in coords)
        assert any(c.y == 7 for c in coords)
        assert any(c.x == 0 for c in coords)
        assert any(c.x == 7 for c in coords)

    def test_more_than_four(self):
        tiles = edge_mc_tiles(Mesh(8, 8), 8)
        assert len(set(tiles)) == 8

    def test_single(self):
        assert len(edge_mc_tiles(Mesh(4, 4), 1)) == 1


class TestHomeMapping:
    def test_private_home_is_self(self):
        system = build_system(Organization.PRIVATE)
        for t in (0, 5, 15):
            assert system.ctx.home_tile(t, 12345) == t

    def test_shared_home_is_global(self):
        system = build_system(Organization.SHARED)
        ctx = system.ctx
        for line in range(32):
            homes = {ctx.home_tile(t, line) for t in range(16)}
            assert len(homes) == 1
            assert homes.pop() == line % 16

    def test_loco_home_within_cluster(self):
        system = build_system(Organization.LOCO_CC_VMS)
        ctx = system.ctx
        for t in range(16):
            home = ctx.home_tile(t, 7)
            assert ctx.cluster_map.cluster_of(home) == \
                ctx.cluster_map.cluster_of(t)

    def test_mc_interleaving_covers_all(self):
        system = build_system(Organization.SHARED)
        ctx = system.ctx
        used = {ctx.mc_tile(line) for line in range(16)}
        assert used == set(ctx.mc_tiles)

    def test_home_interleave_by_org(self):
        assert build_system(Organization.PRIVATE).ctx.home_interleave() == 1
        assert build_system(Organization.SHARED).ctx.home_interleave() == 16
        assert build_system(
            Organization.LOCO_CC).ctx.home_interleave() == 4  # 2x2 cluster

    def test_home_l2_covers_every_organization(self):
        assert set(HOME_L2) == set(Organization)

    @pytest.mark.parametrize("cluster", [(2, 2), (4, 1), (4, 4)])
    @pytest.mark.parametrize("mesh", [4, 8])
    @pytest.mark.parametrize("org", list(Organization))
    def test_home_map_matches_reference(self, org, mesh, cluster):
        """Every tile's home for every line residue, against the
        paper's placement: the tile itself (private), ``line % n``
        (shared), the requester's cluster origin plus ``hnid`` (LOCO)."""
        cw, ch = cluster
        n = mesh * mesh

        def reference(tile, line):
            if org is Organization.PRIVATE:
                return tile
            if org is Organization.SHARED:
                return line % n
            x, y = tile % mesh, tile // mesh
            hnid = line % (cw * ch)
            return ((y // ch * ch + hnid // cw) * mesh
                    + x // cw * cw + hnid % cw)

        ctx = build_system(org, mesh=mesh, cluster=cluster).ctx
        for tile in range(n):
            for line in [*range(2 * n), 1000003]:
                assert ctx.home_tile(tile, line) == reference(tile, line)
        assert ctx.home_interleave() == {
            Organization.PRIVATE: 1, Organization.SHARED: n,
        }.get(org, cw * ch)


class TestDispatch:
    def test_double_registration_rejected(self):
        system = build_system(Organization.SHARED)
        with pytest.raises(ConfigError):
            system.ctx.register(0, Unit.L1, lambda m: None)

    def test_vms_of_line(self):
        system = build_system(Organization.LOCO_CC_VMS)
        ctx = system.ctx
        for line in range(8):
            vms = ctx.vms_of_line(line)
            assert ctx.home_tile(0, line) in vms.members
