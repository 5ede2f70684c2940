"""Unit tests for mesh topology and cluster geometry."""

import pytest

from repro.errors import NetworkError
from repro.noc import FABRICS
from repro.noc.topology import ClusterMap, Coord, Mesh
from repro.params import NocConfig, NocKind
from repro.sim.kernel import Simulator
from tests.conftest import hops, smart_hops, tiles_in_cluster, xy_path


class TestMesh:
    def test_coord_tile_roundtrip(self):
        m = Mesh(8, 8)
        for t in range(64):
            c = m.coord(t)
            assert m.tile(c.x, c.y) == t

    def test_row_major_layout(self):
        m = Mesh(8, 8)
        # paper Figure 1 labels: node "23" = x=3, y=2
        assert m.coord(2 * 8 + 3) == Coord(3, 2)

    def test_out_of_range(self):
        m = Mesh(4, 4)
        with pytest.raises(NetworkError):
            m.coord(16)
        with pytest.raises(NetworkError):
            m.tile(4, 0)

    def test_hops_manhattan(self):
        m = Mesh(8, 8)
        assert hops(m, 0, 63) == 14
        assert hops(m, 0, 0) == 0
        assert hops(m, 0, 7) == 7

    def test_xy_path_goes_x_first(self):
        m = Mesh(4, 4)
        path = xy_path(m, 0, 15)  # (0,0) -> (3,3)
        coords = [m.coord(t) for t in path]
        # X varies first, then Y
        assert coords[0] == Coord(0, 0)
        assert coords[3] == Coord(3, 0)
        assert coords[-1] == Coord(3, 3)
        assert len(path) == 7

    def test_xy_next_stop_limits_hops(self):
        m = Mesh(8, 8)
        nxt, moved = m.xy_next_stop(0, 7, max_hops=4)
        assert moved == 4
        assert m.coord(nxt) == Coord(4, 0)

    def test_xy_next_stop_at_destination(self):
        m = Mesh(8, 8)
        nxt, moved = m.xy_next_stop(5, 5, max_hops=4)
        assert (nxt, moved) == (5, 0)

    def test_smart_hops_matches_paper(self):
        """Corner to corner of an 8x8 mesh with HPCmax=4 takes 4
        SMART-hops (paper Section 2)."""
        m = Mesh(8, 8)
        assert smart_hops(m, 0, 63, 4) == 4
        # X-only 4 hops: 1 SMART-hop
        assert smart_hops(m, 0, 4, 4) == 1
        # X+Y traversal takes at least 2 (no bypass at turns)
        assert smart_hops(m, 0, 9, 4) == 2

    def test_fabrics_cover_every_kind(self):
        assert set(FABRICS) == set(NocKind)

    @pytest.mark.parametrize("kind", list(NocKind))
    def test_planners_follow_xy_next_stop(self, kind):
        """Every fabric's route plan for every (at, dst) pair ends where
        the one XY rule stops; the mesh fabrics get there in unit links,
        the flattened butterfly in one express channel."""
        m = Mesh(8, 8)
        net = FABRICS[kind](Simulator(), m, NocConfig(kind=kind))
        for at in range(64):
            for dst in range(64):
                if at == dst:
                    continue
                links, routers = net._compute_plan(at, dst)
                nxt, moved = m.xy_next_stop(at, dst, net.max_hops_per_move)
                assert routers[-1] == nxt
                if kind is NocKind.FLATTENED_BUTTERFLY:
                    assert links == [(at, nxt)]
                    continue
                assert len(links) == moved
                assert links == list(zip([at, *routers[:-1]], routers))
                assert all(hops(m, a, b) == 1 for a, b in links)


class TestClusterMap:
    def test_4x4_clusters_on_8x8(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        assert cm.num_clusters == 4
        assert cm.cluster_size == 16
        # tile (5,1) is in cluster 1 (east-bottom)
        assert cm.cluster_of(1 * 8 + 5) == 1

    def test_4x1_clusters(self):
        cm = ClusterMap(Mesh(8, 8), 4, 1)
        assert cm.num_clusters == 16
        assert cm.cluster_size == 4

    def test_cluster_must_divide(self):
        with pytest.raises(NetworkError):
            ClusterMap(Mesh(8, 8), 3, 4)

    def test_tiles_in_cluster_disjoint_and_complete(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        seen = set()
        for c in range(cm.num_clusters):
            tiles = tiles_in_cluster(cm, c)
            assert len(tiles) == 16
            assert not (seen & set(tiles))
            seen.update(tiles)
        assert seen == set(range(64))

    def test_home_tile_consistent_with_cluster(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        for tile in range(64):
            for line in (0, 1, 5, 11, 15, 1000003):
                home = cm.home_tile(cm.cluster_of(tile), cm.hnid_of_line(line))
                assert cm.cluster_of(home) == cm.cluster_of(tile)

    def test_hnid_balances(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        homes = {cm.hnid_of_line(line) for line in range(16)}
        assert homes == set(range(16))

    def test_vms_members_one_per_cluster(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        members = cm.vms_members(11)
        assert len(members) == 4
        clusters = {cm.cluster_of(t) for t in members}
        assert clusters == {0, 1, 2, 3}
        # every member has the same position within its cluster
        mesh = cm.mesh
        offsets = set()
        for t in members:
            c = mesh.coord(t)
            offsets.add((c.x % 4, c.y % 4))
        assert len(offsets) == 1

    def test_figure1_vms_example(self):
        """Paper Figure 1: VMS for HNid=11 in the 64-core system."""
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        members = cm.vms_members(11)
        # HNid 11 = offset (3, 2) within each 4x4 cluster
        coords = sorted((cm.mesh.coord(t).x, cm.mesh.coord(t).y)
                        for t in members)
        assert coords == [(3, 2), (3, 6), (7, 2), (7, 6)]
