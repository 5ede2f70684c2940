"""Mesh coordinates, the XY routing rule, and cluster geometry.

Tile ids are row-major: tile ``(x, y)`` has id ``y * width + x`` with
``(0, 0)`` at the bottom-left, matching the paper's Figure 1 labelling
(node "23" = column 3, row 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import NetworkError


@dataclass(frozen=True, order=True, slots=True)
class Coord:
    """A tile coordinate on the mesh."""

    x: int
    y: int

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y


class Mesh:
    """Geometry of a ``width x height`` mesh: id<->coord maps, the XY rule."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise NetworkError("mesh dimensions must be positive")
        self.width = width
        self.height = height

    @property
    def num_tiles(self) -> int:
        return self.width * self.height

    def coord(self, tile: int) -> Coord:
        if not 0 <= tile < self.num_tiles:
            raise NetworkError(f"tile {tile} out of range")
        return Coord(tile % self.width, tile // self.width)

    def tile(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise NetworkError(f"coord ({x},{y}) out of range")
        return y * self.width + x

    def xy_next_stop(self, at: int, dst: int, max_hops: int) -> Tuple[int, int]:
        """XY-dimension-ordered progress from ``at`` toward ``dst``.

        Returns ``(next_tile, hops_moved)`` after moving up to
        ``max_hops`` along the current dimension only (SMART 1D: no
        bypass at turns — X first, then Y). ``hops_moved`` is 0 iff
        already at the destination.
        """
        ca, cd = self.coord(at), self.coord(dst)
        if ca.x != cd.x:
            delta = cd.x - ca.x
            step = max(-max_hops, min(max_hops, delta))
            return self.tile(ca.x + step, ca.y), abs(step)
        if ca.y != cd.y:
            delta = cd.y - ca.y
            step = max(-max_hops, min(max_hops, delta))
            return self.tile(ca.x, ca.y + step), abs(step)
        return at, 0


class ClusterMap:
    """Partition of the mesh into equal rectangular clusters.

    Provides: tile -> cluster id, the home node of an address inside a
    cluster (``HNid`` mapping), and the set of same-``HNid`` home nodes
    across clusters (the members of a VMS).
    """

    def __init__(self, mesh: Mesh, cluster_width: int, cluster_height: int) -> None:
        if mesh.width % cluster_width or mesh.height % cluster_height:
            raise NetworkError("cluster dims must tile the mesh exactly")
        self.mesh = mesh
        self.cluster_width = cluster_width
        self.cluster_height = cluster_height
        self.clusters_x = mesh.width // cluster_width
        self.clusters_y = mesh.height // cluster_height

    @property
    def num_clusters(self) -> int:
        return self.clusters_x * self.clusters_y

    @property
    def cluster_size(self) -> int:
        return self.cluster_width * self.cluster_height

    def cluster_of(self, tile: int) -> int:
        c = self.mesh.coord(tile)
        cx = c.x // self.cluster_width
        cy = c.y // self.cluster_height
        return cy * self.clusters_x + cx

    def cluster_origin(self, cluster: int) -> Coord:
        if not 0 <= cluster < self.num_clusters:
            raise NetworkError(f"cluster {cluster} out of range")
        cx = cluster % self.clusters_x
        cy = cluster // self.clusters_x
        return Coord(cx * self.cluster_width, cy * self.cluster_height)

    def hnid_of_line(self, line_addr: int) -> int:
        """Home-node id within a cluster for a cache-line address.

        The paper uses the least-significant bits of the block address
        (after the offset) to pick the home node for load balance.
        """
        return line_addr % self.cluster_size

    def home_tile(self, cluster: int, hnid: int) -> int:
        """The tile holding home-node slot ``hnid`` inside ``cluster``."""
        if not 0 <= hnid < self.cluster_size:
            raise NetworkError(f"hnid {hnid} out of range")
        origin = self.cluster_origin(cluster)
        dx = hnid % self.cluster_width
        dy = hnid // self.cluster_width
        return self.mesh.tile(origin.x + dx, origin.y + dy)

    def vms_members(self, hnid: int) -> Tuple[int, ...]:
        """All same-``hnid`` home tiles across clusters (one per cluster),
        ordered by cluster id — these are the nodes of the VMS."""
        return tuple(self.home_tile(c, hnid) for c in range(self.num_clusters))
