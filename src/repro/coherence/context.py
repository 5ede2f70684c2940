"""Shared wiring context handed to every controller.

Bundles the simulator, the network, the configuration, address-mapping
helpers (home tile, memory-controller tile), the coarse timestamp
source, RNG streams and the run's Stats — so controller constructors
stay small and mapping policy lives in exactly one place.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.timestamp import CoarseTimestamp
from repro.coherence.messages import Msg, Unit
from repro.errors import ConfigError
from repro.noc.packet import Packet
from repro.noc.router import BaseNetwork
from repro.noc.topology import ClusterMap, Mesh
from repro.noc.vms import VirtualMesh, build_all_vms
from repro.params import Organization, SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import Stats


def edge_mc_tiles(mesh: Mesh, count: int) -> List[int]:
    """Memory-controller tiles, one per edge midpoint (Table 1: "4
    memory controllers (one on each edge)"). For count != 4 the tiles
    are spread round-robin over the four edges."""
    w, h = mesh.width, mesh.height
    anchors = [
        mesh.tile(w // 2, 0),        # south edge
        mesh.tile(w // 2, h - 1),    # north edge
        mesh.tile(0, h // 2),        # west edge
        mesh.tile(w - 1, h // 2),    # east edge
    ]
    # On meshes narrower than the anchor spread (1x1, 2x2) several edge
    # midpoints are the same tile; duplicates would register two MCs on
    # one tile. Dedupe preserving order — full-size meshes (8x8, 16x16)
    # have four distinct anchors and are unaffected.
    anchors = list(dict.fromkeys(anchors))
    count = min(count, mesh.num_tiles)
    if count <= len(anchors):
        return anchors[:count]
    tiles = list(anchors)
    step = 1
    while len(tiles) < count:
        for ax, ay in [(w // 2 - step, 0), (w // 2 + step, h - 1),
                       (0, h // 2 - step), (w - 1, h // 2 + step)]:
            if len(tiles) >= count:
                break
            if 0 <= ax < w and 0 <= ay < h:
                t = mesh.tile(ax, ay)
                if t not in tiles:
                    tiles.append(t)
        step += 1
    return tiles


class SystemContext:
    """Everything a controller needs to know about the rest of the chip."""

    def __init__(self, sim: Simulator, network: BaseNetwork,
                 config: SystemConfig, stats: Optional[Stats] = None,
                 rng: Optional[RngStreams] = None) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.rng = rng if rng is not None else RngStreams(config.seed)
        self.mesh = network.mesh
        self.cluster_map = ClusterMap(self.mesh, config.cluster_width,
                                      config.cluster_height)
        self.vms: Dict[int, VirtualMesh] = build_all_vms(self.cluster_map)
        self.timestamp = CoarseTimestamp(sim, config.ivr.timestamp_quantum)
        self.mc_tiles = edge_mc_tiles(self.mesh, config.memory.num_controllers)
        self.data_flits = config.data_flits()
        # Reconfigurable hierarchy: per-tile (cache slice, spm lines)
        # partitions of the L2 SRAM, computed once. Default-hierarchy
        # machines get an empty table and l2_config_for returns the
        # shared config object unchanged (bit-identity with the
        # pre-hierarchy simulator).
        self._l2_partitions: Dict[int, Tuple] = {}
        if config.hierarchy.enabled:
            for tile in range(self.mesh.num_tiles):
                frac = config.hierarchy.fraction_for(tile)
                self._l2_partitions[tile] = config.l2.partitioned(frac)
        #: optional value-level oracle (repro.coherence.shadow): attached
        #: by the stress harness, None in normal runs (zero cost beyond
        #: one attribute test per L1 access).
        self.shadow = None
        #: dispatch table indexed [tile][unit.idx] — ``idx`` is the
        #: dense import-time attribute on Unit members (a plain C-level
        #: fetch; both ``unit.value`` and enum-keyed dict probes pay a
        #: Python-level descriptor/hash call per delivered packet)
        self._handlers: List[List[Optional[Callable[[Msg], None]]]] = [
            [None] * len(Unit) for _ in range(self.mesh.num_tiles)]
        for tile in range(self.mesh.num_tiles):
            network.attach(tile, partial(self._receive, tile,
                                         self._handlers[tile]))

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def home_tile(self, tile: int, line_addr: int) -> int:
        """The home L2 tile for ``line_addr`` as seen from ``tile``."""
        org = self.config.organization
        if org is Organization.PRIVATE:
            return tile
        if org is Organization.SHARED:
            return line_addr % self.mesh.num_tiles
        return self.cluster_map.home_tile_for_line(tile, line_addr)

    def home_interleave(self) -> int:
        """How many distinct home slices the L2 address space is
        interleaved across — the stride an L2 array must strip before
        set indexing (see CacheArray.index_stride)."""
        org = self.config.organization
        if org is Organization.PRIVATE:
            return 1
        if org is Organization.SHARED:
            return self.mesh.num_tiles
        return self.cluster_map.cluster_size

    def l2_config_for(self, tile: int):
        """The coherent L2 slice configuration at ``tile`` — the full
        ``config.l2`` on a default hierarchy, the partition's cache
        share when the tile donates SRAM to a scratchpad."""
        part = self._l2_partitions.get(tile)
        return self.config.l2 if part is None else part[0]

    def spm_lines_for(self, tile: int) -> int:
        """Scratchpad capacity (lines) at ``tile``; 0 = no scratchpad."""
        part = self._l2_partitions.get(tile)
        return 0 if part is None else part[1]

    def mc_tile(self, line_addr: int) -> int:
        """The memory controller owning ``line_addr`` (address-interleaved)."""
        return self.mc_tiles[line_addr % len(self.mc_tiles)]

    def vms_of_line(self, line_addr: int) -> VirtualMesh:
        return self.vms[self.cluster_map.hnid_of_line(line_addr)]

    # ------------------------------------------------------------------
    # unit registry + messaging
    # ------------------------------------------------------------------
    def register(self, tile: int, unit: Unit,
                 handler: Callable[[Msg], None]) -> None:
        row = self._handlers[tile]
        if row[unit.idx] is not None:
            raise ConfigError(f"unit {unit} at tile {tile} already registered")
        row[unit.idx] = handler

    def _receive(self, tile: int, row: List[Optional[Callable[[Msg], None]]],
                 packet: Packet) -> None:
        msg: Msg = packet.payload
        handler = row[msg.unit.idx]
        if handler is None:
            raise ConfigError(
                f"no {msg.unit} handler at tile {tile} for {msg}")
        handler(msg)

    def send(self, msg: Msg, dst: int) -> None:
        """Unicast ``msg`` from its ``src_tile`` to tile ``dst``."""
        # size from the import-time MsgKind attribute: this is one of
        # the two or three hottest call sites in a run.
        self.network.send(Packet(
            msg.src_tile, dst,
            self.data_flits if msg.kind.carries_data else 1, msg))

    def multicast(self, msg: Msg, vms: VirtualMesh) -> None:
        """Broadcast ``msg`` from its ``src_tile`` over ``vms`` (to all
        other members). SMART does this in hardware; other fabrics fall
        back to serial unicasts."""
        self.network.multicast(Packet(
            msg.src_tile, None,
            self.data_flits if msg.kind.carries_data else 1, msg), vms)
