"""System configuration — the paper's Table 1, as validated dataclasses.

``paper_config()`` returns the exact target-system configuration of the
paper (64-core default); every field can be overridden per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Tuple

from repro.errors import ConfigError


class NocKind(Enum):
    """Which network fabric connects the tiles."""

    SMART = "smart"
    CONVENTIONAL = "conventional"
    FLATTENED_BUTTERFLY = "flattened_butterfly"


class Organization(Enum):
    """Cache organization under test (paper Section 4)."""

    PRIVATE = "private"
    SHARED = "shared"
    LOCO_CC = "loco_cc"
    LOCO_CC_VMS = "loco_cc_vms"
    LOCO_CC_VMS_IVR = "loco_cc_vms_ivr"

    @property
    def uses_vms(self) -> bool:
        return self in (Organization.LOCO_CC_VMS, Organization.LOCO_CC_VMS_IVR)

    @property
    def uses_ivr(self) -> bool:
        return self is Organization.LOCO_CC_VMS_IVR


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    access_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache geometry fields must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})")
        if self.access_latency < 0:
            raise ConfigError("access latency must be >= 0")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def scaled(self, factor: float) -> "CacheConfig":
        """Capacity scaled by ``factor`` (associativity, line size and
        latency unchanged). Used to shrink caches proportionally with
        trace length (``ExperimentConfig.cache_scale``)."""
        new_size = int(self.size_bytes * factor)
        granule = self.assoc * self.line_bytes
        new_size = max(granule, (new_size // granule) * granule)
        return replace(self, size_bytes=new_size)

    def partitioned(self, scratchpad_fraction: float
                    ) -> Tuple["CacheConfig", int]:
        """Split this level's SRAM between a coherent cache slice and a
        software-managed scratchpad: returns ``(cache_cfg, spm_lines)``
        where the cache keeps ``1 - scratchpad_fraction`` of the
        capacity (granule-rounded, at least one set) and the scratchpad
        gets the remainder, in lines. ``scratchpad_fraction == 0``
        returns ``(self, 0)`` unchanged — the bit-identity guarantee
        for default-hierarchy machines."""
        if scratchpad_fraction == 0.0:
            return self, 0
        cache = self.scaled(1.0 - scratchpad_fraction)
        spm_lines = (self.size_bytes - cache.size_bytes) // self.line_bytes
        return cache, spm_lines


@dataclass(frozen=True)
class NocConfig:
    """On-chip network parameters (Table 1, On-Chip Network section)."""

    kind: NocKind = NocKind.SMART
    hpc_max: int = 4                  # SMART hops-per-cycle
    link_bytes: int = 16              # channel width
    router_pipeline: int = 1          # cycles in a conventional router
    high_radix_pipeline: int = 4      # cycles in a flattened-butterfly router
    num_vns: int = 5                  # virtual networks
    vcs_per_vn: int = 4
    vc_depth: int = 4                 # flits buffered per VC

    def __post_init__(self) -> None:
        if self.hpc_max < 1:
            raise ConfigError("hpc_max must be >= 1")
        if self.num_vns < 1 or self.vcs_per_vn < 1 or self.vc_depth < 1:
            raise ConfigError("VN/VC parameters must be >= 1")
        if self.link_bytes <= 0:
            raise ConfigError("link width must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory interface (Table 1, Memory Interface section)."""

    num_controllers: int = 4
    access_latency: int = 200
    directory_latency: int = 10

    def __post_init__(self) -> None:
        if self.num_controllers < 1:
            raise ConfigError("need at least one memory controller")
        if self.access_latency < 0 or self.directory_latency < 0:
            raise ConfigError("latencies must be >= 0")


@dataclass(frozen=True)
class IvrConfig:
    """Inter-cluster victim replacement knobs (paper Section 3.3)."""

    replacement_threshold: int = 4    # migration hops before forced writeback
    timestamp_quantum: int = 64       # cycles per coarse timestamp increment
    target_policy: str = "random"     # or "round_robin" (ablation)

    def __post_init__(self) -> None:
        if self.replacement_threshold < 1:
            raise ConfigError("replacement threshold must be >= 1")
        if self.timestamp_quantum < 1:
            raise ConfigError("timestamp quantum must be >= 1")
        if self.target_policy not in ("random", "round_robin"):
            raise ConfigError(f"unknown IVR policy {self.target_policy!r}")


@dataclass(frozen=True)
class HierarchyAxes:
    """The reconfigurable memory hierarchy, chip-wide.

    ``scratchpad_fraction`` of every tile's L2 SRAM is carved into a
    software-managed scratchpad (Versa-style: the same SRAM banks,
    repartitioned per workload); remote scratchpad reads/writes ride
    the NoC as non-coherent ``SPM_*`` message kinds. ``spm_latency`` is
    the local scratchpad access latency in cycles — SRAM without tag
    match or coherence, so cheaper than the L2's 4 cycles. The default
    (0.0) is the all-cache machine: no scratchpad units are built and
    it is bit-identical to the pre-hierarchy simulator.
    """

    scratchpad_fraction: float = 0.0
    spm_latency: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.scratchpad_fraction < 1.0:
            raise ConfigError(
                f"scratchpad_fraction must be in [0, 1), got "
                f"{self.scratchpad_fraction}")
        if self.spm_latency < 1:
            raise ConfigError("spm_latency must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """The full target-system configuration (paper Table 1)."""

    mesh_width: int = 8
    mesh_height: int = 8
    cluster_width: int = 4
    cluster_height: int = 4
    organization: Organization = Organization.LOCO_CC_VMS_IVR
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, assoc=4, line_bytes=32, access_latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, assoc=8, line_bytes=32, access_latency=4))
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    ivr: IvrConfig = field(default_factory=IvrConfig)
    hierarchy: HierarchyAxes = field(default_factory=HierarchyAxes)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigError("mesh dimensions must be positive")
        if self.cluster_width < 1 or self.cluster_height < 1:
            raise ConfigError("cluster dimensions must be positive")
        if self.mesh_width % self.cluster_width:
            raise ConfigError(
                f"mesh width {self.mesh_width} not divisible by cluster "
                f"width {self.cluster_width}")
        if self.mesh_height % self.cluster_height:
            raise ConfigError(
                f"mesh height {self.mesh_height} not divisible by cluster "
                f"height {self.cluster_height}")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size")

    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def cluster_size(self) -> int:
        return self.cluster_width * self.cluster_height

    @property
    def home_cluster(self) -> Tuple[int, int]:
        """``(width, height)`` of the tile block a line's homes span: a
        tile (private), the mesh (shared) or a cluster (LOCO)."""
        if self.organization is Organization.PRIVATE:
            return 1, 1
        if self.organization is Organization.SHARED:
            return self.mesh_width, self.mesh_height
        return self.cluster_width, self.cluster_height

    @property
    def clusters_x(self) -> int:
        return self.mesh_width // self.cluster_width

    @property
    def clusters_y(self) -> int:
        return self.mesh_height // self.cluster_height

    @property
    def num_clusters(self) -> int:
        return self.clusters_x * self.clusters_y

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes

    def data_flits(self) -> int:
        """Flits in a data packet: header + line payload over link width."""
        payload = -(-self.line_bytes // self.noc.link_bytes)  # ceil div
        return 1 + payload

    def with_organization(self, organization: Organization) -> "SystemConfig":
        return replace(self, organization=organization)

    def with_cluster(self, width: int, height: int) -> "SystemConfig":
        return replace(self, cluster_width=width, cluster_height=height)

    def with_noc(self, kind: NocKind) -> "SystemConfig":
        return replace(self, noc=replace(self.noc, kind=kind))

    def with_cache_scale(self, factor: float) -> "SystemConfig":
        """Both cache levels scaled by ``factor``
        (:meth:`CacheConfig.scaled`)."""
        return replace(self, l1=self.l1.scaled(factor),
                       l2=self.l2.scaled(factor))


def paper_config(cores: int = 64, **overrides) -> SystemConfig:
    """The paper's Table 1 configuration for 64 or 256 cores.

    64 cores -> 8x8 mesh; 256 cores -> 16x16 mesh. Other core counts
    must be perfect squares and are accepted for scaling studies.
    """
    side = int(round(cores ** 0.5))
    if side * side != cores:
        raise ConfigError(f"core count {cores} is not a perfect square")
    cfg = SystemConfig(mesh_width=side, mesh_height=side,
                       cluster_width=min(4, side), cluster_height=min(4, side))
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
