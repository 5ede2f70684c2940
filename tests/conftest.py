"""Shared fixtures: small, fast system configurations for protocol tests.

Protocol unit/integration tests run on a 4x4-tile CMP (2x2 clusters)
with shrunken caches so capacity effects are exercised quickly; the
Table 1 geometry is covered by dedicated configuration tests and the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import pytest

from repro.cmp.system import CmpSystem
from repro.params import (CacheConfig, IvrConfig, NocConfig, NocKind,
                          Organization, SystemConfig)
from repro.traces.events import Op, TraceEvent

ALL_ORGS = list(Organization)
LOCO_ORGS = [Organization.LOCO_CC, Organization.LOCO_CC_VMS,
             Organization.LOCO_CC_VMS_IVR]


def tiny_config(organization: Organization = Organization.SHARED,
                mesh: int = 4, cluster=(2, 2),
                noc: NocKind = NocKind.SMART,
                l1_bytes: int = 1024, l2_bytes: int = 4096,
                seed: int = 1, **overrides) -> SystemConfig:
    """A 4x4-tile system with small caches (L1: 32 lines, L2: 128)."""
    cfg = SystemConfig(
        mesh_width=mesh, mesh_height=mesh,
        cluster_width=cluster[0], cluster_height=cluster[1],
        organization=organization,
        l1=CacheConfig(size_bytes=l1_bytes, assoc=4, line_bytes=32,
                       access_latency=1),
        l2=CacheConfig(size_bytes=l2_bytes, assoc=8, line_bytes=32,
                       access_latency=4),
        noc=NocConfig(kind=noc),
        seed=seed,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def empty_traces(n: int) -> List[List[TraceEvent]]:
    return [[] for _ in range(n)]


def build_system(organization: Organization = Organization.SHARED,
                 traces: Optional[Sequence[Sequence[TraceEvent]]] = None,
                 mesh: int = 4, full_system: bool = False,
                 **cfg_overrides) -> CmpSystem:
    cfg = tiny_config(organization, mesh=mesh, **cfg_overrides)
    if traces is None:
        traces = empty_traces(cfg.num_tiles)
    return CmpSystem(cfg, traces, full_system=full_system)


class AccessDriver:
    """Drives L1 accesses directly on a built system and waits for
    completion — the workhorse of protocol tests."""

    def __init__(self, system: CmpSystem) -> None:
        self.system = system

    def access(self, tile: int, line_addr: int, is_write: bool,
               max_cycles: int = 100_000) -> int:
        """Issue one access; returns its latency in cycles."""
        done = []
        start = self.system.sim.cycle

        def cb() -> None:
            done.append(self.system.sim.cycle)

        self.system.sim.schedule(
            0, lambda: self.system.l1s[tile].access(line_addr, is_write, cb))
        self.system.sim.run(until=start + max_cycles,
                            stop_when=lambda: bool(done))
        assert done, (f"access tile={tile} line={line_addr:#x} "
                      f"write={is_write} did not complete")
        return done[0] - start

    def read(self, tile: int, line_addr: int) -> int:
        return self.access(tile, line_addr, False)

    def write(self, tile: int, line_addr: int) -> int:
        return self.access(tile, line_addr, True)

    def parallel(self, requests, max_cycles: int = 200_000) -> int:
        """Issue (tile, line, is_write) tuples in the same cycle; wait
        for all. Returns total elapsed cycles."""
        done = []
        start = self.system.sim.cycle
        for tile, line_addr, is_write in requests:
            self.system.sim.schedule(
                0, lambda t=tile, a=line_addr, w=is_write:
                self.system.l1s[t].access(a, w, lambda: done.append(t)))
        self.system.sim.run(until=start + max_cycles,
                            stop_when=lambda: len(done) == len(requests))
        assert len(done) == len(requests), \
            f"only {len(done)}/{len(requests)} accesses completed"
        return self.system.sim.cycle - start

    def settle(self, cycles: int = 3000) -> None:
        """Let in-flight background traffic (evictions, migrations)
        drain."""
        self.system.sim.run(until=self.system.sim.cycle + cycles)


@pytest.fixture
def driver_factory():
    def make(organization: Organization, **kw) -> AccessDriver:
        return AccessDriver(build_system(organization, **kw))
    return make
