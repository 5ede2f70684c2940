"""Shared fixtures: small, fast system configurations for protocol tests.

Protocol unit/integration tests run on a 4x4-tile CMP (2x2 clusters)
with shrunken caches so capacity effects are exercised quickly; the
Table 1 geometry is covered by dedicated configuration tests and the
benchmark harness.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import List, Optional, Sequence

import pytest

from repro.cmp.system import CmpSystem
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.noc.topology import ClusterMap, Mesh
from repro.params import (CacheConfig, IvrConfig, NocConfig, NocKind,
                          Organization, SystemConfig)
from repro.traces.events import Op, TraceEvent


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (256-core systems)")


# ---------------------------------------------------------------------------
# reference mesh geometry: the closed forms the routing tests check the
# simulator's one XY rule (``Mesh.xy_next_stop``) and cluster map against
# ---------------------------------------------------------------------------
def hops(mesh: Mesh, a: int, b: int) -> int:
    """Manhattan distance between two tiles."""
    ca, cb = mesh.coord(a), mesh.coord(b)
    return abs(ca.x - cb.x) + abs(ca.y - cb.y)


def xy_path(mesh: Mesh, src: int, dst: int) -> List[int]:
    """Full hop-by-hop XY route, inclusive of both endpoints."""
    path = [src]
    while path[-1] != dst:
        path.append(mesh.xy_next_stop(path[-1], dst, 1)[0])
    return path


def smart_hops(mesh: Mesh, src: int, dst: int, hpc_max: int) -> int:
    """Minimum SMART-hops for an XY route (paper Section 2): X-only or
    Y-only segments each need ``ceil(len / hpc_max)`` SMART-hops; a
    turn forces a stop (SMART 1D)."""
    cs, cd = mesh.coord(src), mesh.coord(dst)
    dx, dy = abs(cs.x - cd.x), abs(cs.y - cd.y)
    return -(-dx // hpc_max) + (-(-dy // hpc_max))


def tiles_in_cluster(cm: ClusterMap, cluster: int) -> List[int]:
    """Every tile of one cluster, row-major from its origin."""
    origin = cm.cluster_origin(cluster)
    return [cm.mesh.tile(origin.x + dx, origin.y + dy)
            for dy in range(cm.cluster_height)
            for dx in range(cm.cluster_width)]


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


#: one-line sets: the resident line is the victim of any same-set fill
DIRECT_MAPPED_L2 = CacheConfig(size_bytes=128, assoc=1, line_bytes=32,
                               access_latency=4)


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


@pytest.fixture
def simulations(monkeypatch, tmp_path_factory):
    """Count the simulations a sweep really runs, in this process and
    in every pool forked from it (a caller's ``WarmupImageCache``
    counters stay at zero across a pool). Every ``run_benchmark`` call
    a unit makes appends one word to a log file: ``hit`` if it forked
    from a warmup image, ``miss`` if it simulated the warmup to build
    one, ``cold`` if it had no image store. Calling the fixture returns
    the words logged since the last call."""
    from repro.harness import units
    log = tmp_path_factory.mktemp("simulations") / "log"
    log.write_text("")
    real = units.run_benchmark

    def logged(exp, max_cycles, warmup_images=None):
        def counts():
            return (getattr(warmup_images, "hits", 0),
                    getattr(warmup_images, "misses", 0))

        hits, misses = counts()
        result = real(exp, max_cycles=max_cycles,
                      warmup_images=warmup_images)
        kind = {(hits + 1, misses): "hit",
                (hits, misses + 1): "miss"}.get(counts(), "cold")
        with open(log, "a") as f:   # O_APPEND: whole words, any process
            f.write(kind + "\n")
        return result

    monkeypatch.setattr(units, "run_benchmark", logged)

    def drain() -> List[str]:
        words = log.read_text().split()
        log.write_text("")
        return sorted(words)

    return drain


class ScriptedHome:
    """A built system whose network is a list: ``ctx.send`` /
    ``ctx.multicast`` append to ``sent`` instead of injecting, and the
    test hands each reply to a controller's ``handle`` in the order it
    chooses — the delivery orders no fabric produces (a clean L1 reply
    overtaking that L1's own ``WB_L1``) become directed cases."""

    def __init__(self, organization: Organization, **cfg_overrides) -> None:
        self.system = build_system(organization, **cfg_overrides)
        self.ctx = self.system.ctx
        self.sent: list = []            # (msg, dst tile or VirtualMesh)
        self.ctx.send = self._capture
        self.ctx.multicast = self._capture

    def _capture(self, msg, dst) -> None:
        self.sent.append((msg, dst))

    def resident(self, tile: int, line_addr: int, **fields):
        """Install ``line_addr`` at ``tile``'s L2 with the given
        ``CacheLine`` fields, bypassing the protocol."""
        line, evicted = self.system.l2s[tile].array.allocate(line_addr)
        assert evicted is None
        for name, value in fields.items():
            setattr(line, name, value)
        return line

    def deliver(self, tile: int, msg, cycles: int = 50) -> None:
        """Hand ``msg`` to ``tile``'s L2 and let its array latency run
        (well short of any retry timeout)."""
        self.system.l2s[tile].handle(msg)
        self.system.sim.run(until=self.system.sim.cycle + cycles)

    def deliver_held(self, tile: int, script) -> None:
        """Deliver ``script`` in order; until its last message lands
        the home must answer nothing and stay busy."""
        for msg in script[:-1]:
            self.deliver(tile, msg)
            assert self.take() == [] and not self.idle(tile)
        self.deliver(tile, script[-1])

    def take(self, *kinds):
        """Pop and return the captured messages of ``kinds`` (all of
        them when none is named), oldest first."""
        hit = [m for m, _ in self.sent if not kinds or m.kind in kinds]
        self.sent = [(m, d) for m, d in self.sent
                     if kinds and m.kind not in kinds]
        return hit

    def idle(self, tile: int) -> bool:
        """No transaction and no forward op left at ``tile``'s L2."""
        l2 = self.system.l2s[tile]
        return len(l2.mshrs) == 0 and not l2._fwd_ops


#: shadow versions of the directed race table: what the home's copy
#: holds, and the newer data the believed-dirty L1 holder wrote
OLD_VALUE, NEW_VALUE = 5, 9

#: What the L1 the home believes holds a line modified sends back when
#: asked for it, in delivery order. ``reply`` is its ACK_INV_L1 /
#: RECALL_RESP; ``wb`` the WB_L1 of a concurrent L1 eviction, which
#: then carries the data the (clean) reply lacks. Every order but the
#: nack must hand NEW_VALUE to whatever the round was started for.
RACE_ORDERS = {
    "dirty_reply": ("dirty",),
    "clean_reply_then_wb": ("clean", "wb"),
    "wb_then_clean_reply": ("wb", "clean"),
    "holder_nack": ("nack",),
}


def wb_l1(line_addr: int, holder: int) -> Msg:
    """The holder's L1 evicting its modified copy."""
    return Msg(MsgKind.WB_L1, line_addr, holder, Unit.L2, requestor=holder,
               dirty=True, value=NEW_VALUE)


def holder_script(order: str, reply_kind: MsgKind, line_addr: int,
                  holder: int, fwd: bool = False) -> List[Msg]:
    """The holder's messages for one ``RACE_ORDERS`` row."""
    script = []
    for step in RACE_ORDERS[order]:
        if step == "wb":
            script.append(wb_l1(line_addr, holder))
        else:
            dirty = step == "dirty"
            script.append(Msg(reply_kind, line_addr, holder, Unit.L2,
                              dirty=dirty, nack=step == "nack", fwd=fwd,
                              value=NEW_VALUE if dirty else None))
    return script


# ----------------------------------------------------------------------
# the coordinator's sessions, driven by hand (tests/test_service_*.py)
# ----------------------------------------------------------------------
class FakeConn:
    """A connection as :class:`Sessions` sees one: ``send`` appends the
    (JSON round-tripped) frame to ``sent``; ``close`` marks it closed."""

    def __init__(self) -> None:
        self.sent: list = []
        self.closed = False

    def send(self, msg) -> None:
        self.sent.append(json.loads(json.dumps(msg)))

    def close(self) -> None:
        self.closed = True
