"""The full tiled-CMP system: build, run, and harvest results.

``CmpSystem`` wires together the simulation kernel, the selected NoC,
one L1 + home L2 (``HOME_L2``) per tile, the memory controllers, and one
core per tile replaying its trace. ``run()`` drives the simulation until
all cores finish (or a cycle limit) and returns a :class:`RunResult`
with the metrics every figure of the paper is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Type

from repro.cmp.core import Core, SpecConfig, SyncState, WarmupTracker
from repro.cmp.scratchpad import ScratchpadUnit
from repro.coherence.context import SystemContext
from repro.coherence.l1 import L1Controller
from repro.coherence.l2_cluster import TokenL2Controller
from repro.coherence.l2_home import HomeL2Base
from repro.coherence.l2_private import DirectoryL2Controller
from repro.coherence.l2_shared import SharedL2Controller
from repro.coherence.memory_controller import MemoryController
from repro.errors import ConfigError, SimulationError
from repro.noc import FABRICS
from repro.noc.topology import Mesh
from repro.params import Organization, SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, Stats
from repro.traces.events import TraceEvent

#: the home-L2 slice class of each organization (paper Section 4)
HOME_L2: Dict[Organization, Type[HomeL2Base]] = {
    Organization.PRIVATE: DirectoryL2Controller,
    Organization.SHARED: SharedL2Controller,
    Organization.LOCO_CC: DirectoryL2Controller,
    Organization.LOCO_CC_VMS: TokenL2Controller,
    Organization.LOCO_CC_VMS_IVR: TokenL2Controller,
}


def _trace_digest(trace: Sequence[TraceEvent]) -> str:
    """Stable digest of one core's trace (restore-time verification)."""
    import hashlib
    h = hashlib.sha256()
    for ev in trace:
        h.update(f"{ev.op.name}:{ev.line_addr}:{ev.gap};".encode())
    return h.hexdigest()[:16]


@dataclass
class RunResult:
    """Everything the harness needs from one simulation run."""

    config: SystemConfig
    runtime: int
    instructions: int
    stats: Stats
    finished: bool
    per_core_finish: List[Optional[int]] = field(default_factory=list)

    # -- derived metrics (the paper's y-axes) ---------------------------
    # All use post-warmup deltas when a warmup mark was placed (the
    # paper gathers statistics at the end of the parallel portion).
    @property
    def measured_instructions(self) -> int:
        return self.stats.delta("instructions")

    @property
    def mpki(self) -> float:
        """L2 misses per 1000 instructions (Figure 8)."""
        instr = self.measured_instructions
        if instr == 0:
            return 0.0
        return 1000.0 * self.stats.delta("l2_misses") / instr

    @property
    def l2_hit_latency(self) -> float:
        """Mean L1-miss-to-grant latency for home-L2 hits (Figure 7)."""
        return self.stats.delta_mean("l2_hit_latency")

    @property
    def search_delay(self) -> float:
        """Mean delay to find on-chip data in other clusters (Figure 9)."""
        return self.stats.delta_mean("search_delay")

    @property
    def offchip_accesses(self) -> int:
        """Off-chip fetches + dirty writebacks (Figure 10)."""
        return (self.stats.delta("offchip_fetches")
                + self.stats.delta("offchip_writebacks"))

    @property
    def offchip_fetches(self) -> int:
        return self.stats.delta("offchip_fetches")

    @property
    def spm_refs(self) -> int:
        """Committed scratchpad references in the measured region
        (0 on all-cache machines — SPM trace ops there execute as
        coherent accesses and count under ``mem_refs``)."""
        return self.stats.delta("spm_refs")

    @property
    def spm_remote_ops(self) -> int:
        """Remote scratchpad NoC transactions (reads + blocking writes
        + fire-and-forget pushes) in the measured region."""
        return (self.stats.delta("spm_remote_reads")
                + self.stats.delta("spm_remote_writes")
                + self.stats.delta("spm_pushes"))

    def to_dict(self) -> Dict[str, float]:
        out = self.stats.to_dict()
        out.update(runtime=self.runtime, instructions=self.instructions,
                   mpki=self.mpki, l2_hit_latency=self.l2_hit_latency,
                   search_delay=self.search_delay,
                   offchip_accesses=self.offchip_accesses)
        return out


class CmpSystem:
    """A buildable, runnable instance of the target CMP (Table 1)."""

    #: set by :meth:`close`; a class default, so no image carries it
    _closed = False

    def __init__(self, config: SystemConfig,
                 traces: Sequence[Sequence[TraceEvent]],
                 full_system: bool = False,
                 barrier_populations: Optional[Sequence[int]] = None,
                 warmup_fraction: float = 0.0,
                 speculation: Optional[SpecConfig] = None) -> None:
        if len(traces) != config.num_tiles:
            raise ConfigError(
                f"need {config.num_tiles} traces, got {len(traces)}")
        self.config = config
        self.sim = Simulator()
        self.stats = Stats()
        self.rng = RngStreams(config.seed)
        mesh = Mesh(config.mesh_width, config.mesh_height)
        self.network = FABRICS[config.noc.kind](self.sim, mesh, config.noc,
                                                self.stats)
        self.ctx = SystemContext(self.sim, self.network, config,
                                 self.stats, self.rng)
        self.mcs = [MemoryController(self.ctx, t)
                    for t in self.ctx.mc_tiles]
        home_l2 = HOME_L2[config.organization]
        self.l2s = [home_l2(self.ctx, t) for t in range(config.num_tiles)]
        self.l1s = [L1Controller(self.ctx, t)
                    for t in range(config.num_tiles)]
        # Reconfigurable hierarchy: one scratchpad unit per tile when
        # the tiles partition their SRAM (an all-cache machine builds
        # none — it is bit-identical to the pre-hierarchy simulator).
        self.spms: List[ScratchpadUnit] = [
            ScratchpadUnit(self.ctx, t, self.ctx.spm_lines,
                           config.hierarchy.spm_latency)
            for t in range(config.num_tiles)] if self.ctx.spm_lines else []
        self.sync = SyncState(config.num_tiles)
        pops = (list(barrier_populations) if barrier_populations is not None
                else [config.num_tiles] * config.num_tiles)
        warmup: Optional[WarmupTracker] = None
        if warmup_fraction > 0.0:
            total_events = sum(len(t) for t in traces)
            threshold = int(warmup_fraction * total_events)
            if threshold > 0:
                warmup = WarmupTracker(self.stats, threshold)
        self.warmup_tracker = warmup
        self._started = False
        # Traces are immutable for the life of the system; their
        # digests are computed on the first checkpoint and reused
        # (periodic snapshotting must not re-hash every trace).
        self._trace_digests: Optional[List[str]] = None
        self.speculation = speculation
        # Per-core named predictor streams: adding a speculation
        # consumer never perturbs any pre-existing stream, and the
        # per-core draw order is the core's committed program order —
        # identical across organizations and backends.
        self.cores = [
            Core(self.sim, t, self.l1s[t], traces[t], self.sync, self.stats,
                 full_system=full_system, barrier_population=pops[t],
                 warmup=warmup, spec=speculation,
                 spec_rng=(self.rng.stream(f"spec_{t}")
                           if speculation is not None else None),
                 spm=self.spms[t] if self.spms else None)
            for t in range(config.num_tiles)
        ]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every core's first event (idempotent; a restored
        system comes back already started)."""
        if not self._started:
            self._started = True
            for core in self.cores:
                core.start()

    def _done_predicate(self):
        # O(1) stop predicate: the kernel evaluates it every loop
        # iteration, and an all()-scan over cores dominates large runs.
        return partial(self._all_finished,
                       self.stats.counter("cores_finished"))

    def _all_finished(self, finished: Counter) -> bool:
        return finished.value >= len(self.cores)

    def run(self, max_cycles: int = 50_000_000) -> RunResult:
        """Run to completion of all cores (or ``max_cycles``)."""
        self.start()
        return self.resume(max_cycles=max_cycles)

    def resume(self, max_cycles: int = 50_000_000) -> RunResult:
        """Drive an already-started (or restored) system to completion.

        ``run_until_warmup()`` + ``resume()`` and a restored image +
        ``resume()`` both produce results bit-identical to a single
        uninterrupted :meth:`run` — pauses land on cycle boundaries and
        the kernel re-enters them exactly.
        """
        self._refuse_if_closed("resume")
        if not self._started:
            raise SimulationError("resume() before start()/run()")
        done = self._done_predicate()
        if self.sim.cycle <= max_cycles:  # an image may be past it
            self.sim.run(until=max_cycles, stop_when=done)
        finished = done()
        if not finished:
            raise SimulationError(
                f"run hit the {max_cycles}-cycle limit with "
                f"{sum(not c.finished for c in self.cores)} cores "
                f"unfinished (slowest at "
                f"{min(c.progress for c in self.cores):.0%})")
        runtime = max((c.finish_cycle or 0) for c in self.cores)
        instructions = sum(c.instructions for c in self.cores)
        return RunResult(config=self.config, runtime=runtime,
                         instructions=instructions, stats=self.stats,
                         finished=finished,
                         per_core_finish=[c.finish_cycle
                                          for c in self.cores])

    def run_until_warmup(self, max_cycles: int = 50_000_000) -> bool:
        """Run until the warmup mark lands, pausing the machine there.

        Returns True when the mark was placed and the simulation is
        paused mid-run (the state worth imaging); False when there is no
        warmup tracker, the mark was already placed, or the run finished
        before/at the mark. Either way, :meth:`resume` completes the run
        bit-identically to a straight :meth:`run`.
        """
        self._refuse_if_closed("run_until_warmup")
        self.start()
        tracker = self.warmup_tracker
        if tracker is None or self.stats.marked:
            return False
        done = self._done_predicate()
        tracker.on_mark = self.sim.stop
        try:
            self.sim.run(until=max_cycles, stop_when=done)
        finally:
            # Transient wiring only — never part of a checkpoint image.
            tracker.on_mark = None
        return self.stats.marked and not done()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize the whole machine — kernel (event queue, tickers,
        epoch hooks), caches, MSHRs, coherence controllers, NoC, RNG
        streams, Stats (incl. warmup marks), cores — into a versioned
        image.

        Per-core trace lists stay out of the image (they are large and
        re-derivable from the experiment seed; ``Core.__getstate__``
        drops them); :meth:`restore` re-attaches the caller's re-derived
        traces after verifying them against the per-core digests
        recorded here.
        """
        from repro.sim import snapshot
        self._refuse_if_closed("checkpoint")
        if self._trace_digests is None:
            self._trace_digests = [_trace_digest(core.trace)
                                   for core in self.cores]
        meta = {
            "kind": "cmp-system",
            "cycle": self.sim.cycle,
            "config": repr(self.config),
            "trace_digests": self._trace_digests,
        }
        return snapshot.dumps(self, meta=meta)

    @staticmethod
    def restore(blob: bytes,
                traces: Sequence[Sequence[TraceEvent]]) -> "CmpSystem":
        """Rebuild a machine from a :meth:`checkpoint` image.

        ``traces`` must be the (re-derived) per-core traces of the run
        that was imaged — verified against the image's digests, since a
        restored core replays its remaining trace from them.
        """
        from repro.errors import SnapshotError
        from repro.sim import snapshot
        meta = snapshot.read_meta(blob)
        if meta.get("kind") != "cmp-system":
            raise SnapshotError(
                f"image is not a CmpSystem checkpoint (kind="
                f"{meta.get('kind')!r})")
        digests = meta.get("trace_digests", [])
        if len(digests) != len(traces):
            raise SnapshotError(
                f"image has {len(digests)} core traces, caller provided "
                f"{len(traces)}")
        traces = [list(trace) for trace in traces]
        for tile, (trace, digest) in enumerate(zip(traces, digests)):
            got = _trace_digest(trace)
            if got != digest:
                raise SnapshotError(
                    f"trace digest mismatch for core {tile}: image "
                    f"expects {digest}, re-derived trace hashes to "
                    f"{got} — traces were not re-derived from the same "
                    f"(benchmark, seed)")
        system = snapshot.loads(blob)
        if not isinstance(system, CmpSystem):
            raise SnapshotError(
                f"image does not contain a CmpSystem (got "
                f"{type(system).__name__})")
        for core, trace in zip(system.cores, traces):
            core.trace = trace
        return system

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Break the machine's reference cycles, so that dropping the
        last reference to it frees it by reference counting alone.

        A built machine is one cyclic graph: the kernel's event queue,
        tickers and registry hold callbacks into the components that
        hold the kernel, the context's handler rows hold the controllers
        that hold the context, and the network's receivers hold the
        context. :meth:`Simulator.close` empties the kernel's side and
        this drops the other two containers. What was measured stays
        readable (``stats``, the cores' counts, the caches' contents),
        but the machine no longer runs: :meth:`resume`,
        :meth:`run_until_warmup` and :meth:`checkpoint` raise
        :class:`SimulationError`. Idempotent.
        """
        self._closed = True
        self.sim.close()
        self.ctx._handlers.clear()
        self.network._receivers.clear()

    def _refuse_if_closed(self, method: str) -> None:
        if self._closed:
            raise SimulationError(
                f"{method}() on a machine released by close()")

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------
    def quiesce(self, max_rounds: int = 200, step: int = 10_000,
                tolerate_events: int = 0) -> bool:
        """Drain in-flight background traffic (evictions, migrations,
        late responses) by running up to ``max_rounds`` windows of
        ``step`` cycles. Returns True once the network is empty and at
        most ``tolerate_events`` events remain queued (a caller with a
        live epoch hook passes 1 — the hook always keeps one event)."""
        for _ in range(max_rounds):
            if self.network.in_flight == 0 \
                    and self.sim.pending_events() <= tolerate_events:
                return True
            self.sim.run(until=self.sim.cycle + step)
        return (self.network.in_flight == 0
                and self.sim.pending_events() <= tolerate_events)

    # ------------------------------------------------------------------
    # invariant checks (used by tests)
    # ------------------------------------------------------------------
    def check_token_conservation(self) -> None:
        """At quiescence, each line's tokens across all L2s + memory must
        equal the cluster count (token-protocol organizations only).

        Drains in-flight background traffic before counting — tokens in
        flight are not leaked tokens.
        """
        if not self.config.organization.uses_vms:
            return
        self.quiesce()
        if self.network.in_flight:
            raise SimulationError(
                f"network never quiesced: {self.network.in_flight} packets "
                f"still in flight")
        total = self.ctx.cluster_map.num_clusters
        held: Dict[int, int] = {}
        owners: Dict[int, int] = {}
        for l2 in self.l2s:
            for line in l2.array.lines():
                held[line.line_addr] = held.get(line.line_addr, 0) + line.tokens
                if line.owner_token:
                    owners[line.line_addr] = owners.get(line.line_addr, 0) + 1
        for line_addr, cached in held.items():
            mc = self.mcs[self.ctx.mc_tiles.index(
                self.ctx.mc_tile(line_addr))]
            mem_tokens, mem_owner = mc.token_state(line_addr)
            if cached + mem_tokens != total:
                raise SimulationError(
                    f"token leak on line {line_addr:#x}: "
                    f"{cached}+{mem_tokens} != {total}")
            owner_count = owners.get(line_addr, 0) + (1 if mem_owner else 0)
            if owner_count != 1:
                raise SimulationError(
                    f"line {line_addr:#x} has {owner_count} owners")
