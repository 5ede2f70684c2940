"""In-order core model: a trace player over the L1 (paper Table 1:
2-way in-order SPARC; we model it as 1 instruction/cycle between memory
operations, blocking on every memory reference).

Two execution modes:

* **trace mode** — LOCK/UNLOCK behave as plain stores; BARRIER is free
  synchronization handled by the shared :class:`SyncState` (no cache
  traffic). This reproduces the paper's trace-driven methodology.
* **full-system mode** — LOCK spins on a real test-and-set through the
  cache hierarchy; BARRIER increments a shared line and spins reading
  it. This captures the busy-waiting dependency effects the paper's
  full-system runs show (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.coherence.l1 import L1Controller
from repro.errors import TraceError
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.traces.events import Op, TraceEvent

#: cycles a spinning core waits between lock/barrier probe rounds.
#: Real spinlocks back off similarly (test-and-test-and-set with
#: exponential pause); too-small values flood the NoC with GETX storms
#: from every waiter and convoy the simulation.
_SPIN_BACKOFF = 36

#: Fault injection for the fuzz mutation smoke (``--inject
#: spec_commit``): when True, SPEC_LOAD events retire as *committed*
#: loads — the exact bug the speculation differential exists to catch
#: (a speculative value reaching architectural state). Never set in
#: real runs; flipped and restored by ``repro.harness.fuzz``.
INJECT_SPEC_COMMIT = False

#: how many recent committed line addresses the wrong-path predictor
#: draws its targets from
_SPEC_HISTORY = 8


@dataclass(frozen=True, slots=True)
class SpecConfig:
    """Speculative front-end parameters for one run.

    ``issue=False`` keeps the recorder fields live (probe timing is
    still measured) but squashes every speculative load instantly and
    draws nothing from the RNG — the control arm of a leakage
    experiment. Squashed accesses may perturb cache/LRU/MSHR state and
    timing, **never** committed values or committed-order stats.
    """

    #: actually send SPEC_LOADs (and predictor wrong-path loads) to
    #: the cache hierarchy
    issue: bool = True
    #: max speculative loads in flight / per contiguous SPEC_LOAD run
    window: int = 8
    #: per-committed-memory-op probability of a mispredicted branch
    #: that sprays wrong-path loads (0.0 = trace-directed SPEC_LOADs
    #: only). Drawn from the core's own named RNG stream in program
    #: order, so the draw sequence is identical across organizations
    #: and backends.
    rate: float = 0.0
    #: committed LOADs in [probe_base, probe_end) are attacker probes:
    #: the second and later access to each such line is timed and
    #: bucketed into per-bit ``leak_probes_b{k}`` / ``leak_slow_b{k}``
    #: counters, with ``k = ((addr - probe_base) // probe_stride)
    #: % probe_mod``. ``probe_base=-1`` (default) disables recording.
    probe_base: int = -1
    probe_end: int = -1
    probe_stride: int = 1
    probe_mod: int = 1
    #: latency (cycles) at or above which a probe counts as slow —
    #: i.e. the line was evicted and had to be refetched
    probe_threshold: int = 200


class SyncState:
    """Chip-wide synchronization scratchboard shared by all cores.

    In full-system mode the *timing* comes from real cache accesses to
    the lock/barrier lines; this object only holds the logical state
    (who owns a lock, how many cores reached a barrier) that memory
    data would hold in a real machine.
    """

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self.lock_holders: Dict[int, int] = {}
        self.barrier_counts: Dict[int, int] = {}
        #: how many waiters have already observed a completed barrier —
        #: once every arriver has been released the entry is deleted,
        #: so lock/barrier-heavy traces keep these maps bounded by the
        #: number of *currently active* synchronization objects.
        self.barrier_released: Dict[int, int] = {}

    def try_lock(self, line_addr: int, core: int) -> bool:
        holder = self.lock_holders.get(line_addr)
        if holder is None:
            self.lock_holders[line_addr] = core
            return True
        return holder == core

    def unlock(self, line_addr: int, core: int) -> None:
        # Delete rather than tombstone with None: a released lock must
        # leave no residue (try_lock treats a missing entry exactly
        # like the old None entry, so re-acquisition is unchanged).
        if self.lock_holders.get(line_addr) == core:
            del self.lock_holders[line_addr]

    def arrive_barrier(self, barrier_id: int) -> int:
        self.barrier_counts[barrier_id] = \
            self.barrier_counts.get(barrier_id, 0) + 1
        return self.barrier_counts[barrier_id]

    def barrier_done(self, barrier_id: int, expected: int) -> bool:
        """One waiter's completion probe. A True return *consumes* one
        release slot: when every core that arrived has observed
        completion, the barrier's entries are deleted, so a later
        reuse of the same id starts from a clean count."""
        count = self.barrier_counts.get(barrier_id, 0)
        if count < expected:
            return False
        released = self.barrier_released.get(barrier_id, 0) + 1
        if released >= count:
            self.barrier_counts.pop(barrier_id, None)
            self.barrier_released.pop(barrier_id, None)
        else:
            self.barrier_released[barrier_id] = released
        return True


class WarmupTracker:
    """Calls ``stats.mark()`` once the chip has executed ``threshold``
    trace events — the boundary between warmup and the measured region.

    ``on_mark`` (when set) fires right after the mark is placed; the
    checkpoint layer points it at ``sim.stop`` to pause the machine at
    the warmup boundary so the warmed state can be imaged. It is always
    cleared again before a checkpoint is taken (transient wiring, never
    part of a snapshot).
    """

    def __init__(self, stats: Stats, threshold: int) -> None:
        self.stats = stats
        self.remaining = threshold
        self.on_mark: Optional[Callable[[], None]] = None

    def note_ref(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            if self.remaining == 0:
                self.stats.mark()
                if self.on_mark is not None:
                    self.on_mark()


class Core:
    """One tile's core, replaying a trace through its L1."""

    def __init__(self, sim: Simulator, tile: int, l1: L1Controller,
                 trace: Sequence[TraceEvent], sync: SyncState,
                 stats: Stats, full_system: bool = False,
                 barrier_population: Optional[int] = None,
                 warmup: Optional[WarmupTracker] = None,
                 spec: Optional[SpecConfig] = None,
                 spec_rng: Optional[np.random.Generator] = None,
                 spm=None) -> None:
        self.sim = sim
        self.tile = tile
        self.l1 = l1
        self.trace = list(trace)
        self.sync = sync
        self.stats = stats
        self.full_system = full_system
        #: cores participating in this core's barriers (defaults to all)
        self.barrier_population = (barrier_population
                                   if barrier_population is not None
                                   else sync.num_cores)
        self.warmup = warmup
        self._pc = 0
        self.instructions = 0
        self.finished = False
        self.finish_cycle: Optional[int] = None
        # Bound once: these fire for every trace event.
        self._c_instructions = stats.counter("instructions")
        self._c_mem_refs = stats.counter("mem_refs")
        # -- scratchpad unit (None on all-cache machines: SPM trace ops
        # then degrade to coherent accesses at the same addresses) ----
        self.spm = spm
        if spm is not None:
            self._c_spm_refs = stats.counter("spm_refs")
        # -- speculative front-end (None on ordinary runs: the only
        # hot-path residue is one int truthiness test per event) -----
        self.spec = spec
        self._spec_rng = spec_rng
        self._spec_run = 0          # SPEC_LOADs issued this episode
        self._spec_outstanding = 0  # in-flight predictor wrong-path loads
        self._spec_recent: list = []  # recent committed line addrs
        self._probe_seen: Dict[int, int] = {}
        if spec is not None:
            self._c_spec_issued = stats.counter("spec_issued")
            self._c_spec_squashed = stats.counter("spec_squashed")

    def __getstate__(self) -> dict:
        # The trace is large and re-derivable from the experiment seed:
        # images leave it out and ``CmpSystem.restore`` re-attaches the
        # caller's (digest-verified) copy.
        state = self.__dict__.copy()
        del state["trace"]
        return state

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first event; call once after system build."""
        self.sim.call_after(0, self._step)

    def _step(self) -> None:
        if self._pc >= len(self.trace):
            self._finish()
            return
        ev = self.trace[self._pc]
        self._pc += 1
        if ev.gap > 0:
            self.instructions += ev.gap
            self._c_instructions.value += ev.gap
            self.sim.call_after(ev.gap, partial(self._execute, ev))
        else:
            self._execute(ev)

    def _execute(self, ev: TraceEvent) -> None:
        op = ev.op
        if op is Op.SPEC_LOAD:
            # Intercepted *before* instruction accounting: a squashed
            # access never commits, so committed-order stats are
            # identical whether speculation is on or off. Under the
            # injected bug an *issuing* front-end lets the load fall
            # through and retire — speculation-off runs still squash,
            # which is exactly the divergence the differential catches.
            if not (INJECT_SPEC_COMMIT and self.spec is not None
                    and self.spec.issue):
                self._do_spec(ev)
                return
        if self._spec_run:
            self._spec_run = 0  # committed op ends the episode
        self.instructions += 1
        self._c_instructions.value += 1
        if self.warmup is not None:
            self.warmup.note_ref()
        if op is Op.BARRIER:
            self._do_barrier(ev)
        elif op.is_spm:
            self._do_spm(ev)
        elif op is Op.LOCK and self.full_system:
            self._do_lock(ev)
        elif op is Op.UNLOCK and self.full_system:
            self._do_unlock(ev)
        elif op.is_memory or op is Op.SPEC_LOAD:
            # SPEC_LOAD lands here only under INJECT_SPEC_COMMIT — it
            # then retires as a committed load (is_write is False), the
            # exact leak the speculation differential must catch.
            self._c_mem_refs.value += 1
            if self.spec is not None:
                self._spec_aware_access(ev)
            else:
                self.l1.access(ev.line_addr, op.is_write, self._step)
        else:
            raise TraceError(f"core {self.tile}: cannot execute {ev}")

    # -- scratchpad ops ---------------------------------------------------
    def _do_spm(self, ev: TraceEvent) -> None:
        """Execute one scratchpad op.

        With a scratchpad unit, the op is a non-coherent SPM access
        (local SRAM or crossbar-style remote over the NoC), counted
        under ``spm_refs``. Without one — the all-cache twin of the
        same geometry — the *same trace event* executes as a coherent
        access to the same address (SPM_STORE/SPM_REMOTE as stores,
        SPM_LOAD as a load), counted under ``mem_refs`` like any other
        reference. That graceful degradation is what makes the
        scratchpad-vs-cache crossover a paired comparison.
        """
        op = ev.op
        spm = self.spm
        if spm is None:
            self._c_mem_refs.value += 1
            self.l1.access(ev.line_addr, op is not Op.SPM_LOAD, self._step)
            return
        self._c_spm_refs.value += 1
        if op is Op.SPM_LOAD:
            spm.load(ev.line_addr, self._step)
        elif op is Op.SPM_STORE:
            spm.store(ev.line_addr, self._step)
        else:  # SPM_REMOTE: fire-and-forget push, core continues
            spm.push(ev.line_addr)
            self.sim.call_after(1, self._step)

    # -- speculative front-end --------------------------------------------
    def _do_spec(self, ev: TraceEvent) -> None:
        """Issue one trace-directed wrong-path load, or squash it
        instantly when speculation is off / the window is exhausted."""
        spec = self.spec
        if spec is None or not spec.issue or self._spec_run >= spec.window:
            # call_after(0, ...) rather than direct recursion: a long
            # run of squashed SPEC_LOADs must not grow the stack.
            self.sim.call_after(0, self._step)
            return
        self._spec_run += 1
        self._c_spec_issued.value += 1
        self.l1.access(ev.line_addr, False, self._spec_step,
                       speculative=True)

    def _spec_step(self) -> None:
        """A blocking trace-directed speculative load resolved: squash
        (discard the value) and replay from the committed point."""
        self._c_spec_squashed.value += 1
        self._step()

    def _spec_fill(self) -> None:
        """A fire-and-forget predictor wrong-path load resolved."""
        self._spec_outstanding -= 1
        self._c_spec_squashed.value += 1

    def _spec_aware_access(self, ev: TraceEvent) -> None:
        """Committed memory access with the speculative front-end live:
        maybe spray predictor wrong-path loads first, and time attacker
        probe re-accesses."""
        spec = self.spec
        addr = ev.line_addr
        if spec.rate > 0.0 and spec.issue:
            self._maybe_mispredict(addr)
        if not ev.op.is_write and spec.probe_base <= addr < spec.probe_end:
            self._probe_access(addr, spec)
            return
        self.l1.access(addr, ev.op.is_write, self._step)

    def _maybe_mispredict(self, committed_addr: int) -> None:
        """Deterministic seeded predictor: with probability ``rate``
        the branch before this access was mispredicted, and the core
        issued up to ``window`` loads down the wrong path before the
        squash. Draws come from this core's own stream in program
        order, so the sequence is identical across organizations."""
        spec = self.spec
        rng = self._spec_rng
        recent = self._spec_recent
        if rng.random() < spec.rate:
            burst = 1 + int(rng.integers(spec.window))
            budget = spec.window - self._spec_outstanding
            for _ in range(min(burst, budget)):
                base = (recent[int(rng.integers(len(recent)))]
                        if recent else committed_addr)
                addr = (base + 1 + int(rng.integers(63))) & 0x7FFFFFFF
                self._spec_outstanding += 1
                self._c_spec_issued.value += 1
                self.l1.access(addr, False, self._spec_fill,
                               speculative=True)
        recent.append(committed_addr)
        if len(recent) > _SPEC_HISTORY:
            del recent[0]

    def _probe_access(self, addr: int, spec: SpecConfig) -> None:
        """Committed attacker load inside the probe window. The first
        access to a line primes it; every later one is a measurement
        whose hit/miss latency is the leakage channel."""
        seen = self._probe_seen.get(addr, 0)
        self._probe_seen[addr] = seen + 1
        if seen == 0:
            self.l1.access(addr, False, self._step)
            return
        bit = ((addr - spec.probe_base) // spec.probe_stride) % spec.probe_mod
        self.l1.access(addr, False,
                       partial(self._probe_measured, bit, self.sim.cycle))

    def _probe_measured(self, bit: int, start: int) -> None:
        self.stats.counter(f"leak_probes_b{bit}").inc()
        if self.sim.cycle - start >= self.spec.probe_threshold:
            self.stats.counter(f"leak_slow_b{bit}").inc()
        self._step()

    # -- synchronization --------------------------------------------------
    def _do_barrier(self, ev: TraceEvent) -> None:
        barrier_id = ev.line_addr
        if not self.full_system:
            # Trace mode: free synchronization, no cache traffic.
            self.sync.arrive_barrier(barrier_id)
            self._wait_barrier_free(barrier_id)
            return
        # Full-system mode: announce arrival with a store to the barrier
        # line, then spin reading it.
        barrier_line = self._barrier_line(barrier_id)
        self._c_mem_refs.inc()
        self.l1.access(barrier_line, True,
                       partial(self._barrier_announced, barrier_id,
                               barrier_line))

    def _barrier_announced(self, barrier_id: int, barrier_line: int) -> None:
        self.sync.arrive_barrier(barrier_id)
        self._spin_barrier(barrier_id, barrier_line)

    def _wait_barrier_free(self, barrier_id: int) -> None:
        if self.sync.barrier_done(barrier_id, self.barrier_population):
            self._step()
        else:
            self.sim.call_after(_SPIN_BACKOFF,
                                partial(self._wait_barrier_free, barrier_id))

    def _spin_barrier(self, barrier_id: int, barrier_line: int) -> None:
        if self.sync.barrier_done(barrier_id, self.barrier_population):
            self._step()
            return
        self._c_mem_refs.inc()
        self.l1.access(barrier_line, False,
                       partial(self._barrier_probed, barrier_id,
                               barrier_line))

    def _barrier_probed(self, barrier_id: int, barrier_line: int) -> None:
        self.stats.counter("spin_probes").inc()
        self.sim.call_after(_SPIN_BACKOFF,
                            partial(self._spin_barrier, barrier_id,
                                    barrier_line))

    def _barrier_line(self, barrier_id: int) -> int:
        # A dedicated, globally shared line per barrier id.
        return (0x7FFF000 + barrier_id) & 0x7FFFFFFF

    def _do_lock(self, ev: TraceEvent) -> None:
        """Test-and-test-and-set: spin on *reads* (L1 hits once cached)
        until the lock is observed free, then attempt the atomic RMW.
        A plain test-and-set spin floods the chip with exclusive
        requests from every waiter and convoys the whole system."""
        self._lock_attempt(ev.line_addr)

    def _lock_probe(self, line_addr: int) -> None:
        self._c_mem_refs.inc()
        self.l1.access(line_addr, False,
                       partial(self._lock_probed, line_addr))

    def _lock_probed(self, line_addr: int) -> None:
        holder = self.sync.lock_holders.get(line_addr)
        if holder is None or holder == self.tile:
            self._lock_attempt(line_addr)
        else:
            self._lock_spin(line_addr)

    def _lock_attempt(self, line_addr: int) -> None:
        self._c_mem_refs.inc()
        self.l1.access(line_addr, True,
                       partial(self._lock_attempted, line_addr))

    def _lock_attempted(self, line_addr: int) -> None:
        if self.sync.try_lock(line_addr, self.tile):
            self._step()
        else:
            self._lock_spin(line_addr)

    def _lock_spin(self, line_addr: int) -> None:
        self.stats.counter("lock_spins").inc()
        self.sim.call_after(_SPIN_BACKOFF,
                            partial(self._lock_probe, line_addr))

    def _do_unlock(self, ev: TraceEvent) -> None:
        self._c_mem_refs.inc()
        self.l1.access(ev.line_addr, True,
                       partial(self._unlocked, ev.line_addr))

    def _unlocked(self, line_addr: int) -> None:
        self.sync.unlock(line_addr, self.tile)
        self._step()

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            self.finish_cycle = self.sim.cycle
            self.stats.counter("cores_finished").inc()

    @property
    def progress(self) -> float:
        return self._pc / len(self.trace) if self.trace else 1.0
