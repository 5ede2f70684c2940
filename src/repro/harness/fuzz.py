"""Differential protocol stress subsystem (seeded fuzzing).

One fuzz seed deterministically produces one adversarial multi-core
trace set (:mod:`repro.traces.adversarial`), which is replayed through
*each* L2 organization under three independent detectors:

* the **value-level oracle** (:mod:`repro.coherence.shadow`): every
  committed load must observe the architecturally latest store, via
  shadow values piggybacked on cache lines and data messages;
* **mid-run invariant hooks**: :func:`repro.harness.checks.check_epoch`
  fires at configurable epoch boundaries on a kernel epoch hook, so
  SWMR/inclusion/sharer-list breaks are caught the moment they happen,
  not only at quiescence;
* **post-run checks**: the full quiesced checker battery
  (:func:`check_all`) including token conservation, directory state and
  the value end-state.

Every seed runs on one fixed machine, ``_FUZZ_MACHINE``: a 4x4 SMART
mesh of 2x2 clusters with 1 KB L1s and 4 KB L2 slices. A
:class:`FuzzConfig` picks only the seed, the organizations and the
detectors.

On top, the runs are **differential**: the same trace must execute the
same architectural history on every organization (instruction counts,
memory references, per-line store counts), so an organization that
drops or duplicates work is flagged even if its own run looks
internally consistent.

Failures carry everything needed to reproduce; :func:`shrink_traces`
then delta-debugs the trace set down to a minimal reproducer, and
:func:`save_repro`/:func:`load_repro` round-trip it through a JSON
repro file for bug reports and regression tests.

Fault injection for harness self-tests rides on ``FuzzConfig.inject``
(``"grant_window"`` re-introduces the PR 1 token grant-window race,
``"skip_inv"`` drops one sharer invalidation per write grant,
``"spec_commit"`` retires wrong-path loads architecturally) — the
flags are applied inside the run so they work across process pools.

``FuzzConfig.snapshot_every=N`` adds a fourth detector: the run is
checkpointed every N cycles (:class:`SnapshotRecorder`), replayed from
its **last** snapshot after finishing, and the replayed outcome —
phase, violations, instruction/memref/store/load histories, per-line
store counts, runtime — must be identical, or the seed fails with
phase ``"snapshot"``. This stresses checkpoint/restore under the full
adversarial protocol load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cmp import core as cmp_core
from repro.cmp.core import SpecConfig
from repro.cmp.system import CmpSystem
from repro.coherence import l2_cluster, l2_home
from repro.coherence.shadow import ShadowOracle
from repro.errors import ConfigError, ReproError
from repro.harness.checks import check_all, check_epoch
from repro.params import CacheConfig, Organization, SystemConfig
from repro.sim.snapshot import save_file
from repro.traces.adversarial import SPEC_SCENARIOS, generate_adversarial
from repro.traces.events import Op, TraceEvent

#: the organizations a seed is cross-checked over by default: every
#: distinct protocol family — directory-private, shared home,
#: directory-clustered (the only one exercising the directory recall
#: machinery with multi-L1 homes), and token/VMS+IVR.
DEFAULT_ORGS: Tuple[Organization, ...] = (
    Organization.PRIVATE,
    Organization.SHARED,
    Organization.LOCO_CC,
    Organization.LOCO_CC_VMS_IVR,
)

_INJECT_FLAGS = {
    None: [],
    "grant_window": [(l2_cluster, "INJECT_GRANT_WINDOW_BUG")],
    "skip_inv": [(l2_home, "INJECT_SKIP_SHARER_INV")],
    # commits speculative loads as if they were architectural — the
    # speculation differential must flag the committed-history drift
    "spec_commit": [(cmp_core, "INJECT_SPEC_COMMIT")],
}


#: The one fuzz machine: 16 tiles in 2x2 clusters on the default (SMART)
#: NoC, so every organization has several homes and clusters, and tiny
#: caches (1 KB L1, 4 KB L2 slices) so the adversarial traces force
#: eviction races.
_FUZZ_MACHINE = SystemConfig(
    mesh_width=4, mesh_height=4, cluster_width=2, cluster_height=2,
    l1=CacheConfig(size_bytes=1024, assoc=4, line_bytes=32,
                   access_latency=1),
    l2=CacheConfig(size_bytes=4096, assoc=8, line_bytes=32,
                   access_latency=4))


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz work unit on :data:`_FUZZ_MACHINE`: which seed,
    organizations and detectors."""

    seed: int = 0
    scenario: Optional[str] = None          # None: seed-selected
    organizations: Tuple[Organization, ...] = DEFAULT_ORGS
    epoch_period: int = 1000                # cycles between invariant hooks
    max_cycles: int = 3_000_000
    inject: Optional[str] = None            # test-only fault injection
    #: speculation mode: every organization runs the trace set twice —
    #: with the speculative front-end on and off — and the committed
    #: history (instructions, memory references, oracle-checked
    #: stores/loads, per-line store counts) must be bit-identical
    #: between the arms. Wrong-path traffic may perturb timing freely;
    #: anything architectural it changes is a bug.
    speculation: bool = False
    spec_rate: float = 0.05                 # mispredict rate per mem op
    #: checkpoint the machine every N cycles and, after the run,
    #: replay from the LAST snapshot — the replay must reproduce the
    #: identical outcome (phase, violations, differential histories) or
    #: the run fails with phase "snapshot". Exercises checkpoint/restore
    #: under full adversarial protocol stress.
    snapshot_every: Optional[int] = None

    def system_config(self, organization: Organization) -> SystemConfig:
        return replace(_FUZZ_MACHINE, organization=organization,
                       seed=self.seed + 1)

    @property
    def num_cores(self) -> int:
        return _FUZZ_MACHINE.num_tiles


@dataclass
class OrgOutcome:
    """What one organization did with one trace set."""

    organization: Organization
    ok: bool
    phase: str                   # "ok" | "invariant" | "oracle" |
    #                              "final" | "crash" | "timeout" | "drain"
    violations: List[str] = field(default_factory=list)
    instructions: int = 0
    mem_refs: int = 0
    stores: int = 0
    loads: int = 0
    store_counts: Dict[int, int] = field(default_factory=dict)
    runtime: int = 0

    def detail(self, limit: int = 6) -> str:
        head = self.violations[:limit]
        more = len(self.violations) - len(head)
        text = "; ".join(head)
        if more > 0:
            text += f" (+{more} more)"
        return f"[{self.phase}] {text}"


@dataclass
class FuzzReport:
    """Everything one seed produced across all organizations."""

    seed: int
    scenario: str
    outcomes: List[OrgOutcome] = field(default_factory=list)
    differential: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.differential and all(o.ok for o in self.outcomes)

    def failures(self) -> List[Tuple[Optional[Organization], str]]:
        """(organization, detail) per failure; organization is None for
        cross-organization differential divergences."""
        out: List[Tuple[Optional[Organization], str]] = [
            (o.organization, o.detail()) for o in self.outcomes if not o.ok]
        out.extend((None, d) for d in self.differential)
        return out


# ----------------------------------------------------------------------
# single-run engine
# ----------------------------------------------------------------------
def run_trace_set(cfg: FuzzConfig, organization: Organization,
                  traces: Sequence[Sequence[TraceEvent]],
                  speculative: bool = False) -> OrgOutcome:
    """Replay one trace set on one organization under full detection."""
    flags = _INJECT_FLAGS.get(cfg.inject)
    if flags is None:
        raise ConfigError(f"unknown injection {cfg.inject!r}; "
                          f"known: {sorted(k for k in _INJECT_FLAGS if k)}")
    saved = [(mod, name, getattr(mod, name)) for mod, name in flags]
    for mod, name in flags:
        setattr(mod, name, True)
    try:
        return _run_trace_set(cfg, organization, traces, speculative)
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


class SnapshotRecorder:
    """Checkpoints a fuzz system every ``period`` cycles (epoch hook).

    Only the newest image is kept, and it is held *outside* the
    snapshot graph (``__getstate__`` drops it) so images never nest.
    The recorder itself rides along in the image — a restored system
    carries its (cancelled-at-replay) hook, keeping event sequence
    numbering identical between the primary and the replayed run.
    """

    def __init__(self, system: CmpSystem, period: int) -> None:
        self.system = system
        self.period = period
        self.snapshots_taken = 0
        self.latest: Optional[Tuple[int, bytes]] = None  # (cycle, image)
        self.hook = system.sim.add_epoch_hook(period, self._snap)

    def _snap(self, cycle: int) -> None:
        self.snapshots_taken += 1
        self.latest = (cycle, self.system.checkpoint())

    def __getstate__(self):
        state = self.__dict__.copy()
        state["latest"] = None
        return state


def _on_epoch(system: CmpSystem, violations: List[str], cycle: int) -> None:
    found = check_epoch(system)
    if found:
        violations.extend(f"cycle {cycle}: {v}" for v in found)
        system.sim.stop()


def _build_fuzz_system(cfg: FuzzConfig, organization: Organization,
                       traces: Sequence[Sequence[TraceEvent]],
                       speculative: bool = False) -> CmpSystem:
    """A fuzz machine with detectors attached. Every handle the drive
    phase needs lives in ``system.fuzz_state`` so a *restored* system
    carries its own (restored) oracle, violation list and hooks."""
    spec = SpecConfig(issue=True, rate=cfg.spec_rate) if speculative else None
    system = CmpSystem(cfg.system_config(organization), traces,
                       speculation=spec)
    oracle = ShadowOracle()
    system.ctx.shadow = oracle

    epoch_violations: List[str] = []
    hook = system.sim.add_epoch_hook(
        cfg.epoch_period, partial(_on_epoch, system, epoch_violations))
    recorder = (SnapshotRecorder(system, cfg.snapshot_every)
                if cfg.snapshot_every else None)
    system.fuzz_state = {"oracle": oracle, "violations": epoch_violations,
                         "check_hook": hook, "recorder": recorder}
    return system


def _drive_fuzz_system(cfg: FuzzConfig, organization: Organization,
                       system: CmpSystem) -> OrgOutcome:
    """Run a (fresh or restored) fuzz machine to its verdict."""
    state = system.fuzz_state
    oracle: ShadowOracle = state["oracle"]
    epoch_violations: List[str] = state["violations"]
    hook = state["check_hook"]
    recorder: Optional[SnapshotRecorder] = state["recorder"]
    out = OrgOutcome(organization=organization, ok=False, phase="crash")
    system.start()
    fin = system.stats.counter("cores_finished")
    n_cores = len(system.cores)
    try:
        system.sim.run(until=cfg.max_cycles,
                       stop_when=lambda: fin.value >= n_cores)
        if recorder is not None:
            # Stop imaging at the end of the main run: the quiesce
            # window below must be *replayed* from a mid-run snapshot,
            # never observed by one — a snapshot taken inside the
            # window would restore into an already-drained machine and
            # trivially skip the rest of it.
            recorder.hook.cancel()
        finished = fin.value >= n_cores
        if not finished and not epoch_violations:
            out.phase = "timeout"
            out.violations = [
                f"{n_cores - fin.value}/{n_cores} cores unfinished at the "
                f"{cfg.max_cycles}-cycle limit (possible livelock)"]
            return out
        if not epoch_violations:
            # Drain in-flight background traffic before final checks
            # (tolerate the check hook's one standing event).
            system.quiesce(tolerate_events=1)
    except ReproError as exc:
        out.phase = "crash"
        out.violations = [f"{type(exc).__name__}: {exc}"]
        return out
    finally:
        hook.cancel()
        if recorder is not None:
            recorder.hook.cancel()
        _harvest(out, system, oracle)

    if epoch_violations:
        out.phase = "invariant"
        out.violations = epoch_violations
        return out
    if system.network.in_flight or system.sim.pending_events():
        out.phase = "drain"
        out.violations = [
            f"{system.network.in_flight} packets / "
            f"{system.sim.pending_events()} events never quiesced"]
        return out
    if oracle.violations:
        out.phase = "oracle"
        out.violations = [str(v) for v in oracle.violations]
        return out
    try:
        final = check_all(system, raise_on_violation=False)
    except ReproError as exc:
        out.phase = "crash"
        out.violations = [f"{type(exc).__name__}: {exc}"]
        return out
    if final:
        out.phase = "final"
        out.violations = final
        return out
    out.ok = True
    out.phase = "ok"
    return out


def _replay_outcome(cfg: FuzzConfig, organization: Organization,
                    image: bytes,
                    traces: Sequence[Sequence[TraceEvent]]) -> OrgOutcome:
    """Restore the last snapshot and finish the run from it.

    The restored recorder hook is cancelled (re-imaging the replay
    would only burn time; cancellation is behavior-neutral because a
    recorder fire mutates no simulation state and seq allocation order
    is unaffected by the skipped, lazily-discarded event)."""
    system = CmpSystem.restore(image, traces)
    recorder: Optional[SnapshotRecorder] = system.fuzz_state["recorder"]
    if recorder is not None:
        recorder.hook.cancel()
        system.fuzz_state["recorder"] = None
    return _drive_fuzz_system(cfg, organization, system)


#: the committed architectural history every run of one trace set must
#: share, whatever the organization or the speculative front-end
_HISTORY = ("instructions", "mem_refs", "stores", "loads")


def _outcome_diff(a: OrgOutcome, b: OrgOutcome, attrs: Sequence[str],
                  a_name: str, b_name: str) -> List[str]:
    """One line per field of ``attrs`` on which two outcomes differ,
    then one for their per-line store counts (up to four lines named)."""
    diffs = [f"{attr}: {a_name}={getattr(a, attr)!r} vs "
             f"{b_name}={getattr(b, attr)!r}"
             for attr in attrs if getattr(a, attr) != getattr(b, attr)]
    if a.store_counts != b.store_counts:
        lines = sorted(k for k in a.store_counts.keys() | b.store_counts
                       if a.store_counts.get(k) != b.store_counts.get(k))
        diffs.append(f"per-line store counts diverge on lines "
                     f"{[hex(k) for k in lines[:4]]}")
    return diffs


def _snapshot_divergence(primary: OrgOutcome,
                         replay: OrgOutcome) -> List[str]:
    """Field-by-field comparison of the straight run and its replay —
    any difference means checkpoint/restore lost or invented state."""
    diffs = _outcome_diff(primary, replay,
                          ("ok", "phase") + _HISTORY + ("runtime",),
                          "straight", "replayed")
    if primary.violations != replay.violations:
        diffs.append(f"violation lists diverge "
                     f"({len(primary.violations)} vs "
                     f"{len(replay.violations)} entries)")
    return diffs


def _run_trace_set(cfg: FuzzConfig, organization: Organization,
                   traces: Sequence[Sequence[TraceEvent]],
                   speculative: bool = False) -> OrgOutcome:
    system = _build_fuzz_system(cfg, organization, traces, speculative)
    recorder: Optional[SnapshotRecorder] = system.fuzz_state["recorder"]
    out = _drive_fuzz_system(cfg, organization, system)
    if recorder is None or recorder.latest is None:
        return out
    if not out.ok:
        # A failing straight run is the report that matters; replaying
        # it would re-detect the same failure at best and (when the
        # failure stopped the run between a snapshot and its epoch)
        # bury the real phase under a spurious "snapshot" one.
        return out
    cycle, image = recorder.latest
    try:
        replay = _replay_outcome(cfg, organization, image, traces)
    except ReproError as exc:
        out.ok = False
        out.phase = "snapshot"
        out.violations = [f"replay from cycle-{cycle} snapshot failed: "
                          f"{type(exc).__name__}: {exc}"]
        return out
    diffs = _snapshot_divergence(out, replay)
    if diffs:
        out.ok = False
        out.violations = [f"replay from cycle-{cycle} snapshot diverged "
                          f"(straight phase {out.phase!r}): {d}"
                          for d in diffs]
        out.phase = "snapshot"
    return out


def _harvest(out: OrgOutcome, system: CmpSystem,
             oracle: ShadowOracle) -> None:
    out.instructions = sum(c.instructions for c in system.cores)
    out.mem_refs = system.stats.value("mem_refs")
    out.stores = oracle.stores_committed
    out.loads = oracle.loads_checked
    out.store_counts = dict(oracle.store_counts)
    out.runtime = system.sim.cycle


# ----------------------------------------------------------------------
# one seed, all organizations, cross-checked
# ----------------------------------------------------------------------
def run_seed(cfg: FuzzConfig) -> FuzzReport:
    """Fuzz one seed: generate its traces, run every organization, then
    cross-check the architectural histories differentially.

    In speculation mode the seed rotates through the SPEC_LOAD-bearing
    scenario pool, every organization runs with the speculative
    front-end enabled, and each gets a second, speculation-off run of
    the identical traces — :func:`_spec_check` pins the committed
    histories of the two arms to be bit-identical."""
    scenario_arg = cfg.scenario
    if cfg.speculation and scenario_arg is None:
        scenario_arg = SPEC_SCENARIOS[cfg.seed % len(SPEC_SCENARIOS)]
    scenario, traces = generate_adversarial(cfg.seed, cfg.num_cores,
                                            scenario_arg)
    report = FuzzReport(seed=cfg.seed, scenario=scenario)
    for org in cfg.organizations:
        report.outcomes.append(
            run_trace_set(cfg, org, traces, speculative=cfg.speculation))
    report.differential = _cross_check(report.outcomes)
    if cfg.speculation:
        for on in report.outcomes:
            off = run_trace_set(cfg, on.organization, traces,
                                speculative=False)
            report.differential.extend(_spec_check(on, off))
    return report


def _spec_check(on: OrgOutcome, off: OrgOutcome) -> List[str]:
    """Committed history must not depend on whether speculation ran."""
    if not off.ok:
        return [f"speculation-off baseline failed on "
                f"{off.organization.value}: {off.detail()}"]
    if not on.ok:
        # the on-arm failure is already reported via its outcome
        return []
    return [f"speculation changed committed history on "
            f"{on.organization.value}: {d}"
            for d in _outcome_diff(on, off, _HISTORY, "on", "off")]


def _cross_check(outcomes: Sequence[OrgOutcome]) -> List[str]:
    """The same trace must commit the same architectural history on
    every organization that completed cleanly."""
    clean = [o for o in outcomes if o.phase in ("ok", "oracle", "final")]
    return [f"histories diverge: {d}" for other in clean[1:]
            for d in _outcome_diff(clean[0], other, _HISTORY,
                                   clean[0].organization.value,
                                   other.organization.value)]


# ----------------------------------------------------------------------
# seed fan-out (parallel)
# ----------------------------------------------------------------------
def _seed_worker(base: FuzzConfig, seed: int) -> FuzzReport:
    return run_seed(replace(base, seed=seed))


def fuzz_seeds(seeds: Sequence[int], base: FuzzConfig = FuzzConfig(),
               jobs: Optional[int] = None) -> List[FuzzReport]:
    """Run many seeds, optionally over a process pool
    (:func:`repro.harness.parallel.pmap`), preserving seed order."""
    from repro.harness.parallel import pmap
    return pmap(partial(_seed_worker, base), list(seeds), jobs=jobs)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_traces(cfg: FuzzConfig, organization: Organization,
                  traces: Sequence[Sequence[TraceEvent]],
                  budget: int = 400) -> List[List[TraceEvent]]:
    """Delta-debug a failing trace set down to a minimal reproducer.

    Greedy two-level ddmin: first whole cores are emptied, then each
    remaining core's trace loses halving-sized chunks, as long as the
    failure (any non-ok outcome on ``organization``) still reproduces.
    ``budget`` bounds the number of re-executions."""
    runs = 0

    def fails(candidate: List[List[TraceEvent]]) -> bool:
        nonlocal runs
        runs += 1
        return not run_trace_set(cfg, organization, candidate).ok

    current = [list(t) for t in traces]
    if not fails(current):
        raise ConfigError("shrink_traces called on a passing trace set")

    # pass 1: empty out whole cores (largest first)
    for core in sorted(range(len(current)),
                       key=lambda c: -len(current[c])):
        if runs >= budget or not current[core]:
            continue
        candidate = [([] if c == core else list(t))
                     for c, t in enumerate(current)]
        if fails(candidate):
            current = candidate

    # pass 2: per-core chunk removal, halving chunk sizes down to 1
    improved = True
    while improved and runs < budget:
        improved = False
        for core in range(len(current)):
            trace = current[core]
            chunk = max(1, len(trace) // 2)
            while chunk >= 1 and runs < budget:
                start = 0
                while start < len(current[core]) and runs < budget:
                    trace = current[core]
                    candidate = [list(t) for t in current]
                    candidate[core] = trace[:start] + trace[start + chunk:]
                    if fails(candidate):
                        current = candidate
                        improved = True
                    else:
                        start += chunk
                if chunk == 1:
                    break
                chunk //= 2
    return current


# ----------------------------------------------------------------------
# repro files
# ----------------------------------------------------------------------
def save_repro(path: str, cfg: FuzzConfig, organization: Organization,
               scenario: str, traces: Sequence[Sequence[TraceEvent]],
               detail: str = "") -> None:
    """Write a self-contained JSON reproducer for one failure."""
    blob = {
        "seed": cfg.seed,
        "scenario": scenario,
        "organization": organization.value,
        "epoch_period": cfg.epoch_period,
        "max_cycles": cfg.max_cycles,
        "inject": cfg.inject,
        "speculation": cfg.speculation,
        "spec_rate": cfg.spec_rate,
        "detail": detail,
        "traces": [[[ev.op.name, ev.line_addr, ev.gap] for ev in trace]
                   for trace in traces],
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_file(path, json.dumps(blob, indent=1).encode())


def load_repro(path: str) -> Tuple[FuzzConfig, Organization,
                                   List[List[TraceEvent]]]:
    """Read a repro file back into a runnable (config, org, traces)."""
    with open(path) as f:
        blob = json.load(f)
    organization = Organization(blob["organization"])
    cfg = FuzzConfig(
        seed=blob["seed"], scenario=blob["scenario"],
        organizations=(organization,),
        epoch_period=blob["epoch_period"],
        max_cycles=blob["max_cycles"], inject=blob.get("inject"),
        speculation=blob.get("speculation", False),
        spec_rate=blob.get("spec_rate", 0.05))
    traces = [[TraceEvent(Op[name], addr, gap)
               for name, addr, gap in trace]
              for trace in blob["traces"]]
    return cfg, organization, traces


def replay_repro(path: str) -> OrgOutcome:
    """Re-run a saved reproducer and return its outcome."""
    cfg, organization, traces = load_repro(path)
    return run_trace_set(cfg, organization, traces,
                         speculative=cfg.speculation)
